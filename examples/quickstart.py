#!/usr/bin/env python3
"""Quickstart: simulate the paper's replacement technique end to end.

Runs the three multimedia benchmarks (JPEG decoder, MPEG-1 encoder, Hough
transform) as a repeating workload on a 4-RU reconfigurable device and
compares four replacement strategies:

* LRU            — classic cache-style baseline,
* Local LFD (1)  — the paper's policy, knowing only the next application,
* Local LFD (1) + Skip Events — with the hybrid design-time mobility phase,
* LFD            — the clairvoyant optimum (upper bound).

Everything goes through the declarative API: a :class:`repro.DeviceModel`
describes the hardware, each strategy is a :class:`repro.PolicySpec`, and
one :class:`repro.Session` runs them all — computing the design-time
artifacts (mobility tables, zero-latency ideal) once and sharing them.

Usage::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import (
    DeviceModel,
    PolicySpec,
    LFDPolicy,
    Session,
    Workload,
    benchmark_suite,
    local_lfd_spec,
    lru_spec,
    ms,
)
from repro.util.tables import TextTable
from repro.workloads.sequence import random_sequence

DEVICE = DeviceModel.homogeneous(5, ms(4))
                          # 4..10 RUs in the paper's sweep; 5 shows skips
                          # improving both reuse AND overhead (at 4 RUs the
                          # literal skip rule trades overhead for reuse —
                          # see EXPERIMENTS.md and the ablation A3)
SEQUENCE_LENGTH = 100
SEED = 42


def main() -> None:
    catalog = benchmark_suite()
    workload = Workload(
        apps=tuple(random_sequence(catalog, SEQUENCE_LENGTH, seed=SEED)),
        n_rus=DEVICE.n_rus,
        reconfig_latency=DEVICE.reconfig_latency,
        name="quickstart",
        seed=SEED,
    )
    print(f"Workload: {SEQUENCE_LENGTH} applications drawn from "
          f"{[g.name for g in catalog]} on {DEVICE.label}\n")

    session = Session(DEVICE, workload)

    # --- design-time phase (cached once per device size) ---------------
    print("Design-time mobility tables:")
    for name, table in session.mobility_tables().items():
        print(f"  {name}: {table}")
    print()

    # --- run-time phase -------------------------------------------------
    specs = [
        lru_spec(),
        local_lfd_spec(1),
        local_lfd_spec(1, skip_events=True).with_label(
            "Local LFD (1) + Skip Events"
        ),
        PolicySpec("LFD (clairvoyant bound)", LFDPolicy, oracle=True),
    ]

    table = TextTable(
        ["strategy", "reuse %", "overhead ms", "remaining ovh %", "reconfigs", "skips"],
        title="Replacement-policy comparison",
    )
    for spec in specs:
        result = session.run(spec)
        table.add_row(
            [
                spec.label,
                f"{result.reuse_pct:.1f}",
                f"{result.overhead_us / 1000:.0f}",
                f"{result.remaining_overhead_pct():.1f}",
                result.trace.n_reconfigurations,
                result.trace.n_skips,
            ]
        )
    print(table.render())
    print(
        "\nReading: Local LFD needs only the next enqueued application to "
        "approach the clairvoyant LFD bound, and the skip-event feature "
        "pushes task reuse beyond it (the paper's Fig. 9b effect)."
    )


if __name__ == "__main__":
    main()

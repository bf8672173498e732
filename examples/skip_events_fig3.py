#!/usr/bin/env python3
"""The paper's Fig. 3 + Fig. 7 walk-through: mobility and skip events.

Shows the hybrid design-time/run-time mechanism on the paper's own
example:

1. design time — compute task mobilities for Task Graph 2 (Fig. 7):
   tentative delays of tasks 5/6/7 and the resulting makespans
   (36/32/30/32 ms against the 30 ms reference), giving mobilities
   (t5, t6, t7) = (0, 0, 1);
2. run time — execute TG1, TG2, TG1 with Local LFD (1): the pure ASAP
   schedule reuses nothing (74 ms), while the skip-event schedule delays
   task 7 by one event, keeps task 1 alive, and reuses it (70 ms).

Usage::

    python examples/skip_events_fig3.py
"""

from __future__ import annotations

from repro import (
    LocalLFDPolicy,
    ManagerSemantics,
    MobilityCalculator,
    PolicyAdvisor,
    render_gantt,
    run_simulation,
)
from repro.experiments.motivational import (
    PAPER_EXAMPLE_DEVICE,
    fig3_sequence,
    fig3_task_graph_2,
    run_fig7,
)


def main() -> None:
    # ------------------------------------------------------------------
    # Design-time phase (Fig. 7)
    # ------------------------------------------------------------------
    print("DESIGN TIME — mobility calculation for Task Graph 2 (Fig. 7)")
    print(fig3_task_graph_2().describe())
    fig7 = run_fig7()
    print(f"\n  reference schedule:        {fig7.reference_makespan_ms:g} ms")
    print(f"  task 5 delayed 1 event:    {fig7.delay5_makespan_ms:g} ms  -> mobility 0")
    print(f"  task 6 delayed 1 event:    {fig7.delay6_makespan_ms:g} ms  -> mobility 0")
    print(f"  task 7 delayed 1 event:    {fig7.delay7_once_makespan_ms:g} ms  (free!)")
    print(f"  task 7 delayed 2 events:   {fig7.delay7_twice_makespan_ms:g} ms  -> mobility 1")
    print(f"  mobilities: {dict(fig7.mobilities)}\n")

    # ------------------------------------------------------------------
    # Run-time phase (Fig. 3)
    # ------------------------------------------------------------------
    apps = fig3_sequence()
    semantics = ManagerSemantics(lookahead_apps=1)
    print("RUN TIME — sequence TG1, TG2, TG1 on 4 RUs (Fig. 3)")

    asap = run_simulation(
        apps, PolicyAdvisor(LocalLFDPolicy()), semantics, device=PAPER_EXAMPLE_DEVICE
    )
    print(
        f"\n(a) Local LFD, pure ASAP: reuse {asap.reuse_pct:.0f} %, "
        f"overhead {asap.overhead_us / 1000:g} ms, makespan {asap.makespan_us / 1000:g} ms"
    )
    print(render_gantt(asap.trace, cell_us=2000))

    mobility = MobilityCalculator(device=PAPER_EXAMPLE_DEVICE).compute_tables(apps)
    skip = run_simulation(
        apps,
        PolicyAdvisor(LocalLFDPolicy(), skip_events=True),
        semantics,
        mobility_tables=mobility,
        device=PAPER_EXAMPLE_DEVICE,
    )
    print(
        f"\n(b) Local LFD + Skip Events: reuse {skip.reuse_pct:.0f} %, "
        f"overhead {skip.overhead_us / 1000:g} ms, makespan {skip.makespan_us / 1000:g} ms"
    )
    print(render_gantt(skip.trace, cell_us=2000))
    for record in skip.trace.skips:
        print(
            f"\nskip event at t={record.time}us: delayed {record.config} "
            f"to spare {record.victim_config} "
            f"(skipped_events={record.skipped_events_after})"
        )
    saved = (asap.makespan_us - skip.makespan_us) / 1000
    print(f"\nSkip events saved {saved:g} ms of makespan and raised reuse "
          f"from {asap.reuse_pct:.0f}% to {skip.reuse_pct:.0f}% — the paper's Fig. 3 effect.")


if __name__ == "__main__":
    main()

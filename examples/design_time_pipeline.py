#!/usr/bin/env python3
"""Domain scenario: shipping mobility tables with an application bundle.

Demonstrates the hybrid design-time/run-time workflow a vendor would use:

1. at *design time*, analyse every application shipped in the firmware
   bundle for each supported device size, producing mobility tables;
2. serialize graphs + tables to JSON (the "bundle");
3. at *run time*, load the bundle and run the replacement module with
   zero on-line mobility computation;
4. compare against the purely-run-time alternative (recompute mobility on
   every decision) — the paper's ~10x argument, measured live.

Usage::

    python examples/design_time_pipeline.py
"""

from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path

from repro import (
    DeviceModel,
    LocalLFDPolicy,
    ManagerSemantics,
    MobilityCalculator,
    PolicyAdvisor,
    benchmark_suite,
    ms,
    run_simulation,
)
from repro.experiments.hybrid_speedup import run_hybrid_speedup
from repro.graphs.serialization import graph_from_dict, graph_to_dict
from repro.workloads.sequence import random_sequence

DEVICE_SIZES = (4, 6)
LATENCY = ms(4)


def build_bundle(path: Path) -> None:
    """Design time: analyse the suite and write the firmware bundle."""
    catalog = benchmark_suite()
    bundle = {"graphs": [graph_to_dict(g) for g in catalog], "mobility": {}}
    for n_rus in DEVICE_SIZES:
        t0 = time.perf_counter()
        calc = MobilityCalculator(device=DeviceModel.homogeneous(n_rus, LATENCY))
        tables = calc.compute_tables(catalog)
        elapsed_ms = (time.perf_counter() - t0) * 1e3
        bundle["mobility"][str(n_rus)] = {
            name: {str(k): v for k, v in table.items()}
            for name, table in tables.items()
        }
        print(f"  analysed {len(catalog)} apps for {n_rus} RUs "
              f"in {elapsed_ms:.1f} ms -> {tables}")
    path.write_text(json.dumps(bundle, indent=2))
    print(f"  bundle written: {path} ({path.stat().st_size} bytes)")


def run_from_bundle(path: Path) -> None:
    """Run time: load the bundle and execute a request stream."""
    bundle = json.loads(path.read_text())
    graphs = [graph_from_dict(d) for d in bundle["graphs"]]
    apps = random_sequence(graphs, 80, seed=11)
    for n_rus in DEVICE_SIZES:
        mobility = {
            name: {int(k): v for k, v in table.items()}
            for name, table in bundle["mobility"][str(n_rus)].items()
        }
        result = run_simulation(
            apps,
            PolicyAdvisor(LocalLFDPolicy(), skip_events=True),
            ManagerSemantics(lookahead_apps=2),
            mobility_tables=mobility,
            device=DeviceModel.homogeneous(n_rus, LATENCY),
        )
        print(
            f"  {n_rus} RUs: reuse {result.reuse_pct:.1f} %, "
            f"overhead {result.overhead_us / 1000:.0f} ms, "
            f"{result.trace.n_skips} skip events"
        )


def main() -> None:
    print("DESIGN TIME — building the firmware bundle")
    with tempfile.TemporaryDirectory() as tmp:
        bundle_path = Path(tmp) / "bundle.json"
        build_bundle(bundle_path)

        print("\nRUN TIME — executing a request stream from the bundle")
        run_from_bundle(bundle_path)

    print("\nWHY HYBRID — per-decision cost, precomputed vs recomputed:")
    result = run_hybrid_speedup()
    print(
        f"  hybrid: {result.hybrid_decision_us:.2f} us/decision, "
        f"purely run-time: {result.runtime_decision_us:.2f} us/decision "
        f"-> {result.speedup:.0f}x speed-up (paper claims ~10x)"
    )


if __name__ == "__main__":
    main()

"""Perf-regression gate: compare a fresh engine-throughput run to the
committed baseline and fail on >20 % slowdown.

Usage (what CI runs after ``bench_engine_throughput``)::

    python benchmarks/check_engine_regression.py \
        --baseline BENCH_engine.json \
        --fresh benchmarks/results/bench_engine_throughput.json \
        [--tolerance 0.20]

Both files are the JSON this repo's ``bench_engine_throughput`` writes.
Because the baseline was recorded on a different machine than the CI
runner, every comparison is scaled by the ratio of the two runs'
``calibration_ops_per_s`` (a fixed pure-Python loop measured at bench
time): a machine that is 2x slower overall is expected to be ~2x slower
on the engine too, and only a slowdown *beyond* the tolerance relative
to that expectation fails the gate.

Checked metrics:

* every ``events_per_s`` case — scaled throughput must not drop more
  than the tolerance;
* every ``*_s`` wall-clock case — scaled wall time must not grow more
  than the tolerance;
* ``oracle_scaling_ratio`` — an absolute floor (machine-independent):
  the oracle path must not turn quadratic again;
* the deterministic counts — every case's ``events`` and
  ``mobility_catalog_sims`` — must equal the baseline exactly: they do
  not depend on the machine, so a drift means the engine or the
  mobility search changed behaviour.
"""

from __future__ import annotations

import argparse
import json
import sys

#: Machine-independent floor for the oracle anti-quadratic check.
ORACLE_RATIO_FLOOR = 0.7

#: Scalar cases that are deterministic counts, compared exactly.
EXACT_COUNTS = ("mobility_catalog_sims",)

#: Cases whose baseline measurement is shorter than this are reported
#: but not gated: single-digit-millisecond samples jitter far beyond
#: any reasonable tolerance on shared CI runners, so gating them would
#: only produce spurious failures.
MIN_GATE_SECONDS = 0.05


def check(baseline: dict, fresh: dict, tolerance: float) -> list:
    failures = []
    base_cal = float(baseline["calibration_ops_per_s"])
    fresh_cal = float(fresh["calibration_ops_per_s"])
    scale = fresh_cal / base_cal  # >1: this machine is faster than baseline's

    base_cases = baseline["cases"]
    fresh_cases = fresh["cases"]
    for name, base_value in sorted(base_cases.items()):
        if name not in fresh_cases:
            failures.append(f"{name}: missing from fresh results")
            continue
        fresh_value = fresh_cases[name]
        if name in EXACT_COUNTS:
            if fresh_value != base_value:
                failures.append(
                    f"{name}: {fresh_value} != baseline {base_value} "
                    "(a deterministic count: the search changed)"
                )
            continue
        if isinstance(base_value, dict) and "events" in base_value:
            if fresh_value.get("events") != base_value["events"]:
                failures.append(
                    f"{name}: {fresh_value.get('events')} events != baseline "
                    f"{base_value['events']} (a deterministic count: the "
                    "engine changed)"
                )
        if name == "oracle_scaling_ratio":
            if fresh_value < ORACLE_RATIO_FLOOR:
                failures.append(
                    f"{name}: {fresh_value:.3f} < floor {ORACLE_RATIO_FLOOR} "
                    "(oracle path is scaling superlinearly again)"
                )
            continue
        if isinstance(base_value, dict) and "events_per_s" in base_value:
            if base_value.get("wall_s", 0.0) < MIN_GATE_SECONDS:
                continue  # too short to measure reliably; recorded only
            expected = base_value["events_per_s"] * scale
            measured = fresh_value["events_per_s"]
            if measured < expected * (1.0 - tolerance):
                failures.append(
                    f"{name}: {measured:.0f} events/s < "
                    f"{expected * (1.0 - tolerance):.0f} "
                    f"(baseline {base_value['events_per_s']:.0f} x machine "
                    f"scale {scale:.2f}, tolerance {tolerance:.0%})"
                )
        elif name.endswith("_s") and isinstance(base_value, (int, float)):
            if base_value < MIN_GATE_SECONDS:
                continue  # too short to measure reliably; recorded only
            expected = base_value / scale
            measured = float(fresh_value)
            if measured > expected * (1.0 + tolerance):
                failures.append(
                    f"{name}: {measured:.3f}s > {expected * (1.0 + tolerance):.3f}s "
                    f"(baseline {base_value:.3f}s / machine scale {scale:.2f}, "
                    f"tolerance {tolerance:.0%})"
                )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--fresh", required=True)
    parser.add_argument("--tolerance", type=float, default=0.20)
    args = parser.parse_args(argv)

    with open(args.baseline, encoding="utf-8") as fh:
        baseline = json.load(fh)
    with open(args.fresh, encoding="utf-8") as fh:
        fresh = json.load(fh)

    failures = check(baseline, fresh, args.tolerance)
    scale = fresh["calibration_ops_per_s"] / baseline["calibration_ops_per_s"]
    print(
        f"engine perf gate: machine scale {scale:.2f}x vs baseline, "
        f"tolerance {args.tolerance:.0%}"
    )
    if failures:
        print("FAIL:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"OK: {len(baseline['cases'])} cases within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())

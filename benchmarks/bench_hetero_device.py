"""E-HETERO — device scaling: 1 vs 2 vs 4 reconfiguration controllers.

The device-model refactor promises that the single reconfiguration
circuitry — a hard structural assumption of the seed engine — is now just
``n_controllers=1``.  This benchmark runs the ``paper-eval`` and
``huge-stream`` workloads on 1/2/4-controller variants of the paper
device and records makespans and wall time, in two latency regimes:

* the paper's 4 ms loads, where executions are long enough to hide every
  load — extra controllers buy (and must measure) **zero** contention;
* 16 ms loads, where the single circuitry genuinely serializes work and
  parallel controllers claw back makespan.

Assertions pin the physics: adding controllers never *increases* the
makespan, the 1-controller device model reproduces the legacy scalar
path exactly, and the 4 ms regime shows no contention.  Measurements
land in ``benchmarks/results/bench_hetero_device.json`` (uploaded as a
CI artifact next to the streaming/store benchmarks), giving the perf
trajectory its first device-scaling data points.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.core.policy_spec import local_lfd_spec
from repro.hw.model import DeviceModel
from repro.sim.simulator import run_simulation
from repro.workloads.scenarios import make_scenario

CONTROLLER_COUNTS = (1, 2, 4)

#: (scenario, length, trace mode) legs; huge-stream streams through the
#: aggregate sink so the benchmark measures the engine, not trace memory.
WORKLOADS = (
    ("paper-eval", 500, "full"),
    ("huge-stream", 5000, "aggregate"),
)

#: µs per load: the paper regime (loads hide) and a contention regime.
LATENCY_REGIMES = (4000, 16000)

RESULTS_PATH = Path(__file__).parent / "results" / "bench_hetero_device.json"


def _run(workload, device, trace_mode):
    spec = local_lfd_spec(1)
    t0 = time.perf_counter()
    # ideal_makespan_us=0: this bench compares makespans across devices,
    # not overhead metrics, so the zero-latency baseline sim is skipped.
    result = run_simulation(
        workload.apps,
        advisor=spec.make_advisor(),
        semantics=spec.make_semantics(),
        ideal_makespan_us=0,
        trace=trace_mode,
        device=device,
    )
    elapsed = time.perf_counter() - t0
    return result, round(elapsed, 3)


def test_controller_scaling_never_hurts_and_lands_in_json():
    rows = []
    for scenario, length, trace_mode in WORKLOADS:
        workload = make_scenario(scenario, length=length)
        for latency in LATENCY_REGIMES:
            makespans = {}
            for n_controllers in CONTROLLER_COUNTS:
                device = DeviceModel.homogeneous(
                    workload.n_rus, latency, n_controllers=n_controllers
                )
                result, wall_s = _run(workload, device, trace_mode)
                makespans[n_controllers] = result.makespan_us
                rows.append(
                    {
                        "scenario": workload.name,
                        "n_apps": workload.n_apps,
                        "latency_us": latency,
                        "controllers": n_controllers,
                        "makespan_us": result.makespan_us,
                        "reuse_pct": round(100 * result.reuse_rate, 2),
                        "reconfigurations": result.trace.n_reconfigurations,
                        "wall_s": wall_s,
                    }
                )
            # Regression pin: for this (deterministic) policy/workload
            # pair, a larger controller pool starts loads earlier and the
            # makespan is non-increasing.  Not a universal law — adaptive
            # skip-event policies can react to earlier loads with worse
            # eviction choices (see ablation A7) — but it must hold here.
            assert makespans[1] >= makespans[2] >= makespans[4], makespans

            if latency == 4000:
                # Paper regime: executions (>= 6 ms) hide every 4 ms load,
                # so controller contention is exactly zero.
                assert makespans[1] == makespans[4], makespans
            # The 1-controller model must be byte-identical to the legacy
            # scalar path (the homogeneous fast-path guarantee).
            scalar_spec = local_lfd_spec(1)
            scalar = run_simulation(
                workload.apps,
                advisor=scalar_spec.make_advisor(),
                semantics=scalar_spec.make_semantics(),
                ideal_makespan_us=0,
                trace="aggregate",
                device=DeviceModel.homogeneous(workload.n_rus, latency),
            )
            assert scalar.makespan_us == makespans[1]

    contention = [
        r for r in rows if r["latency_us"] == 16000 and r["scenario"].startswith("paper")
    ]
    payload = {
        "benchmark": "hetero_device_controllers",
        "policy": "Local LFD (1)",
        "controller_counts": list(CONTROLLER_COUNTS),
        "latency_regimes_us": list(LATENCY_REGIMES),
        "runs": rows,
        "contention_recovered_pct_at_16ms": round(
            100.0
            * (contention[0]["makespan_us"] - contention[-1]["makespan_us"])
            / contention[0]["makespan_us"],
            2,
        ),
    }
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

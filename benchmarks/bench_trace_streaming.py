"""E-STREAM — trace memory and throughput of the streaming event bus.

The acceptance claim of the event-bus refactor: ``trace="aggregate"``
runs a workload **10x the paper-eval app count** while retaining **O(1)
trace memory** — byte-for-byte the same sink footprint as a run 10x
shorter — where the classic ``trace="full"`` record lists grow linearly.

Three legs, all on the paper catalog:

* ``full`` @ 500 apps (the paper's §VI ceiling) — the linear baseline;
* ``aggregate`` @ 500 apps — same counters, constant memory;
* ``aggregate`` @ 5000 apps (the ``huge-stream`` scenario) — 10x scale,
  *identical* sink footprint to the 500-app aggregate leg.

Counter equality between full and aggregate is asserted cell-for-cell,
and the measurements land in
``benchmarks/results/bench_trace_streaming.json`` (uploaded as a CI
artifact) so future PRs can track the scaling trajectory.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.core.policy_spec import local_lfd_spec
from repro.sim.simulator import run_simulation
from repro.sim.tracing import trace_memory_bytes
from repro.workloads.scenarios import make_scenario
from repro.hw.model import DeviceModel

#: The paper's evaluation length — the "current ceiling" being multiplied.
BASE_APPS = 500

#: The streaming leg: >= 10x the ceiling (the acceptance criterion).
STREAM_APPS = 10 * BASE_APPS

RESULTS_PATH = Path(__file__).parent / "results" / "bench_trace_streaming.json"


def _measured_run(workload, trace_mode):
    spec = local_lfd_spec(1)
    t0 = time.perf_counter()
    # ideal_makespan_us=0 skips the zero-latency baseline sim: this bench
    # measures trace cost, not overhead metrics.
    result = run_simulation(
        workload.apps,
        advisor=spec.make_advisor(),
        semantics=spec.make_semantics(),
        ideal_makespan_us=0,
        trace=trace_mode,
        device=DeviceModel.homogeneous(workload.n_rus, workload.reconfig_latency),
    )
    elapsed = time.perf_counter() - t0
    return result, {
        "trace_mode": trace_mode,
        "n_apps": workload.n_apps,
        "executions": result.trace.n_executions,
        "trace_memory_bytes": trace_memory_bytes(result.trace),
        "wall_s": round(elapsed, 3),
        "apps_per_s": round(workload.n_apps / elapsed, 1),
    }


def test_aggregate_trace_is_o1_at_10x_scale():
    base = make_scenario("paper-eval", length=BASE_APPS)
    huge = make_scenario("huge-stream", length=STREAM_APPS)

    full_res, full_row = _measured_run(base, "full")
    agg_res, agg_row = _measured_run(base, "aggregate")
    stream_res, stream_row = _measured_run(huge, "aggregate")

    # Correctness: the aggregate sink reports the same numbers as the
    # record lists on the identical run.
    assert json.dumps(agg_res.trace.summary()) == json.dumps(full_res.trace.summary())

    # Scale: the streaming leg really is >= 10x the ceiling.
    assert stream_row["n_apps"] >= 10 * BASE_APPS
    assert stream_res.trace.n_executions > 10 * full_res.trace.n_executions * 0.9

    # O(1) memory: 10x the apps, identical sink footprint — and far below
    # the record lists of the 1x full-mode run.
    assert stream_row["trace_memory_bytes"] == agg_row["trace_memory_bytes"]
    assert stream_row["trace_memory_bytes"] * 20 < full_row["trace_memory_bytes"]

    payload = {
        "benchmark": "trace_streaming",
        "policy": "Local LFD (1)",
        "base_apps": BASE_APPS,
        "stream_apps": STREAM_APPS,
        "runs": [full_row, agg_row, stream_row],
        "full_over_aggregate_memory_x": round(
            full_row["trace_memory_bytes"] / agg_row["trace_memory_bytes"], 1
        ),
    }
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

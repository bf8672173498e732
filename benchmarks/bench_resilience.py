"""RESIL — what crash-safety costs and what it buys.

Three headline numbers for the checkpoint/resume subsystem, measured on
a reduced paper-evaluation workload:

* **checkpoint overhead** — wall-clock cost of running with periodic
  checkpoints (~5% of the run's events apart) vs. the same run bare;
* **checkpoint size** — bytes of one serialized checkpoint artifact
  (the versioned envelope incl. the base64 engine pickle);
* **recovery latency** — wall-clock from "crashed at ~60% of the run"
  to a completed, trace-identical result via resume, vs. re-running
  from scratch.

Correctness is asserted alongside the timing: the checkpointed, the
interrupted-and-resumed and the bare run all produce identical
summaries.  Measurements land in
``benchmarks/results/BENCH_resilience.json`` (uploaded by the CI
``chaos`` job) so future PRs can track the trajectory.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.artifacts.schema import decode_checkpoint
from repro.artifacts.store import ArtifactStore
from repro.core.policy_spec import named_policy_spec
from repro.resilience import run_checkpoint_key
from repro.sim.simulator import run_simulation
from repro.sim.tracing import TraceSink
from repro.workloads.scenarios import paper_evaluation_workload

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_resilience.json"

#: Reduced workload (paper: 500 applications) so CI stays interactive.
LENGTH = 80


class _CountSink(TraceSink):
    def __init__(self) -> None:
        self.n = 0

    def on_event(self, event) -> None:
        self.n += 1


class _Interrupt(RuntimeError):
    pass


class _BoomSink(TraceSink):
    armed = True

    def __init__(self, limit: int) -> None:
        self.limit = int(limit)
        self.n = 0

    def on_event(self, event) -> None:
        self.n += 1
        if type(self).armed and self.n >= self.limit:
            raise _Interrupt(f"injected crash at trace event {self.n}")


def _simulate(workload, **kwargs):
    return run_simulation(
        workload.apps,
        device=workload.device,
        advisor=named_policy_spec("lru").make_advisor(),
        trace="aggregate",
        **kwargs,
    )


def test_checkpoint_overhead_size_and_recovery(tmp_path):
    workload = paper_evaluation_workload(length=LENGTH)
    store = ArtifactStore(tmp_path / "ckpt")
    key = run_checkpoint_key("bench", "lru", workload.device)

    # --- leg 1: bare run (and the event count that scales the others) --
    counter = _CountSink()
    t0 = time.perf_counter()
    bare = _simulate(workload, extra_sinks=[counter])
    bare_s = time.perf_counter() - t0
    n_events = counter.n
    assert n_events > 100, "workload too small to measure anything"

    every = max(1, n_events // 20)  # ~20 checkpoints per run
    boom_at = int(n_events * 0.6)

    # --- leg 2: checkpointed run, identical result ---------------------
    t0 = time.perf_counter()
    checked = _simulate(
        workload,
        checkpoint_every=every,
        checkpoint_store=store,
        checkpoint_key=key,
        extra_sinks=[_CountSink()],
    )
    checked_s = time.perf_counter() - t0
    assert checked.summary() == bare.summary()
    assert not store.exists("checkpoint", key)

    # --- leg 3: crash at ~60%, measure the surviving checkpoint --------
    _BoomSink.armed = True
    with pytest.raises(_Interrupt):
        _simulate(
            workload,
            checkpoint_every=every,
            checkpoint_store=store,
            checkpoint_key=key,
            extra_sinks=[_BoomSink(boom_at)],
        )
    payload = store.load("checkpoint", key, decode_checkpoint)
    assert payload is not None
    checkpoint_bytes = len(json.dumps(payload))

    # --- leg 4: recovery — resume to completion, trace-identical -------
    _BoomSink.armed = False
    try:
        t0 = time.perf_counter()
        resumed = _simulate(
            workload,
            checkpoint_every=every,
            checkpoint_store=store,
            checkpoint_key=key,
            extra_sinks=[_BoomSink(boom_at)],
        )
        recovery_s = time.perf_counter() - t0
    finally:
        _BoomSink.armed = True
    assert resumed.summary() == bare.summary()
    assert not store.exists("checkpoint", key)

    results = {
        "workload": {"scenario": "paper-eval", "length": LENGTH},
        "n_trace_events": n_events,
        "checkpoint_every_events": every,
        "bare_run_s": round(bare_s, 4),
        "checkpointed_run_s": round(checked_s, 4),
        "checkpoint_overhead_pct": round(100.0 * (checked_s - bare_s) / bare_s, 2),
        "per_checkpoint_cost_ms": round(
            1000.0 * (checked_s - bare_s) / max(1, n_events // every), 4
        ),
        "checkpoint_bytes": checkpoint_bytes,
        "crash_at_event": boom_at,
        "recovery_latency_s": round(recovery_s, 4),
        "recovery_vs_rerun_speedup": round(bare_s / recovery_s, 2)
        if recovery_s > 0
        else None,
    }
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print("\nRESIL:", json.dumps(results, indent=2))

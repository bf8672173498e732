"""E-STORE — cold vs warm design-time phase through the artifact store.

The acceptance claim of the persistent-store subsystem: a cold
``Session.sweep`` pays the full design-time phase (compiled workload +
mobility tables) once, and a warm sweep over the *same store directory
but a fresh cache* — modelling a new process or CLI invocation — serves
those artifacts from the disk tier instead of recomputing them.
Zero-latency ideals are memory-only (recomputing one costs about as
much as loading it), so every process recomputes them.
Record-for-record identical results, measurably faster.

Two legs on skip-enabled specs (the mobility-hungry path):

* **cold** — empty store directory, every artifact computed + published;
* **warm** — fresh ``Session`` + fresh ``ArtifactCache`` over the same
  directory: compiled workload and mobility tables all disk hits, 0
  computations; ideals recomputed, 0 disk hits.

Measurements land in ``benchmarks/results/bench_artifact_store.json``
(uploaded as a CI artifact) so future PRs can track the trajectory.
"""

from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path

from repro.artifacts import ArtifactStore
from repro.core.policy_spec import lfd_spec, local_lfd_spec, lru_spec
from repro.session import ArtifactCache, Session
from repro.workloads.scenarios import make_scenario

RESULTS_PATH = Path(__file__).parent / "results" / "bench_artifact_store.json"

#: RU axis for the sweep (kept small: the point is cold-vs-warm, not scale).
RU_COUNTS = (4, 5, 6)


def _specs():
    return [
        lru_spec(),
        local_lfd_spec(1, skip_events=True),
        local_lfd_spec(2, skip_events=True),
        lfd_spec(),
    ]


def _timed_sweep(workload, store_root):
    """One sweep with a *fresh* cache over ``store_root`` (new-process model)."""
    session = Session(workload=workload, store=ArtifactStore(store_root))
    t0 = time.perf_counter()
    sweep = session.sweep(_specs(), ru_counts=RU_COUNTS, title="bench")
    elapsed = time.perf_counter() - t0
    return sweep, elapsed, session.cache


def test_warm_store_skips_design_time_phase():
    workload = make_scenario("paper-eval", length=60)

    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as root:
        cold_sweep, cold_s, cold_cache = _timed_sweep(workload, root)
        warm_sweep, warm_s, warm_cache = _timed_sweep(workload, root)

    # Correctness: the disk tier must not change a single cell.
    assert [r.__dict__ for r in cold_sweep.records] == [
        r.__dict__ for r in warm_sweep.records
    ]

    # Cold leg computed everything; the warm leg loads the compiled
    # workload and every mobility table from disk, and recomputes the
    # memory-only ideals exactly as often as the cold leg did.
    assert cold_cache.compiled_stats.computations == 1
    assert warm_cache.compiled_stats.computations == 0
    assert warm_cache.compiled_stats.disk_hits == 1
    assert cold_cache.mobility_stats.computations == len(RU_COUNTS)
    assert warm_cache.mobility_stats.computations == 0
    assert warm_cache.mobility_stats.disk_hits == len(RU_COUNTS)
    assert warm_cache.ideal_stats.disk_hits == 0
    assert (
        warm_cache.ideal_stats.computations
        == cold_cache.ideal_stats.computations
        > 0
    )

    # The warm run skips the stored design-time phase.  The computation-count
    # asserts above are the real acceptance check; the wall-clock
    # comparison is recorded in the JSON for trajectory tracking, with
    # only a loose bound asserted so a noisy CI runner cannot flake it.
    assert warm_s < cold_s * 1.5, (
        f"warm sweep ({warm_s:.2f}s) wildly slower than cold ({cold_s:.2f}s) "
        "despite serving all design-time artifacts from disk"
    )

    payload = {
        "benchmark": "artifact_store_cold_warm",
        "workload": workload.name,
        "ru_counts": list(RU_COUNTS),
        "cells": len(cold_sweep.records),
        "cold_s": round(cold_s, 3),
        "warm_s": round(warm_s, 3),
        "speedup": round(cold_s / warm_s, 2) if warm_s > 0 else None,
        "cold_cache": cold_cache.stats_summary(),
        "warm_cache": warm_cache.stats_summary(),
    }
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print("\n" + json.dumps(payload, indent=2))

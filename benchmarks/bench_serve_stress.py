"""SERVE-STRESS — the daemon under a thousand concurrent small jobs.

The acceptance claim of the ``repro serve`` subsystem: one daemon
process sustains ≥ 1000 concurrent small jobs from dozens of distinct
clients with **zero lost and zero duplicated results**, and — because
every job runs over the shared compile-once :class:`ArtifactCache` —
the steady-state cost per job is the simulation itself, not the
design-time phase (warm-cache hit rate ≈ 1 after the first job).

Shape of the stress: ``CLIENTS`` asyncio clients (each its own socket
and ``X-Repro-Client`` quota identity) burst-submit ``JOBS`` identical
small run jobs, then long-poll every job to completion.  Submissions
far outpace the worker pool, so the daemon's backlog genuinely holds
hundreds of queued jobs at once.  Per-job latency is taken from the
daemon's own submit/finish timestamps (one clock, no client skew).

Scaled by environment for CI:

* ``REPRO_STRESS_JOBS``    — total jobs (default 1000)
* ``REPRO_STRESS_CLIENTS`` — concurrent clients (default 50)
* ``REPRO_STRESS_WORKERS`` — daemon workers (default 4)

Measurements land in ``benchmarks/results/bench_serve_stress.json``
(uploaded as a CI artifact) so future PRs can track the trajectory.
"""

from __future__ import annotations

import asyncio
import json
import os
import statistics
import time
from pathlib import Path

from repro.client import AsyncReproClient
from repro.server import ServerThread

RESULTS_PATH = Path(__file__).parent / "results" / "bench_serve_stress.json"

JOBS = int(os.environ.get("REPRO_STRESS_JOBS", "1000"))
CLIENTS = int(os.environ.get("REPRO_STRESS_CLIENTS", "50"))
WORKERS = int(os.environ.get("REPRO_STRESS_WORKERS", "4"))

#: The small job every client submits: identical on purpose, so the
#: design-time artifacts are computed once and every later job measures
#: pure queue + simulation cost.
JOB_SPEC = {
    "kind": "run",
    "scenario": "quick",
    "scenario_kwargs": {"length": 10},
    "policy": "local-lfd",
}


async def _client_leg(host, port, index, n_jobs):
    """One client: burst-submit ``n_jobs``, then await each result."""
    outcomes = []
    async with AsyncReproClient(host, port, client_id=f"stress-{index}") as c:
        job_ids = [await c.submit(dict(JOB_SPEC)) for _ in range(n_jobs)]
        for job_id in job_ids:
            status = await c.wait(job_id, timeout=600)
            result = (
                await c.result(job_id) if status["state"] == "done" else None
            )
            outcomes.append((job_id, status, result))
    return outcomes


async def _stress(host, port):
    per_client = [JOBS // CLIENTS] * CLIENTS
    for i in range(JOBS % CLIENTS):
        per_client[i] += 1
    legs = await asyncio.gather(
        *(
            _client_leg(host, port, i, n)
            for i, n in enumerate(per_client)
            if n
        )
    )
    return [outcome for leg in legs for outcome in leg]


def _percentile(sorted_values, fraction):
    index = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[index]


def test_serve_sustains_concurrent_jobs_without_loss():
    with ServerThread(workers=WORKERS) as srv:
        wall_start = time.perf_counter()
        outcomes = asyncio.run(_stress(srv.host, srv.port))
        wall = time.perf_counter() - wall_start

        async def _health():
            async with AsyncReproClient(srv.host, srv.port) as c:
                return await c.healthz()

        health = asyncio.run(_health())

    # --- zero lost, zero duplicated -----------------------------------
    job_ids = [job_id for job_id, _, _ in outcomes]
    duplicated = len(job_ids) - len(set(job_ids))
    assert len(job_ids) == JOBS, f"lost {JOBS - len(job_ids)} submissions"
    assert duplicated == 0, f"{duplicated} duplicated job ids"
    states = [status["state"] for _, status, _ in outcomes]
    assert states.count("done") == JOBS, f"non-done states: {set(states)}"
    assert all(result is not None for _, _, result in outcomes)

    # Identical jobs must produce identical results (no cross-job bleed).
    makespans = {r["summary"]["makespan_us"] for _, _, r in outcomes}
    assert len(makespans) == 1, f"divergent results: {makespans}"
    assert health["jobs"]["done"] == JOBS

    # --- latency + throughput from the daemon's own clock -------------
    latencies = sorted(
        status["finished"] - status["submitted"] for _, status, _ in outcomes
    )
    first_submit = min(status["submitted"] for _, status, _ in outcomes)
    last_finish = max(status["finished"] for _, status, _ in outcomes)
    span = max(last_finish - first_submit, 1e-9)
    jobs_per_s = JOBS / span

    # --- warm-cache hit rate ------------------------------------------
    ideal = health["cache"]["ideal"]
    hits = ideal["memory_hits"] + ideal["disk_hits"]
    warm_rate = hits / max(1, hits + ideal["misses"])
    # Identical jobs: one cold miss, everything after served from cache.
    assert warm_rate >= 0.9, f"warm hit rate {warm_rate:.3f}"

    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(
        json.dumps(
            {
                "bench": "serve_stress",
                "jobs": JOBS,
                "clients": CLIENTS,
                "workers": WORKERS,
                "lost": JOBS - len(job_ids),
                "duplicated": duplicated,
                "jobs_per_s": round(jobs_per_s, 2),
                "p50_latency_s": round(_percentile(latencies, 0.50), 4),
                "p99_latency_s": round(_percentile(latencies, 0.99), 4),
                "max_latency_s": round(latencies[-1], 4),
                "mean_latency_s": round(statistics.fmean(latencies), 4),
                "warm_hit_rate": round(warm_rate, 4),
                "wall_s": round(wall, 3),
            },
            indent=2,
        )
        + "\n"
    )

    # Sanity floor, not a race: even a laptop-class box clears this by
    # an order of magnitude once the cache is warm.
    assert jobs_per_s > 5, f"throughput collapsed: {jobs_per_s:.2f} jobs/s"

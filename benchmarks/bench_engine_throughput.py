"""Engine throughput — simulator events/second and sweep wall-clock.

Not a paper artifact, but the quantity that makes the 500-application
evaluation tractable; regressions here make every figure slower to
regenerate.  This bench is also the **perf-regression gate**: it writes
``benchmarks/results/bench_engine_throughput.json``, which CI compares
against the committed baseline ``BENCH_engine.json`` at the repo root
(``benchmarks/check_engine_regression.py``, >20 % slowdown fails).

Cases (PR-5 acceptance set):

* ``paper_eval_100_full`` — the classic 100-app full-trace run through
  :class:`Session` (the original bench case);
* ``huge_stream_1000_window`` / ``huge_stream_5000_window`` — the
  window-limited hot path at streaming scale, aggregate trace;
* ``oracle_1000`` / ``oracle_2000`` — the clairvoyant-LFD path that used
  to rescan the whole remaining sequence per decision (quadratic); the
  recorded ``oracle_scaling_ratio`` (events/s at 2000 apps over 1000)
  must stay near 1.0 now that the oracle view is a lazy slice;
* ``sweep64_cold_s`` / ``sweep64_warm_s`` — a 64-cell
  ``Session.sweep(parallel=4)``, run twice on one session: the second
  sweep is the full warm-session path — the session's record memo
  serves every already-finished cell (deterministic sim) over a
  kept-warm executor;
* ``sweep64_warm_exec_s`` — the warm *re-execution* path: records
  forgotten first (``Session.forget_records``), so every cell
  re-simulates on the warm executor, one cell per submission;
* ``sweep64_sim_s`` — the 64 cells back-to-back on one warm in-process
  :class:`~repro.backends.batch.CellBatchRunner`: pure simulation time,
  zero dispatch.  ``sweep64_setup_overhead_s`` is the per-sweep setup +
  dispatch overhead the warm re-execution path adds on top of perfectly
  parallelised pure sim (``warm_exec − sim/parallel``), also reported
  per cell as ``sweep64_setup_overhead_ms_per_cell``;
* ``mobility_tables_s`` — the design-time phase for the paper catalog;
* ``mobility_catalog_s`` — the design-time phase for a random 48-graph
  catalog (4–8 tasks) on RUs {4, 6, 8} x latencies {2, 4, 8, 16} ms: 576
  tables from one fresh calculator per repeat, its memo shared across
  the twelve devices as the session's artifact cache shares it.  The
  deterministic probe count is recorded as ``mobility_catalog_sims``.

A machine-speed calibration loop (``calibration_ops_per_s``) is recorded
alongside so the regression gate can compare runs from different
machines on a common scale.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.core.mobility import MobilityCalculator
from repro.core.policy_spec import lfd_spec, local_lfd_spec, lru_spec
from repro.graphs.multimedia import benchmark_suite
from repro.graphs.random_graphs import random_layered_graph
from repro.session import Session
from repro.sim.simulator import run_simulation
from repro.workloads.compiled import CompiledWorkload
from repro.workloads.scenarios import make_scenario, paper_evaluation_workload
from repro.hw.model import DeviceModel

RESULTS_PATH = Path(__file__).parent / "results" / "bench_engine_throughput.json"

#: What the pre-compiled-engine ``main`` measured on the baseline-recording
#: machine (commit eb0667d, same cases, same machine as the committed
#: BENCH_engine.json): the speedup factors in the results JSON are
#: computed against these, scaled by the calibration ratio so they stay
#: meaningful on other machines.
MAIN_BASELINE = {
    "calibration_ops_per_s": 9.26e6,
    "huge_stream_5000_window_events_per_s": 47338.0,
    "oracle_2000_events_per_s": 4503.0,
    "sweep64_s": 1.678,
}

#: Engine cases repeat this many times; the best run is recorded
#: (standard practice for throughput numbers on shared machines).
REPEATS = 3

#: 64 sweep cells: 8 specs x 8 RU counts.
SWEEP_SPECS = [
    lru_spec(),
    local_lfd_spec(1),
    local_lfd_spec(2),
    local_lfd_spec(3),
    local_lfd_spec(4),
    local_lfd_spec(1, skip_events=True),
    local_lfd_spec(2, skip_events=True),
    lfd_spec(),
]
SWEEP_RUS = (4, 5, 6, 7, 8, 9, 10, 11)
SWEEP_PARALLEL = 4
SWEEP_LENGTH = 120

#: Distinct graphs in the ``mobility_catalog_s`` design-time case.
MOBILITY_CATALOG_GRAPHS = 48


def calibrate(n: int = 200_000) -> float:
    """Machine-speed reference: ops/second of a fixed pure-Python loop."""
    t0 = time.perf_counter()
    acc = 0
    d = {}
    for i in range(n):
        d[i & 1023] = i
        acc += d[i & 1023]
    elapsed = time.perf_counter() - t0
    assert acc  # keep the loop observable
    return n / elapsed


def _engine_run(workload, spec, trace, compiled):
    best = None
    events = 0
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = run_simulation(
            workload.apps,
            advisor=spec.make_advisor(),
            semantics=spec.make_semantics(),
            ideal_makespan_us=0,  # this bench measures the engine, not metrics
            trace=trace,
            compiled=compiled,
            device=workload.device,
        )
        wall = time.perf_counter() - t0
        assert result.trace.n_executions == workload.n_tasks
        events = result.trace.n_executions + result.trace.n_reconfigurations
        best = wall if best is None or wall < best else best
    return {
        "wall_s": round(best, 4),
        "events": events,
        "events_per_s": round(events / best, 1),
    }


def test_engine_throughput_suite():
    cases = {}

    # Classic case: 100 apps, full trace, through the Session engine
    # (best of REPEATS like every engine case; the first run also pays
    # the design-time phase, later ones hit the session cache).
    workload = paper_evaluation_workload(length=100)
    session = Session(DeviceModel.homogeneous(4, workload.reconfig_latency), workload)
    best = None
    events = 0
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = session.run(local_lfd_spec(1))
        wall = time.perf_counter() - t0
        assert result.trace.n_executions == workload.n_tasks
        events = result.trace.n_executions + len(result.trace.reconfigs)
        best = wall if best is None or wall < best else best
    cases["paper_eval_100_full"] = {
        "wall_s": round(best, 4),
        "events": events,
        "events_per_s": round(events / best, 1),
    }

    # Streaming scale, window-limited policy (the compiled hot path).
    for length in (1000, 5000):
        w = make_scenario("huge-stream", length=length)
        compiled = CompiledWorkload.compile(w.apps)
        cases[f"huge_stream_{length}_window"] = _engine_run(
            w, local_lfd_spec(1), "aggregate", compiled
        )

    # Oracle (whole-remaining-sequence) policy: the formerly quadratic path.
    for length in (1000, 2000):
        w = make_scenario("huge-stream", length=length)
        compiled = CompiledWorkload.compile(w.apps)
        cases[f"oracle_{length}"] = _engine_run(w, lfd_spec(), "aggregate", compiled)
    ratio = (
        cases["oracle_2000"]["events_per_s"] / cases["oracle_1000"]["events_per_s"]
    )
    cases["oracle_scaling_ratio"] = round(ratio, 3)
    # Quadratic scaling would halve events/s when the length doubles
    # (the pre-compiled engine measured 0.53); the lazy oracle view must
    # keep throughput roughly flat.
    assert ratio > 0.7, f"oracle path scales superlinearly again (ratio {ratio:.2f})"

    # 64-cell parallel sweep, twice on one session: the second sweep is
    # the full warm-session path (record memo + kept-warm executor).
    sweep_workload = make_scenario("quick", length=SWEEP_LENGTH)
    with Session(workload=sweep_workload) as sweep_session:
        t0 = time.perf_counter()
        cold = sweep_session.sweep(
            SWEEP_SPECS, ru_counts=SWEEP_RUS, parallel=SWEEP_PARALLEL,
            trace="aggregate",
        )
        cases["sweep64_cold_s"] = round(time.perf_counter() - t0, 4)
        best_warm = None
        for _ in range(2):
            t0 = time.perf_counter()
            warm = sweep_session.sweep(
                SWEEP_SPECS, ru_counts=SWEEP_RUS, parallel=SWEEP_PARALLEL,
                trace="aggregate",
            )
            wall = time.perf_counter() - t0
            best_warm = wall if best_warm is None or wall < best_warm else best_warm
            assert cold.records == warm.records  # reuse changes nothing but time
        cases["sweep64_warm_s"] = round(best_warm, 4)
        assert len(cold.records) == len(SWEEP_SPECS) * len(SWEEP_RUS) == 64

        # Warm *re-execution*: forget the record memo so every cell
        # re-simulates on the warm executor.
        best_exec = None
        for _ in range(2):
            sweep_session.forget_records()
            t0 = time.perf_counter()
            re_exec = sweep_session.sweep(
                SWEEP_SPECS, ru_counts=SWEEP_RUS, parallel=SWEEP_PARALLEL,
                trace="aggregate",
            )
            wall = time.perf_counter() - t0
            best_exec = wall if best_exec is None or wall < best_exec else best_exec
            assert re_exec.records == cold.records
        cases["sweep64_warm_exec_s"] = round(best_exec, 4)

        # Pure simulation time: the same 64 cells back-to-back on one
        # warm in-process runner (no processes, no pickling), separating
        # per-cell setup/dispatch overhead from sim work.
        from repro.backends.batch import CellBatchRunner
        from repro.backends.plan import build_plan

        cells = sweep_session._sweep_cells(SWEEP_SPECS, SWEEP_RUS)
        artifacts = sweep_session._execute_plan(build_plan(cells))
        runner = CellBatchRunner(sweep_workload.apps, sweep_session.compiled())
        best_sim = None
        for _ in range(2):
            t0 = time.perf_counter()
            records = runner.run_chunk(cells, artifacts, "aggregate")
            wall = time.perf_counter() - t0
            best_sim = wall if best_sim is None or wall < best_sim else best_sim
        assert records == list(cold.records)
        cases["sweep64_sim_s"] = round(best_sim, 4)
        overhead = max(0.0, best_exec - best_sim / SWEEP_PARALLEL)
        cases["sweep64_setup_overhead_s"] = round(overhead, 4)
        cases["sweep64_setup_overhead_ms_per_cell"] = round(
            overhead * 1000.0 / len(cells), 3
        )

    # Design-time phase for the paper catalog (fresh calculator per
    # repeat so every run pays the real Fig. 6 search, best of REPEATS).
    best_mob = None
    for _ in range(REPEATS):
        calc = MobilityCalculator(device=DeviceModel.homogeneous(4, 4000))
        t0 = time.perf_counter()
        tables = calc.compute_tables(benchmark_suite())
        wall = time.perf_counter() - t0
        best_mob = wall if best_mob is None or wall < best_mob else best_mob
        assert set(tables) == {"JPEG", "MPEG1", "HOUGH"}
    cases["mobility_tables_s"] = round(best_mob, 4)

    # Design-time phase for a catalog-style workload: the case where it
    # dominates a cold sweep (many distinct graphs x many devices).
    catalog = [
        random_layered_graph(f"CAT{i}", 4 + i % 5, seed=7000 + i)
        for i in range(MOBILITY_CATALOG_GRAPHS)
    ]
    devices = [
        DeviceModel.homogeneous(n_rus, latency)
        for n_rus in (4, 6, 8)
        for latency in (2000, 4000, 8000, 16000)
    ]
    best_cat = None
    for _ in range(REPEATS):
        root = MobilityCalculator(device=devices[0])
        sims = 0
        t0 = time.perf_counter()
        for device in devices:
            calc = root.for_device(device)
            assert len(calc.compute_tables(catalog)) == MOBILITY_CATALOG_GRAPHS
            sims += calc.simulations
        wall = time.perf_counter() - t0
        best_cat = wall if best_cat is None or wall < best_cat else best_cat
    cases["mobility_catalog_s"] = round(best_cat, 4)
    cases["mobility_catalog_sims"] = sims

    calibration = max(calibrate() for _ in range(REPEATS))
    # Speedups vs the pre-compiled engine on main, machine-scaled through
    # the calibration ratio (see MAIN_BASELINE).
    scale = calibration / MAIN_BASELINE["calibration_ops_per_s"]
    speedups = {
        "huge_stream_5000_window_x": round(
            cases["huge_stream_5000_window"]["events_per_s"]
            / (MAIN_BASELINE["huge_stream_5000_window_events_per_s"] * scale),
            2,
        ),
        "oracle_2000_x": round(
            cases["oracle_2000"]["events_per_s"]
            / (MAIN_BASELINE["oracle_2000_events_per_s"] * scale),
            2,
        ),
        "sweep64_x": round(
            (MAIN_BASELINE["sweep64_s"] / scale) / cases["sweep64_cold_s"], 2
        ),
        "sweep64_warm_x": round(
            (MAIN_BASELINE["sweep64_s"] / scale) / cases["sweep64_warm_s"], 2
        ),
    }
    # The machine-scaled speedups are *recorded*, not asserted: the
    # calibration loop tracks overall machine speed, not necessarily the
    # engine-to-calibration ratio of a different Python build, so a hard
    # floor here could flake (or mask) without a real engine change.
    # Regression detection is the explicit-tolerance job of
    # check_engine_regression.py against the committed baseline; the one
    # machine-independent invariant (oracle throughput flat in sequence
    # length) is asserted above.

    payload = {
        "benchmark": "engine_throughput",
        "calibration_ops_per_s": round(calibration, 1),
        "vs_main_baseline": speedups,
        "cases": cases,
    }
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

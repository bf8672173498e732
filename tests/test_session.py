"""Tests for the declarative experiment API (DeviceModel/PolicySpec/Session).

Covers the PR-1 acceptance criteria: sweep results equal the seed-style
sequential ``run_simulation()`` loop cell-for-cell, ``parallel=2`` equals
``parallel=1``, and design-time artifact cache hits are observable.
"""

import os

import pytest

from repro.core.mobility import MobilityCalculator
from repro.core.policy_spec import (
    PolicySpec,
    fig9a_specs,
    fig9b_specs,
    lfd_spec,
    local_lfd_spec,
    lru_spec,
)
from repro.core.policies.classic import LRUPolicy
from repro.core.policies.extended import LRUKPolicy
from repro.exceptions import DeviceError, ExperimentError, WorkloadError
from repro.metrics.summary import PolicyRunRecord
from repro.session import (
    ArtifactCache,
    Session,
    SessionHooks,
    SweepCell,
    workload_content_key,
)
from repro.sim.simulator import ideal_makespan, run_simulation
from repro.workloads.scenarios import (
    make_scenario,
    paper_evaluation_workload,
    quick_workload,
    scenario_info,
)
from repro.hw.latency import FixedLatency
from repro.hw.model import PAPER_DEVICE_MODEL, DeviceModel

RU_SUBSET = (4, 6)


@pytest.fixture(scope="module")
def workload():
    return quick_workload(length=25)


@pytest.fixture(scope="module")
def session(workload):
    return Session(DeviceModel.homogeneous(4), workload)


class TestDevice:
    def test_validation(self):
        with pytest.raises(DeviceError):
            DeviceModel.homogeneous(0)
        with pytest.raises(DeviceError):
            DeviceModel.homogeneous(4, reconfig_latency=-1)

    def test_with_rus_and_sweep(self):
        assert DeviceModel.homogeneous(4).with_n_rus(8).n_rus == 8
        assert [d.n_rus for d in DeviceModel.homogeneous(4).sweep((4, 6))] == [4, 6]
        relatencied = DeviceModel.homogeneous(4).with_latency_model(FixedLatency(9))
        assert relatencied.reconfig_latency == 9

    def test_from_workload(self, workload):
        device = workload.device
        assert device.n_rus == workload.n_rus
        assert device.reconfig_latency == workload.reconfig_latency

    def test_paper_device(self):
        assert PAPER_DEVICE_MODEL.n_rus == 4
        assert PAPER_DEVICE_MODEL.reconfig_latency == 4000
        assert "paper" in PAPER_DEVICE_MODEL.label


class TestPolicySpec:
    def test_policy_kwargs(self):
        spec = PolicySpec("LRU-2", LRUKPolicy, policy_kwargs=(("k", 2),))
        policy = spec.make_policy()
        assert isinstance(policy, LRUKPolicy)

    def test_make_semantics(self):
        spec = local_lfd_spec(3)
        sem = spec.make_semantics()
        assert sem.lookahead_apps == 3 and not sem.provide_oracle
        assert lfd_spec().make_semantics().provide_oracle

    def test_with_label(self):
        assert lru_spec().with_label("renamed").label == "renamed"

    def test_specs_are_picklable(self):
        import pickle

        for spec in fig9a_specs() + fig9b_specs():
            assert pickle.loads(pickle.dumps(spec)) == spec


class TestSessionRun:
    def test_run_matches_seed_style_simulate(self, workload):
        """Session.run == the seed code's hand-wired simulate() call."""
        session = Session(DeviceModel.homogeneous(4), workload)
        spec = local_lfd_spec(1, skip_events=True)

        mobility = MobilityCalculator(
            device=DeviceModel.homogeneous(4, workload.reconfig_latency),
        ).compute_tables(workload.distinct_graphs())
        expected = run_simulation(
            list(workload.apps),
            advisor=spec.make_advisor(),
            semantics=spec.make_semantics(),
            mobility_tables=mobility,
            device=DeviceModel.homogeneous(4, workload.reconfig_latency),
        )
        got = session.run(spec)
        assert got.makespan_us == expected.makespan_us
        assert got.reuse_pct == expected.reuse_pct
        assert got.trace.n_skips == expected.trace.n_skips

    def test_scenario_name_workload(self):
        session = Session(DeviceModel.homogeneous(4), "quick", length=10)
        assert session.workload.n_apps == 10

    def test_scenario_kwargs_rejected_for_workload_object(self, workload):
        with pytest.raises(ExperimentError):
            Session(DeviceModel.homogeneous(4), workload, length=10)

    def test_requires_workload(self):
        with pytest.raises(ExperimentError):
            Session(DeviceModel.homogeneous(4))

    def test_device_defaults_from_workload(self, workload):
        assert Session(workload=workload).device.n_rus == workload.n_rus


class TestSweep:
    def test_sweep_equals_sequential_simulate_cell_for_cell(self, workload):
        """Acceptance: the engine reproduces the seed sweep loop exactly."""
        specs = fig9b_specs()
        sweep = Session(workload=workload).sweep(specs, ru_counts=RU_SUBSET)

        expected_records = []
        for n_rus in RU_SUBSET:
            ideal = ideal_makespan(
                list(workload.apps), device=DeviceModel.homogeneous(n_rus)
            )
            mobility = MobilityCalculator(
                device=DeviceModel.homogeneous(n_rus, workload.reconfig_latency),
            ).compute_tables(workload.distinct_graphs())
            for spec in specs:
                result = run_simulation(
                    list(workload.apps),
                    advisor=spec.make_advisor(),
                    semantics=spec.make_semantics(),
                    mobility_tables=mobility if spec.skip_events else None,
                    ideal_makespan_us=ideal,
                    device=DeviceModel.homogeneous(n_rus, workload.reconfig_latency),
                )
                expected_records.append(
                    PolicyRunRecord.from_result(spec.label, n_rus, result)
                )
        assert sweep.records == expected_records

    def test_parallel_equals_sequential(self, workload):
        specs = fig9a_specs()
        a = Session(workload=workload).sweep(specs, ru_counts=RU_SUBSET, parallel=1)
        b = Session(workload=workload).sweep(specs, ru_counts=RU_SUBSET, parallel=2)
        assert a.records == b.records

    def test_parallel_validation(self, workload):
        with pytest.raises(ExperimentError):
            Session(workload=workload).sweep(fig9a_specs(), parallel=0)

    def test_empty_specs_rejected(self, workload):
        with pytest.raises(ExperimentError):
            Session(workload=workload).sweep([])

    def test_default_ru_counts_is_device(self, workload):
        sweep = Session(DeviceModel.homogeneous(5), workload).sweep([lru_spec()])
        assert sweep.ru_counts == (5,)
        assert sweep.records[0].n_rus == 5


class TestArtifactCache:
    def test_mobility_computed_once_per_workload_and_rus(self, workload):
        """Acceptance: cache hits are observable, one miss per (wl, n_rus)."""
        session = Session(workload=workload)
        specs = [
            local_lfd_spec(1, skip_events=True),
            local_lfd_spec(2, skip_events=True),
            local_lfd_spec(4, skip_events=True),
        ]
        session.sweep(specs, ru_counts=RU_SUBSET)
        assert session.cache.mobility_stats.computations == len(RU_SUBSET)
        # Sharing across specs is structural now — the experiment plan has
        # one mobility node per distinct (n_rus, latency), so a sweep asks
        # the cache exactly once per node rather than once per cell.
        assert session.cache.mobility_stats.hits == 0
        # Forget the record memo so the second sweep re-executes and asks
        # the mobility cache once per plan node (a warm session would
        # otherwise serve the whole sweep from the memo).
        session.forget_records()
        session.sweep(specs, ru_counts=RU_SUBSET)
        assert session.cache.mobility_stats.computations == len(RU_SUBSET)
        assert session.cache.mobility_stats.hits == len(RU_SUBSET)

    def test_ideal_computed_once_per_rus(self, workload):
        session = Session(workload=workload)
        session.sweep(fig9a_specs(), ru_counts=RU_SUBSET)
        # One zero-latency run per distinct graph and RU count.
        n_graphs = len(workload.distinct_graphs())
        assert session.cache.ideal_stats.computations == len(RU_SUBSET) * n_graphs

    def test_content_key_ignores_construction_path(self):
        w1 = quick_workload(length=15)
        w2 = paper_evaluation_workload(length=15)
        assert workload_content_key(w1) == workload_content_key(w2)

    def test_content_key_distinguishes_sequences(self):
        assert workload_content_key(quick_workload(length=15)) != workload_content_key(
            quick_workload(length=16)
        )

    def test_shared_cache_across_sessions(self, workload):
        cache = ArtifactCache()
        Session(workload=workload, cache=cache).run(lru_spec())
        Session(workload=workload, cache=cache).run(lru_spec())
        n_graphs = len(workload.distinct_graphs())
        assert cache.ideal_stats.misses == n_graphs
        assert cache.ideal_stats.hits == n_graphs


class _RecordingHooks(SessionHooks):
    def __init__(self):
        self.started = []
        self.ended = []
        self.progress = []

    def on_run_start(self, cell):
        self.started.append(cell)

    def on_run_end(self, cell, record):
        self.ended.append((cell, record))

    def on_sweep_progress(self, done, total):
        self.progress.append((done, total))


class TestHooks:
    def test_sweep_lifecycle(self, workload):
        hooks = _RecordingHooks()
        specs = [lru_spec(), local_lfd_spec(1)]
        Session(workload=workload, hooks=(hooks,)).sweep(specs, ru_counts=RU_SUBSET)
        n = len(specs) * len(RU_SUBSET)
        assert len(hooks.started) == len(hooks.ended) == n
        assert hooks.progress == [(i, n) for i in range(1, n + 1)]
        assert all(isinstance(c, SweepCell) for c in hooks.started)

    def test_parallel_progress_monotone(self, workload):
        hooks = _RecordingHooks()
        Session(workload=workload, hooks=(hooks,)).sweep(
            [lru_spec(), local_lfd_spec(1)], ru_counts=RU_SUBSET, parallel=2
        )
        assert [p[0] for p in hooks.progress] == list(range(1, 5))

    def test_run_hooks(self, workload):
        hooks = _RecordingHooks()
        Session(workload=workload, hooks=(hooks,)).run(lru_spec())
        assert len(hooks.started) == len(hooks.ended) == 1
        assert hooks.ended[0][1].policy_label == "LRU"


class TestGrid:
    def test_latency_axis(self, workload):
        cells = Session(workload=workload).grid(
            [lru_spec()], ru_counts=(4,), reconfig_latencies=(1000, 4000)
        )
        assert [c.reconfig_latency for c in cells] == [1000, 4000]
        # Overhead scales with latency; reuse decisions may coincide.
        assert cells[0].record.overhead_ms <= cells[1].record.overhead_ms

    def test_full_cartesian(self, workload):
        specs = [lru_spec(), local_lfd_spec(1)]
        cells = Session(workload=workload).grid(
            specs, ru_counts=RU_SUBSET, reconfig_latencies=(2000, 4000)
        )
        assert len(cells) == len(specs) * len(RU_SUBSET) * 2

    def test_grid_ideal_shared_across_latencies(self, workload):
        session = Session(workload=workload)
        session.grid([lru_spec()], ru_counts=(4,), reconfig_latencies=(1000, 4000))
        # The zero-latency ideal is latency-independent: one computation
        # per distinct graph.
        n_graphs = len(workload.distinct_graphs())
        assert session.cache.ideal_stats.computations == n_graphs


class TestScenarioRegistry:
    def test_unknown_kwarg_raises_workload_error_with_parameters(self):
        with pytest.raises(WorkloadError) as excinfo:
            make_scenario("round-robin", seed=3)
        message = str(excinfo.value)
        assert "'seed'" in message
        assert "n_rus" in message and "length" in message

    def test_scenario_info_metadata(self):
        info = scenario_info("paper-eval")
        assert info.name == "paper-eval"
        assert "500" in info.description
        assert "length" in info.parameters

    def test_decorator_registration_and_duplicate_rejection(self):
        from repro.workloads import scenarios as sc

        @sc.scenario("test-only-scenario", description="registry test")
        def _factory(length: int = 5):
            return quick_workload(length=length)

        try:
            assert "test-only-scenario" in sc.available_scenarios()
            made = sc.make_scenario("test-only-scenario", length=7)
            assert made.n_apps == 7
            with pytest.raises(WorkloadError):
                sc.scenario("test-only-scenario")(_factory)
        finally:
            del sc._REGISTRY["test-only-scenario"]


class TestArrivalAwareRuns:
    def test_arrival_times_change_ideal(self, workload):
        from repro.workloads.arrival import periodic_arrivals

        session = Session(workload=workload)
        arrivals = periodic_arrivals(workload.n_apps, 200_000)
        spaced = session.run(local_lfd_spec(1), arrival_times=arrivals)
        saturated = session.run(local_lfd_spec(1))
        # With slow periodic arrivals the ideal stretches to the arrival
        # horizon, so the measured makespan grows but the overhead doesn't
        # book idle time as reconfiguration cost.
        assert spaced.makespan_us > saturated.makespan_us
        assert spaced.ideal_makespan_us > saturated.ideal_makespan_us


class TestCompiledWorkloadIntegration:
    """PR-5: compile-once run setup and executor reuse."""

    def test_compiled_computed_once_per_session(self, session):
        session.run(lru_spec())
        session.run(local_lfd_spec(1))
        stats = session.cache.compiled_stats
        assert stats.computations == 1
        # The session memoizes the object itself; repeated access is free.
        assert session.compiled() is session.compiled()
        assert stats.computations == 1

    def test_compiled_shared_from_store_across_sessions(self, tmp_path, workload):
        root = tmp_path / "store"
        with Session(DeviceModel.homogeneous(4), workload, store=str(root)) as cold:
            cold.run(lru_spec())
            assert cold.cache.compiled_stats.computations == 1
        with Session(DeviceModel.homogeneous(4), workload, store=str(root)) as warm:
            warm.run(lru_spec())
            stats = warm.cache.compiled_stats
            assert stats.disk_hits == 1
            assert stats.computations == 0

    def test_compiled_run_equals_uncompiled_engine(self, session, workload):
        spec = local_lfd_spec(1)
        via_session = session.run(spec)
        direct = run_simulation(
            workload.apps,
            advisor=spec.make_advisor(),
            semantics=spec.make_semantics(),
            device=DeviceModel.homogeneous(workload.n_rus, workload.reconfig_latency),
        )
        assert via_session.summary() == direct.summary()

    def test_executor_reused_across_sweeps(self, session):
        specs = [lru_spec(), local_lfd_spec(1)]
        first = session.sweep(specs, ru_counts=(4, 5), parallel=2)
        pool = session._pool
        assert pool is not None
        second = session.sweep(specs, ru_counts=(4, 5), parallel=2)
        assert session._pool is pool  # same executor, workers kept warm
        for a, b in zip(first.records, second.records):
            assert a == b
        session.close()
        assert session._pool is None

    def test_executor_recreated_on_different_parallelism(self, session):
        specs = [lru_spec(), local_lfd_spec(1)]
        session.sweep(specs, ru_counts=(4, 5), parallel=2)
        pool = session._pool
        session.sweep(specs, ru_counts=(4, 5, 6), parallel=3)
        assert session._pool is not pool
        session.close()

    def test_close_is_idempotent_and_context_manager(self, workload):
        with Session(DeviceModel.homogeneous(4), workload) as s:
            s.sweep([lru_spec()], ru_counts=(4, 5), parallel=2)
        s.close()  # second close: no-op
        assert s._pool is None

    def test_close_concurrent_calls_are_safe(self, workload):
        import threading

        s = Session(DeviceModel.homogeneous(4), workload)
        s.sweep([lru_spec()], ru_counts=(4, 5), parallel=2)
        errors = []

        def close():
            try:
                s.close()
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        threads = [threading.Thread(target=close) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert not errors
        assert s._pool is None

    def test_close_concurrent_with_inflight_sweep(self, workload):
        """close() racing a parallel sweep: clean error or clean result.

        The daemon shuts sessions down while sweeps may still be in
        flight; the only acceptable outcomes are a completed sweep or an
        ExperimentError — never a RuntimeError from the dead executor.
        """
        import threading
        import time as time_mod

        s = Session(DeviceModel.homogeneous(4), workload)
        s.compiled()  # pay design time up front so the sweep starts fast
        unexpected = []

        def run_sweep():
            try:
                s.sweep(
                    [lru_spec(), local_lfd_spec(1)],
                    ru_counts=(4, 5, 6),
                    parallel=2,
                )
            except ExperimentError:
                pass  # the documented close-during-sweep outcome
            except Exception as exc:  # pragma: no cover - the regression
                unexpected.append(exc)

        worker = threading.Thread(target=run_sweep)
        worker.start()
        time_mod.sleep(0.05)
        s.close()
        s.close()
        worker.join(60)
        assert not worker.is_alive()
        assert not unexpected
        assert s._pool is None

    def test_parallel_equals_sequential_with_warm_pool(self, session):
        specs = [lru_spec(), local_lfd_spec(1, skip_events=True)]
        seq = session.sweep(specs, ru_counts=(4, 6), parallel=1)
        par = session.sweep(specs, ru_counts=(4, 6), parallel=2)
        par2 = session.sweep(specs, ru_counts=(4, 6), parallel=2)
        assert seq.records == par.records == par2.records

    def test_cache_warm_covers_compiled_kind(self, tmp_path, workload):
        cache = ArtifactCache(store=None)
        cache.warm(workload, ru_counts=(4,))
        assert cache.compiled_stats.computations == 1
        # warm again: everything served from memory
        cache.warm(workload, ru_counts=(4,))
        assert cache.compiled_stats.computations == 1
        assert cache.stats_summary()["compiled"]["memory_hits"] >= 1

"""Tests for the execution manager (hand-computed schedules)."""

import pytest

from repro.core.policies.classic import LRUPolicy
from repro.core.policies.lfd import LocalLFDPolicy
from repro.core.replacement_module import PolicyAdvisor
from repro.exceptions import DeviceError, PolicyError, SimulationError
from repro.graphs.builders import TaskGraphBuilder, chain_graph, fork_graph
from repro.sim.interface import Decision, ReplacementAdvisor
from repro.hw.model import DeviceModel
from repro.sim.manager import ExecutionManager
from repro.sim.semantics import CrossAppPrefetch, ManagerSemantics
from repro.sim.simtime import ms
from repro.sim.validation import validate_trace


def run(graphs, n_rus=4, latency=ms(4), advisor=None, semantics=None, **kwargs):
    manager = ExecutionManager(
        graphs=graphs,
        device=DeviceModel.homogeneous(n_rus, latency),
        advisor=advisor or PolicyAdvisor(LRUPolicy()),
        semantics=semantics or ManagerSemantics(),
        **kwargs,
    )
    trace = manager.run()
    validate_trace(trace, graphs)
    return trace


class TestSingleAppScheduling:
    def test_single_task(self):
        g = chain_graph("G", [ms(10)])
        trace = run([g], n_rus=1)
        assert trace.makespan == ms(14)          # 4 load + 10 exec
        assert trace.n_reconfigurations == 1
        assert trace.n_reused_executions == 0

    def test_chain_prefetch_hides_latencies(self):
        # 1(10) -> 2(10) -> 3(10): loads pipeline behind executions.
        g = chain_graph("G", [ms(10), ms(10), ms(10)])
        trace = run([g])
        # rec1 0-4, t1 4-14; rec2 4-8 (hidden); t2 14-24; rec3 8-12; t3 24-34.
        assert trace.makespan == ms(34)
        execs = {e.config.node_id: e for e in trace.executions}
        assert execs[1].start == ms(4)
        assert execs[2].start == ms(14)
        assert execs[3].start == ms(24)

    def test_fork_loads_serialize_on_single_circuitry(self):
        # 1(10) -> {2, 3}: recs at 0-4, 4-8, 8-12; all hidden except first.
        g = fork_graph("G", ms(10), [ms(5), ms(5)])
        trace = run([g])
        recs = sorted(trace.reconfigs, key=lambda r: r.start)
        assert [(r.start, r.end) for r in recs] == [
            (0, ms(4)),
            (ms(4), ms(8)),
            (ms(8), ms(12)),
        ]
        execs = {e.config.node_id: e for e in trace.executions}
        assert execs[2].start == ms(14)  # dep on 1 (ends 14); rec done 8
        assert execs[3].start == ms(14)

    def test_exposed_latency_delays_execution(self):
        # 1(2) -> 2(2): rec2 ends at 8, after t1 ends at 6 -> 2ms exposed.
        g = chain_graph("G", [ms(2), ms(2)])
        trace = run([g])
        execs = {e.config.node_id: e for e in trace.executions}
        assert execs[2].start == ms(8)
        assert trace.makespan == ms(10)

    def test_more_tasks_than_rus_replaces_within_app(self):
        g = chain_graph("G", [ms(10)] * 5)
        trace = run([g], n_rus=2)
        assert trace.n_reconfigurations == 5
        assert len(trace.evictions) == 3  # tasks 3,4,5 evict finished ones
        assert trace.n_executions == 5


class TestReuseAcrossApps:
    def test_identical_apps_reuse_everything_second_time(self):
        g = chain_graph("G", [ms(10), ms(10)])
        trace = run([g, g], n_rus=4)
        assert trace.n_reconfigurations == 2
        assert trace.n_reused_executions == 2
        assert trace.reuse_rate() == pytest.approx(0.5)

    def test_reused_app_has_no_reconfig_overhead(self):
        g = chain_graph("G", [ms(10), ms(10)])
        trace = run([g, g], n_rus=4)
        # app 0: rec 0-4, t1 4-14, t2 14-24 (rec2 hidden 4-8).
        # app 1: reuse both; t1 24-34, t2 34-44.
        assert trace.makespan == ms(44)
        assert trace.app_completion_times == {0: ms(24), 1: ms(44)}

    def test_different_apps_never_share_configs(self):
        a = chain_graph("A", [ms(5)])
        b = chain_graph("B", [ms(5)])
        trace = run([a, b], n_rus=4)
        assert trace.n_reused_executions == 0
        assert trace.n_reconfigurations == 2

    def test_renamed_graph_breaks_reuse(self):
        a = chain_graph("A", [ms(5), ms(5)])
        trace = run([a, a.renamed("B")], n_rus=4)
        assert trace.n_reused_executions == 0


class TestBarrierSemantics:
    def test_next_app_waits_for_completion(self):
        slow = chain_graph("SLOW", [ms(50)])
        fast = chain_graph("FAST", [ms(1)])
        trace = run([slow, fast], n_rus=4)
        slow_end = trace.executions_of_app(0)[0].end
        fast_start = trace.executions_of_app(1)[0].start
        assert fast_start >= slow_end

    def test_isolated_semantics_block_future_loads(self):
        a = chain_graph("A", [ms(50)])
        b = chain_graph("B", [ms(1)])
        trace = run(
            [a, b],
            semantics=ManagerSemantics(
                cross_app_prefetch=CrossAppPrefetch.ISOLATED, lookahead_apps=4
            ),
        )
        rec_b = next(r for r in trace.reconfigs if r.config.graph_name == "B")
        assert rec_b.start >= ms(54)  # only after A completes

    def test_free_ru_prefetch_loads_future_app_early(self):
        a = chain_graph("A", [ms(50)])
        b = chain_graph("B", [ms(1)])
        trace = run(
            [a, b],
            semantics=ManagerSemantics(
                cross_app_prefetch=CrossAppPrefetch.FREE_RU_ONLY, lookahead_apps=1
            ),
        )
        rec_b = next(r for r in trace.reconfigs if r.config.graph_name == "B")
        assert rec_b.start == ms(4)  # right after A's only load

    def test_lookahead_zero_blocks_future_dispatch_entirely(self):
        a = chain_graph("A", [ms(50)])
        b = chain_graph("B", [ms(1)])
        trace = run(
            [a, b],
            semantics=ManagerSemantics(
                cross_app_prefetch=CrossAppPrefetch.FULL, lookahead_apps=0
            ),
        )
        rec_b = next(r for r in trace.reconfigs if r.config.graph_name == "B")
        assert rec_b.start >= ms(54)


class TestForcedDelays:
    def test_delay_shifts_load_to_next_event(self):
        # 1(10) -> 2(10): delaying 2 by one event moves rec2 from t=4
        # (end_rec1) to t=14 (end_exec1).
        g = chain_graph("G", [ms(10), ms(10)])
        trace = run([g], forced_delays={(0, 2): 1})
        rec2 = next(r for r in trace.reconfigs if r.config.node_id == 2)
        assert rec2.start == ms(14)

    def test_zero_budget_is_noop(self):
        g = chain_graph("G", [ms(10), ms(10)])
        base = run([g])
        delayed = run([g], forced_delays={(0, 2): 0})
        assert delayed.makespan == base.makespan

    def test_infeasible_delay_raises(self):
        g = chain_graph("G", [ms(10)])
        with pytest.raises(SimulationError):
            run([g], forced_delays={(0, 1): 99})


class TestValidation:
    def test_empty_sequence_rejected(self):
        with pytest.raises(SimulationError):
            run([])

    def test_zero_rus_rejected(self):
        with pytest.raises(DeviceError):
            run([chain_graph("G", [ms(1)])], n_rus=0)

    def test_negative_latency_rejected(self):
        with pytest.raises(DeviceError):
            run([chain_graph("G", [ms(1)])], latency=-1)

    def test_too_wide_app_rejected(self):
        wide = fork_graph("W", ms(1), [ms(10)] * 6)  # 6 concurrent branches
        with pytest.raises(SimulationError, match="concurrent RUs"):
            run([wide], n_rus=4)

    def test_bad_policy_victim_rejected(self):
        class BadAdvisor(ReplacementAdvisor):
            def decide(self, ctx):
                return Decision.load(victim_index=999)

        g = chain_graph("G", [ms(5)] * 3)
        with pytest.raises(PolicyError):
            run([g], n_rus=2, advisor=BadAdvisor())

    def test_arrival_times_length_mismatch(self):
        g = chain_graph("G", [ms(1)])
        with pytest.raises(SimulationError):
            run([g], arrival_times=[0, 0])


class TestArrivalTimes:
    def test_late_arrival_delays_app(self):
        a = chain_graph("A", [ms(5)])
        b = chain_graph("B", [ms(5)])
        trace = run([a, b], arrival_times=[0, ms(100)])
        start_b = trace.executions_of_app(1)[0].start
        assert start_b >= ms(104)  # arrival + load

    def test_zero_latency_run(self):
        g = chain_graph("G", [ms(10), ms(10)])
        trace = run([g], latency=0)
        assert trace.makespan == ms(20)  # equals the critical path

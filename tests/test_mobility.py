"""Tests for the design-time mobility calculation (Fig. 6 / Fig. 7)."""

import pytest

from repro.core.mobility import MobilityCalculator, PurelyRuntimeMobilityAdvisor
from repro.core.policies.classic import LRUPolicy
from repro.core.policies.extended import LFUPolicy, LRUKPolicy
from repro.core.policies.lfd import LocalLFDPolicy
from repro.exceptions import DeviceError
from repro.experiments.motivational import fig3_task_graph_2
from repro.graphs.builders import chain_graph, fork_graph
from repro.sim.simtime import ms
from repro.hw.model import DeviceModel


class TestReferenceSchedule:
    def test_fig7_reference_is_30ms(self):
        calc = MobilityCalculator(device=DeviceModel.homogeneous(4, ms(4)))
        assert calc.reference_makespan(fig3_task_graph_2()) == ms(30)

    def test_zero_delay_equals_reference(self):
        calc = MobilityCalculator(device=DeviceModel.homogeneous(4, ms(4)))
        g = chain_graph("G", [ms(10), ms(10)])
        assert calc.delayed_makespan(g, 2, 0) == calc.reference_makespan(g)

    def test_infeasible_delay_reports_infinite(self):
        calc = MobilityCalculator(device=DeviceModel.homogeneous(4, ms(4)))
        g = chain_graph("G", [ms(10)])
        # Delaying the only task by many events: no events ever arrive.
        assert calc.delayed_makespan(g, 1, 50) >= 2**62


class TestFig7Mobilities:
    """The paper's worked example, asserted number by number."""

    @pytest.fixture(scope="class")
    def calc(self):
        return MobilityCalculator(device=DeviceModel.homogeneous(4, ms(4)))

    @pytest.fixture(scope="class")
    def graph(self):
        return fig3_task_graph_2()

    def test_delay_task5_costs_6ms(self, calc, graph):
        assert calc.delayed_makespan(graph, 5, 1) == ms(36)

    def test_delay_task6_costs_2ms(self, calc, graph):
        assert calc.delayed_makespan(graph, 6, 1) == ms(32)

    def test_delay_task7_once_is_free(self, calc, graph):
        assert calc.delayed_makespan(graph, 7, 1) == ms(30)

    def test_delay_task7_twice_costs_2ms(self, calc, graph):
        assert calc.delayed_makespan(graph, 7, 2) == ms(32)

    def test_computed_mobilities_match_paper(self, calc, graph):
        result = calc.compute(graph)
        assert dict(result.mobilities) == {4: 0, 5: 0, 6: 0, 7: 1}
        assert result.reference_makespan_us == ms(30)
        assert result.design_time_s > 0


class TestMobilityProperties:
    def test_first_task_always_zero(self):
        calc = MobilityCalculator(device=DeviceModel.homogeneous(4, ms(4)))
        g = chain_graph("G", [ms(5), ms(5), ms(5)])
        result = calc.compute(g)
        first = g.reconfiguration_order()[0]
        assert result.mobilities[first] == 0

    def test_long_head_chain_has_zero_tail_mobility(self):
        # 1(100ms) -> 2(1ms): the only event after end_rec1 is end_exec1 at
        # t=104, so delaying rec2 exposes its full latency; mobility 0.
        calc = MobilityCalculator(device=DeviceModel.homogeneous(2, ms(4)))
        g = chain_graph("G", [ms(100), ms(1)])
        result = calc.compute(g)
        assert result.mobilities[2] == 0

    def test_fig7_task7_has_positive_mobility(self):
        calc = MobilityCalculator(device=DeviceModel.homogeneous(4, ms(4)))
        assert calc.compute(fig3_task_graph_2()).mobilities[7] == 1

    def test_compute_is_deterministic(self):
        calc = MobilityCalculator(device=DeviceModel.homogeneous(4, ms(4)))
        g = fig3_task_graph_2()
        assert calc.compute(g).mobilities == calc.compute(g).mobilities

    def test_tables_deduplicate_by_name(self):
        calc = MobilityCalculator(device=DeviceModel.homogeneous(4, ms(4)))
        g = chain_graph("G", [ms(5), ms(5)])
        tables = calc.compute_tables([g, g, g])
        assert set(tables) == {"G"}

    def test_max_mobility_cap_respected(self):
        calc = MobilityCalculator(
            max_mobility=1, device=DeviceModel.homogeneous(2, ms(4))
        )
        g = chain_graph("G", [ms(100), ms(1)])
        assert calc.compute(g).mobilities[2] <= 1

    def test_invalid_params(self):
        with pytest.raises(DeviceError):
            MobilityCalculator(device=DeviceModel.homogeneous(0, ms(4)))
        with pytest.raises(DeviceError):
            MobilityCalculator(device=DeviceModel.homogeneous(4, -1))


class TestMobilityInvariants:
    def test_delay_within_mobility_never_increases_makespan(self):
        calc = MobilityCalculator(device=DeviceModel.homogeneous(4, ms(4)))
        for graph in (fig3_task_graph_2(), fork_graph("F", ms(20), [ms(5), ms(6), ms(7)])):
            result = calc.compute(graph)
            ref = result.reference_makespan_us
            for node, mob in result.mobilities.items():
                for d in range(1, mob + 1):
                    assert calc.delayed_makespan(graph, node, d) <= ref

    def test_delay_beyond_mobility_increases_makespan(self):
        calc = MobilityCalculator(device=DeviceModel.homogeneous(4, ms(4)))
        graph = fig3_task_graph_2()
        result = calc.compute(graph)
        ref = result.reference_makespan_us
        for node, mob in result.mobilities.items():
            if node == graph.reconfiguration_order()[0]:
                continue
            assert calc.delayed_makespan(graph, node, mob + 1) > ref


class TestPurelyRuntimeStatefulEquivalence:
    """Regression: the purely-run-time comparator used to swallow the
    manager's bookkeeping notifications, so stateful policies (LFU, LRU,
    LRU-K) decided on stale state and the "functionally identical"
    comparison silently wasn't.  LFU demonstrably diverged on this very
    workload before the fix."""

    @pytest.mark.parametrize(
        "policy_factory",
        [
            LRUPolicy,
            LFUPolicy,
            lambda: LRUKPolicy(k=2),
        ],
        ids=["lru", "lfu", "lru-2"],
    )
    def test_stateful_policy_matches_policy_advisor_with_table(self, policy_factory):
        from repro.core.replacement_module import PolicyAdvisor
        from repro.sim.semantics import ManagerSemantics
        from repro.sim.simulator import run_simulation
        from repro.workloads.scenarios import make_scenario

        workload = make_scenario("paper-eval", length=30)
        graphs_by_name = {g.name: g for g in workload.distinct_graphs()}
        tables = MobilityCalculator(
            device=DeviceModel.homogeneous(workload.n_rus, workload.reconfig_latency),
        ).compute_tables(workload.distinct_graphs())
        semantics = ManagerSemantics(lookahead_apps=1)

        hybrid = run_simulation(
            workload.apps,
            PolicyAdvisor(policy_factory(), skip_events=True),
            semantics,
            mobility_tables=tables,
            device=DeviceModel.homogeneous(workload.n_rus, workload.reconfig_latency),
        )
        runtime = run_simulation(
            workload.apps,
            PurelyRuntimeMobilityAdvisor(
                policy=policy_factory(),
                graphs_by_name=graphs_by_name,
                semantics=semantics,
                device=DeviceModel.homogeneous(workload.n_rus, workload.reconfig_latency),
            ),
            semantics,
            device=DeviceModel.homogeneous(workload.n_rus, workload.reconfig_latency),
        )
        assert runtime.makespan_us == hybrid.makespan_us
        assert runtime.reuse_pct == hybrid.reuse_pct
        assert runtime.trace.n_skips == hybrid.trace.n_skips
        assert runtime.trace.evictions == hybrid.trace.evictions
        assert runtime.trace.skips == hybrid.trace.skips


class TestPurelyRuntimeAdvisor:
    def test_same_decisions_as_hybrid(self):
        """The purely-run-time comparator must be functionally identical."""
        from repro.core.replacement_module import PolicyAdvisor
        from repro.experiments.hybrid_speedup import _skip_exercising_context

        graph = fig3_task_graph_2()
        node = graph.reconfiguration_order()[-1]  # task 7, mobility 1
        ctx = _skip_exercising_context(graph.name, node)
        hybrid = PolicyAdvisor(LocalLFDPolicy(), skip_events=True)
        runtime = PurelyRuntimeMobilityAdvisor(
            policy=LocalLFDPolicy(),
            graphs_by_name={graph.name: graph},
            device=DeviceModel.homogeneous(4, ms(4)),
        )
        assert hybrid.decide(ctx).skip == runtime.decide(ctx).skip

    def test_reset_clears_counter(self):
        graph = fig3_task_graph_2()
        advisor = PurelyRuntimeMobilityAdvisor(
            policy=LocalLFDPolicy(),
            graphs_by_name={graph.name: graph},
            device=DeviceModel.homogeneous(4, ms(4)),
        )
        advisor._cacheless_decisions = 5
        advisor.reset()
        assert advisor._cacheless_decisions == 0

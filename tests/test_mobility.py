"""Tests for the design-time mobility calculation (Fig. 6 / Fig. 7)."""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

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


class TestPurelyRuntimeLiteralCost:
    def test_one_manager_per_counted_simulation(self, monkeypatch):
        """The comparator pays the literal cost: every probe constructs
        its own manager on the full device, and nothing is memoized."""
        from repro.core import mobility as mobility_mod
        from repro.experiments.hybrid_speedup import _skip_exercising_context

        built = []
        real = mobility_mod.ExecutionManager

        def counting(*args, **kwargs):
            built.append(kwargs["device"])
            return real(*args, **kwargs)

        monkeypatch.setattr(mobility_mod, "ExecutionManager", counting)
        graph = fig3_task_graph_2()
        device = DeviceModel.homogeneous(16, ms(4))  # wider than the graph
        advisor = PurelyRuntimeMobilityAdvisor(
            policy=LocalLFDPolicy(),
            graphs_by_name={graph.name: graph},
            device=device,
        )
        ctx = _skip_exercising_context(graph.name, graph.reconfiguration_order()[-1])
        advisor.decide(ctx)
        per_decision = advisor.calculator.simulations
        assert per_decision > 1 and len(built) == per_decision
        advisor.decide(ctx)
        advisor.decide(ctx)  # no memo: every decision pays the full search
        assert len(built) == advisor.calculator.simulations == 3 * per_decision
        assert all(d is device for d in built)


class TestDuplicateGraphNames:
    """Two *different* graphs under one name used to be accepted by
    ``Workload``; the mobility tables then silently described the first
    one only, while ``run`` failed in workload compilation."""

    def _clash(self):
        from repro.graphs.random_graphs import random_layered_graph

        return random_layered_graph("A", 5, seed=1), random_layered_graph("A", 7, seed=2)

    def test_workload_rejects_two_graphs_named_alike(self):
        from repro.exceptions import WorkloadError
        from repro.workloads.sequence import Workload

        small, large = self._clash()
        with pytest.raises(WorkloadError, match="two different graphs named 'A'"):
            Workload(apps=(small, large), n_rus=8, reconfig_latency=ms(4))

    def test_compute_tables_rejects_two_graphs_named_alike(self):
        from repro.exceptions import WorkloadError

        small, large = self._clash()
        calc = MobilityCalculator(device=DeviceModel.homogeneous(8, ms(4)))
        with pytest.raises(WorkloadError, match="two different graphs named 'A'"):
            calc.compute_tables([small, large])

    def test_equal_graphs_under_one_name_are_fine(self):
        from repro.workloads.sequence import Workload

        small, _ = self._clash()
        twin = small.renamed("A")  # equal content, distinct object
        workload = Workload(apps=(small, twin), n_rus=8, reconfig_latency=ms(4))
        assert workload.distinct_graphs() == [small]


# ----------------------------------------------------------------------
# Effective device: a graph alone never uses more RUs than it has tasks
# ----------------------------------------------------------------------
def _with_bitstreams(graph, sizes):
    from dataclasses import replace

    from repro.graphs.task_graph import TaskGraph

    specs = [
        replace(spec, bitstream_kb=sizes[i % len(sizes)])
        for i, spec in enumerate(graph)
    ]
    return TaskGraph(graph.name, specs, graph.edges)


@st.composite
def _graph_on_wider_device(draw):
    """A random layered graph of 2-9 tasks (mixed bitstream sizes) and a
    uniform device with |graph|..|graph|+4 RUs, 1-2 controllers and a
    fixed or size-proportional latency."""
    from repro.graphs.random_graphs import random_layered_graph
    from repro.hw.latency import BitstreamLatency, FixedLatency

    n = draw(st.integers(min_value=2, max_value=9))
    graph = random_layered_graph(
        "G", n, seed=draw(st.integers(min_value=0, max_value=2**31 - 1)),
        low_us=1000, high_us=20000,
    )
    sizes = draw(st.lists(st.sampled_from([128, 256, 512, 1024]), min_size=1, max_size=4))
    graph = _with_bitstreams(graph, sizes)
    latency = draw(
        st.sampled_from([FixedLatency(ms(4)), FixedLatency(ms(1)), BitstreamLatency(8)])
    )
    device = DeviceModel.homogeneous(
        n + draw(st.integers(min_value=0, max_value=4)),
        n_controllers=draw(st.integers(min_value=1, max_value=2)),
    ).with_latency_model(latency)
    return graph, device


class TestEffectiveDevice:
    @given(_graph_on_wider_device())
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_table_on_r_rus_equals_table_on_graph_size(self, case):
        graph, device = case
        capped = device.with_n_rus(len(graph))
        literal = MobilityCalculator(memoize=False, device=device).compute_tables([graph])
        assert literal == MobilityCalculator(memoize=False, device=capped).compute_tables([graph])
        fast = MobilityCalculator(device=device)
        assert fast.effective_device(graph) == capped
        assert fast.compute_tables([graph]) == literal

    @given(_graph_on_wider_device())
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_per_graph_ideal_on_r_rus_equals_ideal_on_graph_size(self, case):
        from repro.artifacts import graphs_content_key
        from repro.session import ArtifactCache
        from repro.sim.simulator import ideal_makespan

        from repro.graphs.analysis import max_concurrent_tasks

        graph, device = case
        capped = device.with_n_rus(len(graph))
        assert ideal_makespan([graph], device=device) == ideal_makespan(
            [graph], device=capped
        )
        # The narrowest feasible device first: a cap that is too tight
        # would serve its value to the wider ones.
        devices = [device.with_n_rus(max_concurrent_tasks(graph)), device, capped]
        cache = ArtifactCache()
        key = graphs_content_key([graph])
        for each in devices:
            assert cache.ideal_makespan_us(key, [graph], each) == ideal_makespan(
                [graph], device=each
            )
        assert cache.ideal_stats.computations == len(
            {min(each.n_rus, len(graph)) for each in devices}
        )

    def test_mixed_floorplan_never_takes_the_cap(self):
        """big-little-4 has two slot classes: no resize is canonical, so
        its tables come from the full device and equal an uncapped,
        fresh-manager calculator's even for graphs narrower than it."""
        from repro.graphs.random_graphs import random_layered_graph
        from repro.hw.presets import make_device

        device = make_device("big-little-4")
        fast = MobilityCalculator(device=device)
        literal = MobilityCalculator(memoize=False, device=device)
        for seed in range(6):
            graph = _with_bitstreams(
                random_layered_graph(f"H{seed}", 2 + seed % 2, seed=seed), [256, 768, 128]
            )
            assert fast.effective_device(graph) is device
            assert fast.compute_tables([graph]) == literal.compute_tables([graph])

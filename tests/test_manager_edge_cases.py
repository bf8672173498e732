"""Deeper execution-manager edge cases: prefetch modes, stalls, windows.

These complement test_manager.py with the subtler interactions between
cross-application prefetch, reuse-claim stalling and the Dynamic-List
window — the behaviours the calibration (DESIGN.md §3) pinned down.
"""

import pytest

from repro.core.policies.classic import LRUPolicy
from repro.core.policies.lfd import LocalLFDPolicy
from repro.core.replacement_module import PolicyAdvisor
from repro.graphs.builders import TaskGraphBuilder, chain_graph, fork_graph
from repro.sim.manager import ExecutionManager
from repro.sim.semantics import CrossAppPrefetch, ManagerSemantics
from repro.sim.simtime import ms
from repro.sim.validation import validate_trace
from repro.hw.model import DeviceModel


def run(graphs, n_rus=4, latency=ms(4), advisor=None, semantics=None, **kw):
    manager = ExecutionManager(
        graphs=graphs,
        device=DeviceModel.homogeneous(n_rus, latency),
        advisor=advisor or PolicyAdvisor(LRUPolicy()),
        semantics=semantics or ManagerSemantics(),
        **kw,
    )
    trace = manager.run()
    validate_trace(trace, graphs)
    return trace


class TestFullPrefetchMode:
    def test_future_load_may_evict(self):
        # App A executes 50ms; under FULL prefetch, B's config evicts A's
        # finished task well before A completes.
        a = chain_graph("A", [ms(5), ms(50)])
        b = chain_graph("B", [ms(5)])
        trace = run(
            [a, b],
            n_rus=2,
            semantics=ManagerSemantics(
                cross_app_prefetch=CrossAppPrefetch.FULL, lookahead_apps=1
            ),
        )
        rec_b = next(r for r in trace.reconfigs if r.config.graph_name == "B")
        end_a = max(e.end for e in trace.executions_of_app(0))
        assert rec_b.end < end_a  # loaded while A still executing

    def test_claimed_future_task_protected_until_executed(self):
        # B's prefetched config must not be evicted by a later load.
        a = chain_graph("A", [ms(50)])
        b = chain_graph("B", [ms(5)])
        trace = run(
            [a, b, b],
            n_rus=2,
            semantics=ManagerSemantics(
                cross_app_prefetch=CrossAppPrefetch.FULL, lookahead_apps=2
            ),
        )
        # B loaded once, reused once.
        recs_b = [r for r in trace.reconfigs if r.config.graph_name == "B"]
        assert len(recs_b) == 1
        assert trace.n_reused_executions == 1


class TestStallOnLoadedFuture:
    def test_stalled_reuse_consumed_at_activation(self):
        g = chain_graph("G", [ms(10)])
        other = chain_graph("H", [ms(30)])
        trace = run(
            [g, other, g],
            n_rus=4,
            semantics=ManagerSemantics(
                cross_app_prefetch=CrossAppPrefetch.FREE_RU_ONLY,
                stall_on_loaded_future=True,
                lookahead_apps=2,
            ),
        )
        # Third app reuses G's config exactly at its activation time.
        reuse = next(r for r in trace.reuses if r.app_index == 2)
        end_of_h = max(e.end for e in trace.executions_of_app(1))
        assert reuse.time == end_of_h

    def test_no_stall_claims_early(self):
        g = chain_graph("G", [ms(10)])
        other = chain_graph("H", [ms(30)])
        trace = run(
            [g, other, g],
            n_rus=4,
            semantics=ManagerSemantics(
                cross_app_prefetch=CrossAppPrefetch.FREE_RU_ONLY,
                stall_on_loaded_future=False,
                lookahead_apps=2,
            ),
        )
        reuse = next(r for r in trace.reuses if r.app_index == 2)
        end_of_h = max(e.end for e in trace.executions_of_app(1))
        assert reuse.time < end_of_h  # claimed while H still executing


class TestWindowVisibility:
    def test_window_bounds_prefetch_depth(self):
        a = chain_graph("A", [ms(60)])
        b = chain_graph("B", [ms(5)])
        c = chain_graph("C", [ms(5)])
        trace = run(
            [a, b, c],
            n_rus=4,
            semantics=ManagerSemantics(
                cross_app_prefetch=CrossAppPrefetch.FREE_RU_ONLY, lookahead_apps=1
            ),
        )
        rec_b = next(r for r in trace.reconfigs if r.config.graph_name == "B")
        rec_c = next(r for r in trace.reconfigs if r.config.graph_name == "C")
        end_a = max(e.end for e in trace.executions_of_app(0))
        assert rec_b.start < end_a     # within window: prefetched
        assert rec_c.start >= end_a    # beyond window: waits

    def test_wider_window_prefetches_deeper(self):
        a = chain_graph("A", [ms(60)])
        b = chain_graph("B", [ms(5)])
        c = chain_graph("C", [ms(5)])
        trace = run(
            [a, b, c],
            n_rus=4,
            semantics=ManagerSemantics(
                cross_app_prefetch=CrossAppPrefetch.FREE_RU_ONLY, lookahead_apps=2
            ),
        )
        rec_c = next(r for r in trace.reconfigs if r.config.graph_name == "C")
        end_a = max(e.end for e in trace.executions_of_app(0))
        assert rec_c.start < end_a


class TestSameConfigAcrossNonAdjacentApps:
    def test_claimed_config_blocks_second_claim_until_freed(self):
        # The same app type three times with one RU-hungry spacer: the
        # sequence head for the third instance must wait for the claim of
        # the first to clear (exercises the claimed-config wait path).
        g = chain_graph("G", [ms(10), ms(10)])
        trace = run(
            [g, g, g],
            n_rus=4,
            semantics=ManagerSemantics(lookahead_apps=4),
        )
        assert trace.n_reconfigurations == 2      # loaded once per config
        assert trace.n_reused_executions == 4     # both tasks, twice


class TestSkipInteractions:
    def test_skip_records_victim_config(self):
        from repro.core.mobility import MobilityCalculator
        from repro.experiments.motivational import fig3_sequence

        apps = fig3_sequence()
        mobility = MobilityCalculator(
            device=DeviceModel.homogeneous(4, ms(4))
        ).compute_tables(apps)
        trace = run(
            apps,
            n_rus=4,
            advisor=PolicyAdvisor(LocalLFDPolicy(), skip_events=True),
            semantics=ManagerSemantics(lookahead_apps=1),
            mobility_tables=mobility,
        )
        assert trace.skips, "the Fig. 3 scenario must skip at least once"
        skip = trace.skips[0]
        # The spared victim is TG1's task 1 (reused later).
        assert skip.victim_config.node_id == 1
        assert skip.skipped_events_after == 1

    def test_skip_records_policy_selected_victim_not_first_dl_candidate(self):
        """Regression: Skip.victim_config used to record the first
        DL-resident candidate, not the victim the policy actually chose.
        A pick-the-last-candidate policy exposes the difference: both RUs
        hold DL-resident G0 configurations, the policy selects G0 task 2
        (the last candidate), and the trace must say so."""
        from repro.core.policies.base import ReplacementPolicy
        from repro.graphs.builders import independent_tasks_graph

        class PickLast(ReplacementPolicy):
            name = "pick-last"

            def select_victim(self, ctx):
                return ctx.candidates[-1].index

            def describe(self):
                return "pick-last"

        g0 = independent_tasks_graph("G0", [ms(10), ms(10)])
        h = chain_graph("H", [ms(10), ms(10)])
        trace = run(
            [g0, h, g0],
            n_rus=3,
            advisor=PolicyAdvisor(PickLast(), skip_events=True),
            semantics=ManagerSemantics(lookahead_apps=2),
            mobility_tables={"H": {1: 0, 2: 1}},
        )
        assert len(trace.skips) == 1
        skip = trace.skips[0]
        # The policy chose the *last* candidate (G0 task 2); the first
        # DL-resident candidate (G0 task 1) would be the old wrong answer.
        assert skip.victim_config.graph_name == "G0"
        assert skip.victim_config.node_id == 2

    def test_skip_without_victim_index_falls_back_to_heuristic(self):
        """Advisors that skip without naming a victim keep the old
        best-effort recording (first DL-resident candidate)."""
        from repro.sim.interface import Decision, ReplacementAdvisor

        class AnonymousSkipper(ReplacementAdvisor):
            def __init__(self):
                self.skipped = False

            def decide(self, ctx):
                if not self.skipped and len(ctx.candidates) > 1:
                    self.skipped = True
                    return Decision.skip_event()  # no victim reported
                return Decision.load(ctx.candidates[0].index)

        from repro.graphs.builders import independent_tasks_graph

        g0 = independent_tasks_graph("G0", [ms(10), ms(10)])
        h = chain_graph("H", [ms(10), ms(10)])
        trace = run(
            [g0, h, g0],
            n_rus=3,
            advisor=AnonymousSkipper(),
            semantics=ManagerSemantics(lookahead_apps=2),
            mobility_tables={"H": {1: 0, 2: 1}},
        )
        assert len(trace.skips) == 1
        assert trace.skips[0].victim_config.graph_name == "G0"
        assert trace.skips[0].victim_config.node_id == 1

    def test_mobility_tables_for_unknown_graph_default_zero(self):
        g = chain_graph("G", [ms(5)] * 5)
        trace = run(
            [g, g],
            n_rus=2,
            advisor=PolicyAdvisor(LocalLFDPolicy(), skip_events=True),
            semantics=ManagerSemantics(lookahead_apps=1),
            mobility_tables={"OTHER": {1: 5}},  # no entry for "G"
        )
        assert trace.n_skips == 0  # zero mobility -> never skips


class TestDegenerateDevices:
    def test_single_ru_chain_apps(self):
        g = chain_graph("G", [ms(5), ms(5), ms(5)])
        trace = run([g, g], n_rus=1)
        # One RU: every task serially loaded+executed; reuse impossible
        # (each load evicts the only slot) except... last task stays.
        assert trace.n_executions == 6
        validate_trace(trace, [g, g])

    def test_single_ru_single_task_app_reuses(self):
        g = chain_graph("G", [ms(5)])
        trace = run([g, g, g], n_rus=1)
        assert trace.n_reconfigurations == 1
        assert trace.n_reused_executions == 2

    def test_many_rus_no_evictions(self):
        g = fork_graph("G", ms(2), [ms(3), ms(3)])
        trace = run([g, g], n_rus=10)
        assert not trace.evictions
        assert trace.n_reused_executions == 3


class TestIdleSkipStallRecovery:
    """Direct pinning of ``_break_idle_skip_stall`` (previously reachable
    only through multi-controller scenarios and pinned indirectly)."""

    @staticmethod
    def _bounded_skipper(n_skips):
        from repro.sim.interface import Decision, ReplacementAdvisor

        class BoundedSkipper(ReplacementAdvisor):
            """Skips until ``skipped_events`` reaches ``n_skips``."""

            def decide(self, ctx):
                if ctx.skipped_events < n_skips:
                    return Decision.skip_event(ctx.candidates[0].index)
                return Decision.load(ctx.candidates[0].index)

        return BoundedSkipper()

    @staticmethod
    def _single_task_apps():
        # Three single-task apps on 2 RUs: the third app's load needs an
        # eviction decided when the queue is already empty (nothing in
        # flight), which is exactly the idle-skip stall.
        return [
            chain_graph("A", [ms(1)]),
            chain_graph("B", [ms(1)]),
            chain_graph("C", [ms(1)]),
        ]

    def test_bounded_skipper_recovers_and_completes(self):
        trace = run(
            self._single_task_apps(),
            n_rus=2,
            advisor=self._bounded_skipper(2),
        )
        # Both skips were emitted and counted before the load proceeded.
        assert trace.n_skips == 2
        assert [s.skipped_events_after for s in trace.skips] == [1, 2]
        assert trace.n_executions == 3
        # The delayed load still happened (one eviction for app C).
        assert len(trace.evictions) == 1

    def test_unbounded_skipper_raises_instead_of_hanging(self):
        from repro.exceptions import SimulationError
        from repro.sim.interface import Decision, ReplacementAdvisor

        class AlwaysSkip(ReplacementAdvisor):
            def decide(self, ctx):
                return Decision.skip_event(ctx.candidates[0].index)

        with pytest.raises(SimulationError, match="keeps skipping"):
            run(self._single_task_apps(), n_rus=2, advisor=AlwaysSkip())

    def test_recovery_preserves_event_stream_equivalence(self):
        # The recovery path emits ordinary Skip events: a recorded stream
        # through the object path matches the scalar-path trace counters.
        from repro.sim.tracing import TraceSink

        class Recorder(TraceSink):
            def __init__(self):
                self.events = []

            def on_event(self, event):
                self.events.append(event)

        graphs = self._single_task_apps()
        scalar = run(graphs, n_rus=2, advisor=self._bounded_skipper(1))
        recorder = Recorder()
        object_path = run(
            graphs,
            n_rus=2,
            advisor=self._bounded_skipper(1),
            extra_sinks=(recorder,),
        )
        assert scalar.summary() == object_path.summary()
        assert sum(1 for e in recorder.events if type(e).__name__ == "Skip") == 1

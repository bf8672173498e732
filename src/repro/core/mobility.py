"""Design-time mobility calculation (paper §V.A, Fig. 6).

The *mobility* of a task is "how many times that reconfiguration can be
delayed without generating any additional performance degradation" — i.e.
how many manager events can be skipped before loading the task without
lengthening the application's schedule.

Algorithm (paper Fig. 6), per task graph:

1. Obtain a *reference schedule*: the graph executed in isolation on the
   target device (R RUs, given reconfiguration latency), ASAP, with all
   mobilities 0.
2. For every task except the first of the reconfiguration sequence
   (whose mobility is 0 by definition), tentatively delay its load by
   1, 2, ... events, re-simulating each time; the mobility is the largest
   delay that leaves the makespan unchanged.

The delays are *forced* through the manager's ``forced_delays`` hook —
they happen regardless of replacement decisions, exactly like the tentative
delays in the paper's Fig. 7 worked example.

**Search strategies.**  The literal Fig. 6 scan simulates every delay
1, 2, ... until the makespan grows — O(mobility) isolated simulations per
task.  The delayed makespan is non-decreasing in the delay (delaying a
load strictly later can only push work later), so the production default
``search="bisect"`` exponentially probes 1, 2, 4, ... for the first
harmful delay and then bisects the bracket — O(log mobility) simulations,
with *identical* results.  ``verify=True`` additionally runs the literal
linear scan per task and falls back to its answer (with a warning) on any
divergence; the test suite runs the cross-check over every registered
scenario so the golden mobility tables stay byte-identical.

This module also provides :class:`PurelyRuntimeMobilityAdvisor`, the
"equivalent purely run-time" comparator from the paper's abstract: it
recomputes mobility on the fly at every replacement decision instead of
reading a precomputed table.  The ~10x hybrid speed-up claim is reproduced
by benchmarking the two (experiment X-HYB).  The comparator deliberately
runs the *literal* linear scan with no memoization — it models the cost of
not having a design-time phase, so it must not inherit the design-time
engine's shortcuts.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.exceptions import SimulationError
from repro.graphs.task_graph import TaskGraph
from repro.hw.model import DeviceModel
from repro.sim.interface import Decision, DecisionContext, ReplacementAdvisor
from repro.sim.manager import ExecutionManager, MobilityTables
from repro.sim.semantics import ManagerSemantics
from repro.core.policies.base import ReplacementPolicy
from repro.core.policies.lfd import LocalLFDPolicy
from repro.core.replacement_module import PolicyAdvisor

#: Valid delay-search strategies (see :class:`MobilityCalculator`).
SEARCH_MODES = ("bisect", "linear")

#: Sentinel makespan for infeasible delays (effectively +inf).
_INFEASIBLE = 2**63


@dataclass(frozen=True)
class MobilityResult:
    """Outcome of the design-time phase for one task graph."""

    graph_name: str
    n_rus: int
    reconfig_latency: int
    reference_makespan_us: int
    mobilities: Mapping[int, int]
    design_time_s: float

    def table(self) -> Dict[int, int]:
        return dict(self.mobilities)


class MobilityCalculator:
    """Design-time mobility assignment for a device configuration.

    Parameters
    ----------
    device:
        The target :class:`~repro.hw.model.DeviceModel` (keyword-only,
        required).  Mobility depends on all of it — a delay harmless on a
        wide device can be harmful on a narrow one — and the isolation
        schedules honour slot compatibility, per-configuration load costs
        and the controller pool, so mobility tables are exact for
        heterogeneous devices too.
    semantics:
        Manager semantics used for the isolation schedules.
    policy_factory:
        Victim-selection policy used when the isolated graph itself needs
        replacements (more tasks than RUs).  Defaults to Local LFD, the
        policy the module collaborates with at run time.
    max_mobility:
        Safety cap on the per-task search (defaults to twice the graph
        size plus a margin — more delay slots than events cannot help).
    search:
        ``"bisect"`` (default) — exponential probe then bisection over the
        delay axis, O(log mobility) simulations per task.
        ``"linear"`` — the literal Fig. 6 scan, O(mobility) simulations.
        Both return identical tables (monotone delayed makespan).
    verify:
        Cross-check every bisect result against the literal linear scan;
        on divergence warn and return the linear (paper-literal) answer.
        Expensive — meant for tests and golden-table audits, not sweeps.
    memoize_reference:
        Cache the reference makespan per graph across calls, so repeated
        ``compute``/``compute_tables`` invocations on the same calculator
        (e.g. by the session's artifact cache) pay the reference schedule
        once.  Disabled by the purely-run-time comparator, which must pay
        the full literal cost on every decision.
    """

    def __init__(
        self,
        semantics: ManagerSemantics = ManagerSemantics(),
        policy_factory=LocalLFDPolicy,
        max_mobility: Optional[int] = None,
        search: str = "bisect",
        verify: bool = False,
        memoize_reference: bool = True,
        *,
        device: DeviceModel,
    ) -> None:
        if search not in SEARCH_MODES:
            raise ValueError(f"search must be one of {SEARCH_MODES}, got {search!r}")
        self.device = device
        self.n_rus = device.n_rus
        self.reconfig_latency = device.reconfig_latency
        self.semantics = semantics
        self.policy_factory = policy_factory
        self.max_mobility = max_mobility
        self.search = search
        self.verify = verify
        self.memoize_reference = memoize_reference
        # Reference makespans keyed by graph *content* digest: identical
        # graphs share entries without pinning the objects, and the map is
        # capped (FIFO eviction) so a long-lived calculator shared across
        # many generated workloads cannot grow without bound.
        self._reference_cache: Dict[str, int] = {}
        self._reference_cache_cap = 512
        # Compiled single-graph workloads, keyed by graph identity (the
        # graph object is pinned alongside so ids cannot be recycled).
        # The Fig. 6 search simulates the same graph O(n log mobility)
        # times; compiling it once per calculator removes that redundancy.
        # Deliberately disabled with memoize_reference=False: the
        # purely-run-time comparator must not inherit design-time
        # shortcuts, so it recompiles per simulation exactly like a
        # manager constructed from scratch.
        self._compiled_cache: Dict[int, Tuple[TaskGraph, object]] = {}
        #: Isolated simulations run so far (observable by perf tests).
        self.simulations = 0

    # ------------------------------------------------------------------
    def _compiled_graph(self, graph: TaskGraph):
        from repro.workloads.compiled import CompiledWorkload

        if not self.memoize_reference:
            return None  # manager compiles per run (the honest literal cost)
        key = id(graph)
        entry = self._compiled_cache.get(key)
        if entry is not None and entry[0] is graph:
            return entry[1]
        if len(self._compiled_cache) >= self._reference_cache_cap:
            self._compiled_cache.pop(next(iter(self._compiled_cache)))
        compiled = CompiledWorkload.compile([graph])
        self._compiled_cache[key] = (graph, compiled)
        return compiled

    def _isolated_makespan(
        self, graph: TaskGraph, forced_delays: Optional[Mapping] = None
    ) -> int:
        self.simulations += 1
        manager = ExecutionManager(
            graphs=[graph],
            advisor=PolicyAdvisor(self.policy_factory()),
            semantics=self.semantics,
            forced_delays=forced_delays,
            trace="aggregate",  # only the makespan is read
            device=self.device,
            compiled=self._compiled_graph(graph),
        )
        return manager.run().makespan

    def reference_makespan(self, graph: TaskGraph) -> int:
        """Makespan of the all-mobility-zero ASAP schedule (Fig. 7a)."""
        if not self.memoize_reference:
            return self._isolated_makespan(graph)
        from repro.artifacts.keys import graphs_content_key

        key = graphs_content_key([graph])
        cached = self._reference_cache.get(key)
        if cached is not None:
            return cached
        value = self._isolated_makespan(graph)
        if len(self._reference_cache) >= self._reference_cache_cap:
            self._reference_cache.pop(next(iter(self._reference_cache)))
        self._reference_cache[key] = value
        return value

    def delayed_makespan(self, graph: TaskGraph, node_id: int, delay_events: int) -> int:
        """Makespan when ``node_id``'s load is delayed ``delay_events`` events.

        A delay so large the task never gets a load opportunity deadlocks
        the schedule; that is reported as an infinite makespan.
        """
        if delay_events == 0:
            return self.reference_makespan(graph)
        try:
            return self._isolated_makespan(
                graph, forced_delays={(0, node_id): delay_events}
            )
        except SimulationError:
            return _INFEASIBLE  # effectively +inf: the delay is infeasible

    # ------------------------------------------------------------------
    # Per-task delay search
    # ------------------------------------------------------------------
    def _linear_mobility(self, graph: TaskGraph, node_id: int, reference: int, cap: int) -> int:
        """The literal Fig. 6 scan: largest harmless delay, one sim each."""
        mobility = 0
        while mobility < cap:
            if self.delayed_makespan(graph, node_id, mobility + 1) > reference:
                break
            mobility += 1
        return mobility

    def _bisect_mobility(self, graph: TaskGraph, node_id: int, reference: int, cap: int) -> int:
        """Exponential probe + bisection for the first harmful delay.

        Relies on the delayed makespan being non-decreasing in the delay;
        under that invariant the result equals :meth:`_linear_mobility`
        exactly (and ``verify=True`` re-checks it per task).
        """
        def harmful(delay: int) -> bool:
            return self.delayed_makespan(graph, node_id, delay) > reference

        # Probe 1, 2, 4, ... for a bracket [last_ok, first_harmful].
        last_ok = 0
        probe = 1
        first_harmful = None
        while probe <= cap:
            if harmful(probe):
                first_harmful = probe
                break
            last_ok = probe
            probe *= 2
        if first_harmful is None:
            if last_ok < cap and harmful(cap):
                first_harmful = cap
            else:
                # Every delay up to the cap is harmless (or the cap itself
                # was already probed harmless): mobility saturates.
                return cap
        # Invariant: last_ok harmless, first_harmful harmful.
        lo, hi = last_ok, first_harmful
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if harmful(mid):
                hi = mid
            else:
                lo = mid
        return lo

    def _task_mobility(self, graph: TaskGraph, node_id: int, reference: int, cap: int) -> int:
        if self.search == "linear":
            return self._linear_mobility(graph, node_id, reference, cap)
        fast = self._bisect_mobility(graph, node_id, reference, cap)
        if self.verify:
            literal = self._linear_mobility(graph, node_id, reference, cap)
            if literal != fast:  # pragma: no cover - monotonicity safety net
                warnings.warn(
                    f"bisect mobility search diverged from the literal Fig. 6 "
                    f"scan for {graph.name!r} task {node_id} "
                    f"(bisect={fast}, linear={literal}); using the literal value",
                    RuntimeWarning,
                    stacklevel=2,
                )
                return literal
        return fast

    # ------------------------------------------------------------------
    def compute(self, graph: TaskGraph) -> MobilityResult:
        """Run the full Fig. 6 algorithm for one graph."""
        t0 = time.perf_counter()
        reference = self.reference_makespan(graph)
        order = graph.reconfiguration_order()
        cap = (
            self.max_mobility
            if self.max_mobility is not None
            else 2 * len(graph) + 4
        )
        mobilities: Dict[int, int] = {order[0]: 0}
        for node_id in order[1:]:
            mobilities[node_id] = self._task_mobility(graph, node_id, reference, cap)
        return MobilityResult(
            graph_name=graph.name,
            n_rus=self.n_rus,
            reconfig_latency=self.reconfig_latency,
            reference_makespan_us=reference,
            mobilities=mobilities,
            design_time_s=time.perf_counter() - t0,
        )

    def compute_tables(self, graphs: Sequence[TaskGraph]) -> Dict[str, Dict[int, int]]:
        """Mobility tables for a whole application set, keyed by graph name.

        Graphs sharing a name (repeated instances) are computed once, and
        one calculator reuses its memoized reference schedules across
        calls — hold on to the instance when computing tables for several
        workloads over the same catalog.
        """
        tables: Dict[str, Dict[int, int]] = {}
        for graph in graphs:
            if graph.name not in tables:
                tables[graph.name] = dict(self.compute(graph).mobilities)
        return tables


class PurelyRuntimeMobilityAdvisor(ReplacementAdvisor):
    """The paper's "equivalent purely run-time" comparator (abstract claim).

    Behaves exactly like :class:`PolicyAdvisor` with skip events, but
    instead of reading a precomputed mobility table it *recomputes* the
    incoming task's mobility with the full Fig. 6 search on every decision.
    Functionally identical; computationally ~an-order-of-magnitude slower —
    which is precisely the hybrid design-time/run-time argument.  Its
    internal calculator runs the literal linear scan with reference
    memoization disabled, so it pays the true no-design-time cost rather
    than inheriting the design-time engine's speedups.

    Like :class:`PolicyAdvisor`, it forwards the manager's bookkeeping
    notifications to the wrapped policy — stateful policies (LRU, LFU,
    LRU-K, CLOCK) must observe the same loads/reuses/execution ends under
    both advisors, otherwise the "functionally identical" comparison runs
    the policy on stale state.
    """

    def __init__(
        self,
        policy: ReplacementPolicy,
        graphs_by_name: Mapping[str, TaskGraph],
        semantics: ManagerSemantics = ManagerSemantics(),
        *,
        device: DeviceModel,
    ) -> None:
        self.policy = policy
        self.graphs_by_name = dict(graphs_by_name)
        self.calculator = MobilityCalculator(
            semantics=semantics,
            search="linear",
            memoize_reference=False,
            device=device,
        )
        self._cacheless_decisions = 0

    def decide(self, ctx: DecisionContext) -> Decision:
        victim_index = self.policy.select_victim(ctx)
        victim = next(v for v in ctx.candidates if v.index == victim_index)
        reusable = victim.config is not None and victim.config in ctx.dl_configs
        if reusable:
            mobility = self._online_mobility(ctx)
            if mobility > ctx.skipped_events:
                return Decision.skip_event(victim_index)
        return Decision.load(victim_index)

    def _online_mobility(self, ctx: DecisionContext) -> int:
        """Recompute the incoming task's mobility from scratch (no table)."""
        self._cacheless_decisions += 1
        graph = self.graphs_by_name[ctx.incoming.graph_name]
        result = self.calculator.compute(graph)
        return result.mobilities.get(ctx.incoming.node_id, 0)

    def reset(self) -> None:
        self.policy.reset()
        self._cacheless_decisions = 0

    # Forward manager bookkeeping to stateful policies, exactly as
    # PolicyAdvisor does — the comparator must differ only in *where* the
    # mobility number comes from, never in what the policy observes.
    def on_load_complete(self, ru_index: int, config, now: int) -> None:
        self.policy.on_load_complete(ru_index, config, now)

    def on_reuse(self, ru_index: int, config, now: int) -> None:
        self.policy.on_reuse(ru_index, config, now)

    def on_execution_end(self, ru_index: int, config, now: int) -> None:
        self.policy.on_execution_end(ru_index, config, now)

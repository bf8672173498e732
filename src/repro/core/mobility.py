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

**Cost.**  The search is the literal Fig. 6 scan (mobilities are small —
at most 6 on the benchmark catalog — so it probes less than a bisection
would).  What the production calculator saves is everything around the
probes, without changing a value:

* one :class:`~repro.sim.manager.ExecutionManager` per graph and
  effective device, armed once;
* prefix resume: every probe matches the reference run until its
  delayed task reaches the dispatch head, so it restores an in-place
  :meth:`~repro.sim.manager.ExecutionManager.snapshot` of the reference
  run's last cut before that point and simulates only the suffix (see
  :class:`_IsolatedRuns` for why only those cuts are exact);
* tables keyed on the *effective device*: on a floorplan of identical
  slots a graph run alone never touches more than ``len(graph)`` RUs, so
  its table on R RUs is its table on ``min(R, len(graph))``.  A memoizing
  calculator computes each graph's table once per effective device and
  shares it with every calculator :meth:`MobilityCalculator.for_device`
  derives from it.  Tables computed elsewhere — one
  :func:`compute_table` call per unit, e.g. on a sweep's worker pool —
  are seeded into that memo (:meth:`MobilityCalculator.seed`).

This module also provides :class:`PurelyRuntimeMobilityAdvisor`, the
"equivalent purely run-time" comparator from the paper's abstract: it
recomputes mobility on the fly at every replacement decision instead of
reading a precomputed table.  The ~10x hybrid speed-up claim is reproduced
by benchmarking the two (experiment X-HYB).  The comparator runs with
``memoize=False``: a fresh manager per probe, no memo and the full device
— it models the cost of not having a design-time phase, so it must not
inherit the design-time engine's shortcuts.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import DispatchDeadlockError
from repro.graphs.task_graph import TaskGraph
from repro.hw.model import DeviceModel
from repro.sim.interface import (
    Decision,
    DecisionContext,
    ReplacementAdvisor,
    find_candidate,
)
from repro.sim.manager import ExecutionManager
from repro.sim.semantics import ManagerSemantics
from repro.core.policies.base import ReplacementPolicy
from repro.core.policies.lfd import LocalLFDPolicy
from repro.core.replacement_module import PolicyAdvisor
from repro.workloads.compiled import distinct_graphs

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
    memoize:
        Re-arm one manager per graph across its probes and keep each
        table per (graph, effective device), shared with the calculators
        :meth:`for_device` derives.  Disabled by the purely-run-time
        comparator, which must pay the full literal cost on every
        decision: a fresh manager per probe, no memo, the full device.
    """

    def __init__(
        self,
        semantics: ManagerSemantics = ManagerSemantics(),
        policy_factory=LocalLFDPolicy,
        max_mobility: Optional[int] = None,
        memoize: bool = True,
        *,
        device: DeviceModel,
    ) -> None:
        self.device = device
        self.n_rus = device.n_rus
        self.reconfig_latency = device.reconfig_latency
        self.semantics = semantics
        self.policy_factory = policy_factory
        self.max_mobility = max_mobility
        self.memoize = memoize
        #: Tables per (graph, effective device); graphs hash by content.
        self._tables: Dict[Tuple[TaskGraph, DeviceModel], Dict[int, int]] = {}
        #: Isolated simulations run so far (observable by perf tests).
        self.simulations = 0

    def for_device(self, device: DeviceModel) -> "MobilityCalculator":
        """A calculator with these settings for ``device``, sharing this
        one's table memo (its simulation count starts at zero)."""
        twin = copy.copy(self)
        twin.device = device
        twin.n_rus = device.n_rus
        twin.reconfig_latency = device.reconfig_latency
        twin.simulations = 0
        return twin

    def effective_device(self, graph: TaskGraph) -> DeviceModel:
        """The device ``graph``'s isolation schedules are run on.

        A graph run alone on identical slots never touches more than
        ``len(graph)`` RUs, so the extra RUs cannot change a makespan.
        Mixed floorplans, and the comparator (``memoize=False``), keep
        the full device.
        """
        device = self.device
        if self.memoize and device.n_rus > len(graph) and len(set(device.slots)) == 1:
            return device.with_n_rus(len(graph))
        return device

    def reference_makespan(self, graph: TaskGraph) -> int:
        """Makespan of the all-mobility-zero ASAP schedule (Fig. 7a)."""
        return _IsolatedRuns(self, graph).makespan()

    def delayed_makespan(self, graph: TaskGraph, node_id: int, delay_events: int) -> int:
        """Makespan when ``node_id``'s load is delayed ``delay_events`` events.

        A delay so large the task never gets a load opportunity deadlocks
        the schedule; that is reported as an infinite makespan.
        """
        return _IsolatedRuns(self, graph).delayed(node_id, delay_events)

    # ------------------------------------------------------------------
    def compute(self, graph: TaskGraph) -> MobilityResult:
        """Run the full Fig. 6 algorithm for one graph."""
        t0 = time.perf_counter()
        runs = _IsolatedRuns(self, graph)
        reference = runs.makespan()
        order = graph.reconfiguration_order()
        cap = (
            self.max_mobility
            if self.max_mobility is not None
            else 2 * len(graph) + 4
        )
        mobilities: Dict[int, int] = {order[0]: 0}
        for node_id in order[1:]:
            # The literal scan: the largest harmless delay, one run each.
            mobility = 0
            while mobility < cap and runs.delayed(node_id, mobility + 1) <= reference:
                mobility += 1
            mobilities[node_id] = mobility
        return MobilityResult(
            graph_name=graph.name,
            n_rus=self.n_rus,
            reconfig_latency=self.reconfig_latency,
            reference_makespan_us=reference,
            mobilities=mobilities,
            design_time_s=time.perf_counter() - t0,
        )

    def missing_units(
        self, graphs: Sequence[TaskGraph]
    ) -> List[Tuple[TaskGraph, DeviceModel]]:
        """The ``(graph, effective device)`` tables :meth:`compute_tables`
        would compute for ``graphs`` (none without a memo)."""
        if not self.memoize:
            return []
        units = [
            (graph, self.effective_device(graph)) for graph in distinct_graphs(graphs)
        ]
        return [unit for unit in units if unit not in self._tables]

    def seed(
        self,
        units: Sequence[Tuple[TaskGraph, DeviceModel]],
        tables: Sequence[Mapping[int, int]],
    ) -> None:
        """Memoize tables computed elsewhere (by :func:`compute_table`)
        for :meth:`missing_units`' units, so :meth:`compute_tables` serves
        them as hits."""
        for unit, table in zip(units, tables):
            self._tables[unit] = dict(table)

    def compute_tables(self, graphs: Sequence[TaskGraph]) -> Dict[str, Dict[int, int]]:
        """Mobility tables for a whole application set, keyed by graph name.

        Graphs sharing a name (repeated instances) are computed once; two
        *different* graphs sharing a name raise
        :class:`~repro.exceptions.WorkloadError`.  A memoizing calculator
        computes a graph's table once per effective device across calls
        and across its :meth:`for_device` twins.
        """
        memo = self._tables if self.memoize else {}
        tables: Dict[str, Dict[int, int]] = {}
        for graph in distinct_graphs(graphs):
            key = (graph, self.effective_device(graph))
            if key not in memo:
                memo[key] = self.compute(graph).table()
            tables[graph.name] = dict(memo[key])
        return tables


def compute_table(graph: TaskGraph, device: DeviceModel) -> Dict[int, int]:
    """One unit of the design phase: ``graph``'s table on its effective
    ``device`` (a :meth:`MobilityCalculator.missing_units` entry), as a
    default memoizing calculator computes it.  Picklable by reference, so
    process-pool workers run it (see
    :meth:`~repro.backends.base.ExecutorBackend.compute_mobility`)."""
    return MobilityCalculator(device=device).compute(graph).table()


class _IsolatedRuns:
    """The isolated simulations of one graph (the probes of one search).

    A memoizing calculator arms one manager per (graph, effective device)
    and resumes every probe from the reference run's shared prefix;
    otherwise (the X-HYB comparator) each probe constructs a manager.

    While the reference run executes, the manager's cut hook keeps, per
    dispatch position ``q``, an in-place snapshot of the last
    between-event cut with the head at ``q``.  A probe delaying the task
    at position ``p`` restores the latest snapshot with ``q < p`` (or the
    post-arm one) and runs only the suffix.  Only ``q < p`` is exact: a
    forced delay is used up on *every* dispatcher visit to the head task,
    so a cut with the head already at ``p`` has spent budget the probe's
    delay must spend differently, and a probe for delay ``d`` is not a
    continuation of the one for ``d - 1``.
    """

    def __init__(self, calc: MobilityCalculator, graph: TaskGraph) -> None:
        self.calc = calc
        self.graph = graph
        self.device = calc.effective_device(graph)
        self.manager: Optional[ExecutionManager] = None
        #: Post-arm snapshot, then per position ``p`` the cut to resume
        #: a probe delaying the task at ``p`` from (once the reference
        #: run recorded them).
        self._start: Optional[tuple] = None
        self._resume_at: Optional[List[tuple]] = None
        self._position: Dict[int, int] = {
            nid: p for p, nid in enumerate(graph.reconfiguration_order())
        }

    def makespan(self, forced_delays: Optional[Mapping] = None) -> int:
        calc = self.calc
        calc.simulations += 1
        if not calc.memoize:
            return ExecutionManager(
                graphs=[self.graph],
                advisor=PolicyAdvisor(calc.policy_factory()),
                semantics=calc.semantics,
                forced_delays=forced_delays,
                trace="aggregate",  # only the makespan is read
                device=self.device,
            ).run().makespan
        manager = self.manager
        if manager is None:
            manager = self.manager = ExecutionManager(
                graphs=[self.graph],
                advisor=PolicyAdvisor(calc.policy_factory()),
                semantics=calc.semantics,
                trace="aggregate",
                device=self.device,
            )
            self._start = manager.snapshot()
        if forced_delays:
            first = min(self._position.get(nid, 0) for _app, nid in forced_delays)
            cuts = self._resume_at
            manager.restore(
                self._start if cuts is None else cuts[first], forced_delays
            )
            return manager.run().makespan
        manager.restore(self._start)
        if self._resume_at is not None:
            return manager.run().makespan
        return self._record_reference(manager)

    def _record_reference(self, manager: ExecutionManager) -> int:
        """Run the reference schedule, snapshotting its between-event cuts."""
        n = len(self._position)
        last_cut: Dict[int, tuple] = {}

        def keep(mgr: ExecutionManager) -> None:
            q = mgr.head_position
            if q < n - 1:  # no probe delays a task past the last one
                last_cut[q] = mgr.snapshot()

        manager.set_cut_hook(keep)
        try:
            makespan = manager.run().makespan
        finally:
            manager.set_cut_hook(None)
        resume_at = []
        cut = self._start
        for p in range(n):
            # The latest cut whose head is still before p.
            cut = last_cut.get(p - 1, cut)
            resume_at.append(cut)
        self._resume_at = resume_at
        return makespan

    def delayed(self, node_id: int, delay_events: int) -> int:
        if delay_events == 0:
            return self.makespan()
        try:
            return self.makespan({(0, node_id): delay_events})
        except DispatchDeadlockError:
            return _INFEASIBLE  # effectively +inf: the delay is infeasible


class PurelyRuntimeMobilityAdvisor(ReplacementAdvisor):
    """The paper's "equivalent purely run-time" comparator (abstract claim).

    Behaves exactly like :class:`PolicyAdvisor` with skip events, but
    instead of reading a precomputed mobility table it *recomputes* the
    incoming task's mobility with the full Fig. 6 search on every decision.
    Functionally identical; computationally ~an-order-of-magnitude slower —
    which is precisely the hybrid design-time/run-time argument.  Its
    internal calculator runs with ``memoize=False`` (a fresh manager per
    probe, no memo, the full device), so it pays the true no-design-time
    cost rather than inheriting the design-time engine's speedups.

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
            semantics=semantics, memoize=False, device=device
        )
        self._cacheless_decisions = 0

    def decide(self, ctx: DecisionContext) -> Decision:
        victim_index = self.policy.select_victim(ctx)
        victim = find_candidate(ctx.candidates, victim_index)
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

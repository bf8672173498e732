"""High-level simulation entry points and result records.

:func:`run_simulation` wires an application sequence, a device
configuration and a replacement advisor into the :class:`ExecutionManager`
and returns a :class:`SimulationResult` with the trace and the derived
headline metrics (reuse rate, reconfiguration overhead vs. the
zero-latency ideal).  It is the single engine entry point used by
:class:`repro.session.Session`.  The hardware is always a
:class:`~repro.hw.model.DeviceModel`, passed as the keyword-only
``device=``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

from repro.exceptions import SimulationError
from repro.graphs.task_graph import TaskGraph
from repro.hw.model import DeviceModel
from repro.sim.interface import Decision, DecisionContext, ReplacementAdvisor
from repro.sim.manager import ExecutionManager, MobilityTables
from repro.sim.semantics import ManagerSemantics
from repro.sim.tracing import TraceMode, TraceSink, TraceView
from repro.workloads.compiled import CompiledWorkload


class _FirstCandidateAdvisor(ReplacementAdvisor):
    """Trivial advisor: always evict the lowest-index candidate.

    Used internally for zero-latency ideal runs, where the victim choice
    cannot affect the makespan (loads are free).
    """

    def decide(self, ctx: DecisionContext) -> Decision:
        return Decision.load(ctx.candidates[0].index)


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one simulated run.

    ``overhead_us`` is the paper's reconfiguration overhead: the makespan
    increase relative to an ideal execution with zero reconfiguration
    latency on the same device (S4 barrier semantics included).

    ``trace`` is whatever view the run's trace mode retained: the classic
    record-list :class:`~repro.sim.trace.Trace` under ``trace="full"``
    (the default), or the O(1)
    :class:`~repro.sim.tracing.AggregateTrace` under ``"aggregate"`` /
    JSONL-path modes.  Both views expose the counters, ``reuse_rate()``
    and ``summary()`` used here and by the metrics layer.
    """

    trace: TraceView
    makespan_us: int
    ideal_makespan_us: int
    n_apps: int

    @property
    def overhead_us(self) -> int:
        return self.makespan_us - self.ideal_makespan_us

    @property
    def reuse_rate(self) -> float:
        return self.trace.reuse_rate()

    @property
    def reuse_pct(self) -> float:
        return 100.0 * self.trace.reuse_rate()

    def remaining_overhead_pct(self) -> float:
        """Percentage of the *original* reconfiguration overhead remaining.

        The paper's Fig. 9c normalises the measured overhead by the
        overhead the workload would suffer with no reuse and no prefetch:
        one full load per executed task, each at its own configuration's
        latency.  The trace accumulates exactly that sum
        (``no_reuse_baseline_us``, from the per-execution ``load_us``
        events), so the normalisation stays correct on devices whose
        reconfiguration cost varies per configuration.  On fixed-latency
        devices the sum equals the historical
        ``n_executions * reconfig_latency`` product to the byte; traces
        replayed from event logs predating ``load_us`` fall back to it.
        """
        baseline = getattr(self.trace, "no_reuse_baseline_us", 0)
        if baseline == 0:  # pre-load_us event logs (or zero-latency runs)
            baseline = self.trace.n_executions * self.trace.reconfig_latency
        if baseline == 0:
            return 0.0
        return 100.0 * self.overhead_us / baseline

    def summary(self) -> Dict[str, object]:
        out = dict(self.trace.summary())
        out.update(
            {
                "ideal_makespan_us": self.ideal_makespan_us,
                "overhead_us": self.overhead_us,
                "overhead_ms": self.overhead_us / 1000.0,
                "remaining_overhead_pct": round(self.remaining_overhead_pct(), 2),
                "reuse_pct": round(self.reuse_pct, 2),
                "n_apps": self.n_apps,
            }
        )
        return out


def run_simulation(
    graphs: Sequence[TaskGraph],
    advisor: Optional[ReplacementAdvisor] = None,
    semantics: ManagerSemantics = ManagerSemantics(),
    mobility_tables: Optional[MobilityTables] = None,
    arrival_times: Optional[Sequence[int]] = None,
    ideal_makespan_us: Optional[int] = None,
    trace: TraceMode = "full",
    extra_sinks: Sequence[TraceSink] = (),
    *,
    device: DeviceModel,
    compiled: Optional[CompiledWorkload] = None,
    checkpoint_every: int = 0,
    checkpoint_store=None,
    checkpoint_key: Optional[str] = None,
    resume_from: Optional[Dict[str, object]] = None,
) -> SimulationResult:
    """Run the sequence and compute headline metrics (engine entry point).

    ``device`` is the :class:`~repro.hw.model.DeviceModel` to run on
    (slots, per-configuration latencies, reconfiguration controllers);
    the paper's device is ``DeviceModel.homogeneous(n_rus, 4000)``.

    ``ideal_makespan_us`` can be supplied to avoid recomputing the
    zero-latency baseline when sweeping policies over a fixed workload —
    :class:`repro.session.Session` does this automatically through its
    artifact cache.

    ``trace`` selects what the run retains — ``"full"`` record lists
    (default), ``"aggregate"`` O(1) counters, or a JSONL output path —
    and ``extra_sinks`` attaches additional event observers; see
    :mod:`repro.sim.tracing`.

    ``compiled`` is the workload's
    :class:`~repro.workloads.compiled.CompiledWorkload` — the
    run-independent pre-processing.  Supply it when running the same
    sequence repeatedly (:class:`repro.session.Session` does this
    automatically through its artifact cache); omitted, it is rebuilt on
    the fly with identical results.

    Crash safety (see :mod:`repro.resilience.checkpoint` and
    docs/resilience.md): with ``checkpoint_every=N`` (requires
    ``checkpoint_store`` and ``checkpoint_key``) the engine persists a
    resumable snapshot every N events and removes it when the run
    completes.  When a usable snapshot already exists under that key the
    run resumes from it — event-for-event identical to the uninterrupted
    run — while a corrupt or mismatched snapshot is evicted and the run
    falls back to a fresh start.  ``resume_from`` restores an explicit
    decoded checkpoint payload instead (strict: raises
    :class:`~repro.resilience.checkpoint.CheckpointError` on mismatch).
    """
    if compiled is None:
        compiled = CompiledWorkload.compile(graphs)
    manager = ExecutionManager(
        graphs=graphs,
        advisor=advisor,
        semantics=semantics,
        mobility_tables=mobility_tables,
        arrival_times=arrival_times,
        trace=trace,
        extra_sinks=extra_sinks,
        device=device,
        compiled=compiled,
    )
    if checkpoint_every or resume_from is not None or checkpoint_key is not None:
        from repro.resilience.checkpoint import (
            arm_checkpointing,
            restore_checkpoint,
            resume_from_store,
        )

        if resume_from is not None:
            restore_checkpoint(manager, resume_from)
        elif checkpoint_store is not None and checkpoint_key is not None:
            resume_from_store(manager, checkpoint_store, checkpoint_key)
        if checkpoint_every:
            if checkpoint_store is None or checkpoint_key is None:
                raise SimulationError(
                    "checkpoint_every requires checkpoint_store and "
                    "checkpoint_key"
                )
            arm_checkpointing(
                manager, checkpoint_every, checkpoint_store, checkpoint_key
            )
    trace_view = manager.run()
    if checkpoint_key is not None and checkpoint_store is not None:
        # The run finished: its checkpoint is spent.  Leaving it behind
        # would make the *next* invocation of the same run resume into
        # an already-complete engine instead of re-running.
        checkpoint_store.remove("checkpoint", checkpoint_key)
    if ideal_makespan_us is None:
        ideal_makespan_us = ideal_makespan(
            graphs,
            arrival_times=arrival_times,
            semantics=semantics,
            device=device,
            compiled=compiled,
        )
    return SimulationResult(
        trace=trace_view,
        makespan_us=trace_view.makespan,
        ideal_makespan_us=ideal_makespan_us,
        n_apps=len(graphs),
    )


def ideal_makespan(
    graphs: Sequence[TaskGraph],
    arrival_times: Optional[Sequence[int]] = None,
    semantics: ManagerSemantics = ManagerSemantics(),
    *,
    device: DeviceModel,
    compiled: Optional[CompiledWorkload] = None,
) -> int:
    """Makespan of the zero-reconfiguration-latency run on the same device.

    The baseline honours the measured run's barrier, arrival and resource
    semantics.  It runs on ``device``'s
    :meth:`~repro.hw.model.DeviceModel.zero_latency` — same floorplan
    (slot compatibility still constrains placement) and same controller
    pool, free loads — so heterogeneous-device overheads are measured
    like-for-like too.  ``arrival_times`` must match the measured run's:
    an application cannot start before it arrives, and an ideal that
    ignores arrivals books that idle wait as reconfiguration overhead.
    Computed by :func:`folded_ideal`.  For saturated arrivals on devices
    with at least as many RUs as the widest application this equals the
    sum of the applications' critical paths (asserted by the test suite).
    """
    ideal_device = device.zero_latency()
    return folded_ideal(
        graphs,
        ideal_device,
        arrival_times,
        semantics,
        compiled,
        lambda graph, solo: _zero_latency_run([graph], ideal_device, compiled=solo),
    )


def ideal_floorplan(device: DeviceModel) -> Optional[Tuple]:
    """The part of a device that can shape a zero-latency schedule:
    ``None`` unless slot capacities differ, else the hashable
    ``(kind, capacity_kb)`` slots.  Loads are free, so neither latency
    model nor controller count matters, and a uniform capacity fits a
    configuration everywhere or nowhere (which fails validation)."""
    if len({s.capacity_kb for s in device.slots}) <= 1:
        return None
    return tuple((s.kind, s.capacity_kb) for s in device.slots)


def _zero_latency_run(
    graphs: Sequence[TaskGraph],
    ideal_device: DeviceModel,
    semantics: ManagerSemantics = ManagerSemantics(),
    arrival_times: Optional[Sequence[int]] = None,
    compiled: Optional[CompiledWorkload] = None,
) -> int:
    """Simulated makespan on a free-loading device; only the makespan is
    needed, so the run streams through the aggregate sink."""
    manager = ExecutionManager(
        graphs=graphs,
        advisor=_FirstCandidateAdvisor(),
        semantics=semantics,
        arrival_times=arrival_times,
        trace="aggregate",
        device=ideal_device,
        compiled=compiled,
    )
    return manager.run().makespan


_warned_mixed_capacity = False


def folded_ideal(
    graphs: Sequence[TaskGraph],
    ideal_device: DeviceModel,
    arrival_times: Optional[Sequence[int]],
    semantics: ManagerSemantics,
    compiled: Optional[CompiledWorkload],
    per_graph: Callable[[TaskGraph, CompiledWorkload], int],
) -> int:
    """The zero-latency ideal of a sequence, from per-graph ideals.

    Under the S4 barrier application *k+1* executes only after
    application *k* has finished, and at zero latency every load is free,
    so nothing earlier applications left loaded speeds it up or delays
    it: it takes its stand-alone ideal ``per_graph(graph, compiled)``
    (``compiled`` is ``[graph]`` compiled), and
    ``end = max(arrival_k, end) + ideal(graph_k)`` folded over the
    sequence is exact.  No :class:`ManagerSemantics` knob
    can move a stand-alone run — they govern how *later* applications
    are prefetched or shown to the advisor.  ``ideal_device`` must
    already load for free.

    On mixed-capacity floorplans the fold is not exact: first-candidate
    placement depends on which slots earlier applications left occupied.
    Those simulate the whole workload instead, with a one-time
    :class:`RuntimeWarning`.  Invalid inputs raise the same
    :class:`SimulationError` a simulated run would.
    """
    compiled = ExecutionManager.checked_workload(
        graphs, arrival_times, ideal_device, compiled
    )
    if ideal_floorplan(ideal_device) is not None:
        global _warned_mixed_capacity
        if not _warned_mixed_capacity:
            _warned_mixed_capacity = True
            warnings.warn(
                "zero-latency ideal: no closed form on mixed-capacity "
                "floorplans, simulating the whole workload (first such "
                f"device: {ideal_device.label!r})",
                RuntimeWarning,
                stacklevel=3,
            )
        return _zero_latency_run(
            graphs, ideal_device, semantics, arrival_times, compiled
        )
    app_graph = compiled.app_graph
    ideals = [
        per_graph(graphs[app_graph.index(gi)], compiled.solo(gi))
        for gi in range(len(compiled.graphs))
    ]
    if arrival_times is None or not any(arrival_times):
        return sum(map(ideals.__getitem__, app_graph))
    end = 0
    for gi, arrival in zip(app_graph, arrival_times):
        end = max(end, arrival) + ideals[gi]
    return end


def sum_of_critical_paths(graphs: Sequence[TaskGraph]) -> int:
    """Closed-form ideal makespan when RUs are not a constraint."""
    return sum(g.critical_path_length() for g in graphs)

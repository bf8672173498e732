"""The event-triggered task-graph execution manager (paper §IV, Fig. 4).

This is the substrate the paper builds on (their ref [9]): it manages the
execution of a sequence of applications (task graphs) on a
:class:`~repro.hw.model.DeviceModel` — RU slots with capability/size
classes, a per-configuration latency model, and a pool of ``n_controllers``
reconfiguration circuitries — applying ASAP configuration prefetch, and it
invokes the replacement module every time a new task must be loaded.  The
paper's device (``n`` equal RUs, one circuitry, one fixed latency) is
``DeviceModel.homogeneous(n, latency)``.

Model summary (see DESIGN.md §3 for the resolved ambiguities S1-S6):

* Applications execute strictly in sequence order: task executions of
  application *k+1* begin only after application *k* has completed (S4).
  Reconfigurations, however, are *prefetched*: while an application
  executes, the manager keeps loading upcoming configurations, including —
  subject to the S1 knob — configurations of future applications within the
  Dynamic-List lookahead.
* The design-time pre-processing stores each graph's tasks in a "sorted
  sequence of reconfigurations" (:meth:`TaskGraph.reconfiguration_order`);
  the global dispatch order is the concatenation of the per-application
  sequences.  That pre-processing now lives in
  :class:`~repro.workloads.compiled.CompiledWorkload` — built once per
  workload and shared across runs, sweep cells and worker processes
  (pass ``compiled=``; the manager compiles on the fly otherwise).
* When the head of the sequence is already loaded, it is **reused**: no
  reconfiguration happens and the RU is claimed for the upcoming execution.
  Reuses of future applications are consumed only when the application
  becomes current (S2), so a loaded future configuration parks the
  sequence rather than claiming device state early.
* When a load needs an eviction, the manager builds a decision context
  and consults the :class:`ReplacementAdvisor` (the paper's replacement
  module, Fig. 8), which may *skip the event* — delay the reconfiguration —
  when the victim would be reused soon and the incoming task has mobility
  to spare.

Hot-loop engineering (see docs/performance.md): the Dynamic-List window
handed to policies is maintained *incrementally* as the dispatch pointer
and clock advance (O(1) amortised per decision instead of rescanning the
remaining sequence), the oracle view is a lazy slice of the precompiled
flat reference string, decision contexts and RU snapshots are per-manager
scratch structures reused across decisions, and free RUs / ready
executions / busy configurations are tracked in dedicated collections so
no per-event full-device scan remains.  Runtime bookkeeping is columnar:
all per-node, per-config and per-RU mutable state lives in the flat
integer columns of :class:`~repro.sim.columns.EngineState`, preallocated
once from the compiled workload — the event loop indexes lists by the
flat node slot (``app_offsets[app] + rec_position``) instead of building
per-instance dicts or chasing object attributes.  None of this changes a
single emitted trace event — equivalence is pinned event-for-event by
``tests/test_compiled_equivalence.py``.
"""

from __future__ import annotations

import bisect
import heapq
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import PolicyError, SimulationError
from repro.graphs.task import ConfigId, TaskInstance
from repro.graphs.task_graph import TaskGraph
from repro.hw.model import DeviceModel
from repro.sim.columns import NO_INDEX, EngineState
from repro.sim.events import EventKind, EventQueue
from repro.sim.interface import Decision, ReplacementAdvisor, resolve_hook
from repro.sim.ru import RU, RUState
from repro.sim.semantics import CrossAppPrefetch, ManagerSemantics
from repro.sim.tracing import (
    SCALAR_HOOK_KEYS,
    AppActivated,
    AppCompleted,
    Eviction,
    ExecEnd,
    ExecStart,
    ReconfigEnd,
    ReconfigStart,
    Reuse,
    RunEnd,
    RunStart,
    Skip,
    TraceEvent,
    TraceMode,
    TraceSink,
    TraceView,
    resolve_trace_mode,
)
from repro.workloads.compiled import (
    CompiledApp,
    CompiledWorkload,
    RefsView,
    WindowConfigSet,
)

#: Mobility tables: graph name -> node id -> mobility (max skippable events).
MobilityTables = Mapping[str, Mapping[int, int]]

_EXEC = int(EventKind.END_OF_EXECUTION)
_RECONF = int(EventKind.END_OF_RECONFIGURATION)
_ARRIVAL = int(EventKind.APP_ARRIVAL)

_LOADED = RUState.LOADED


class _AppRun:
    """Read-only view of one application instance's runtime state.

    The mutable bookkeeping lives in the manager's
    :class:`~repro.sim.columns.EngineState` columns; this object is the
    stable introspection surface (``mgr.apps[i].capp`` etc.) kept for
    advisors, tests and tooling.  The hot loop indexes the columns
    directly and never touches these views.
    """

    __slots__ = ("index", "capp", "arrival_time", "_state")

    def __init__(
        self, index: int, capp: CompiledApp, arrival_time: int, state: EngineState
    ) -> None:
        self.index = index
        self.capp = capp
        self.arrival_time = arrival_time
        self._state = state

    @property
    def unfinished(self) -> int:
        return self._state.unfinished[self.index]

    def complete(self) -> bool:
        return self._state.unfinished[self.index] == 0


class _ScratchRUView:
    """Mutable RU snapshot reused across decisions (duck-types ``RUView``).

    One instance exists per RU per manager; its volatile fields are
    refreshed right before each replacement decision.  Policies must not
    retain references across ``decide`` calls (none of the registered
    policies do — the decision context is documented as valid for the
    duration of one decision).
    """

    __slots__ = ("index", "config", "state", "last_use", "load_end", "kind", "capacity_kb")

    def __init__(self, index: int, kind: str, capacity_kb: Optional[int]) -> None:
        self.index = index
        self.config: Optional[ConfigId] = None
        self.state = RUState.EMPTY
        self.last_use = 0
        self.load_end = 0
        self.kind = kind
        self.capacity_kb = capacity_kb


class _ScratchContext:
    """Mutable decision context reused across decisions.

    Duck-types :class:`~repro.sim.interface.DecisionContext`; the frozen
    dataclass remains the documented contract (and what unit tests build),
    this is simply the allocation-free carrier the manager hands to the
    advisor.  Valid only for the duration of one ``decide`` call.
    """

    __slots__ = (
        "now",
        "incoming",
        "candidates",
        "future_refs",
        "oracle_refs",
        "dl_configs",
        "busy_configs",
        "mobility",
        "skipped_events",
    )

    def __init__(self) -> None:
        self.now = 0
        self.incoming: Optional[TaskInstance] = None
        self.candidates: Sequence = ()
        self.future_refs: Sequence[ConfigId] = ()
        self.oracle_refs: Optional[Sequence[ConfigId]] = None
        self.dl_configs = frozenset()
        self.busy_configs = frozenset()
        self.mobility = 0
        self.skipped_events = 0


class ExecutionManager:
    """Simulates one run of an application sequence on the device.

    Parameters
    ----------
    graphs:
        The application sequence, in execution order.
    device:
        The :class:`~repro.hw.model.DeviceModel` (keyword-only, required):
        RU slots, per-configuration latency model, ``n_controllers``
        parallel reconfiguration circuitries — the paper's device is
        ``DeviceModel.homogeneous(n_rus, 4000)``.  Every configuration of the
        workload must fit at least one slot (checked at construction).
        Controller arbitration is deterministic: loads dispatch in
        reconfiguration-sequence order onto the lowest-numbered free
        controller.
    advisor:
        The replacement module.  See :mod:`repro.core` for the paper's
        policies; :class:`repro.sim.interface.ReplacementAdvisor` for the
        contract.
    semantics:
        Manager behaviour switches (defaults = calibrated paper mode).
    mobility_tables:
        Optional design-time mobility per graph/node (enables the
        skip-event feature when the advisor honours it).
    arrival_times:
        Optional per-application arrival times (µs).  Applications are
        invisible to dispatch before arrival.  Defaults to all zero
        (the whole Dynamic List known from the start, window permitting).
    forced_delays:
        Optional ``(app_index, node_id) -> n_events`` map: the dispatcher
        unconditionally skips the first ``n_events`` load opportunities of
        that task instance.  This is the mechanism the *design-time*
        mobility calculation (paper Fig. 6) uses to tentatively delay one
        task and measure the schedule impact; it is not used at run time.
    trace:
        What to retain about the run (see :mod:`repro.sim.tracing`):
        ``"full"`` (default) reconstructs the classic record-list
        :class:`~repro.sim.trace.Trace`; ``"aggregate"`` keeps O(1)
        counters only; a path streams every event to a JSONL file while
        keeping aggregate counters in memory.
    extra_sinks:
        Additional :class:`~repro.sim.tracing.TraceSink` observers; they
        receive every event after the primary sink.
    compiled:
        A :class:`~repro.workloads.compiled.CompiledWorkload` for
        ``graphs`` — the run-independent pre-processing, computed once
        per workload and shared across runs/processes.  Compiled on the
        fly when omitted (identical behaviour, just repeated work).
    """

    def __init__(
        self,
        graphs: Sequence[TaskGraph],
        advisor: Optional[ReplacementAdvisor] = None,
        semantics: ManagerSemantics = ManagerSemantics(),
        mobility_tables: Optional[MobilityTables] = None,
        arrival_times: Optional[Sequence[int]] = None,
        forced_delays: Optional[Mapping[Tuple[int, int], int]] = None,
        trace: TraceMode = "full",
        extra_sinks: Sequence[TraceSink] = (),
        *,
        device: DeviceModel,
        compiled: Optional[CompiledWorkload] = None,
    ) -> None:
        if advisor is None:
            raise SimulationError("an advisor (replacement module) is required")
        compiled = self.checked_workload(graphs, arrival_times, device, compiled)

        self.semantics = semantics
        self.device = device
        self.n_rus = device.n_rus
        self.reconfig_latency = device.reconfig_latency
        self.mobility_tables = mobility_tables or {}
        self.compiled = compiled
        self._arrivals = list(arrival_times) if arrival_times else [0] * len(graphs)

        # Fast-path switches: on the paper's homogeneous device neither a
        # per-load bitstream lookup nor slot-compatibility filtering runs.
        self._fixed_latency = device.fixed_latency_us
        self._uniform_slots = device.has_uniform_slots
        #: Per-dense-config load cost, only materialised when it varies.
        self._cost_by_cid: Optional[Tuple[int, ...]] = (
            None if self._fixed_latency is not None else compiled.load_costs(device)
        )
        self._n_apps = compiled.n_apps
        #: Per instance: compiled graph and task count (flat, no object hop).
        self._app_capps: List[CompiledApp] = [
            compiled.graphs[gi] for gi in compiled.app_graph
        ]
        self._app_ntasks = compiled.app_n_tasks
        #: Checkpoint cadence — when armed by
        #: :func:`repro.resilience.checkpoint.arm_checkpointing` — how
        #: often and how to persist a snapshot.
        self._checkpoint_every = 0
        self._checkpoint_write = None

        # Loop-invariant semantics switches, resolved once.
        self._lookahead = semantics.lookahead_apps
        self._cap_isolated = semantics.cross_app_prefetch is CrossAppPrefetch.ISOLATED
        self._cap_free_only = (
            semantics.cross_app_prefetch is CrossAppPrefetch.FREE_RU_ONLY
        )
        self._stall_loaded = semantics.stall_on_loaded_future
        self._provide_oracle = semantics.provide_oracle

        self._ctx = _ScratchContext()
        # Reusable lazy views over the flat reference string; their
        # bounds are refreshed per decision (valid for one decision only).
        self._future_view = RefsView(compiled.flat_configs, 0, 0)
        self._oracle_view = RefsView(compiled.flat_configs, 0, 0)
        self._cand_scratch: List[_ScratchRUView] = []
        self._views: List[_ScratchRUView] = [
            _ScratchRUView(i, device.slots[i].kind, device.slots[i].capacity_kb)
            for i in range(device.n_rus)
        ]
        #: Per distinct graph: mobility per rec-order position (or None).
        tables = self.mobility_tables
        self._mobility_by_graph: List[Optional[Tuple[int, ...]]] = [
            (
                None
                if (table := tables.get(capp.name)) is None
                else tuple(int(table.get(nid, 0)) for nid in capp.rec_order)
            )
            for capp in compiled.graphs
        ]
        self.arm(advisor, forced_delays, trace, extra_sinks)

    def arm(
        self,
        advisor: ReplacementAdvisor,
        forced_delays: Optional[Mapping[Tuple[int, int], int]] = None,
        trace: TraceMode = "full",
        extra_sinks: Sequence[TraceSink] = (),
    ) -> None:
        """(Re)set every piece of per-run state for a run from t = 0.

        ``__init__`` ends here, so a re-armed manager runs exactly as a
        freshly constructed one over the same workload and device would:
        new state columns, RUs, event queue, dispatch cursors, forced
        delays, trace sinks and ``advisor``.  The design-time mobility
        search re-arms one manager per probe instead of building one.
        """
        # Columnar runtime state: every mutable per-node / per-config /
        # per-RU quantity lives in preallocated integer columns (see
        # repro.sim.columns); the hot loops below bind them to locals.
        compiled = self.compiled
        state = EngineState(compiled, self.n_rus)
        self.state = state
        self.apps: List[_AppRun] = [
            _AppRun(i, self._app_capps[i], self._arrivals[i], state)
            for i in range(compiled.n_apps)
        ]
        self.rus: List[RU] = [
            RU(i, slot=slot) for i, slot in enumerate(self.device.slots)
        ]
        self.queue = EventQueue()
        self._push = self.queue.push
        self.clock = 0
        self.advisor = advisor
        self._bind_advisor()
        self._trace_primary, self._sinks = resolve_trace_mode(trace, extra_sinks)
        self._bind_sinks()
        #: Events handled so far (the checkpoint cadence counts them);
        #: ``_resumed`` skips the run prologue (RunStart, advisor reset,
        #: arrival scheduling) after
        #: :func:`~repro.resilience.checkpoint.restore_checkpoint`.
        self._events_done = 0
        self._resumed = False

        # Dispatch pointer over the concatenated reconfiguration sequences.
        self._dispatch_app = 0       # index into self.apps
        self._dispatch_pos = 0       # index into that app's rec_order
        self._current_app = 0        # application currently executing
        #: Head-instance cache (dispatch pointer at creation + instance).
        self._head_da = -1
        self._head_dp = -1
        self._head_obj: Optional[TaskInstance] = None
        #: Free reconfiguration controllers, kept sorted so arbitration is
        #: deterministic (lowest-numbered free controller loads next).
        self._free_controllers: List[int] = list(range(self.device.n_controllers))
        #: Free (never-yet-loaded) RU indices as a min-heap: claiming the
        #: lowest-index free RU is O(log n), and RUs never return to EMPTY.
        self._free_rus: List[int] = list(range(self.n_rus))
        #: RU indices with a loaded-and-claimed configuration awaiting its
        #: execution start (state LOADED, ``pending`` set), kept sorted so
        #: executions start in RU-index order without re-sorting per event.
        #: Only *current-application* claims live here; future-application
        #: claims are parked per app and merged on activation, so the
        #: per-event scan never revisits RUs that cannot start yet.
        self._ready: List[int] = []
        self._parked: Dict[int, List[int]] = {}
        #: Configurations currently executing or being reconfigured —
        #: maintained on state transitions instead of scanned per decision.
        self._busy_cfgs: set = set()
        #: True only while recovering from an idle-skip stall (see
        #: :meth:`_break_idle_skip_stall`).
        self._idle_stall = False
        #: Events skipped so far per application instance (Fig. 8 counter)
        #: — the pre-zeroed ``EngineState.skipped`` column.
        self.skipped_events: List[int] = state.skipped
        #: Column aliases (see EngineState for semantics; -1 = NO_INDEX).
        self._remaining = state.remaining
        self._unfinished = state.unfinished
        self._loc = state.loc
        self._ru_cid = state.ru_cid
        self._ru_app = state.ru_app
        self._ru_flat = state.ru_flat
        #: Remaining unconditional delay budget per (app_index, node_id).
        self._forced_delays: Dict[Tuple[int, int], int] = (
            dict(forced_delays) if forced_delays else {}
        )

        # Incremental Dynamic-List window over the flat reference string:
        # reference counts per dense config for flat positions
        # [_win_rem, _win_add), advanced monotonically with the dispatch
        # pointer, the current application and the clock.
        self._win_counts: List[int] = state.win_counts
        self._win_add = 0
        self._win_rem = 0
        self._win_end_app = 0
        self._dl_view = WindowConfigSet(
            self._win_counts, compiled.config_index, compiled.config_ids
        )
        self._ctx.busy_configs = self._busy_cfgs
        self._ctx.dl_configs = self._dl_view

    @staticmethod
    def checked_workload(
        graphs: Sequence[TaskGraph],
        arrival_times: Optional[Sequence[int]],
        device: DeviceModel,
        compiled: Optional[CompiledWorkload] = None,
    ) -> CompiledWorkload:
        """Validate a run's inputs and return its compiled workload.

        A configuration too large for every slot could never load, which
        would surface much later as an opaque dispatch deadlock, so it
        fails here with the offending task.  The zero-latency ideal runs
        the same checks, so its errors match a simulated run's.
        """
        if not graphs:
            raise SimulationError("application sequence is empty")
        if arrival_times is not None and len(arrival_times) != len(graphs):
            raise SimulationError(
                "arrival_times must match the number of applications"
            )
        if compiled is None:
            compiled = CompiledWorkload.compile(graphs)
        elif not compiled.matches(graphs):
            raise SimulationError(
                "compiled workload does not describe this application "
                "sequence (length or graph names differ)"
            )
        if compiled.max_concurrency > device.n_rus:
            raise SimulationError(
                f"an application needs {compiled.max_concurrency} concurrent "
                f"RUs but the device has only {device.n_rus}; the barrier "
                "model cannot schedule it"
            )
        if device.has_uniform_slots:
            return compiled
        for capp in compiled.graphs:
            for nid, kb in zip(capp.rec_order, capp.rec_bitstreams):
                if not device.compatible_slot_indices(kb):
                    raise SimulationError(
                        f"configuration {capp.name}.{nid} needs a "
                        f"{kb} KiB slot but no slot of device "
                        f"{device.label!r} can hold it"
                    )
        return compiled

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def trace(self) -> TraceView:
        """The primary sink's view of the run (a Trace in full mode)."""
        return self._trace_primary.view()  # type: ignore[union-attr]

    def _emit(self, event: TraceEvent) -> None:
        for sink in self._sinks:
            sink.on_event(event)

    # -- object-path emitters (multi-sink / object-protocol sinks) -------
    # Each mirrors a scalar hook signature exactly; the scalar and object
    # paths are interchangeable per run and produce identical traces.
    def _emit_run_start_obj(self, time, n_rus, reconfig_latency, n_apps, n_controllers):
        self._emit(
            RunStart(
                time=time,
                n_rus=n_rus,
                reconfig_latency=reconfig_latency,
                n_apps=n_apps,
                n_controllers=n_controllers,
            )
        )

    def _emit_app_activated_obj(self, time, app_index):
        self._emit(AppActivated(time=time, app_index=app_index))

    def _emit_reconfig_start_obj(self, time, ru, config, app_index, end, controller):
        self._emit(
            ReconfigStart(
                time=time,
                ru=ru,
                config=config,
                app_index=app_index,
                end=end,
                controller=controller,
            )
        )

    def _emit_reconfig_end_obj(self, time, ru, config, app_index, controller, latency):
        self._emit(
            ReconfigEnd(
                time=time,
                ru=ru,
                config=config,
                app_index=app_index,
                controller=controller,
                latency=latency,
            )
        )

    def _emit_reuse_obj(self, time, ru, config, app_index):
        self._emit(Reuse(time=time, ru=ru, config=config, app_index=app_index))

    def _emit_eviction_obj(self, time, ru, old_config, new_config, app_index):
        self._emit(
            Eviction(
                time=time,
                ru=ru,
                old_config=old_config,
                new_config=new_config,
                app_index=app_index,
            )
        )

    def _emit_skip_obj(self, time, app_index, config, victim_config, skipped_events_after):
        self._emit(
            Skip(
                time=time,
                app_index=app_index,
                config=config,
                victim_config=victim_config,
                skipped_events_after=skipped_events_after,
            )
        )

    def _emit_exec_start_obj(self, time, ru, config, app_index, end, reused, load_us):
        self._emit(
            ExecStart(
                time=time,
                ru=ru,
                config=config,
                app_index=app_index,
                end=end,
                reused=reused,
                load_us=load_us,
            )
        )

    def _emit_exec_end_obj(self, time, ru, config, app_index):
        self._emit(ExecEnd(time=time, ru=ru, config=config, app_index=app_index))

    def _emit_app_completed_obj(self, time, app_index):
        self._emit(AppCompleted(time=time, app_index=app_index))

    def _emit_run_end_obj(self, time):
        self._emit(RunEnd(time=time))

    def _bind_sinks(self) -> None:
        """(Re)bind the per-kind emit hooks to the current sink tuple.

        Called from ``__init__`` and again after a checkpoint restore
        swaps the sinks (see :mod:`repro.resilience.checkpoint`).
        """
        # Drop a previous single-sink instance-attribute shadow so the
        # class-level fan-out method is the fallback again.
        self.__dict__.pop("_emit", None)
        hooks = None
        if len(self._sinks) == 1:
            # Single-sink fast path: skip the fan-out frame per event,
            # and — when the sink offers the scalar protocol — skip
            # constructing TraceEvent objects altogether.
            self._emit = self._sinks[0].on_event  # type: ignore[method-assign]
            hooks = self._sinks[0].scalar_hooks()
        if hooks is not None:
            missing = [key for key, _ in SCALAR_HOOK_KEYS if key not in hooks]
            if missing:
                raise SimulationError(
                    f"{type(self._sinks[0]).__name__}.scalar_hooks() is "
                    f"missing key(s) {missing}; a scalar-protocol sink must "
                    f"cover every key in SCALAR_HOOK_KEYS "
                    f"({[key for key, _ in SCALAR_HOOK_KEYS]}) — use None "
                    "for ignored kinds, or return None from scalar_hooks() "
                    "to receive event objects"
                )
            self._emit_run_start = hooks["run_start"]
            self._emit_app_activated = hooks["app_activated"]
            self._emit_reconfig_start = hooks["reconfig_start"]
            self._emit_reconfig_end = hooks["reconfig_end"]
            self._emit_reuse = hooks["reuse"]
            self._emit_eviction = hooks["eviction"]
            self._emit_skip = hooks["skip"]
            self._emit_exec_start = hooks["exec_start"]
            self._emit_exec_end = hooks["exec_end"]
            self._emit_app_completed = hooks["app_completed"]
            self._emit_run_end = hooks["run_end"]
        else:
            self._emit_run_start = self._emit_run_start_obj
            self._emit_app_activated = self._emit_app_activated_obj
            self._emit_reconfig_start = self._emit_reconfig_start_obj
            self._emit_reconfig_end = self._emit_reconfig_end_obj
            self._emit_reuse = self._emit_reuse_obj
            self._emit_eviction = self._emit_eviction_obj
            self._emit_skip = self._emit_skip_obj
            self._emit_exec_start = self._emit_exec_start_obj
            self._emit_exec_end = self._emit_exec_end_obj
            self._emit_app_completed = self._emit_app_completed_obj
            self._emit_run_end = self._emit_run_end_obj

    def _bind_advisor(self) -> None:
        """(Re)resolve the advisor bookkeeping hooks.

        ``None`` when the advisor (or the policy it forwards to) left the
        default no-op — stateless policies then pay nothing per
        notification.  Called from ``__init__`` and again after a
        checkpoint restore replaces the advisor instance.
        """
        advisor = self.advisor
        self._notify_load = resolve_hook(advisor.on_load_complete)
        self._notify_reuse = resolve_hook(advisor.on_reuse)
        self._notify_exec_start = resolve_hook(advisor.on_execution_start)
        self._notify_exec_end = resolve_hook(advisor.on_execution_end)
        self._notify_activated = resolve_hook(advisor.on_app_activated)

    def run(self) -> TraceView:
        """Execute the whole sequence and return the trace view.

        In the default ``trace="full"`` mode this is the classic
        :class:`~repro.sim.trace.Trace`; in ``"aggregate"`` (or path)
        mode it is the O(1) :class:`~repro.sim.tracing.AggregateTrace`.
        """
        try:
            return self._run()
        finally:
            for sink in self._sinks:
                sink.close()

    def _run(self) -> TraceView:
        if not self._resumed:
            em = self._emit_run_start
            if em is not None:
                em(0, self.n_rus, self.reconfig_latency, len(self.apps),
                   self.device.n_controllers)
            self.advisor.reset()
            if self._notify_activated is not None:
                self._notify_activated(0, 0)
            em = self._emit_app_activated
            if em is not None:
                em(0, 0)
            for app in self.apps:
                if app.arrival_time > 0:
                    self.queue.push(app.arrival_time, EventKind.APP_ARRIVAL, app.index)
            # Kick-start dispatch at t=0 (the first new_task_graph event).
            self._dispatch_and_start()

        ckpt_every = self._checkpoint_every
        ckpt_write = self._checkpoint_write
        guard = 0
        guard_limit = 1000 * self.compiled.n_tasks + 10_000
        queue = self.queue
        pop = queue.pop
        handle_exec = self._handle_end_of_execution
        handle_reconf = self._handle_end_of_reconfiguration
        while True:
            while queue:
                time_, kind, _seq, payload = pop()
                if time_ < self.clock:  # pragma: no cover - defensive
                    raise SimulationError("event queue went backwards in time")
                self.clock = time_
                if kind == _EXEC:
                    handle_exec(payload[0], payload[1])
                elif kind == _RECONF:
                    handle_reconf(payload[0], payload[1], payload[2], payload[3])
                elif kind == _ARRIVAL:
                    self._dispatch_and_start()
                else:  # pragma: no cover - defensive
                    raise SimulationError(f"unknown event kind {kind!r}")
                guard += 1
                if guard > guard_limit:  # pragma: no cover - defensive
                    raise SimulationError("simulation exceeded event budget (livelock?)")
                if ckpt_every:
                    self._events_done += 1
                    if self._events_done % ckpt_every == 0:
                        # Between events is the one consistent cut (no
                        # handler is mid-flight); see
                        # repro.resilience.checkpoint.
                        ckpt_write(self)

            if self.state.apps_left == 0:
                break
            # The queue drained with work remaining.  The one legal cause
            # is a skip-event taken while nothing was in flight: "wait for
            # the next event" never fires when no event is pending.  That
            # is unreachable on the paper's single-controller device (a
            # replacement decision there implies a busy circuitry or a
            # running execution scheduled first), but parallel controllers
            # can drain every event before the module skips.  Consume such
            # idle skips and retry; anything else is a genuine deadlock.
            if not self._break_idle_skip_stall():
                unfinished = [a.index for a in self.apps if not a.complete()]
                raise SimulationError(
                    f"simulation ended with unfinished applications {unfinished}; "
                    "this indicates a dispatch deadlock"
                )
        em = self._emit_run_end
        if em is not None:
            em(self.clock)
        return self.trace

    def _break_idle_skip_stall(self) -> bool:
        """Re-run dispatch consuming skips that no event will ever revisit.

        Returns ``True`` when progress was made (new events scheduled).
        Only called when the event queue is empty with applications
        unfinished — a state the legacy engine reported as a deadlock, so
        recovery here cannot perturb any previously-working schedule.
        """
        self._idle_stall = True
        try:
            self._dispatch_and_start()
        finally:
            self._idle_stall = False
        return bool(self.queue)

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _handle_end_of_execution(self, ru_index: int, instance: TaskInstance) -> None:
        ru = self.rus[ru_index]
        finished = ru.finish_execution(self.clock)
        if finished is not instance:  # pragma: no cover - defensive
            raise SimulationError("execution bookkeeping mismatch")
        config = instance.config
        self._busy_cfgs.discard(config)
        em = self._emit_exec_end
        if em is not None:
            em(self.clock, ru_index, config, instance.app_index)
        if self._notify_exec_end is not None:
            self._notify_exec_end(ru_index, config, self.clock)

        da = instance.app_index
        unfinished = self._unfinished
        left = unfinished[da] - 1
        unfinished[da] = left
        # ru_flat still holds the finished task's flat slot (set at claim
        # time, untouched while the RU executed): successor decrements are
        # pure column arithmetic, no per-instance dict.
        flat = self._ru_flat[ru_index]
        base = self.compiled.app_offsets[da]
        remaining = self._remaining
        for succ in self._app_capps[da].succ_slots[flat - base]:
            remaining[base + succ] -= 1

        if left == 0:
            self.state.apps_left -= 1
            em = self._emit_app_completed
            if em is not None:
                em(self.clock, da)
            self._activate_next_app()
        self._try_dispatch()
        self._start_ready_executions()

    def _handle_end_of_reconfiguration(
        self, ru_index: int, instance: TaskInstance, controller: int, latency: int
    ) -> None:
        ru = self.rus[ru_index]
        ru.finish_load(self.clock)
        bisect.insort(self._free_controllers, controller)
        config = instance.config
        self._busy_cfgs.discard(config)
        app_index = instance.app_index
        if app_index == self._current_app:
            bisect.insort(self._ready, ru_index)
        else:
            bisect.insort(self._parked.setdefault(app_index, []), ru_index)
        em = self._emit_reconfig_end
        if em is not None:
            em(self.clock, ru_index, config, instance.app_index, controller, latency)
        if self._notify_load is not None:
            self._notify_load(ru_index, config, self.clock)
        self._try_dispatch()
        self._start_ready_executions()

    def _activate_next_app(self) -> None:
        """Advance the current-application pointer past completed apps."""
        unfinished = self._unfinished
        while (
            self._current_app < self._n_apps
            and unfinished[self._current_app] == 0
        ):
            self._current_app += 1
        if self._current_app < self._n_apps:
            parked = self._parked.pop(self._current_app, None)
            if parked:
                ready = self._ready
                for ru_index in parked:
                    bisect.insort(ready, ru_index)
            if self._notify_activated is not None:
                self._notify_activated(self._current_app, self.clock)
            em = self._emit_app_activated
            if em is not None:
                em(self.clock, self._current_app)

    # ------------------------------------------------------------------
    # Dispatch (the replacement-module invocation loop)
    # ------------------------------------------------------------------
    def _dispatch_and_start(self) -> None:
        self._try_dispatch()
        self._start_ready_executions()

    def _head_instance(self, da: int, pos: int) -> TaskInstance:
        """The head task instance, cached per dispatch position (skips and
        stalled attempts revisit the same head many times)."""
        if self._head_da == da and self._head_dp == pos:
            return self._head_obj  # type: ignore[return-value]
        capp = self._app_capps[da]
        instance = TaskInstance(
            app_index=da,
            config=capp.rec_configs[pos],
            exec_time=capp.rec_exec_times[pos],
        )
        self._head_da = da
        self._head_dp = pos
        self._head_obj = instance
        return instance

    def _try_dispatch(self) -> None:
        """Process the reconfiguration sequence while progress is possible.

        Mirrors the paper's Fig. 8 replacement module, invoked repeatedly
        (Fig. 4 lines 3/9/12) until every controller is busy, the sequence
        is exhausted/stalled, or a skip-event defers the head.
        """
        if not self._free_controllers:
            return
        rus = self.rus
        n_apps = self._n_apps
        ntasks = self._app_ntasks
        capps = self._app_capps
        arrivals = self._arrivals
        offsets = self.compiled.app_offsets
        lookahead = self._lookahead
        uniform = self._uniform_slots
        fast_kb = uniform and self._fixed_latency is not None
        loc = self._loc
        idle_skips = 0
        while True:
            if not self._free_controllers:
                return
            # Advance the dispatch pointer past exhausted applications.
            da = self._dispatch_app
            dp = self._dispatch_pos
            while da < n_apps and dp >= ntasks[da]:
                da += 1
                dp = 0
            self._dispatch_app = da
            self._dispatch_pos = dp
            if da >= n_apps:
                return
            # Visibility: arrived and within the Dynamic-List lookahead.
            if arrivals[da] > self.clock:
                return
            if da - self._current_app > lookahead:
                return
            capp = capps[da]

            # Design-time forced delay (mobility calculation, Fig. 6):
            # consume one load opportunity without dispatching.
            if self._forced_delays:
                delay_key = (da, capp.rec_order[dp])
                budget = self._forced_delays.get(delay_key, 0)
                if budget > 0:
                    self._forced_delays[delay_key] = budget - 1
                    return

            cid = capp.rec_cids[dp]
            ru_index = loc[cid]
            if ru_index >= 0:
                ru = rus[ru_index]
                instance = self._head_instance(da, dp)
                if ru.config != instance.config:  # pragma: no cover - defensive
                    raise SimulationError("location map out of sync")
                if ru.pending is not None or ru.state in (
                    RUState.RECONFIGURING,
                    RUState.EXECUTING,
                ):
                    # Config exists but is claimed/busy for an earlier
                    # instance; wait for it to free up.
                    return
                if da != self._current_app and self._stall_loaded:
                    # S2: future reuse consumed only on activation.
                    return
                ru.claim_reuse(instance)
                self._ru_app[ru_index] = da
                self._ru_flat[ru_index] = offsets[da] + dp
                if da == self._current_app:
                    bisect.insort(self._ready, ru_index)
                else:
                    bisect.insort(self._parked.setdefault(da, []), ru_index)
                self._advance_head()
                em = self._emit_reuse
                if em is not None:
                    em(self.clock, ru_index, instance.config, da)
                if self._notify_reuse is not None:
                    self._notify_reuse(ru_index, instance.config, self.clock)
                continue

            # Configuration absent: a reconfiguration is required.
            is_future = da != self._current_app
            if is_future and self._cap_isolated:
                return
            kb = 0 if fast_kb else capp.rec_bitstreams[dp]
            free = self._claim_free_ru(kb)
            if free is not None:
                self._begin_load(
                    free, self._head_instance(da, dp), cid, offsets[da] + dp
                )
                continue
            if is_future and self._cap_free_only:
                return

            # Replacement candidates, filtered to slots the incoming
            # bitstream fits (on uniform floorplans the filter is a no-op).
            candidates = self._cand_scratch
            candidates.clear()
            views = self._views
            for ru in rus:
                if ru.state is _LOADED and ru.pending is None and (
                    uniform or ru.fits(kb)
                ):
                    view = views[ru.index]
                    view.config = ru.config
                    view.state = _LOADED
                    view.last_use = ru.last_use
                    view.load_end = ru.load_end
                    candidates.append(view)
            if not candidates:
                return
            instance = self._head_instance(da, dp)
            ctx = self._build_context(instance, candidates, da, dp)
            decision = self.advisor.decide(ctx)
            if decision.skip:
                self.skipped_events[da] = ctx.skipped_events + 1
                # Validates the advisor's named victim even when no sink
                # listens for Skip events.
                victim_cfg = self._skip_victim_config(ctx, decision)
                em = self._emit_skip
                if em is not None:
                    em(
                        self.clock,
                        da,
                        instance.config,
                        victim_cfg,
                        ctx.skipped_events + 1,
                    )
                if self._idle_stall and not self.queue:
                    # Stall recovery (see _break_idle_skip_stall): the
                    # skip was emitted and counted, but no future event
                    # exists to revisit it — decide again immediately.
                    idle_skips += 1
                    if idle_skips > 10_000:
                        raise SimulationError(
                            "advisor keeps skipping on an idle device "
                            f"(app {da}, {instance.config}); "
                            "a skip rule must be bounded by the mobility budget"
                        )
                    continue
                return
            victim = self._validate_victim(decision, candidates)
            em = self._emit_eviction
            if em is not None:
                em(self.clock, victim.index, victim.config, instance.config, da)
            self._begin_load(rus[victim.index], instance, cid, offsets[da] + dp)
            continue

    def _skip_victim_config(self, ctx, decision: Decision) -> ConfigId:
        """Which configuration did this skip protect?

        When the advisor reports the victim it selected before the skip
        rule fired (``Decision.skip_event(victim_index)``), record that
        exact configuration.  Only advisors that omit it fall back to the
        old first-DL-resident-candidate heuristic, which could name the
        wrong RU whenever the policy's choice was not the first candidate
        holding a Dynamic-List configuration.
        """
        if decision.victim_index is not None:
            for view in ctx.candidates:
                if view.index == decision.victim_index:
                    return view.config  # type: ignore[return-value]
            raise PolicyError(
                f"skip decision names RU{decision.victim_index}, not a candidate "
                f"(candidates: {[v.index for v in ctx.candidates]})"
            )
        for view in ctx.candidates:
            if view.config in ctx.dl_configs:
                return view.config  # type: ignore[return-value]
        return ctx.candidates[0].config  # type: ignore[return-value]

    def _validate_victim(self, decision: Decision, candidates) -> "_ScratchRUView":
        if decision.victim_index is None:
            raise PolicyError("advisor returned a load decision without a victim")
        for view in candidates:
            if view.index == decision.victim_index:
                return view
        raise PolicyError(
            f"advisor chose RU{decision.victim_index}, not a candidate "
            f"(candidates: {[v.index for v in candidates]})"
        )

    def _begin_load(
        self, ru: RU, instance: TaskInstance, cid: int, flat: int
    ) -> None:
        if not self._free_controllers:  # pragma: no cover - defensive
            raise SimulationError("every reconfiguration controller is busy")
        ru_index = ru.index
        old_cid = self._ru_cid[ru_index]
        if old_cid >= 0:
            self._loc[old_cid] = NO_INDEX
        ru.begin_load(instance, self.clock)
        self._loc[cid] = ru_index
        self._ru_cid[ru_index] = cid
        self._ru_app[ru_index] = instance.app_index
        self._ru_flat[ru_index] = flat
        self._busy_cfgs.add(instance.config)
        controller = self._free_controllers.pop(0)
        latency = (
            self._fixed_latency
            if self._fixed_latency is not None
            else self._cost_by_cid[cid]  # type: ignore[index]
        )
        end = self.clock + latency
        em = self._emit_reconfig_start
        if em is not None:
            em(self.clock, ru_index, instance.config, instance.app_index, end, controller)
        self._advance_head()
        self._push(
            end,
            EventKind.END_OF_RECONFIGURATION,
            (ru_index, instance, controller, latency),
        )

    def _advance_head(self) -> None:
        self._dispatch_pos += 1

    # ------------------------------------------------------------------
    # Execution starts (Fig. 4 lines 6-7 and 15-19)
    # ------------------------------------------------------------------
    def _start_ready_executions(self) -> None:
        ready = self._ready
        if not ready:
            return
        cur = self._current_app
        if cur >= self._n_apps:
            return
        remaining = self._remaining
        ru_app = self._ru_app
        ru_flat = self._ru_flat
        rus = self.rus
        clock = self.clock
        notify = self._notify_exec_start
        i = 0
        while i < len(ready):
            ru_index = ready[i]
            # Pure column reads — the RU object (and its pending instance)
            # is only touched once the task is actually startable.
            if ru_app[ru_index] != cur or remaining[ru_flat[ru_index]] != 0:
                i += 1
                continue
            del ready[i]
            ru = rus[ru_index]
            reused = ru.pending_reused
            instance = ru.start_execution(clock)
            self._busy_cfgs.add(instance.config)
            end = clock + instance.exec_time
            emit_start = self._emit_exec_start
            if emit_start is not None:
                emit_start(
                    clock,
                    ru_index,
                    instance.config,
                    instance.app_index,
                    end,
                    reused,
                    self._load_cost_for_ru(ru_index),
                )
            if notify is not None:
                notify(ru_index, instance.config, clock)
            self._push(end, EventKind.END_OF_EXECUTION, (ru_index, instance))

    # ------------------------------------------------------------------
    # Device-model lookups (short-circuited on the homogeneous fast path)
    # ------------------------------------------------------------------
    def _claim_free_ru(self, bitstream_kb: int) -> Optional[RU]:
        """Pop the lowest-index free RU whose slot fits the bitstream.

        Free RUs live in a min-heap (RUs never return to EMPTY, so the
        structure only drains): the uniform-floorplan claim is one
        O(log n) pop instead of an O(n) scan over the device.
        """
        free = self._free_rus
        if not free:
            return None
        if self._uniform_slots:
            return self.rus[heapq.heappop(free)]
        rejected: List[int] = []
        found: Optional[RU] = None
        while free:
            index = heapq.heappop(free)
            ru = self.rus[index]
            if ru.fits(bitstream_kb):
                found = ru
                break
            rejected.append(index)
        for index in rejected:
            heapq.heappush(free, index)
        return found

    def _load_cost_for_ru(self, ru_index: int) -> int:
        """Load latency (µs) of the configuration resident on ``ru_index``."""
        if self._fixed_latency is not None:
            return self._fixed_latency
        cid = self._ru_cid[ru_index]
        return self._cost_by_cid[cid]  # type: ignore[index]

    # ------------------------------------------------------------------
    # Decision context (incremental Dynamic-List window)
    # ------------------------------------------------------------------
    def _build_context(
        self,
        instance: TaskInstance,
        candidates: List[_ScratchRUView],
        da: int,
        dp: int,
    ):
        compiled = self.compiled
        offsets = compiled.app_offsets
        gpos = offsets[da] + dp
        start = gpos + 1

        # Window end: first application beyond the lookahead limit or not
        # yet arrived.  All three drivers (dispatch pointer, current app,
        # clock) are monotone, so the boundary only ever moves forward.
        limit = self._current_app + self._lookahead + 1
        n_apps = self._n_apps
        if limit > n_apps:
            limit = n_apps
        end_app = self._win_end_app
        arrivals = self._arrivals
        clock = self.clock
        while end_app < limit and arrivals[end_app] <= clock:
            end_app += 1
        self._win_end_app = end_app
        end = offsets[end_app]

        # Slide the reference-count window to [start, end).
        counts = self._win_counts
        cids = compiled.flat_cids
        add = self._win_add
        while add < end:
            counts[cids[add]] += 1
            add += 1
        self._win_add = add
        rem = self._win_rem
        stop = start if start < add else add
        while rem < stop:
            counts[cids[rem]] -= 1
            rem += 1
        self._win_rem = rem

        mob = self._mobility_by_graph[compiled.app_graph[da]]
        ctx = self._ctx
        ctx.now = clock
        ctx.incoming = instance
        ctx.candidates = candidates
        future = self._future_view
        future._start = start
        future._stop = end
        ctx.future_refs = future
        if self._provide_oracle:
            oracle = self._oracle_view
            oracle._start = start
            oracle._stop = len(compiled.flat_configs)
            ctx.oracle_refs = oracle
        else:
            ctx.oracle_refs = None
        ctx.mobility = 0 if mob is None else mob[dp]
        ctx.skipped_events = self.skipped_events[da]
        return ctx

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
flat reference string, the decision context is a per-manager scratch
carrier reused across decisions and its candidates are the live RU
objects, and free RUs / ready executions / busy configurations are
tracked in dedicated collections so no per-event full-device scan
remains.  The event loop pops the heap itself, RU state transitions are
applied inline (an illegal state still raises through the RU method),
and a free-RU load and an eviction share one load block.  Runtime
bookkeeping is columnar:
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
import copy
import heapq
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import DispatchDeadlockError, PolicyError, SimulationError
from repro.graphs.task import ConfigId, TaskInstance
from repro.graphs.task_graph import TaskGraph
from repro.hw.model import DeviceModel
from repro.sim.columns import NO_INDEX, EngineState
from repro.sim.events import EventKind, EventQueue
from repro.sim.interface import (
    Decision,
    ReplacementAdvisor,
    find_candidate,
    resolve_hook,
)
from repro.sim.ru import RU, RUState
from repro.sim.semantics import CrossAppPrefetch, ManagerSemantics
from repro.sim.tracing import (
    SCALAR_HOOK_KEYS,
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
_RECONFIGURING = RUState.RECONFIGURING
_EXECUTING = RUState.EXECUTING
#: RU states a load may not start in (nor a reuse claim).
_BUSY = (_RECONFIGURING, _EXECUTING)


def _fan_out(hooks: Tuple):
    """One emit hook calling every sink's ``hooks`` in order.

    A raising hook stops the later ones for that event (and aborts the
    run): traces are evidence, not best-effort.
    """
    def fan_out(*fields):
        for hook in hooks:
            hook(*fields)

    return fan_out


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


#: Attributes :meth:`ExecutionManager.arm` assigns that
#: :meth:`ExecutionManager.snapshot` does not copy: aliases of captured
#: state (restored in place), objects fixed for the run, and flags equal
#: at every between-event cut.  ``tests/test_snapshot.py`` fails when
#: ``arm`` gains an attribute that is in neither set.
SNAPSHOT_RUN_INVARIANT = frozenset({
    "apps",             # read-only views over ``state``
    "_push",            # bound to ``queue``, restored in place
    "_trace_primary",   # is ``_sinks[0]``; every sink is restored in place
    "skipped_events",   # the EngineState column aliases ...
    "_remaining",
    "_unfinished",
    "_loc",
    "_ru_cid",
    "_ru_app",
    "_ru_flat",
    "_win_counts",
    "_dl_view",         # ... and the window view over ``win_counts``
    "_idle_stall",      # True only inside a stall recovery, never at a cut
})


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
        #: Cut hook (see :meth:`set_cut_hook`): called every
        #: ``_cut_every`` events, at a consistent between-event cut.
        self._cut_every = 0
        self._cut_hook: Optional[Callable[["ExecutionManager"], None]] = None

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
        #: Sink class per position: a snapshot restores only into a run
        #: whose sinks have the same layout.
        self._sink_layout = tuple(type(sink).__qualname__ for sink in self._sinks)
        self._bind_sinks()
        #: Events handled so far (the checkpoint cadence counts them);
        #: ``_started`` is set once the run prologue (RunStart, advisor
        #: reset, arrival scheduling) has run, so a run resumed from a
        #: checkpoint or a :meth:`snapshot` skips it.
        self._events_done = 0
        self._started = False

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

    @property
    def head_position(self) -> int:
        """Flat position (``app_offsets[app] + rec_position``) of the next
        task the dispatcher will consider; ``n_tasks`` once all are out."""
        return self.compiled.app_offsets[self._dispatch_app] + self._dispatch_pos

    def _bind_sinks(self) -> None:
        """(Re)bind the per-kind emit hooks to the current sink tuple.

        Per event kind: ``None`` when no sink listens, the one listening
        sink's hook, or a fan-out calling every listening hook in sink
        order (the primary first).  Called from :meth:`arm`; :meth:`restore`
        writes sink state in place, so the bound hooks stay valid.
        """
        sink_hooks = [sink.scalar_hooks() for sink in self._sinks]
        for sink, hooks in zip(self._sinks, sink_hooks):
            missing = [key for key, _ in SCALAR_HOOK_KEYS if key not in hooks]
            if missing:
                raise SimulationError(
                    f"{type(sink).__name__}.scalar_hooks() is missing "
                    f"key(s) {missing}; a sink's scalar_hooks() must cover "
                    f"every key in SCALAR_HOOK_KEYS "
                    f"({[key for key, _ in SCALAR_HOOK_KEYS]}) — use None "
                    "for ignored kinds, or override on_event() instead to "
                    "receive event objects"
                )
        bound = []
        for key, _ in SCALAR_HOOK_KEYS:
            listening = [hooks[key] for hooks in sink_hooks if hooks[key] is not None]
            bound.append(
                None if not listening
                else listening[0] if len(listening) == 1
                else _fan_out(tuple(listening))
            )
        (
            self._emit_run_start,
            self._emit_app_activated,
            self._emit_reconfig_start,
            self._emit_reconfig_end,
            self._emit_reuse,
            self._emit_eviction,
            self._emit_skip,
            self._emit_exec_start,
            self._emit_exec_end,
            self._emit_app_completed,
            self._emit_run_end,
        ) = bound

    def _bind_advisor(self) -> None:
        """(Re)resolve the advisor bookkeeping hooks.

        ``None`` when the advisor (or the policy it forwards to) left the
        default no-op — stateless policies then pay nothing per
        notification.  Called from :meth:`arm` and again when
        :meth:`restore` replaces the advisor instance.
        """
        advisor = self.advisor
        self._notify_load = resolve_hook(advisor.on_load_complete)
        self._notify_reuse = resolve_hook(advisor.on_reuse)
        self._notify_exec_start = resolve_hook(advisor.on_execution_start)
        self._notify_exec_end = resolve_hook(advisor.on_execution_end)
        self._notify_activated = resolve_hook(advisor.on_app_activated)
        #: Whether the advisor keeps run state — a bound bookkeeping hook
        #: or a ``reset`` override — so a snapshot must copy it.
        self._advisor_keeps_state = (
            resolve_hook(advisor.reset) is not None
            or self._notify_load is not None
            or self._notify_reuse is not None
            or self._notify_exec_start is not None
            or self._notify_exec_end is not None
            or self._notify_activated is not None
        )

    def set_cut_hook(
        self,
        hook: Optional[Callable[["ExecutionManager"], None]],
        every: int = 1,
    ) -> None:
        """Call ``hook(self)`` after every ``every``-th event of a run.

        The bottom of the event loop is the one consistent between-event
        cut: no handler is mid-flight, so a checkpoint
        (:func:`~repro.resilience.checkpoint.arm_checkpointing`) or a
        :meth:`snapshot` taken there restores exactly.  ``None`` removes
        the hook; without one the loop pays a single falsy test per event.
        """
        self._cut_every = every if hook is not None else 0
        self._cut_hook = hook

    # ------------------------------------------------------------------
    # In-place snapshots (design-time prefix resume)
    # ------------------------------------------------------------------
    def snapshot(self) -> tuple:
        """Copy every piece of run state :meth:`arm` sets, in memory.

        Valid after :meth:`arm` (before :meth:`run`) and from a cut hook
        (:meth:`set_cut_hook`).  :meth:`restore` puts the state back, as
        often as needed, and running on emits exactly the events the
        uninterrupted run emitted after the cut.  Containers are copied
        and immutable values (task instances, configurations, event
        tuples) shared.  The advisor is copied only when it keeps run
        state (bookkeeping hooks or a ``reset`` override); every sink
        contributes its own :meth:`~repro.sim.tracing.TraceSink.snapshot`
        (a JSONL writer only its event count).  The result is opaque;
        pickled whole it is a checkpoint's engine state
        (:mod:`repro.resilience.checkpoint`), and one pickle keeps the
        sharing between heap payloads and ``RU.pending``/``_head_obj``.
        """
        state = self.state
        queue = self.queue
        keeps_state = self._advisor_keeps_state
        return (
            self._sink_layout,
            [sink.snapshot() for sink in self._sinks],
            state.remaining[:],
            state.unfinished[:],
            state.skipped[:],
            state.loc[:],
            state.win_counts[:],
            state.ru_cid[:],
            state.ru_app[:],
            state.ru_flat[:],
            state.apps_left,
            self.clock,
            queue._heap[:],
            queue._seq,
            queue._last_popped,
            [
                (ru.state, ru.config, ru.pending, ru.pending_reused,
                 ru.last_use, ru.load_end)
                for ru in self.rus
            ],
            self._dispatch_app,
            self._dispatch_pos,
            self._current_app,
            self._head_da,
            self._head_dp,
            self._head_obj,
            self._free_controllers[:],
            self._free_rus[:],
            self._ready[:],
            {app: rus[:] for app, rus in self._parked.items()},
            frozenset(self._busy_cfgs),
            dict(self._forced_delays),
            self._win_add,
            self._win_rem,
            self._win_end_app,
            self._events_done,
            self._started,
            copy.deepcopy(self.advisor) if keeps_state else self.advisor,
            keeps_state,
        )

    def restore(
        self,
        snapshot: tuple,
        forced_delays: Optional[Mapping[Tuple[int, int], int]] = None,
    ) -> None:
        """Put back the state a :meth:`snapshot` of this manager captured.

        ``forced_delays``, when given, replaces the captured delay budget
        — how a design-time probe resumes the reference run's prefix with
        its own delay (exact only while the delayed task has not reached
        the dispatch head; see :mod:`repro.core.mobility`).  A snapshot
        of a run with another sink layout raises :class:`SimulationError`
        before anything is written.
        """
        layout = snapshot[0]
        if layout != self._sink_layout:
            raise SimulationError(
                f"snapshot trace sinks {list(layout)} do not match this run's "
                f"{list(self._sink_layout)}; resume with the same trace "
                "configuration"
            )
        (
            _layout, sink_states,
            remaining, unfinished, skipped, loc, win_counts,
            ru_cid, ru_app, ru_flat, apps_left,
            clock, heap, seq, last_popped, ru_fields,
            self._dispatch_app, self._dispatch_pos, self._current_app,
            self._head_da, self._head_dp, self._head_obj,
            free_controllers, free_rus, ready, parked, busy_cfgs,
            saved_delays,
            self._win_add, self._win_rem, self._win_end_app,
            self._events_done, self._started,
            advisor, advisor_copied,
        ) = snapshot
        # In place: the hot-loop column aliases, the Dynamic-List window
        # view and the scratch decision context point at these objects.
        state = self.state
        state.remaining[:] = remaining
        state.unfinished[:] = unfinished
        state.skipped[:] = skipped
        state.loc[:] = loc
        state.win_counts[:] = win_counts
        state.ru_cid[:] = ru_cid
        state.ru_app[:] = ru_app
        state.ru_flat[:] = ru_flat
        state.apps_left = apps_left
        self.clock = clock
        queue = self.queue
        queue._heap[:] = heap
        queue._seq = seq
        queue._last_popped = last_popped
        for ru, fields in zip(self.rus, ru_fields):
            (ru.state, ru.config, ru.pending, ru.pending_reused,
             ru.last_use, ru.load_end) = fields
        self._free_controllers[:] = free_controllers
        self._free_rus[:] = free_rus
        self._ready[:] = ready
        self._parked = {app: rus[:] for app, rus in parked.items()}
        busy = self._busy_cfgs
        busy.clear()
        busy.update(busy_cfgs)
        self._forced_delays = dict(
            saved_delays if forced_delays is None else forced_delays
        )
        if advisor_copied:
            self.advisor = copy.deepcopy(advisor)
            self._bind_advisor()
        elif advisor is not self.advisor:
            self.advisor = advisor
            self._bind_advisor()
        for sink, sink_state in zip(self._sinks, sink_states):
            sink.restore(sink_state)

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
        if not self._started:
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
            self._started = True

        cut_every = self._cut_every
        cut_hook = self._cut_hook
        guard = 0
        guard_limit = 1000 * self.compiled.n_tasks + 10_000
        # Pop the heap directly; ``_last_popped`` is kept current (and
        # snapshotted) so the queue still rejects backwards pushes.
        queue = self.queue
        heap = queue._heap
        heappop = heapq.heappop
        handle_exec = self._handle_end_of_execution
        handle_reconf = self._handle_end_of_reconfiguration
        clock = self.clock
        while True:
            while heap:
                time_, kind, _seq, payload = heappop(heap)
                if time_ < clock:  # pragma: no cover - defensive
                    raise SimulationError("event queue went backwards in time")
                queue._last_popped = self.clock = clock = time_
                if kind == _EXEC:
                    handle_exec(*payload)
                elif kind == _RECONF:
                    handle_reconf(*payload)
                elif kind == _ARRIVAL:
                    self._dispatch_and_start()
                else:  # pragma: no cover - defensive
                    raise SimulationError(f"unknown event kind {kind!r}")
                guard += 1
                if guard > guard_limit:  # pragma: no cover - defensive
                    raise SimulationError("simulation exceeded event budget (livelock?)")
                if cut_every:
                    self._events_done += 1
                    if self._events_done % cut_every == 0:
                        # Between events is the one consistent cut (no
                        # handler is mid-flight); see set_cut_hook.
                        cut_hook(self)

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
                raise DispatchDeadlockError(
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
    # RU transitions are applied inline; on an illegal state the RU's own
    # transition method is called so it raises its SimulationError.
    def _handle_end_of_execution(self, ru_index: int, instance: TaskInstance) -> None:
        clock = self.clock
        ru = self.rus[ru_index]
        if ru.state is not _EXECUTING or ru.pending is not instance:
            ru.finish_execution(clock)
            raise SimulationError("execution bookkeeping mismatch")  # pragma: no cover
        ru.pending = None
        ru.pending_reused = False
        ru.state = _LOADED
        ru.last_use = clock
        config = instance.config
        self._busy_cfgs.discard(config)
        da = instance.app_index
        em = self._emit_exec_end
        if em is not None:
            em(clock, ru_index, config, da)
        if self._notify_exec_end is not None:
            self._notify_exec_end(ru_index, config, clock)

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
                em(clock, da)
            self._activate_next_app()
        self._try_dispatch()
        self._start_ready_executions()

    def _handle_end_of_reconfiguration(
        self, ru_index: int, instance: TaskInstance, controller: int, latency: int
    ) -> None:
        clock = self.clock
        ru = self.rus[ru_index]
        if ru.state is not _RECONFIGURING:
            ru.finish_load(clock)
        ru.state = _LOADED
        ru.load_end = clock
        ru.last_use = clock
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
            em(clock, ru_index, config, app_index, controller, latency)
        if self._notify_load is not None:
            self._notify_load(ru_index, config, clock)
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

    def _try_dispatch(self) -> None:
        """Process the reconfiguration sequence while progress is possible.

        Mirrors the paper's Fig. 8 replacement module, invoked repeatedly
        (Fig. 4 lines 3/9/12) until every controller is busy, the sequence
        is exhausted/stalled, or a skip-event defers the head.
        """
        free_controllers = self._free_controllers
        if not free_controllers:
            return
        clock = self.clock
        rus = self.rus
        n_apps = self._n_apps
        ntasks = self._app_ntasks
        capps = self._app_capps
        cur = self._current_app
        offsets = self.compiled.app_offsets
        uniform = self._uniform_slots
        fixed_latency = self._fixed_latency
        fast_kb = uniform and fixed_latency is not None
        loc = self._loc
        ru_cid = self._ru_cid
        ru_app = self._ru_app
        ru_flat = self._ru_flat
        push = self._push
        da = self._dispatch_app
        dp = self._dispatch_pos
        idle_skips = 0
        while free_controllers:
            # Advance the dispatch pointer past exhausted applications.
            while da < n_apps and dp >= ntasks[da]:
                da += 1
                dp = 0
                self._dispatch_app = da
                self._dispatch_pos = 0
            if da >= n_apps:
                return
            # Visibility: arrived and within the Dynamic-List lookahead.
            if self._arrivals[da] > clock or da - cur > self._lookahead:
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

            # The head task instance, cached per dispatch position (skips
            # and stalled attempts revisit the same head many times).
            if self._head_dp == dp and self._head_da == da:
                instance = self._head_obj
            else:
                instance = TaskInstance(
                    da, capp.rec_configs[dp], capp.rec_exec_times[dp]
                )
                self._head_da = da
                self._head_dp = dp
                self._head_obj = instance
            config = instance.config
            cid = capp.rec_cids[dp]
            ru_index = loc[cid]
            if ru_index >= 0:
                ru = rus[ru_index]
                if ru.config != config:  # pragma: no cover - defensive
                    raise SimulationError("location map out of sync")
                state = ru.state
                if ru.pending is not None or state in _BUSY:
                    # Config exists but is claimed/busy for an earlier
                    # instance; wait for it to free up.
                    return
                if da != cur and self._stall_loaded:
                    # S2: future reuse consumed only on activation.
                    return
                if state is not _LOADED:  # pragma: no cover - defensive
                    ru.claim_reuse(instance)
                ru.pending = instance
                ru.pending_reused = True
                ru_app[ru_index] = da
                ru_flat[ru_index] = offsets[da] + dp
                if da == cur:
                    bisect.insort(self._ready, ru_index)
                else:
                    bisect.insort(self._parked.setdefault(da, []), ru_index)
                dp += 1
                self._dispatch_pos = dp
                em = self._emit_reuse
                if em is not None:
                    em(clock, ru_index, config, da)
                if self._notify_reuse is not None:
                    self._notify_reuse(ru_index, config, clock)
                continue

            # Configuration absent: a reconfiguration is required.
            is_future = da != cur
            if is_future and self._cap_isolated:
                return
            kb = 0 if fast_kb else capp.rec_bitstreams[dp]
            free_rus = self._free_rus
            if not free_rus:
                ru = None
            elif uniform:
                ru = rus[heapq.heappop(free_rus)]
            else:
                ru = self._claim_free_ru(kb)
            if ru is None:
                if is_future and self._cap_free_only:
                    return
                # Replacement candidates: the live LOADED, unclaimed RUs in
                # index order, filtered to slots the incoming bitstream
                # fits (on uniform floorplans the filter is a no-op).
                if uniform:
                    candidates = [
                        ru for ru in rus if ru.pending is None and ru.state is _LOADED
                    ]
                else:
                    candidates = [
                        ru for ru in rus
                        if ru.pending is None and ru.state is _LOADED and ru.fits(kb)
                    ]
                if not candidates:
                    return
                ctx = self._build_context(instance, candidates, da, dp)
                decision = self.advisor.decide(ctx)
                if decision.skip:
                    self.skipped_events[da] = ctx.skipped_events + 1
                    # Validates the advisor's named victim even when no sink
                    # listens for Skip events.
                    victim_cfg = self._skip_victim_config(ctx, decision)
                    em = self._emit_skip
                    if em is not None:
                        em(clock, da, config, victim_cfg, ctx.skipped_events + 1)
                    if self._idle_stall and not self.queue:
                        # Stall recovery (see _break_idle_skip_stall): the
                        # skip was emitted and counted, but no future event
                        # exists to revisit it — decide again immediately.
                        idle_skips += 1
                        if idle_skips > 10_000:
                            raise SimulationError(
                                "advisor keeps skipping on an idle device "
                                f"(app {da}, {config}); "
                                "a skip rule must be bounded by the mobility budget"
                            )
                        continue
                    return
                if decision.victim_index is None:
                    raise PolicyError(
                        "advisor returned a load decision without a victim"
                    )
                ru = find_candidate(candidates, decision.victim_index)
                em = self._emit_eviction
                if em is not None:
                    em(clock, ru.index, ru.config, config, da)

            # The load block (free RU or victim): begin_load, inline.
            if ru.pending is not None or ru.state in _BUSY:
                ru.begin_load(instance, clock)
            ru_index = ru.index
            old_cid = ru_cid[ru_index]
            if old_cid >= 0:
                loc[old_cid] = NO_INDEX
            ru.state = _RECONFIGURING
            ru.config = config
            ru.pending = instance
            ru.pending_reused = False
            loc[cid] = ru_index
            ru_cid[ru_index] = cid
            ru_app[ru_index] = da
            ru_flat[ru_index] = offsets[da] + dp
            self._busy_cfgs.add(config)
            controller = free_controllers.pop(0)
            latency = (
                fixed_latency
                if fixed_latency is not None
                else self._cost_by_cid[cid]  # type: ignore[index]
            )
            end = clock + latency
            em = self._emit_reconfig_start
            if em is not None:
                em(clock, ru_index, config, da, end, controller)
            dp += 1
            self._dispatch_pos = dp
            push(end, _RECONF, (ru_index, instance, controller, latency))

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
            victim = find_candidate(ctx.candidates, decision.victim_index)
            return victim.config  # type: ignore[return-value]
        for ru in ctx.candidates:
            if ru.config in ctx.dl_configs:
                return ru.config  # type: ignore[return-value]
        return ctx.candidates[0].config  # type: ignore[return-value]

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
            instance = ru.pending
            if ru.state is not _LOADED or instance is None:
                ru.start_execution(clock)
            ru.state = _EXECUTING
            config = instance.config
            self._busy_cfgs.add(config)
            end = clock + instance.exec_time
            em = self._emit_exec_start
            if em is not None:
                load_us = self._fixed_latency
                if load_us is None:
                    load_us = self._cost_by_cid[self._ru_cid[ru_index]]  # type: ignore[index]
                em(clock, ru_index, config, instance.app_index, end,
                   ru.pending_reused, load_us)
            if notify is not None:
                notify(ru_index, config, clock)
            self._push(end, _EXEC, (ru_index, instance))

    def _claim_free_ru(self, bitstream_kb: int) -> Optional[RU]:
        """Pop the lowest-index free RU whose slot fits the bitstream.

        Mixed floorplans only: free RUs live in a min-heap (RUs never
        return to EMPTY, so the structure only drains), and on a uniform
        floorplan the claim is one O(log n) pop in the dispatch loop.
        """
        free = self._free_rus
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

    # ------------------------------------------------------------------
    # Decision context (incremental Dynamic-List window)
    # ------------------------------------------------------------------
    def _build_context(
        self,
        instance: TaskInstance,
        candidates: List[RU],
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

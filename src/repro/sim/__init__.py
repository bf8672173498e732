"""Event-driven simulator of the reconfigurable multitasking device.

Layers (bottom-up): :mod:`~repro.sim.simtime` (integer-µs time),
:mod:`~repro.sim.events` (deterministic event queue), :mod:`~repro.sim.ru`
(RU state machine), :mod:`~repro.sim.manager` (the paper's Fig. 4 execution
manager with prefetch), :mod:`~repro.sim.simulator` (one-call runs +
metrics), plus trace recording, validation and ASCII Gantt rendering.
"""

from repro.sim.simtime import TimeUs, fmt_ms, ms, to_ms
from repro.sim.events import EventKind, EventQueue, EventTuple
from repro.sim.ru import RU, RUState, RUView
from repro.sim.semantics import CrossAppPrefetch, ManagerSemantics, PAPER_SEMANTICS
from repro.sim.interface import Decision, DecisionContext, ReplacementAdvisor
from repro.sim.trace import (
    EvictionRecord,
    ExecRecord,
    ReconfigRecord,
    ReuseRecord,
    SkipRecord,
    Trace,
)
from repro.sim.tracing import (
    AggregateTrace,
    AppActivated,
    AppCompleted,
    Eviction,
    ExecEnd,
    ExecStart,
    FullTrace,
    JsonlTraceWriter,
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
    read_trace_events,
    replay_events,
    resolve_trace_mode,
    trace_from_jsonl,
    trace_memory_bytes,
)
from repro.sim.manager import ExecutionManager, MobilityTables
from repro.sim.simulator import (
    SimulationResult,
    ideal_makespan,
    run_simulation,
    sum_of_critical_paths,
)
from repro.sim.gantt import render_gantt, render_timeline_events
from repro.sim.validation import validate_trace

__all__ = [
    "TimeUs",
    "fmt_ms",
    "ms",
    "to_ms",
    "EventKind",
    "EventQueue",
    "EventTuple",
    "RU",
    "RUState",
    "RUView",
    "CrossAppPrefetch",
    "ManagerSemantics",
    "PAPER_SEMANTICS",
    "Decision",
    "DecisionContext",
    "ReplacementAdvisor",
    "EvictionRecord",
    "ExecRecord",
    "ReconfigRecord",
    "ReuseRecord",
    "SkipRecord",
    "Trace",
    "AggregateTrace",
    "AppActivated",
    "AppCompleted",
    "Eviction",
    "ExecEnd",
    "ExecStart",
    "FullTrace",
    "JsonlTraceWriter",
    "ReconfigEnd",
    "ReconfigStart",
    "Reuse",
    "RunEnd",
    "RunStart",
    "Skip",
    "TraceEvent",
    "TraceMode",
    "TraceSink",
    "TraceView",
    "read_trace_events",
    "replay_events",
    "resolve_trace_mode",
    "trace_from_jsonl",
    "trace_memory_bytes",
    "ExecutionManager",
    "MobilityTables",
    "SimulationResult",
    "ideal_makespan",
    "run_simulation",
    "sum_of_critical_paths",
    "render_gantt",
    "render_timeline_events",
    "validate_trace",
]

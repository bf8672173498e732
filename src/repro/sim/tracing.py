"""Streaming trace subsystem: typed events and pluggable sinks.

The :class:`~repro.sim.manager.ExecutionManager` no longer appends to
grow-only record lists while it runs.  Instead it *emits* one event per
scheduler decision — reconfiguration start/end, reuse, eviction, skip,
execution start/end, application activation and completion — to any
number of :class:`TraceSink` observers, through per-kind hooks that take
the event's fields (an immutable :class:`TraceEvent` is built only for
sinks that ask for objects).  What gets retained is the sink's choice:

* :class:`FullTrace` reconstructs the classic :class:`~repro.sim.trace.Trace`
  record lists exactly (same records, same order) — the default, and the
  mode every golden-value test runs under;
* :class:`AggregateTrace` keeps only counters, the makespan and per-RU
  busy time — O(1) memory regardless of workload length, which is what
  makes million-application streaming runs feasible;
* :class:`JsonlTraceWriter` appends one JSON object per event to a file
  for offline analysis; :func:`read_trace_events` parses the file back
  into event objects and :func:`replay_events` feeds them through sinks
  again (a JSONL file is a lossless trace: replaying it through a
  :class:`FullTrace` rebuilds the exact :class:`Trace`).

Ordering guarantees (see ``docs/events.md`` for the full contract):
events are emitted in non-decreasing simulation time, and at equal
timestamps in the manager's dispatch order — which is exactly the order
the seed implementation appended its records, so ``FullTrace`` is a
faithful reconstruction, not an approximation.

Dispatch is *not* best-effort: a raising sink aborts the run.  Traces are
evidence; silently dropping part of one would corrupt every metric
derived from it.
"""

from __future__ import annotations

import io
import json
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import (
    Callable,
    Dict,
    IO,
    Iterable,
    Iterator,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.exceptions import SimulationError
from repro.util.slots import add_slots
from repro.graphs.task import ConfigId
from repro.sim.trace import (
    EvictionRecord,
    ExecRecord,
    ReconfigRecord,
    ReuseRecord,
    SkipRecord,
    Trace,
)


# ----------------------------------------------------------------------
# Event types
# ----------------------------------------------------------------------
@add_slots
@dataclass(frozen=True)
class TraceEvent:
    """Base of all trace events.  ``time`` is simulation time in µs."""

    time: int


@add_slots
@dataclass(frozen=True)
class RunStart(TraceEvent):
    """The simulation is about to execute (always the first event).

    ``reconfig_latency`` is the device's *nominal* latency — exact on
    fixed-latency devices, the reference-bitstream cost otherwise.
    ``n_controllers`` counts the parallel reconfiguration circuitries
    (1 = the paper's single-circuitry model).
    """

    n_rus: int
    reconfig_latency: int
    n_apps: int
    n_controllers: int = 1


@add_slots
@dataclass(frozen=True)
class RunEnd(TraceEvent):
    """The simulation drained its event queue (always the last event)."""


@add_slots
@dataclass(frozen=True)
class AppActivated(TraceEvent):
    """``app_index`` became the current application."""

    app_index: int


@add_slots
@dataclass(frozen=True)
class AppCompleted(TraceEvent):
    """Every task of ``app_index`` finished executing."""

    app_index: int


@add_slots
@dataclass(frozen=True)
class ReconfigStart(TraceEvent):
    """A bitstream load began on reconfiguration controller ``controller``.

    ``end`` is the scheduled completion time (``time`` + this load's
    actual latency, which may be per-configuration); deterministic
    dispatch makes it exact at emission time.
    """

    ru: int
    config: ConfigId
    app_index: int
    end: int
    controller: int = 0

    @property
    def latency(self) -> int:
        """This load's actual latency (µs)."""
        return self.end - self.time


@add_slots
@dataclass(frozen=True)
class ReconfigEnd(TraceEvent):
    """Controller ``controller`` finished loading ``config`` into ``ru``.

    ``latency`` is the actual duration of the completed load (µs).
    """

    ru: int
    config: ConfigId
    app_index: int
    controller: int = 0
    latency: int = 0


@add_slots
@dataclass(frozen=True)
class Reuse(TraceEvent):
    """``config`` was claimed without a reconfiguration (a task reuse)."""

    ru: int
    config: ConfigId
    app_index: int


@add_slots
@dataclass(frozen=True)
class Eviction(TraceEvent):
    """``old_config`` was chosen as the victim for loading ``new_config``."""

    ru: int
    old_config: ConfigId
    new_config: ConfigId
    app_index: int


@add_slots
@dataclass(frozen=True)
class Skip(TraceEvent):
    """The replacement module skipped an event (delayed ``config``'s load)."""

    app_index: int
    config: ConfigId
    victim_config: ConfigId
    skipped_events_after: int


@add_slots
@dataclass(frozen=True)
class ExecStart(TraceEvent):
    """A task execution began on ``ru``; ``end`` is its scheduled finish.

    ``load_us`` is the reconfiguration cost this task's configuration
    incurs on the device — whether or not a load actually happened.  Its
    sum over all executions is the run's *no-reuse baseline*: the
    overhead a run with no reuse and no prefetch would pay (used by
    :meth:`~repro.sim.simulator.SimulationResult.remaining_overhead_pct`).
    """

    ru: int
    config: ConfigId
    app_index: int
    end: int
    reused: bool
    load_us: int = 0


@add_slots
@dataclass(frozen=True)
class ExecEnd(TraceEvent):
    """The task running on ``ru`` finished."""

    ru: int
    config: ConfigId
    app_index: int


#: All event classes, in documentation order (also the JSONL type names).
EVENT_TYPES: Tuple[type, ...] = (
    RunStart,
    AppActivated,
    ReconfigStart,
    ReconfigEnd,
    Reuse,
    Eviction,
    Skip,
    ExecStart,
    ExecEnd,
    AppCompleted,
    RunEnd,
)

_EVENT_BY_NAME: Dict[str, type] = {cls.__name__: cls for cls in EVENT_TYPES}

#: Event fields holding a :class:`ConfigId` (JSON-encoded as a 2-list).
_CONFIG_FIELDS = frozenset({"config", "old_config", "new_config", "victim_config"})


# ----------------------------------------------------------------------
# Sink protocol
# ----------------------------------------------------------------------
#: The per-kind hook keys the manager emits through, in documentation
#: order.  Each maps to a callback taking the matching event class's
#: fields as positional arguments (``('exec_start', ExecStart)`` →
#: ``hook(time, ru, config, app_index, end, reused, load_us)``).
SCALAR_HOOK_KEYS: Tuple[Tuple[str, type], ...] = (
    ("run_start", RunStart),
    ("app_activated", AppActivated),
    ("reconfig_start", ReconfigStart),
    ("reconfig_end", ReconfigEnd),
    ("reuse", Reuse),
    ("eviction", Eviction),
    ("skip", Skip),
    ("exec_start", ExecStart),
    ("exec_end", ExecEnd),
    ("app_completed", AppCompleted),
    ("run_end", RunEnd),
)

#: Event class -> (hook key, field names in hook-argument order).
_HOOK_ROUTES: Dict[type, Tuple[str, Tuple[str, ...]]] = {
    cls: (key, tuple(f.name for f in fields(cls))) for key, cls in SCALAR_HOOK_KEYS
}


class TraceSink:
    """Observer of the manager's event stream.

    The manager speaks one protocol: per-kind scalar hooks.  For each
    event kind it calls, in sink order (the primary first), the callback
    every sink returned from :meth:`scalar_hooks` for that kind, with the
    event's *fields* as positional arguments; a ``None`` callback means
    "not interested" and costs nothing.  A sink overrides **one** of:

    * :meth:`scalar_hooks` — the allocation-free protocol the built-in
      :class:`FullTrace` / :class:`AggregateTrace` sinks speak; the
      inherited :meth:`on_event` routes an event object to the sink's own
      hook (how :func:`replay_events` feeds them);
    * :meth:`on_event` — the object protocol (:class:`JsonlTraceWriter`,
      :class:`~repro.resilience.faults.CrashSink`, most user sinks); the
      inherited :meth:`scalar_hooks` builds the :class:`TraceEvent` per
      call, so only such sinks pay for event objects.

    A sink that overrides neither receives nothing.  :meth:`close` is
    called exactly once when the run finishes (or aborts), so file-backed
    sinks can flush.  A sink instance observes a single run — the
    :class:`RunStart`/:class:`RunEnd` pair brackets its lifetime.
    """

    def on_event(self, event: TraceEvent) -> None:
        """Receive one event.  Raising aborts the simulation."""
        key, names = _HOOK_ROUTES[type(event)]
        hook = self.scalar_hooks()[key]
        if hook is not None:
            hook(*[getattr(event, name) for name in names])

    def close(self) -> None:
        """Release resources; called once after the run (even on error)."""

    def scalar_hooks(self) -> Dict[str, Optional[Callable]]:
        """One callback (or ``None`` for an ignored kind) per event kind.

        Implementations must return a dict covering every key in
        :data:`SCALAR_HOOK_KEYS` and must behave exactly like
        :meth:`on_event` fed the corresponding event object.
        """
        if type(self).on_event is TraceSink.on_event:
            return dict.fromkeys(key for key, _ in SCALAR_HOOK_KEYS)
        on_event = self.on_event
        return {
            key: _object_hook(on_event, cls) for key, cls in SCALAR_HOOK_KEYS
        }


def _object_hook(on_event: Callable, cls: type) -> Callable:
    """A scalar hook that builds ``cls`` from its fields for ``on_event``."""

    def hook(*fields_):
        on_event(cls(*fields_))

    return hook


class FullTrace(TraceSink):
    """Reconstructs the classic list-based :class:`Trace` from the stream.

    Record contents and list order are identical to what the seed
    implementation produced by appending during the run, because the
    emission points are the former append points: reconfigurations and
    executions are recorded at their *start* events (with the scheduled
    ``end``), exactly as before.
    """

    def __init__(self) -> None:
        self._trace: Optional[Trace] = None

    @property
    def trace(self) -> Trace:
        if self._trace is None:
            raise SimulationError("FullTrace has not observed a RunStart yet")
        return self._trace

    def view(self) -> Trace:
        """The reconstructed :class:`Trace` (the run's primary result)."""
        return self.trace

    def scalar_hooks(self):
        # ReconfigEnd / ExecEnd / AppActivated / RunEnd carry no state the
        # record lists need: starts already embed their scheduled ends.
        return {
            "run_start": self._h_run_start,
            "app_activated": None,
            "reconfig_start": self._h_reconfig_start,
            "reconfig_end": None,
            "reuse": self._h_reuse,
            "eviction": self._h_eviction,
            "skip": self._h_skip,
            "exec_start": self._h_exec_start,
            "exec_end": None,
            "app_completed": self._h_app_completed,
            "run_end": None,
        }

    def snapshot(self) -> Optional[Trace]:
        """A copy of the state, for
        :meth:`~repro.sim.manager.ExecutionManager.snapshot` (which
        covers runs whose only sink is the primary one)."""
        return None if self._trace is None else _copy_trace(self._trace)

    def restore(self, state: Optional[Trace]) -> None:
        # A fresh Trace: its derived-value caches key on list lengths.
        self._trace = None if state is None else _copy_trace(state)

    def _h_run_start(self, time, n_rus, reconfig_latency, n_apps, n_controllers):
        self._trace = Trace(
            n_rus=n_rus,
            reconfig_latency=reconfig_latency,
            n_controllers=n_controllers,
        )

    def _h_exec_start(self, time, ru, config, app_index, end, reused, load_us):
        trace = self.trace
        trace.executions.append(
            ExecRecord(
                ru=ru,
                config=config,
                app_index=app_index,
                start=time,
                end=end,
                reused=reused,
            )
        )
        trace.no_reuse_baseline_us += load_us

    def _h_reconfig_start(self, time, ru, config, app_index, end, controller):
        self.trace.reconfigs.append(
            ReconfigRecord(
                ru=ru,
                config=config,
                app_index=app_index,
                start=time,
                end=end,
                controller=controller,
            )
        )

    def _h_reuse(self, time, ru, config, app_index):
        self.trace.reuses.append(
            ReuseRecord(ru=ru, config=config, app_index=app_index, time=time)
        )

    def _h_eviction(self, time, ru, old_config, new_config, app_index):
        self.trace.evictions.append(
            EvictionRecord(
                ru=ru,
                old_config=old_config,
                new_config=new_config,
                app_index=app_index,
                time=time,
            )
        )

    def _h_skip(self, time, app_index, config, victim_config, skipped_events_after):
        self.trace.skips.append(
            SkipRecord(
                app_index=app_index,
                config=config,
                victim_config=victim_config,
                time=time,
                skipped_events_after=skipped_events_after,
            )
        )

    def _h_app_completed(self, time, app_index):
        self.trace.app_completion_times[app_index] = time


def _copy_trace(trace: Trace) -> Trace:
    """A new :class:`Trace` with copies of ``trace``'s record containers
    (records are immutable and shared)."""
    return replace(
        trace,
        reconfigs=list(trace.reconfigs),
        reuses=list(trace.reuses),
        evictions=list(trace.evictions),
        skips=list(trace.skips),
        executions=list(trace.executions),
        app_completion_times=dict(trace.app_completion_times),
    )


class AggregateTrace(TraceSink):
    """Memory-bounded sink: counters + makespan + per-RU busy time.

    Exposes the same read API the metrics layer uses on :class:`Trace`
    (``makespan``, ``reuse_rate()``, ``summary()``, ...) while retaining
    O(1) state — a handful of integers plus one counter per RU — so a
    run over millions of applications costs the same trace memory as one
    over ten.  ``summary()`` returns a dict byte-identical (via JSON) to
    ``Trace.summary()`` for the same run.
    """

    def __init__(self) -> None:
        self.n_rus = 0
        self.reconfig_latency = 0
        self.n_controllers = 1
        self.n_apps = 0
        self.n_executions = 0
        self.n_reused_executions = 0
        self.n_reconfigurations = 0
        self.n_evictions = 0
        self.n_skips = 0
        self.n_reuses = 0
        self.n_apps_completed = 0
        self.last_completion_time = 0
        self.no_reuse_baseline_us = 0
        self._makespan = 0
        self._total_reconfig_time = 0
        self._busy: Dict[int, int] = {}

    def view(self) -> "AggregateTrace":
        return self

    def snapshot(self) -> Dict[str, object]:
        """A copy of the counters (see :meth:`FullTrace.snapshot`)."""
        state = self.__dict__.copy()
        state["_busy"] = dict(self._busy)
        return state

    def restore(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._busy = dict(self._busy)

    def scalar_hooks(self):
        return {
            "run_start": self._h_run_start,
            "app_activated": None,
            "reconfig_start": self._h_reconfig_start,
            "reconfig_end": None,
            "reuse": self._h_reuse,
            "eviction": self._h_eviction,
            "skip": self._h_skip,
            "exec_start": self._h_exec_start,
            "exec_end": None,
            "app_completed": self._h_app_completed,
            "run_end": None,
        }

    def _h_run_start(self, time, n_rus, reconfig_latency, n_apps, n_controllers):
        self.n_rus = n_rus
        self.reconfig_latency = reconfig_latency
        self.n_controllers = n_controllers
        self.n_apps = n_apps
        self._busy = {i: 0 for i in range(n_rus)}

    def _h_exec_start(self, time, ru, config, app_index, end, reused, load_us):
        self.n_executions += 1
        if reused:
            self.n_reused_executions += 1
        self.no_reuse_baseline_us += load_us
        try:
            self._busy[ru] += end - time
        except KeyError:
            raise SimulationError(
                "AggregateTrace has not observed a RunStart yet"
            ) from None
        if end > self._makespan:
            self._makespan = end

    def _h_reconfig_start(self, time, ru, config, app_index, end, controller):
        self.n_reconfigurations += 1
        self._total_reconfig_time += end - time

    def _h_reuse(self, time, ru, config, app_index):
        self.n_reuses += 1

    def _h_eviction(self, time, ru, old_config, new_config, app_index):
        self.n_evictions += 1

    def _h_skip(self, time, app_index, config, victim_config, skipped_events_after):
        self.n_skips += 1

    def _h_app_completed(self, time, app_index):
        self.n_apps_completed += 1
        self.last_completion_time = time

    # -- Trace-compatible read API --------------------------------------
    @property
    def makespan(self) -> int:
        return self._makespan

    def reuse_rate(self) -> float:
        if not self.n_executions:
            return 0.0
        return self.n_reused_executions / self.n_executions

    def busy_time_per_ru(self) -> Dict[int, int]:
        return dict(self._busy)

    def total_reconfiguration_time(self) -> int:
        return self._total_reconfig_time

    def summary(self) -> Dict[str, object]:
        """Same keys, order and values as :meth:`Trace.summary`."""
        return {
            "n_rus": self.n_rus,
            "reconfig_latency_us": self.reconfig_latency,
            "makespan_us": self.makespan,
            "executions": self.n_executions,
            "reused": self.n_reused_executions,
            "reuse_rate": round(self.reuse_rate(), 4),
            "reconfigurations": self.n_reconfigurations,
            "evictions": self.n_evictions,
            "skips": self.n_skips,
        }


class JsonlTraceWriter(TraceSink):
    """Streams every event as one JSON object per line to ``target``.

    ``target`` may be a path, the string ``"-"`` (standard output), or an
    **already-open stream** — any object with a ``write`` method, text or
    binary.  Paths are opened (and closed) by the writer; caller-supplied
    streams are flushed but never closed, so one socket, pipe or
    ``io.BytesIO`` can outlive many writers.  This is the single JSONL
    codec in the system: the CLI's ``--trace-out``, the offline event
    files and the ``repro serve`` network event streams all produce
    byte-identical lines (one :func:`encode_event_line` + ``"\\n"`` per
    event), so :func:`read_trace_events` / :func:`trace_from_jsonl`
    round-trip any of them unchanged.

    Each line carries the event type name plus its fields, with
    :class:`ConfigId` values encoded as ``[graph_name, node_id]`` pairs.
    """

    def __init__(self, target: Union[str, Path, IO]) -> None:
        self.path: Optional[Path] = None
        self._owns = False
        if hasattr(target, "write"):
            self._fh: Optional[IO] = target
        elif target == "-":
            self._fh = sys.stdout
        else:
            self.path = Path(target)
            self._fh = self.path.open("w", encoding="utf-8")
            self._owns = True
        # Binary streams (sockets, BytesIO, files opened "wb") get the
        # same UTF-8 bytes a text stream would produce.
        self._binary = isinstance(self._fh, (io.RawIOBase, io.BufferedIOBase)) or (
            "b" in getattr(self._fh, "mode", "")
        )
        self.n_events = 0

    def on_event(self, event: TraceEvent) -> None:
        if self._fh is None:
            raise SimulationError(f"JsonlTraceWriter({self.path}) is closed")
        line = encode_event_line(event) + "\n"
        self._fh.write(line.encode("utf-8") if self._binary else line)
        self.n_events += 1

    def close(self) -> None:
        if self._fh is None:
            return
        if self._owns:
            self._fh.close()
        else:
            try:
                self._fh.flush()
            except (ValueError, OSError):  # already-closed caller stream
                pass
        self._fh = None


# ----------------------------------------------------------------------
# JSONL (de)serialization and replay
# ----------------------------------------------------------------------
def event_to_dict(event: TraceEvent) -> Dict[str, object]:
    """JSON-ready dict: ``{"event": <type>, <field>: <value>, ...}``."""
    out: Dict[str, object] = {"event": type(event).__name__}
    for key, value in asdict(event).items():
        out[key] = list(value) if key in _CONFIG_FIELDS else value
    return out


def encode_event_line(event: TraceEvent) -> str:
    """The canonical JSONL wire encoding of one event (no newline).

    Every producer — :class:`JsonlTraceWriter` and the ``repro serve``
    network sink — emits exactly this string per event, which is what
    makes a streamed event capture byte-identical to a local JSONL file
    of the same run.
    """
    return json.dumps(event_to_dict(event), separators=(",", ":"))


def event_from_dict(payload: Dict[str, object]) -> TraceEvent:
    """Inverse of :func:`event_to_dict` (raises on unknown event types)."""
    data = dict(payload)
    name = data.pop("event", None)
    cls = _EVENT_BY_NAME.get(name)  # type: ignore[arg-type]
    if cls is None:
        raise SimulationError(f"unknown trace event type {name!r}")
    kwargs = {
        key: ConfigId(*value) if key in _CONFIG_FIELDS else value
        for key, value in data.items()
    }
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise SimulationError(f"malformed {name} event: {exc}") from None


def read_trace_events(
    source: Union[str, Path, IO, Iterable[str]]
) -> Iterator[TraceEvent]:
    """Parse JSONL event lines back into event objects.

    ``source`` is a file path, an open text stream, or any iterable of
    JSONL lines (e.g. a list captured from a live ``/jobs/{id}/events``
    stream) — anything the matching :class:`JsonlTraceWriter` side could
    have produced.
    """
    if isinstance(source, (str, Path)):
        with Path(source).open("r", encoding="utf-8") as fh:
            yield from _parse_trace_lines(fh, str(source))
    else:
        yield from _parse_trace_lines(source, "<stream>")


def _parse_trace_lines(lines: Iterable[str], label: str) -> Iterator[TraceEvent]:
    for lineno, line in enumerate(lines, start=1):
        if isinstance(line, bytes):
            line = line.decode("utf-8")
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SimulationError(
                f"{label}:{lineno}: not valid JSON ({exc})"
            ) from None
        yield event_from_dict(payload)


def replay_events(
    events: Iterable[TraceEvent], *sinks: TraceSink
) -> Tuple[TraceSink, ...]:
    """Feed ``events`` through ``sinks`` (closing them), return the sinks."""
    try:
        for event in events:
            for sink in sinks:
                sink.on_event(event)
    finally:
        for sink in sinks:
            sink.close()
    return sinks


def trace_from_jsonl(source: Union[str, Path, IO, Iterable[str]]) -> Trace:
    """Rebuild the full :class:`Trace` from JSONL events.

    Accepts anything :func:`read_trace_events` does: a file written by
    :class:`JsonlTraceWriter`, an open stream, or captured lines from a
    live daemon event stream — all three carry the identical wire format.
    """
    (sink,) = replay_events(read_trace_events(source), FullTrace())
    return sink.view()  # type: ignore[union-attr]


# ----------------------------------------------------------------------
# Trace-mode resolution (the ``trace=`` parameter everywhere)
# ----------------------------------------------------------------------
#: What callers may pass as a trace mode: ``"full"``, ``"aggregate"``, a
#: ``.jsonl`` output path, ``"-"`` (stdout) or an already-open stream
#: (streamed events + aggregate counters).
TraceMode = Union[str, Path, IO]

#: What a resolved run returns as its trace: the classic record lists or
#: the O(1) aggregate view.  Both expose ``makespan``, ``reuse_rate()``,
#: ``summary()``, ``busy_time_per_ru()`` and the headline counters.
TraceView = Union[Trace, AggregateTrace]


def resolve_trace_mode(
    trace: TraceMode = "full", extra_sinks: Sequence[TraceSink] = ()
) -> Tuple[TraceSink, Tuple[TraceSink, ...]]:
    """Turn a trace mode into ``(primary sink, all sinks)``.

    ``"full"`` → a :class:`FullTrace`; ``"aggregate"`` → an
    :class:`AggregateTrace`; a path, ``"-"`` (standard output) or an
    already-open stream → a :class:`JsonlTraceWriter` to that target
    *plus* an :class:`AggregateTrace` primary (the events stream out, so
    only O(1) memory is retained — replay the capture for more).
    ``extra_sinks`` are appended after the primary in emission order.

    A string counts as a path only when it *looks* like one (a ``.jsonl``
    suffix, a directory separator, or the stdout marker ``"-"``) — so a
    typo like ``trace="ful"`` raises instead of silently creating a file
    named ``ful``.
    """
    primary: TraceSink
    if trace == "full":
        primary = FullTrace()
        sinks: Tuple[TraceSink, ...] = (primary,)
    elif trace == "aggregate":
        primary = AggregateTrace()
        sinks = (primary,)
    elif (
        isinstance(trace, Path)
        or hasattr(trace, "write")
        or (
            isinstance(trace, str)
            and (
                trace == "-"
                or trace.endswith(".jsonl")
                or "/" in trace
                or "\\" in trace
            )
        )
    ):
        primary = AggregateTrace()
        sinks = (primary, JsonlTraceWriter(trace))
    else:
        raise SimulationError(
            f"invalid trace mode {trace!r}: expected 'full', 'aggregate', "
            "'-', an open stream, or a JSONL output path (*.jsonl)"
        )
    return primary, sinks + tuple(extra_sinks)


# ----------------------------------------------------------------------
# Introspection helpers (benchmarks, tests)
# ----------------------------------------------------------------------
def trace_memory_bytes(view: TraceView) -> int:
    """Approximate retained memory of a trace view, in bytes.

    Deterministic and comparable across runs: record lists are charged
    per element, the aggregate view per counter.  Used by the streaming
    benchmark to demonstrate O(1) aggregate memory.
    """
    if isinstance(view, AggregateTrace):
        total = sys.getsizeof(view) + sys.getsizeof(view._busy)
        total += sum(sys.getsizeof(v) for v in view._busy.values())
        return total
    total = sys.getsizeof(view)
    for records in (
        view.reconfigs,
        view.reuses,
        view.evictions,
        view.skips,
        view.executions,
    ):
        total += sys.getsizeof(records)
        total += sum(sys.getsizeof(r) for r in records)
    total += sys.getsizeof(view.app_completion_times)
    return total


def event_field_names(cls: type) -> Tuple[str, ...]:
    """Field names of an event class (used by docs tests)."""
    return tuple(f.name for f in fields(cls))

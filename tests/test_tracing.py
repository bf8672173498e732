"""The streaming trace subsystem: sinks, modes, JSONL round-trips.

Covers the event-bus acceptance criteria: the FullTrace sink reconstructs
the seed's record lists exactly (byte-identical ``summary()``), the
aggregate sink reports the same counters in O(1) memory, the JSONL writer
round-trips losslessly, and the trace modes thread through ``Session``
(including under the process pool) and the hooks protocol.
"""

import json
import threading

import pytest

from repro.core.policy_spec import lfd_spec, local_lfd_spec, lru_spec
from repro.exceptions import ExperimentError, SimulationError
from repro.hw import DeviceModel, make_device
from repro.metrics.summary import PolicyRunRecord
from repro.session import Session, SessionHooks
from repro.sim.manager import ExecutionManager
from repro.sim.simulator import run_simulation
from repro.sim.tracing import (
    AggregateTrace,
    AppActivated,
    EVENT_TYPES,
    ExecStart,
    FullTrace,
    JsonlTraceWriter,
    ReconfigStart,
    Reuse,
    RunEnd,
    RunStart,
    SCALAR_HOOK_KEYS,
    TraceSink,
    event_field_names,
    event_from_dict,
    event_to_dict,
    read_trace_events,
    replay_events,
    resolve_trace_mode,
    trace_from_jsonl,
    trace_memory_bytes,
)
from repro.sim.trace import ExecRecord, Trace
from repro.workloads.scenarios import make_scenario

#: ``json.dumps(trace.summary())`` of the seed implementation for
#: (paper-eval length=25, 4 RUs): captured at commit 2a1760c semantics.
#: The FullTrace-reconstructed path must reproduce these bytes exactly.
SEED_SUMMARY_LRU = (
    '{"n_rus": 4, "reconfig_latency_us": 4000, "makespan_us": 1847000, '
    '"executions": 124, "reused": 15, "reuse_rate": 0.121, '
    '"reconfigurations": 109, "evictions": 105, "skips": 0}'
)
SEED_SUMMARY_SKIP = (
    '{"n_rus": 4, "reconfig_latency_us": 4000, "makespan_us": 1907000, '
    '"executions": 124, "reused": 38, "reuse_rate": 0.3065, '
    '"reconfigurations": 86, "evictions": 82, "skips": 28}'
)


@pytest.fixture(scope="module")
def workload():
    return make_scenario("paper-eval", length=25)


def _run(workload, spec, **kwargs):
    return Session(workload=workload).run(spec, **kwargs)


# ----------------------------------------------------------------------
# FullTrace: seed-path fidelity
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "spec_factory,expected",
    [
        (lru_spec, SEED_SUMMARY_LRU),
        (lambda: local_lfd_spec(1, skip_events=True), SEED_SUMMARY_SKIP),
    ],
    ids=["lru", "local-lfd-skip"],
)
def test_fulltrace_summary_byte_identical_to_seed(workload, spec_factory, expected):
    result = _run(workload, spec_factory())
    assert isinstance(result.trace, Trace)
    assert json.dumps(result.trace.summary()) == expected


def test_aggregate_summary_byte_identical_to_seed(workload):
    result = _run(workload, lru_spec(), trace="aggregate")
    assert isinstance(result.trace, AggregateTrace)
    assert json.dumps(result.trace.summary()) == SEED_SUMMARY_LRU


# ----------------------------------------------------------------------
# Aggregate vs full equality on paper-eval
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "spec_factory",
    [lru_spec, lfd_spec, lambda: local_lfd_spec(1, skip_events=True)],
    ids=["lru", "lfd", "local-lfd-skip"],
)
def test_aggregate_matches_full_counters(workload, spec_factory):
    full = _run(workload, spec_factory(), trace="full")
    agg = _run(workload, spec_factory(), trace="aggregate")
    assert agg.trace.summary() == full.trace.summary()
    assert agg.makespan_us == full.makespan_us
    assert agg.trace.busy_time_per_ru() == full.trace.busy_time_per_ru()
    assert (
        agg.trace.total_reconfiguration_time()
        == full.trace.total_reconfiguration_time()
    )
    assert agg.trace.n_apps_completed == workload.n_apps


# ----------------------------------------------------------------------
# JSONL: write -> parse -> replay round-trip
# ----------------------------------------------------------------------
def test_jsonl_round_trip(tmp_path, workload):
    path = tmp_path / "events.jsonl"
    spec = local_lfd_spec(1, skip_events=True)
    streamed = _run(workload, spec, trace=str(path))
    full = _run(workload, spec, trace="full")

    # The streamed run keeps aggregate counters in memory...
    assert isinstance(streamed.trace, AggregateTrace)
    assert streamed.trace.summary() == full.trace.summary()

    # ...and the file replays into the *exact* full trace: same records,
    # same order, byte-identical summary.
    replayed = trace_from_jsonl(path)
    assert json.dumps(replayed.summary()) == json.dumps(full.trace.summary())
    assert replayed.executions == full.trace.executions
    assert replayed.reconfigs == full.trace.reconfigs
    assert replayed.reuses == full.trace.reuses
    assert replayed.evictions == full.trace.evictions
    assert replayed.skips == full.trace.skips
    assert replayed.app_completion_times == full.trace.app_completion_times


def test_jsonl_writer_accepts_open_text_stream(tmp_path, workload):
    """An already-open stream gets the same bytes as a path target."""
    import io

    path = tmp_path / "events.jsonl"
    spec = local_lfd_spec(1)
    _run(workload, spec, trace=str(path))

    buffer = io.StringIO()
    _run(workload, spec, trace=buffer)
    assert buffer.getvalue() == path.read_text(encoding="utf-8")
    # Caller-supplied streams are flushed, never closed.
    assert not buffer.closed
    replayed = trace_from_jsonl(buffer.getvalue().splitlines())
    assert replayed.summary() == trace_from_jsonl(path).summary()


def test_jsonl_writer_accepts_open_binary_stream(tmp_path, workload):
    import io

    path = tmp_path / "events.jsonl"
    spec = local_lfd_spec(1)
    _run(workload, spec, trace=str(path))

    buffer = io.BytesIO()
    _run(workload, spec, trace=buffer)
    assert buffer.getvalue() == path.read_bytes()
    assert not buffer.closed

    with (tmp_path / "direct.jsonl").open("wb") as fh:
        _run(workload, spec, trace=fh)
        assert not fh.closed
    assert (tmp_path / "direct.jsonl").read_bytes() == path.read_bytes()


def test_jsonl_writer_stdout_marker(capsys, workload):
    """``trace="-"`` streams the event log to standard output."""
    result = _run(workload, local_lfd_spec(1), trace="-")
    captured = capsys.readouterr().out
    lines = [line for line in captured.splitlines() if line]
    assert json.loads(lines[0])["event"] == "RunStart"
    assert json.loads(lines[-1])["event"] == "RunEnd"
    replayed = trace_from_jsonl(lines)
    assert replayed.summary() == result.trace.summary()


def test_read_trace_events_accepts_streams_and_lines(tmp_path, workload):
    path = tmp_path / "events.jsonl"
    _run(workload, local_lfd_spec(1), trace=str(path))
    from_path = list(read_trace_events(path))
    with path.open("r", encoding="utf-8") as fh:
        from_stream = list(read_trace_events(fh))
    from_lines = list(read_trace_events(path.read_text().splitlines()))
    from_bytes = list(read_trace_events(path.read_bytes().splitlines()))
    assert from_path == from_stream == from_lines == from_bytes


def test_jsonl_stream_ordering_contract(tmp_path, workload):
    path = tmp_path / "events.jsonl"
    _run(workload, lru_spec(), trace=str(path))
    events = list(read_trace_events(path))
    assert isinstance(events[0], RunStart)
    assert isinstance(events[-1], RunEnd)
    assert all(a.time <= b.time for a, b in zip(events, events[1:]))
    # The first activation is app 0 at t=0.
    first_act = next(e for e in events if isinstance(e, AppActivated))
    assert (first_act.app_index, first_act.time) == (0, 0)


def test_event_dict_round_trip_all_types(tmp_path, workload):
    path = tmp_path / "events.jsonl"
    _run(workload, local_lfd_spec(1, skip_events=True), trace=str(path))
    events = list(read_trace_events(path))
    # A skip-enabled paper-eval run exercises every event type.
    assert {type(e) for e in events} == set(EVENT_TYPES)
    for event in events:
        assert event_from_dict(event_to_dict(event)) == event


def test_event_from_dict_rejects_garbage():
    with pytest.raises(SimulationError, match="unknown trace event"):
        event_from_dict({"event": "Nope", "time": 0})
    with pytest.raises(SimulationError, match="malformed"):
        event_from_dict({"event": "Reuse", "time": 0})


def test_closed_writer_rejects_events(tmp_path):
    writer = JsonlTraceWriter(tmp_path / "x.jsonl")
    writer.close()
    with pytest.raises(SimulationError, match="closed"):
        writer.on_event(RunEnd(time=0))
    writer.close()  # idempotent


# ----------------------------------------------------------------------
# Mode resolution and threading through Session / the process pool
# ----------------------------------------------------------------------
def test_invalid_trace_mode_raises(workload):
    with pytest.raises(SimulationError, match="invalid trace mode"):
        resolve_trace_mode("bogus")
    # Typos must not silently become output files.
    with pytest.raises(SimulationError, match="invalid trace mode"):
        run_simulation(
            workload.apps,
            advisor=lru_spec().make_advisor(),
            ideal_makespan_us=0,
            trace="FULL",
            device=DeviceModel.homogeneous(4, 4000),
        )


def test_sweep_rejects_jsonl_path(tmp_path, workload):
    session = Session(workload=workload, trace=str(tmp_path / "t.jsonl"))
    with pytest.raises(ExperimentError, match="only supported for"):
        session.sweep([lru_spec(), lfd_spec()], ru_counts=(4,))


def _full_trace_record(session, spec, **hardware):
    """Independent reference: one full-trace ``Session.run`` per cell."""
    result = session.run(spec, trace="full", **hardware)
    assert isinstance(result.trace, Trace)
    return PolicyRunRecord.from_result(spec.label, result.trace.n_rus, result)


def test_aggregate_sweep_matches_full_sweep_under_pool(workload):
    """Sweep cells run on the aggregate sink, inline and pooled; each
    record equals the one a full-trace single run of the cell yields."""
    specs = [lru_spec(), local_lfd_spec(1, skip_events=True)]
    reference = Session(workload=workload)
    expected = [
        _full_trace_record(reference, spec, n_rus=rus)
        for rus in (4, 6)
        for spec in specs
    ]
    for parallel in (1, 2):
        sweep = Session(workload=workload).sweep(
            specs, ru_counts=(4, 6), parallel=parallel
        )
        assert [r.__dict__ for r in sweep.records] == [r.__dict__ for r in expected]


def test_aggregate_device_sweep_matches_full_runs(workload):
    """Same check over explicit hardware: two reconfiguration
    controllers, and bitstream-size-proportional load latency."""
    specs = [lru_spec(), local_lfd_spec(1, skip_events=True)]
    devices = [
        DeviceModel.homogeneous(4, 4000, n_controllers=2),
        make_device("sized-4ru"),
    ]
    reference = Session(workload=workload)
    expected = [
        _full_trace_record(reference, spec, device=model)
        for model in devices
        for spec in specs
    ]
    for parallel in (1, 2):
        cells = Session(workload=workload).device_sweep(
            specs, devices, parallel=parallel
        )
        assert [c.record.__dict__ for c in cells] == [r.__dict__ for r in expected]


class _EventLog(TraceSink):
    def __init__(self):
        self.events = []

    def on_event(self, event):
        self.events.append(event_to_dict(event))


def test_sweep_hook_sink_sees_the_full_trace_event_stream(workload):
    """A hook sink on an (aggregate) sweep cell receives exactly the
    events it would receive next to a full trace."""
    spec = local_lfd_spec(1, skip_events=True)

    class _LogHook(SessionHooks):
        def trace_sinks(self, cell):
            self.sink = _EventLog()
            return (self.sink,)

    hook = _LogHook()
    session = Session(workload=workload, hooks=(hook,))
    session.sweep([spec], ru_counts=(4,))
    reference = _EventLog()
    run_simulation(
        workload.apps,
        advisor=spec.make_advisor(),
        semantics=spec.make_semantics(),
        mobility_tables=session.mobility_tables(4),
        ideal_makespan_us=session.ideal_makespan_us(
            4, semantics=spec.make_semantics()
        ),
        trace="full",
        extra_sinks=(reference,),
        device=DeviceModel.homogeneous(4, workload.reconfig_latency),
    )
    assert reference.events
    assert hook.sink.events == reference.events


def test_session_run_trace_override(workload):
    session = Session(workload=workload, trace="aggregate")
    assert isinstance(session.run(lru_spec()).trace, AggregateTrace)
    assert isinstance(session.run(lru_spec(), trace="full").trace, Trace)


# ----------------------------------------------------------------------
# Hooks attach extra sinks
# ----------------------------------------------------------------------
class _CountingSink(TraceSink):
    def __init__(self):
        self.n_events = 0
        self.closed = False

    def on_event(self, event):
        self.n_events += 1

    def close(self):
        self.closed = True


class _SinkHook(SessionHooks):
    def __init__(self):
        self.sinks = []

    def trace_sinks(self, cell):
        sink = _CountingSink()
        self.sinks.append(sink)
        return (sink,)


def test_hook_sinks_observe_the_stream(workload):
    hook = _SinkHook()
    session = Session(workload=workload, hooks=(hook,), trace="aggregate")
    result = session.run(lru_spec())
    (sink,) = hook.sinks
    assert sink.closed
    # At least RunStart/RunEnd plus one event per execution and reconfig.
    assert sink.n_events >= 2 + result.trace.n_executions
    # Sequential sweeps honour hook sinks too, one fresh sink per cell.
    session.sweep([lru_spec(), lfd_spec()], ru_counts=(4,))
    assert len(hook.sinks) == 3
    assert all(s.closed and s.n_events for s in hook.sinks)


def test_sinks_closed_even_when_a_sink_raises(tmp_path, workload):
    class _Bomb(TraceSink):
        def on_event(self, event):
            if isinstance(event, ExecStart):
                raise RuntimeError("boom")

    path = tmp_path / "partial.jsonl"
    with pytest.raises(RuntimeError, match="boom"):
        run_simulation(
            workload.apps,
            advisor=lru_spec().make_advisor(),
            ideal_makespan_us=0,
            trace=str(path),
            extra_sinks=(_Bomb(),),
            device=DeviceModel.homogeneous(4, 4000),
        )
    # The writer was closed (flushed) despite the abort: the partial
    # stream parses cleanly up to the failure point.
    events = list(read_trace_events(path))
    assert isinstance(events[0], RunStart)
    assert any(isinstance(e, (ReconfigStart, Reuse)) for e in events)


# ----------------------------------------------------------------------
# Per-kind hook fan-out: the one protocol the manager speaks
# ----------------------------------------------------------------------
_KEY_OF = {cls: key for key, cls in SCALAR_HOOK_KEYS}


class _HookLog(TraceSink):
    """Hook-only sink: logs ``(kind, fields)`` and never sees an object."""

    def __init__(self):
        self.events = []

    def scalar_hooks(self):
        return {
            key: (lambda *fields, key=key: self.events.append((key, fields)))
            for key, _ in SCALAR_HOOK_KEYS
        }


class _ObjectLog(TraceSink):
    """Object-protocol sink: logs the same ``(kind, fields)`` shape."""

    def __init__(self):
        self.events = []

    def on_event(self, event):
        cls = type(event)
        fields = tuple(getattr(event, n) for n in event_field_names(cls))
        self.events.append((_KEY_OF[cls], fields))


def _manager(workload, trace="full", extra_sinks=()):
    spec = lru_spec()
    return ExecutionManager(
        graphs=workload.apps,
        advisor=spec.make_advisor(),
        semantics=spec.make_semantics(),
        trace=trace,
        extra_sinks=extra_sinks,
        device=DeviceModel.homogeneous(4, workload.reconfig_latency),
    )


def test_fan_out_delivers_one_stream_in_sink_order_primary_first(workload):
    hook_log = _HookLog()

    class _Probe(_ObjectLog):
        """Last in line: checks the sinks ahead already took each event."""

        def __init__(self):
            super().__init__()
            self.ahead = []

        def on_event(self, event):
            super().on_event(event)
            self.ahead.append(len(hook_log.events) == len(self.events))
            if type(event) is ExecStart:
                self.ahead.append(
                    len(manager.trace.executions)
                    == sum(key == "exec_start" for key, _ in self.events)
                )

    object_log = _Probe()
    manager = _manager(workload, extra_sinks=(hook_log, object_log))
    trace = manager.run()
    assert hook_log.events
    assert hook_log.events == object_log.events
    assert hook_log.events[0][0] == "run_start"
    assert hook_log.events[-1][0] == "run_end"
    assert object_log.ahead and all(object_log.ahead)
    execs = [f for key, f in hook_log.events if key == "exec_start"]
    assert [(r.ru, r.start, r.end) for r in trace.executions] == [
        (f[1], f[0], f[4]) for f in execs
    ]


def test_fan_out_runs_sinks_in_attachment_order(workload):
    order = []

    class _Tag(TraceSink):
        def __init__(self, tag):
            self.tag = tag

        def scalar_hooks(self):
            return {
                key: (lambda *fields: order.append(self.tag))
                for key, _ in SCALAR_HOOK_KEYS
            }

    _manager(workload, trace="aggregate", extra_sinks=(_Tag("a"), _Tag("b"))).run()
    assert order and order == ["a", "b"] * (len(order) // 2)


def test_hook_only_sinks_construct_no_event_objects(workload, monkeypatch):
    from repro.server.daemon import _CancelSink

    # Count constructions through each event class's own ``__init__``
    # (patching ``__new__`` on a class hierarchy cannot be undone cleanly).
    built = []
    for cls in EVENT_TYPES:

        def counting_init(self, *args, _orig=cls.__init__, **kwargs):
            built.append(type(self))
            _orig(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)

    class _Job:
        id = "j"
        cancel_event = threading.Event()

    hook_log = _HookLog()
    for trace in ("full", "aggregate"):
        _manager(workload, trace, extra_sinks=(hook_log, _CancelSink(_Job()))).run()
    assert hook_log.events
    assert built == []
    # The counter is live: an object-protocol sink does build events.
    object_log = _ObjectLog()
    _manager(workload, "aggregate", extra_sinks=(object_log,)).run()
    assert len(built) == len(object_log.events)


def test_raising_sink_stops_later_sinks_and_aborts_at_event_n(workload):
    from repro.resilience.faults import CrashSink, FaultError

    was_armed = CrashSink.armed
    CrashSink.arm()
    try:
        crash, after = CrashSink(50), _HookLog()
        with pytest.raises(FaultError, match="trace event 50"):
            _manager(workload, extra_sinks=(crash, after)).run()
    finally:
        CrashSink.armed = was_armed
    assert crash.n == 50
    # The sink after the crasher never saw event 50.
    assert len(after.events) == 49


def test_missing_hook_key_on_an_extra_sink_raises_clearly(workload):
    class _Incomplete(_HookLog):
        def scalar_hooks(self):
            hooks = super().scalar_hooks()
            del hooks["skip"]
            return hooks

    with pytest.raises(SimulationError, match=r"_Incomplete.*'skip'"):
        _manager(workload, extra_sinks=(_Incomplete(),))


def test_sink_overriding_neither_protocol_receives_nothing(workload):
    class _Inert(TraceSink):
        pass

    sink = _Inert()
    assert set(sink.scalar_hooks().values()) == {None}
    sink.on_event(RunStart(time=0, n_rus=4, reconfig_latency=1, n_apps=1))
    reference = _manager(workload).run()
    trace = _manager(workload, extra_sinks=(sink,)).run()
    assert trace.summary() == reference.summary()


def test_built_in_sinks_take_event_objects_through_their_hooks(workload):
    hook_log = _HookLog()
    reference = _manager(workload, extra_sinks=(hook_log,)).run()
    event_cls = dict(SCALAR_HOOK_KEYS)
    events = [event_cls[key](*fields) for key, fields in hook_log.events]
    full, agg = replay_events(events, FullTrace(), AggregateTrace())
    assert full.view().executions == reference.executions
    assert agg.summary() == reference.summary()


# ----------------------------------------------------------------------
# O(1) aggregate memory and the huge-stream scenario
# ----------------------------------------------------------------------
def test_aggregate_memory_is_flat_in_workload_length():
    short = make_scenario("huge-stream", length=20)
    long = make_scenario("huge-stream", length=200)
    sizes = {}
    for wl in (short, long):
        result = Session(workload=wl, trace="aggregate").run(lru_spec())
        sizes[wl.n_apps] = trace_memory_bytes(result.trace)
    assert sizes[20] == sizes[200]

    full = Session(workload=long, trace="full").run(lru_spec())
    assert trace_memory_bytes(full.trace) > 50 * sizes[200]


def test_huge_stream_scenario_defaults():
    wl = make_scenario("huge-stream", length=30)
    assert wl.name == "huge-stream-30"
    assert wl.n_apps == 30
    # Same catalog/sampling as paper-eval: identical app sequence.
    paper = make_scenario("paper-eval", length=30)
    assert [g.name for g in wl.apps] == [g.name for g in paper.apps]


# ----------------------------------------------------------------------
# Trace derived-value caching (append-only invalidation)
# ----------------------------------------------------------------------
def test_trace_makespan_and_busy_cache_invalidate_on_append():
    trace = Trace(n_rus=2, reconfig_latency=100)
    assert trace.makespan == 0
    trace.executions.append(
        ExecRecord(ru=0, config=("A", 0), app_index=0, start=0, end=50, reused=False)
    )
    assert trace.makespan == 50
    assert trace.busy_time_per_ru() == {0: 50, 1: 0}
    # Cached: repeated access returns the same value...
    assert trace.makespan == 50
    # ...and an append invalidates (the key is len(executions)).
    trace.executions.append(
        ExecRecord(ru=1, config=("A", 1), app_index=0, start=50, end=120, reused=True)
    )
    assert trace.makespan == 120
    assert trace.busy_time_per_ru() == {0: 50, 1: 70}
    # The returned dict is a copy; mutating it must not poison the cache.
    trace.busy_time_per_ru()[0] = 999
    assert trace.busy_time_per_ru() == {0: 50, 1: 70}


def test_fulltrace_before_runstart_raises():
    with pytest.raises(SimulationError, match="RunStart"):
        FullTrace().view()


def test_replay_into_multiple_sinks(tmp_path, workload):
    path = tmp_path / "events.jsonl"
    _run(workload, lru_spec(), trace=str(path))
    full_sink, agg_sink = replay_events(
        read_trace_events(path), FullTrace(), AggregateTrace()
    )
    assert agg_sink.summary() == full_sink.view().summary()

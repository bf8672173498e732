"""Crash-safe simulations: checkpoints, retries, leases, fault injection.

The PR-level acceptance criteria live here: a run interrupted at an
arbitrary event resumes from its checkpoint to the exact golden trace, a
SIGKILLed worker costs only time (zero lost / zero duplicated cells), a
dropped event stream reconnects byte-identically, daemon jobs retry with
backoff into ``done`` or park in the terminal ``dead`` state, and every
injected fault is deterministic under a seeded :class:`FaultPlan`.
"""

import contextlib
import http.client
import multiprocessing
import pickle
import time
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.artifacts.schema import decode_checkpoint, decode_lease, encode_lease
from repro.artifacts.store import ArtifactStore
from repro.backends.queue import SKEW_MARGIN_S, CellQueue
from repro.backends.stealing import WorkStealingBackend
from repro.backends.worker import publish_heartbeat, read_heartbeats, run_worker
from repro.cli import build_parser
from repro.client import RemoteJobError, ReproClient
from repro.core.policy_spec import lru_spec, named_policy_spec
from repro.exceptions import ExperimentError, ReproError, SimulationError
from repro.hw.model import DeviceModel
from repro.resilience import checkpoint as checkpoint_module
from repro.resilience import (
    CheckpointError,
    CrashSink,
    FaultError,
    FaultPlan,
    RetryPolicy,
    run_checkpoint_key,
)
from repro.server import ServerThread
from repro.session import Session, SessionHooks
from repro.sim.manager import ExecutionManager
from repro.sim.simtime import ms
from repro.sim.simulator import run_simulation
from repro.sim.tracing import TraceSink
from repro.workloads.scenarios import quick_workload

SCENARIO = {"scenario": "quick", "scenario_kwargs": {"length": 40}}


# ----------------------------------------------------------------------
# RetryPolicy / RetrySchedule
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_schedules_are_deterministic(self):
        policy = RetryPolicy(seed=7)
        seq = [
            [schedule.next_pause() for _ in range(5)]
            for schedule in (policy.schedule(), policy.schedule())
        ]
        assert seq[0] == seq[1]
        assert seq[0][-1] is None  # 5 attempts = at most 4 pauses

    def test_exponential_shape_and_exhaustion(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay_s=0.05, multiplier=2.0, jitter=0.0
        )
        schedule = policy.schedule()
        pauses = [schedule.next_pause() for _ in range(5)]
        assert pauses == [0.05, 0.1, 0.2, 0.4, None]

    def test_max_delay_caps_backoff(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay_s=0.05, max_delay_s=0.15, jitter=0.0
        )
        schedule = policy.schedule()
        assert [schedule.next_pause() for _ in range(4)] == [0.05, 0.1, 0.15, 0.15]

    def test_retry_after_raises_the_floor(self):
        policy = RetryPolicy(base_delay_s=0.05, jitter=0.0)
        assert policy.schedule().next_pause(retry_after=1.5) == 1.5
        # A hint below the computed backoff does not shorten it.
        schedule = policy.schedule()
        schedule.next_pause()
        assert schedule.next_pause(retry_after=0.01) == 0.1

    def test_deadline_refuses_crossing_pauses(self):
        now = [0.0]
        policy = RetryPolicy(
            max_attempts=10, base_delay_s=0.15, deadline_s=0.2, jitter=0.0
        )
        schedule = policy.schedule(monotonic=lambda: now[0])
        assert schedule.next_pause() == 0.15
        now[0] = 0.15
        assert schedule.next_pause() is None  # 0.15 + 0.3 crosses 0.2

    def test_run_retries_then_succeeds(self):
        sleeps = []
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError("transient")
            return 42

        policy = RetryPolicy(max_attempts=5, base_delay_s=0.01, jitter=0.0)
        assert policy.run(flaky, retryable=(OSError,), sleep=sleeps.append) == 42
        assert len(sleeps) == 2

    def test_run_reraises_last_error_when_exhausted(self):
        sleeps = []

        def always():
            raise ValueError("persistent")

        policy = RetryPolicy(max_attempts=2, base_delay_s=0.01, jitter=0.0)
        with pytest.raises(ValueError, match="persistent"):
            policy.run(always, retryable=(ValueError,), sleep=sleeps.append)
        assert len(sleeps) == 1

    def test_run_non_retryable_propagates_immediately(self):
        sleeps = []

        def wrong():
            raise KeyError("not transient")

        policy = RetryPolicy(max_attempts=5)
        with pytest.raises(KeyError):
            policy.run(wrong, retryable=(ValueError,), sleep=sleeps.append)
        assert sleeps == []

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"base_delay_s": -1.0},
            {"multiplier": 0.5},
            {"jitter": 2.0},
        ],
    )
    def test_invalid_policies_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


# ----------------------------------------------------------------------
# FaultPlan
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_every_nth_cadence(self):
        plan = FaultPlan(points={"p": 2})
        assert [plan.should_fire("p") for _ in range(6)] == [
            False, True, False, True, False, True,
        ]
        assert plan.fired("p") == 3 and plan.calls("p") == 6

    def test_explicit_occurrences(self):
        plan = FaultPlan(points={"p": [2, 5]})
        fired = [i + 1 for i in range(6) if plan.should_fire("p")]
        assert fired == [2, 5]

    def test_probability_stream_is_seeded(self):
        a = FaultPlan(seed=11, points={"p": 0.3})
        b = FaultPlan(seed=11, points={"p": 0.3})
        assert [a.should_fire("p") for _ in range(100)] == [
            b.should_fire("p") for _ in range(100)
        ]
        assert 0 < a.fired("p") < 100

    def test_unknown_point_never_fires(self):
        plan = FaultPlan(points={"p": 1})
        assert not plan.should_fire("other")

    def test_pickle_preserves_counters(self):
        plan = FaultPlan(points={"p": [4]})
        for _ in range(3):
            plan.should_fire("p")
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.should_fire("p")  # the clone continues at call 4
        assert plan.should_fire("p")  # and so does the original

    @pytest.mark.parametrize("spec", [True, -1.0, 1.5, 0, [0]])
    def test_invalid_specs_rejected(self, spec):
        with pytest.raises(ReproError):
            FaultPlan(points={"p": spec})

    def test_reset_rewinds_everything(self):
        plan = FaultPlan(points={"p": 2})
        plan.should_fire("p"), plan.should_fire("p")
        plan.reset()
        assert plan.calls("p") == 0 and plan.fired("p") == 0
        assert not plan.should_fire("p")  # back to call #1

    def test_crash_sink_fires_and_pickle_skips_armed(self):
        sink = CrashSink(3)
        sink.on_event(None), sink.on_event(None)
        clone = pickle.loads(pickle.dumps(sink))
        assert clone.n == 2
        try:
            CrashSink.disarm()
            clone.on_event(None)  # disarmed: counts past the limit quietly
            assert clone.n == 3
        finally:
            CrashSink.arm()
        with pytest.raises(FaultError):
            clone.on_event(None)  # class-level armed state, not pickled

    def test_crash_sink_rejects_nonpositive_limit(self):
        with pytest.raises(ReproError):
            CrashSink(0)


# ----------------------------------------------------------------------
# Checkpoint / resume
# ----------------------------------------------------------------------
class _Interrupt(RuntimeError):
    """The injected mid-run crash."""


class _BoomSink(TraceSink):
    """Raises after ``limit`` trace events; disarmed for the resumed run
    via the class attribute (class state survives unpickling)."""

    armed = True

    def __init__(self, limit: int) -> None:
        self.limit = int(limit)
        self.n = 0

    def on_event(self, event) -> None:
        self.n += 1
        if type(self).armed and self.n >= self.limit:
            raise _Interrupt(f"injected crash at trace event {self.n}")


def _simulate(workload, **kwargs):
    return run_simulation(
        workload.apps,
        device=workload.device,
        advisor=named_policy_spec("lru").make_advisor(),
        **kwargs,
    )


def _trace_blob(trace):
    return (
        trace.reconfigs,
        trace.reuses,
        trace.evictions,
        trace.skips,
        trace.executions,
        trace.app_completion_times,
    )


@contextlib.contextmanager
def _resume_log():
    """Record ``(resumed, events_done)`` for each store-path resume attempt;
    ``events_done`` is the restored manager's event count (0 when fresh)."""
    log = []
    real = checkpoint_module.resume_from_store

    def spy(manager, store, key):
        resumed = real(manager, store, key)
        log.append((resumed, manager._events_done))
        return resumed

    with mock.patch.object(checkpoint_module, "resume_from_store", spy):
        yield log


@pytest.fixture(scope="module")
def golden():
    workload = quick_workload(length=12)
    result = _simulate(workload)
    return workload, _trace_blob(result.trace), result.makespan_us


class TestCheckpointResume:
    def test_interrupt_then_resume_is_trace_identical(self, golden, tmp_path):
        workload, blob, makespan = golden
        store = ArtifactStore(tmp_path / "ckpt")
        key = run_checkpoint_key("unit", "lru", workload.device)
        _BoomSink.armed = True
        try:
            with pytest.raises(_Interrupt):
                _simulate(
                    workload,
                    checkpoint_every=16,
                    checkpoint_store=store,
                    checkpoint_key=key,
                    extra_sinks=[_BoomSink(60)],
                )
            assert store.exists("checkpoint", key)
            saved = store.load("checkpoint", key, decode_checkpoint)["events_done"]
            _BoomSink.armed = False
            with _resume_log() as log:
                resumed = _simulate(
                    workload,
                    checkpoint_every=16,
                    checkpoint_store=store,
                    checkpoint_key=key,
                    extra_sinks=[_BoomSink(60)],
                )
        finally:
            _BoomSink.armed = True
        # The run restored the checkpoint instead of silently starting fresh.
        assert saved > 0
        assert log == [(True, saved)]
        assert _trace_blob(resumed.trace) == blob
        assert resumed.makespan_us == makespan
        # A completed run cleans its checkpoint up.
        assert not store.exists("checkpoint", key)

    def test_uninterrupted_checkpointed_run_matches(self, golden, tmp_path):
        workload, blob, _ = golden
        store = ArtifactStore(tmp_path / "ckpt")
        key = run_checkpoint_key("unit2", "lru", workload.device)
        result = _simulate(
            workload, checkpoint_every=8, checkpoint_store=store, checkpoint_key=key
        )
        assert _trace_blob(result.trace) == blob
        assert not store.exists("checkpoint", key)

    def test_checkpoint_from_other_hardware_is_not_resumed(self, tmp_path):
        """Same key, same workload, different latency: the device
        fingerprint rejects the snapshot and the run starts fresh."""
        workload = quick_workload(length=30)
        slow = DeviceModel.homogeneous(4, 4000)
        fast = DeviceModel.homogeneous(4, 2000)
        assert run_checkpoint_key("c", "lru", slow) != run_checkpoint_key(
            "c", "lru", fast
        )

        def run(device, **kwargs):
            return run_simulation(
                workload.apps,
                named_policy_spec("lru").make_advisor(),
                trace="aggregate",
                extra_sinks=[_BoomSink(200)],
                device=device,
                **kwargs,
            )

        _BoomSink.armed = False
        fresh = run(fast)
        store = ArtifactStore(tmp_path / "ckpt")
        _BoomSink.armed = True
        try:
            with pytest.raises(_Interrupt):
                run(
                    slow,
                    checkpoint_every=50,
                    checkpoint_store=store,
                    checkpoint_key="K",
                )
            _BoomSink.armed = False
            payload = store.load("checkpoint", "K", decode_checkpoint)
            with pytest.raises(CheckpointError, match="workload/device"):
                run(fast, resume_from=payload)
            resumed = run(
                fast, checkpoint_every=50, checkpoint_store=store, checkpoint_key="K"
            )
        finally:
            _BoomSink.armed = True
        assert resumed.makespan_us == fresh.makespan_us == 2_194_000
        assert resumed.trace.summary() == fresh.trace.summary()
        assert not store.exists("checkpoint", "K")

    def test_mismatched_checkpoint_evicted_as_miss(self, golden, tmp_path):
        """A checkpoint from a *different* workload under the same key is
        rejected by fingerprint, evicted, and the run starts fresh."""
        workload, blob, _ = golden
        other = quick_workload(length=8)
        store = ArtifactStore(tmp_path / "ckpt")
        key = run_checkpoint_key("shared", "lru", workload.device)
        _BoomSink.armed = True
        try:
            with pytest.raises(_Interrupt):
                _simulate(
                    other,
                    checkpoint_every=8,
                    checkpoint_store=store,
                    checkpoint_key=key,
                    extra_sinks=[_BoomSink(40)],
                )
        finally:
            _BoomSink.armed = True
        assert store.exists("checkpoint", key)
        result = _simulate(
            workload, checkpoint_every=8, checkpoint_store=store, checkpoint_key=key
        )
        assert _trace_blob(result.trace) == blob
        assert not store.exists("checkpoint", key)

    def test_version_mismatch_raises_on_explicit_resume(self, golden, tmp_path):
        workload, _, _ = golden
        store = ArtifactStore(tmp_path / "ckpt")
        key = run_checkpoint_key("ver", "lru", workload.device)
        _BoomSink.armed = True
        try:
            with pytest.raises(_Interrupt):
                _simulate(
                    workload,
                    checkpoint_every=8,
                    checkpoint_store=store,
                    checkpoint_key=key,
                    extra_sinks=[_BoomSink(40)],
                )
        finally:
            _BoomSink.armed = True
        payload = store.load("checkpoint", key, decode_checkpoint)
        payload["version"] = 999
        with pytest.raises(CheckpointError, match="version"):
            _simulate(workload, resume_from=payload, extra_sinks=[_BoomSink(40)])

    def test_full_trace_checkpoint_restores_strictly(self, golden, tmp_path):
        """A full-trace snapshot that already holds trace records restores
        under strict ``resume_from`` (frozen slotted records unpickle) and
        finishes event-identical to the uninterrupted run."""
        workload, blob, makespan = golden
        store = ArtifactStore(tmp_path / "ckpt")
        _BoomSink.armed = True
        try:
            with pytest.raises(_Interrupt):
                _simulate(
                    workload,
                    checkpoint_every=16,
                    checkpoint_store=store,
                    checkpoint_key="F",
                    extra_sinks=[_BoomSink(60)],
                )
            payload = store.load("checkpoint", "F", decode_checkpoint)
            assert payload["events_done"] > 0
            _BoomSink.armed = False
            resumed = _simulate(
                workload, resume_from=payload, extra_sinks=[_BoomSink(60)]
            )
        finally:
            _BoomSink.armed = True
        assert _trace_blob(resumed.trace) == blob
        assert resumed.makespan_us == makespan

    @pytest.mark.parametrize("layout", ["fewer-sinks", "jsonl-moved"])
    def test_other_sink_layout_is_refused_untouched(self, golden, tmp_path, layout):
        """A checkpoint restores only into a run with the same trace-sink
        layout (count, and where the JSONL writer sits): an explicit resume
        raises, the store path starts fresh, and the refused manager is
        left as it was."""
        workload, _, makespan = golden
        store = ArtifactStore(tmp_path / "ckpt")
        crashed = {"extra_sinks": [_BoomSink(60)]}
        if layout == "fewer-sinks":
            def resume():
                return {}
        else:
            crashed["trace"] = str(tmp_path / "events.jsonl")

            def resume():
                return {"trace": "aggregate",
                        "extra_sinks": [_BoomSink(60), _BoomSink(60)]}
        _BoomSink.armed = True
        try:
            with pytest.raises(_Interrupt):
                _simulate(
                    workload,
                    checkpoint_every=16,
                    checkpoint_store=store,
                    checkpoint_key="L",
                    **crashed,
                )
            payload = store.load("checkpoint", "L", decode_checkpoint)
            assert payload["events_done"] > 0
            _BoomSink.armed = False
            with pytest.raises(CheckpointError, match="trace sinks"):
                _simulate(workload, resume_from=payload, **resume())
            manager = ExecutionManager(
                workload.apps,
                named_policy_spec("lru").make_advisor(),
                device=workload.device,
                **resume(),
            )
            before = pickle.dumps(manager.snapshot())
            with pytest.raises(CheckpointError, match="trace sinks"):
                checkpoint_module.restore_checkpoint(manager, payload)
            assert pickle.dumps(manager.snapshot()) == before
            assert manager.run().makespan == makespan
            with _resume_log() as log:
                result = _simulate(
                    workload,
                    checkpoint_every=16,
                    checkpoint_store=store,
                    checkpoint_key="L",
                    **resume(),
                )
        finally:
            _BoomSink.armed = True
        assert log == [(False, 0)]
        assert result.makespan_us == makespan
        assert not store.exists("checkpoint", "L")

    def test_checkpoint_every_requires_store_and_key(self, golden):
        workload, _, _ = golden
        with pytest.raises(SimulationError, match="checkpoint_every"):
            _simulate(workload, checkpoint_every=8)

    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        boom=st.integers(min_value=3, max_value=400),
        every=st.integers(min_value=1, max_value=48),
    )
    def test_random_interrupt_resumes_to_golden(self, golden, tmp_path, boom, every):
        workload, blob, _ = golden
        store = ArtifactStore(tmp_path / "ckpt")
        key = run_checkpoint_key("hyp", "lru", workload.device)
        _BoomSink.armed = True
        try:
            try:
                result = _simulate(
                    workload,
                    checkpoint_every=every,
                    checkpoint_store=store,
                    checkpoint_key=key,
                    extra_sinks=[_BoomSink(boom)],
                )
            except _Interrupt:
                payload = store.load("checkpoint", key, decode_checkpoint)
                _BoomSink.armed = False
                with _resume_log() as log:
                    result = _simulate(
                        workload,
                        checkpoint_every=every,
                        checkpoint_store=store,
                        checkpoint_key=key,
                        extra_sinks=[_BoomSink(boom)],
                    )
                # A crash before the first checkpoint legitimately starts
                # fresh; otherwise the run resumed from the saved cut.
                if payload is None:
                    assert log == [(False, 0)]
                else:
                    assert log == [(True, payload["events_done"])]
        finally:
            _BoomSink.armed = True
        assert _trace_blob(result.trace) == blob
        assert not store.exists("checkpoint", key)


class TestSessionCheckpoint:
    def test_session_requires_store_for_checkpointing(self):
        session = Session(workload=quick_workload(length=12))
        with pytest.raises(ExperimentError, match="artifact store"):
            session.run(lru_spec(), checkpoint_every=10)

    def test_session_checkpointed_run_completes_and_cleans_up(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        workload = quick_workload(length=12)
        baseline = Session(workload=workload).run(lru_spec())
        session = Session(workload=workload, store=store)
        result = session.run(lru_spec(), checkpoint_every=25)
        assert result.summary() == baseline.summary()
        assert store.keys_of_kind("checkpoint") == []

    def test_checkpoint_of_other_arrivals_is_not_resumed(self, tmp_path):
        """Regression: the key names workload, label and device only, so a
        run without arrivals found the checkpoint of the same run with
        arrivals and resumed it (makespan 2,350,000 µs instead of
        2,246,000).  The fingerprint now tells them apart: the store path
        evicts it as a miss, an explicit resume raises."""

        class Crash(SessionHooks):
            def trace_sinks(self, cell):
                return [CrashSink(120)]

        workload = quick_workload(length=30)
        spec = named_policy_spec("lru")
        store = ArtifactStore(tmp_path / "ckpt")
        session = Session(workload=workload, store=store, hooks=[Crash()])
        fresh = Session(workload=workload).run(spec)
        arrivals = [ms(150) * i for i in range(len(workload.apps))]
        try:
            with pytest.raises(FaultError):
                session.run(spec, arrival_times=arrivals, checkpoint_every=16)
            (key,) = store.keys_of_kind("checkpoint")
            payload = store.load("checkpoint", key, decode_checkpoint)
            assert payload["events_done"] > 0
            CrashSink.disarm()
            with pytest.raises(CheckpointError, match="workload/device"):
                run_simulation(
                    workload.apps,
                    spec.make_advisor(),
                    extra_sinks=[CrashSink(120)],
                    device=workload.device,
                    resume_from=payload,
                )
            with _resume_log() as log:
                resumed = session.run(spec, checkpoint_every=16)
        finally:
            CrashSink.arm()
        assert log == [(False, 0)]
        assert resumed.makespan_us == fresh.makespan_us == 2_246_000
        assert resumed.overhead_us == fresh.overhead_us == 104_000
        assert store.keys_of_kind("checkpoint") == []

    def test_cli_accepts_checkpoint_flag(self):
        args = build_parser().parse_args(["run", "--checkpoint", "64"])
        assert args.checkpoint == 64


# ----------------------------------------------------------------------
# Leases: defensive expiry, skew margin, TTL validation
# ----------------------------------------------------------------------
class TestLeaseExpiry:
    @pytest.mark.parametrize("ttl", [0, -1.0])
    def test_nonpositive_lease_ttl_rejected(self, tmp_path, ttl):
        # A lease with TTL <= 0 is stale as soon as it is written: any
        # cell longer than the skew margin would be reclaimed and rerun.
        with pytest.raises(ExperimentError, match="lease_ttl"):
            WorkStealingBackend(tmp_path / "s", lease_ttl=ttl)
        with pytest.raises(ExperimentError, match="lease_ttl"):
            run_worker(tmp_path / "s", lease_ttl=ttl, once=True)

    def test_skew_margin_grace_before_reclaim(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        queue = CellQueue(store, "sw", n_cells=1)
        key = queue.cell_key(0)
        now = time.time()
        # Expired, but within the skew margin: the worker may just be on
        # a slightly slow clock — not reclaimable yet.
        store.put(
            "lease",
            key,
            encode_lease(
                key,
                {"worker": "w", "acquired": now - 10, "ttl_s": 9.0,
                 "expires": now - 1.0},
            ),
        )
        assert queue.reclaim_stale() == []
        store.put(
            "lease",
            key,
            encode_lease(
                key,
                {"worker": "w", "acquired": now - 10, "ttl_s": 5.0,
                 "expires": now - (SKEW_MARGIN_S + 1.0)},
            ),
        )
        assert queue.reclaim_stale() == [0]

    def test_decode_lease_backcompat_derives_expires(self):
        entry = encode_lease("k", {"worker": "w", "acquired": 50.0, "ttl_s": 5.0})
        assert decode_lease("k", entry)["expires"] == 55.0

    def test_durable_writes_retry_transient_store_errors(self, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path / "s")
        calls = {"n": 0}
        real_put = store.put

        def flaky_put(kind, key, entry):
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError("transient I/O hiccup")
            return real_put(kind, key, entry)

        monkeypatch.setattr(store, "put", flaky_put)
        queue = CellQueue(
            store,
            "sw",
            n_cells=1,
            retry=RetryPolicy(max_attempts=3, base_delay_s=0.0, jitter=0.0),
        )
        queue.complete(0, {"policy_label": "LRU"}, "w1")
        assert queue.result(0)["worker"] == "w1"
        assert calls["n"] == 2


# ----------------------------------------------------------------------
# Store fault injection + worker heartbeats
# ----------------------------------------------------------------------
class TestStoreFaults:
    def test_torn_write_is_evicted_as_miss(self, tmp_path):
        plan = FaultPlan(points={"store.write.torn": [1]})
        store = ArtifactStore(tmp_path / "s", faults=plan)
        publish_heartbeat(store, "w1")  # first write lands torn
        assert plan.fired("store.write.torn") == 1
        assert read_heartbeats(store) == {}
        publish_heartbeat(store, "w1")  # second write is clean
        assert "w1" in read_heartbeats(store)


class TestHeartbeats:
    def test_publish_and_read_roundtrip(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        publish_heartbeat(store, "alpha", sweep="sw1", completed=3, failed=1)
        publish_heartbeat(store, "beta", state="idle")
        beats = read_heartbeats(store)
        assert set(beats) == {"alpha", "beta"}
        assert beats["alpha"]["completed"] == 3 and beats["alpha"]["sweep"] == "sw1"
        assert beats["beta"]["state"] == "idle"

    def test_corrupt_beacon_is_absent(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        publish_heartbeat(store, "alpha")
        store.put("heartbeat", "hb-bad", {"not": "an envelope"})
        assert set(read_heartbeats(store)) == {"alpha"}


# ----------------------------------------------------------------------
# Chaos: a real SIGKILL mid-sweep (zero lost / zero duplicated cells)
# ----------------------------------------------------------------------
def _sigkill_victim(store_root: str, sweep_id: str) -> None:
    """Worker subprocess that claims its first cell and SIGKILLs itself."""
    run_worker(
        store_root,
        sweep_id,
        worker_id="victim",
        lease_ttl=0.3,
        poll_s=0.02,
        faults=FaultPlan(points={"worker.cell.sigkill": [1]}),
        heartbeats=False,
    )


class TestSigkillChaos:
    def test_sigkilled_worker_sweep_still_completes(self, tmp_path):
        workload = quick_workload(length=10)
        baseline = Session(workload=workload).sweep([lru_spec()], ru_counts=(4,))
        store = ArtifactStore(tmp_path / "store")
        victims = []

        def sabotage(queue):
            proc = multiprocessing.Process(
                target=_sigkill_victim, args=(str(store.root), queue.sweep_id)
            )
            proc.start()
            victims.append(proc)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if store.keys_of_kind("lease"):
                    break
                time.sleep(0.02)
            proc.join(timeout=30)

        backend = WorkStealingBackend(
            store,
            workers=1,
            lease_ttl=0.3,
            poll_s=0.02,
            timeout_s=120,
            on_published=sabotage,
        )
        with backend:
            sweep = Session(workload=workload, backend=backend).sweep(
                [lru_spec()], ru_counts=(4,)
            )
        assert victims and victims[0].exitcode == -9  # really SIGKILLed
        # Zero lost, zero duplicated: one record per cell, byte-equal to
        # the inline baseline.
        assert len(sweep.records) == len(baseline.records) == 1
        assert [r.__dict__ for r in sweep.records] == [
            r.__dict__ for r in baseline.records
        ]


# ----------------------------------------------------------------------
# Daemon job resilience + client retry
# ----------------------------------------------------------------------
class TestDaemonJobRetry:
    def test_failed_attempt_requeues_then_succeeds(self):
        faults = FaultPlan(points={"daemon.job.fail": [1]})
        with ServerThread(
            workers=1, quota_rate=0, retry_base_s=0.01, faults=faults
        ) as srv:
            with ReproClient(srv.host, srv.port) as client:
                job_id = client.submit(dict(SCENARIO, max_attempts=3))
                status = client.wait(job_id, timeout=120)
        assert status["state"] == "done"
        assert status["attempts"] == 2
        assert len(status["failures"]) == 1
        assert "injected" in status["failures"][0]["error"]

    def test_exhausted_attempts_park_in_dead(self):
        faults = FaultPlan(points={"daemon.job.fail": 1})  # every attempt fails
        with ServerThread(
            workers=1, quota_rate=0, retry_base_s=0.01, faults=faults
        ) as srv:
            with ReproClient(srv.host, srv.port) as client:
                job_id = client.submit(dict(SCENARIO, max_attempts=2))
                status = client.wait(job_id, timeout=120)
                health = client.healthz()
        assert status["state"] == "dead"
        assert status["attempts"] == 2
        assert len(status["failures"]) == 2
        assert health["jobs"]["dead"] == 1

    def test_single_attempt_failure_stays_failed(self):
        faults = FaultPlan(points={"daemon.job.fail": [1]})
        with ServerThread(workers=1, quota_rate=0, faults=faults) as srv:
            with ReproClient(srv.host, srv.port) as client:
                job_id = client.submit(dict(SCENARIO))  # default max_attempts=1
                status = client.wait(job_id, timeout=120)
        assert status["state"] == "failed"

    def test_deadline_beats_remaining_attempts(self):
        faults = FaultPlan(points={"daemon.job.fail": 1})
        with ServerThread(
            workers=1, quota_rate=0, retry_base_s=0.01, faults=faults
        ) as srv:
            with ReproClient(srv.host, srv.port) as client:
                job_id = client.submit(
                    dict(SCENARIO, max_attempts=50, deadline_s=0.001)
                )
                status = client.wait(job_id, timeout=120)
        assert status["state"] == "dead"
        assert status["attempts"] < 50
        assert "deadline" in status["error"]

    def test_rejected_spec_fields(self):
        with ServerThread(workers=1, quota_rate=0) as srv:
            with ReproClient(srv.host, srv.port) as client:
                with pytest.raises(RemoteJobError) as err:
                    client.submit(dict(SCENARIO, max_attempts=0))
                assert err.value.status == 400
                with pytest.raises(RemoteJobError) as err:
                    client.submit(dict(SCENARIO, deadline_s=-1))
                assert err.value.status == 400


class TestLoadShedding:
    def test_full_backlog_sheds_503_with_retry_after(self):
        with ServerThread(workers=1, quota_rate=0, max_pending=1) as srv:
            failfast = RetryPolicy(max_attempts=1)
            with ReproClient(srv.host, srv.port, retry=failfast) as client:
                blocker = client.submit(
                    {
                        "kind": "sweep",
                        "scenario": "paper-eval",
                        "scenario_kwargs": {"length": 400},
                        "rus": [4, 5, 6, 7],
                    }
                )
                deadline = time.monotonic() + 60
                while time.monotonic() < deadline:
                    if client.status(blocker)["state"] == "running":
                        break
                    time.sleep(0.02)
                queued = client.submit(dict(SCENARIO))  # fills the backlog
                with pytest.raises(RemoteJobError) as err:
                    client.submit(dict(SCENARIO))
                assert err.value.status == 503
                assert err.value.retry_after > 0
                client.cancel(blocker)
                assert client.wait(queued, timeout=120)["state"] == "done"


class TestClientRetry:
    def test_dropped_connection_is_retried_transparently(self):
        plan = FaultPlan(points={"client.conn.drop": [1]})
        with ServerThread(workers=1, quota_rate=0) as srv:
            with ReproClient(
                srv.host,
                srv.port,
                retry=RetryPolicy(max_attempts=3, base_delay_s=0.01),
                faults=plan,
            ) as client:
                assert client.healthz()["status"] == "ok"
        assert plan.fired("client.conn.drop") == 1

    def test_exhausted_transport_retries_surface_client_error(self):
        from repro.client import ReproClientError

        dead = ReproClient(
            "127.0.0.1",
            1,
            timeout=1,
            retry=RetryPolicy(max_attempts=2, base_delay_s=0.01, jitter=0.0),
        )
        with pytest.raises(ReproClientError):
            dead.healthz()


class TestStreamDropReconnect:
    def test_dropped_stream_resumes_byte_identical(self, tmp_path):
        faults = FaultPlan(points={"daemon.stream.drop": [1]})
        with ServerThread(workers=1, quota_rate=0, faults=faults) as srv:
            with ReproClient(srv.host, srv.port) as client:
                job_id = client.submit(
                    dict(SCENARIO, events=True, window=2)
                )
                lines = []
                dropped = False
                try:
                    for line in client.stream_lines(job_id):
                        lines.append(line)
                except (http.client.HTTPException, ConnectionError, OSError):
                    dropped = True
                assert dropped or faults.fired  # the drop actually happened
                assert srv.server.faults.fired("daemon.stream.drop") == 1
                client.wait(job_id, timeout=120)
                # Reconnect from the line offset we already have — the
                # ?from=N replay protocol — and splice the capture.
                resumed = list(client.stream_lines(job_id, start=len(lines)))
                streamed = b"".join(lines) + b"".join(resumed)

        path = tmp_path / "local.jsonl"
        session = Session(workload=quick_workload(length=40))
        session.run(named_policy_spec("local-lfd", window=2), trace=path)
        assert streamed == path.read_bytes()


class TestDaemonWorkerVisibility:
    def test_health_surfaces_external_worker_beacons(self, tmp_path):
        store_dir = tmp_path / "store"
        with ServerThread(workers=1, quota_rate=0, store=str(store_dir)) as srv:
            publish_heartbeat(
                ArtifactStore(store_dir), "remote-1", sweep="sw", completed=7
            )
            with ReproClient(srv.host, srv.port) as client:
                health = client.healthz()
        workers = health["external_workers"]
        assert workers["count"] == 1
        assert workers["workers"]["remote-1"]["completed"] == 7
        assert workers["workers"]["remote-1"]["age_s"] >= 0

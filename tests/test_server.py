"""The ``repro serve`` daemon: job lifecycle, streaming, quotas, clients.

Covers the service acceptance criteria: the full submit → progress →
stream → result lifecycle over real sockets, cancellation mid-sweep,
per-client quota 429s, malformed-spec 400s, event-stream reconnection,
and — the load-bearing one — a streamed ``/jobs/{id}/events`` capture
being byte-identical to the same run's local
:class:`~repro.sim.tracing.JsonlTraceWriter` file.
"""

import asyncio
import dataclasses
import json
import http.client
import os
import signal
import sys
import threading
import time

import pytest

from repro.core.policy_spec import lru_spec, named_policy_spec
from repro.client import (
    AsyncReproClient,
    RemoteJobError,
    ReproClient,
    ReproClientError,
)
from repro.exceptions import ExperimentError
from repro.resilience.faults import FaultPlan
from repro.run_spec import RunSpec, SpecError
from repro.server import ReproServer, ServerThread, TokenBucket
from repro.server.daemon import COMPILED_MEMO_SIZE, _JobHooks, _WorkloadMemo
from repro.server.jobs import Job, JobCancelled
from repro.session import Session, SessionHooks
from repro.sim.tracing import SCALAR_HOOK_KEYS, TraceSink, trace_from_jsonl
from repro.workloads.scenarios import make_scenario

#: Small-but-nontrivial workload shared by most lifecycle tests.
SCENARIO = {"scenario": "quick", "scenario_kwargs": {"length": 40}}


@pytest.fixture(scope="module")
def server():
    with ServerThread(workers=2, quota_rate=0) as srv:
        yield srv


@pytest.fixture()
def client(server):
    with ReproClient(server.host, server.port, client_id="pytest") as c:
        yield c


# ----------------------------------------------------------------------
# Spec validation (no sockets involved)
# ----------------------------------------------------------------------
class TestParseJobSpec:
    def test_minimal_run_spec_defaults(self):
        spec = RunSpec.from_dict({"scenario": "quick"})
        assert spec.kind == "run"
        assert spec.policy == "local-lfd"
        assert spec.n_cells == 1
        assert not spec.events

    def test_sweep_cells_and_policy_specs(self):
        spec = RunSpec.from_dict(
            {
                "kind": "sweep",
                "scenario": "quick",
                "policies": ["local-lfd", "lru"],
                "rus": [4, 6],
                "window": 2,
            }
        )
        assert spec.n_cells == 4
        labels = [s.label for s in spec.policy_specs()]
        assert labels == ["Local LFD (2)", "lru"]

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"scenario": "no-such"}, "unknown scenario"),
            ({"scenario": "quick", "bogus": 1}, "unknown job spec field"),
            ({"scenario": "quick", "kind": "walk"}, "'kind'"),
            ({"kind": "run"}, "'scenario' is required"),
            ({"scenario": "quick", "policy": "no-such"}, "unknown policy"),
            ({"scenario": "quick", "window": -1}, "'window'"),
            ({"scenario": "quick", "window": True}, "'window'"),
            ({"scenario": "quick", "n_rus": "four"}, "'n_rus'"),
            ({"scenario": "quick", "rus": [4]}, "only valid for 'sweep'"),
            ({"scenario": "quick", "kind": "sweep"}, "require 'rus'"),
            ({"scenario": "quick", "kind": "sweep", "rus": []}, "require 'rus'"),
            (
                {"scenario": "quick", "kind": "sweep", "rus": [4, 0]},
                "integers >= 1",
            ),
            (
                {"scenario": "quick", "kind": "sweep", "rus": [4], "events": True},
                "only valid for 'run'",
            ),
            (
                {"scenario": "quick", "scenario_kwargs": {"nope": 1}},
                "does not accept parameter",
            ),
            (
                {"scenario": "quick", "scenario_kwargs": {"length": [1]}},
                "JSON scalar",
            ),
            ([1, 2], "JSON object"),
            (
                {"kind": "sweep", "scenario": "quick", "rus": [4], "policies": [[1]]},
                "'policies'",
            ),
            ({"scenario": "quick", "deadline_s": float("nan")}, "'deadline_s'"),
        ],
    )
    def test_rejections_name_the_offence(self, payload, message):
        with pytest.raises(SpecError, match=message):
            RunSpec.from_dict(payload)

    def test_as_dict_round_trips(self):
        spec = RunSpec.from_dict(
            {
                "kind": "sweep",
                "scenario": "quick",
                "scenario_kwargs": {"length": 40},
                "policies": ["lru"],
                "rus": [4],
            }
        )
        assert RunSpec.from_dict(spec.as_dict()) == spec


class TestTokenBucket:
    def test_burst_then_deny_then_refill(self):
        bucket = TokenBucket(rate=1.0, burst=2)
        t0 = 100.0
        assert bucket.try_acquire(t0) == (True, 0.0)
        assert bucket.try_acquire(t0) == (True, 0.0)
        allowed, retry = bucket.try_acquire(t0)
        assert not allowed and retry == pytest.approx(1.0)
        allowed, _ = bucket.try_acquire(t0 + 1.5)  # one token refilled
        assert allowed

    def test_zero_rate_disables_quota(self):
        bucket = TokenBucket(rate=0.0, burst=1)
        assert all(bucket.try_acquire(1.0)[0] for _ in range(100))


# ----------------------------------------------------------------------
# Lifecycle over real sockets
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_healthz_reports_workers_and_cache(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["workers"] == 2
        assert "cache" in health and "jobs" in health

    def test_run_job_matches_local_session(self, client):
        job_id = client.submit(dict(SCENARIO, kind="run", window=2))
        status = client.wait(job_id, timeout=120)
        assert status["state"] == "done"
        assert status["progress"] == {"done": 1, "total": 1}
        remote = client.result(job_id)["summary"]

        local = Session(workload=make_scenario("quick", length=40)).run(
            named_policy_spec("local-lfd", window=2)
        )
        assert remote == local.summary()

    def test_sweep_job_full_progress_and_records(self, client):
        job_id = client.submit(
            dict(
                SCENARIO,
                kind="sweep",
                policies=["local-lfd", "lru"],
                rus=[4, 6],
            )
        )
        status = client.wait(job_id, timeout=120)
        assert status["state"] == "done"
        assert status["progress"] == {"done": 4, "total": 4}
        records = client.result(job_id)["records"]
        assert len(records) == 4
        assert {r["n_rus"] for r in records} == {4, 6}
        assert all(r["makespan_ms"] > 0 for r in records)

    def test_job_listing_includes_submissions(self, client):
        job_id = client.submit(dict(SCENARIO))
        assert job_id in {j["id"] for j in client.jobs()}
        client.wait(job_id, timeout=120)

    def test_malformed_spec_is_400(self, client):
        with pytest.raises(RemoteJobError) as err:
            client.submit({"scenario": "quick", "bogus": True})
        assert err.value.status == 400
        assert "bogus" in str(err.value)

    def test_non_json_body_is_400(self, server):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            conn.request("POST", "/jobs", body=b"not json {")
            response = conn.getresponse()
            payload = json.loads(response.read())
            assert response.status == 400
            assert "JSON" in payload["error"]
        finally:
            conn.close()

    def test_unknown_job_is_404(self, client):
        with pytest.raises(RemoteJobError) as err:
            client.status("j999999-deadbeef")
        assert err.value.status == 404

    def test_unknown_route_is_404(self, client):
        assert client._request("GET", "/nope")[0] == 404

    def test_failed_job_result_is_409_with_error(self, client):
        # quick's widest application needs 3 concurrent RUs; n_rus=2
        # passes validation but fails in the simulator.
        job_id = client.submit(dict(SCENARIO, n_rus=2))
        status = client.wait(job_id, timeout=120)
        assert status["state"] == "failed"
        assert "RU" in status["error"]
        with pytest.raises(RemoteJobError) as err:
            client.result(job_id)
        assert err.value.status == 409

    def test_cancel_mid_sweep(self, client):
        job_id = client.submit(
            {
                "kind": "sweep",
                "scenario": "paper-eval",
                "scenario_kwargs": {"length": 400},
                "policies": ["local-lfd", "lru"],
                "rus": [4, 5, 6, 7],
            }
        )
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if client.status(job_id)["state"] == "running":
                break
            time.sleep(0.02)
        status = client.cancel(job_id)
        assert status["cancel_requested"]
        status = client.wait(job_id, timeout=120)
        assert status["state"] == "cancelled"
        assert status["progress"]["done"] < status["progress"]["total"]
        with pytest.raises(RemoteJobError) as err:
            client.result(job_id)
        assert err.value.status == 409

    def test_cancel_mid_run(self, client):
        """One long ``run`` job: only the in-run trace-sink check can stop
        it, since a run has no cell boundaries after it starts."""
        job = {
            "scenario": "huge-stream",
            "scenario_kwargs": {"length": 10000},
            "policy": "lru",
        }
        # An uncancelled run first: its wall time is the yardstick, and
        # it warms the shared cache so the second job reaches the engine
        # at once.
        full = client.wait(client.submit(job), timeout=300)
        assert full["state"] == "done"
        full_s = full["finished"] - full["started"]
        job_id = client.submit(job)
        deadline = time.monotonic() + 60
        while client.status(job_id)["state"] != "running":
            assert time.monotonic() < deadline
            time.sleep(0.005)
        time.sleep(0.2 * full_s)  # well inside the engine loop
        assert client.cancel(job_id)["cancel_requested"]
        status = client.wait(job_id, timeout=300)
        assert status["state"] == "cancelled"
        with pytest.raises(RemoteJobError) as err:
            client.result(job_id)
        assert err.value.status == 409
        assert status["finished"] - status["started"] < 0.6 * full_s

    def test_cancel_after_done_keeps_result(self, client):
        job_id = client.submit(dict(SCENARIO))
        client.wait(job_id, timeout=120)
        status = client.cancel(job_id)
        assert status["state"] == "done"
        assert not status["cancel_requested"]
        assert client.result(job_id)["kind"] == "run"


def test_job_hooks_cancel_a_run_within_256_events():
    """The in-run check: ``Session.run`` under ``_JobHooks`` raises
    :class:`JobCancelled` within 256 events of the flag being set."""
    loop = asyncio.new_event_loop()
    try:
        job = Job("j1", RunSpec.from_dict({"scenario": "huge-stream"}), "t", loop)
    finally:
        loop.close()
    flag_at = 1000

    class _Trigger(TraceSink, SessionHooks):
        """Counts events behind the cancel sink; sets the flag at one."""

        n = 0

        def scalar_hooks(self):
            return dict.fromkeys((key for key, _ in SCALAR_HOOK_KEYS), self._tick)

        def _tick(self, *fields):
            self.n += 1
            if self.n == flag_at:
                job.cancel_event.set()

        def trace_sinks(self, cell):
            return (self,)

    trigger = _Trigger()
    session = Session(
        workload=make_scenario("huge-stream", length=300),
        hooks=(_JobHooks(job), trigger),
    )
    with pytest.raises(JobCancelled):
        session.run(lru_spec(), trace="aggregate")
    # The trigger sits after the cancel sink, so it never saw the event
    # the cancel sink aborted on.
    assert flag_at <= trigger.n < flag_at + 256


# ----------------------------------------------------------------------
# Live event streaming
# ----------------------------------------------------------------------
class TestEventStreaming:
    def test_stream_is_byte_identical_to_local_jsonl(self, client, tmp_path):
        job_id = client.submit(dict(SCENARIO, events=True, window=2))
        streamed = b"".join(client.stream_lines(job_id))
        assert client.wait(job_id, timeout=120)["state"] == "done"

        path = tmp_path / "local.jsonl"
        session = Session(workload=make_scenario("quick", length=40))
        session.run(named_policy_spec("local-lfd", window=2), trace=path)
        assert streamed == path.read_bytes()

        # And the capture round-trips through the standard decoder: the
        # rebuilt trace reports the same core counters as the job result
        # (the result summary adds derived ideal/overhead fields).
        trace = trace_from_jsonl(streamed.decode("utf-8").splitlines())
        remote_summary = client.result(job_id)["summary"]
        for key, value in trace.summary().items():
            assert remote_summary[key] == value

    @pytest.mark.parametrize(
        "device", [["big-little-4", "--latency-model", "per-kb:8"], ["paper-2ctrl"]]
    )
    def test_submit_stream_is_byte_identical_to_run_trace_out(
        self, server, device, tmp_path, capsysbinary
    ):
        from repro.cli import main

        flags = ["--scenario", "quick", "--length", "30", "--device", *device]
        where = ["--host", server.host, "--port", str(server.port)]
        assert main(["submit", *flags, "--stream", *where]) == 0
        streamed = capsysbinary.readouterr().out
        path = tmp_path / "run.jsonl"
        assert main(["run", *flags, "--trace-out", str(path)]) == 0
        assert streamed == path.read_bytes()
        assert json.loads(streamed.splitlines()[0])["n_controllers"] == (
            2 if device == ["paper-2ctrl"] else 1
        )

    def test_reconnect_resumes_from_offset(self, client):
        job_id = client.submit(dict(SCENARIO, events=True))
        full = list(client.stream_lines(job_id))
        client.wait(job_id, timeout=120)
        # A "reconnecting" client that already saw 5 lines gets the rest,
        # byte-for-byte.
        resumed = list(client.stream_lines(job_id, start=5))
        assert resumed == full[5:]
        # Replay after completion still serves the whole stream.
        assert list(client.stream_lines(job_id)) == full

    def test_stream_without_events_is_409(self, client):
        job_id = client.submit(dict(SCENARIO))
        with pytest.raises(RemoteJobError) as err:
            list(client.stream_lines(job_id))
        assert err.value.status == 409
        client.wait(job_id, timeout=120)

    def test_bad_from_parameter_is_400(self, client):
        job_id = client.submit(dict(SCENARIO, events=True))
        with pytest.raises(RemoteJobError) as err:
            list(client.stream_lines(job_id, start="xyz"))
        assert err.value.status == 400
        client.wait(job_id, timeout=120)


# ----------------------------------------------------------------------
# Quotas and backpressure
# ----------------------------------------------------------------------
class TestQuotas:
    def test_429_with_retry_after_then_isolation(self):
        with ServerThread(workers=1, quota_rate=0.001, quota_burst=2) as srv:
            with ReproClient(srv.host, srv.port, client_id="greedy") as greedy:
                greedy.submit(dict(SCENARIO))
                greedy.submit(dict(SCENARIO))
                with pytest.raises(RemoteJobError) as err:
                    greedy.submit(dict(SCENARIO))
                assert err.value.status == 429
                assert err.value.retry_after > 0
            # Quotas are per client: another identity is unaffected.
            with ReproClient(srv.host, srv.port, client_id="patient") as other:
                job_id = other.submit(dict(SCENARIO))
                assert other.wait(job_id, timeout=120)["state"] == "done"


# ----------------------------------------------------------------------
# Concurrency (small; the stress benchmark scales this up 30x)
# ----------------------------------------------------------------------
class TestConcurrency:
    def test_async_fanout_no_lost_or_duplicated_results(self, server):
        async def one(i):
            async with AsyncReproClient(
                server.host, server.port, client_id=f"fan{i}"
            ) as c:
                job_id = await c.submit(dict(SCENARIO))
                status = await c.wait(job_id, timeout=120)
                result = await c.result(job_id)
                return job_id, status["state"], result["summary"]["makespan_us"]

        async def fanout():
            return await asyncio.gather(*(one(i) for i in range(32)))

        outcomes = asyncio.run(fanout())
        job_ids = [job_id for job_id, _, _ in outcomes]
        assert len(set(job_ids)) == 32  # no duplicates
        assert all(state == "done" for _, state, _ in outcomes)  # none lost
        assert len({makespan for _, _, makespan in outcomes}) == 1  # identical

    def test_overlapping_calls_on_one_async_client_match_their_jobs(self, server):
        """One AsyncReproClient, many concurrent requests: every reply
        must belong to the request that asked for it."""
        lengths = (12, 16, 20, 24)

        async def scenario():
            async with AsyncReproClient(
                server.host, server.port, client_id="overlap"
            ) as c:
                job_ids = [
                    await c.submit(
                        {"scenario": "quick", "scenario_kwargs": {"length": n}}
                    )
                    for n in lengths
                ]
                for job_id in job_ids:
                    assert (await c.wait(job_id, timeout=120))["state"] == "done"
                calls = [
                    (job_ids[i % len(job_ids)], i % 2 == 0) for i in range(20)
                ]
                replies = await asyncio.gather(
                    *(
                        c.status(job_id) if is_status else c.result(job_id)
                        for job_id, is_status in calls
                    )
                )
                return job_ids, calls, replies

        job_ids, calls, replies = asyncio.run(scenario())
        n_apps = dict(zip(job_ids, lengths))
        for (job_id, is_status), reply in zip(calls, replies):
            if is_status:
                assert reply["id"] == job_id and reply["state"] == "done"
            else:
                assert reply["summary"]["n_apps"] == n_apps[job_id]

    def test_pending_count_returns_to_zero_under_contention(self):
        """Submits (loop thread), attempt starts and requeues (worker
        threads) all move the backlog counter, and every attempt takes and
        drops a design-lock entry; none may lose an update."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            faults = FaultPlan(points={"daemon.job.fail": 3})
            # One simulation process per worker: keep the count small on
            # many-core machines.
            workers = min(8, 4 * (os.cpu_count() or 1))
            spec = {
                "scenario": "quick",
                "scenario_kwargs": {"length": 4},
                "max_attempts": 3,
            }
            with ServerThread(
                workers=workers, quota_rate=0, retry_base_s=0.001, faults=faults
            ) as srv:
                with ReproClient(srv.host, srv.port) as c:
                    job_ids = [c.submit(spec) for _ in range(150)]
                    states = {c.wait(j, timeout=60)["state"] for j in job_ids}
                assert states <= {"done", "dead"}
                assert faults.fired("daemon.job.fail") > 0
                assert srv.server._n_pending == 0
                # Every design-lock holder also released its entry.
                assert srv.server._design_locks == {}
        finally:
            sys.setswitchinterval(interval)

    def test_shared_cache_serves_repeat_jobs_warm(self, server):
        with ReproClient(server.host, server.port) as c:
            first = c.submit(dict(SCENARIO))
            assert c.wait(first, timeout=120)["state"] == "done"
            before = c.healthz()["cache"]["ideal"]
            job_ids = [c.submit(dict(SCENARIO)) for _ in range(3)]
            for job_id in job_ids:
                assert c.wait(job_id, timeout=120)["state"] == "done"
            after = c.healthz()["cache"]["ideal"]
        # Identical jobs must not recompute the design-time artifacts.
        assert after["computations"] == before["computations"]
        assert after["memory_hits"] > before["memory_hits"]


# ----------------------------------------------------------------------
# Client ergonomics
# ----------------------------------------------------------------------
class TestClient:
    def test_connection_refused_is_client_error(self):
        dead = ReproClient("127.0.0.1", 1, timeout=2)
        with pytest.raises(ReproClientError):
            dead.healthz()

    def test_run_convenience_returns_result(self, client):
        result = client.run(dict(SCENARIO), timeout=120)
        assert result["kind"] == "run"
        assert result["summary"]["executions"] > 0

    def test_wait_timeout_raises(self):
        with ServerThread(workers=1, quota_rate=0) as srv:
            with ReproClient(srv.host, srv.port) as c:
                # A blocker holds the single worker until the test
                # releases it, so the job stays queued past the deadline.
                release = threading.Event()
                blocker = srv.server._executor.submit(release.wait, 120)
                try:
                    queued = c.submit(dict(SCENARIO))
                    with pytest.raises(ReproClientError, match="did not finish"):
                        c.wait(queued, timeout=0.2)
                finally:
                    release.set()
                assert blocker.result(timeout=120)
                assert c.wait(queued, timeout=120)["state"] == "done"


# ----------------------------------------------------------------------
# Simulation worker processes
# ----------------------------------------------------------------------
def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class TestWorkerProcesses:
    @pytest.mark.parametrize("workers", [0, -3])
    def test_fewer_than_one_worker_is_rejected(self, workers):
        message = f"workers must be >= 1, got {workers}"
        with pytest.raises(ExperimentError, match=message):
            ReproServer(port=0, workers=workers)

    def test_killed_worker_fails_its_attempt_and_the_slot_respawns(self):
        long_job = {
            "scenario": "huge-stream",
            "scenario_kwargs": {"length": 10000},
            "policy": "lru",
        }
        with ServerThread(workers=1, quota_rate=0, retry_base_s=0.01) as srv:
            with ReproClient(srv.host, srv.port) as client:

                def slot() -> dict:
                    (only,) = client.healthz()["worker_processes"]
                    return only

                def kill_mid_job(spec) -> tuple:
                    job_id = client.submit(spec)
                    job = srv.server.jobs[job_id]
                    deadline = time.monotonic() + 60
                    # Set while the attempt is on the process, from just
                    # before the job is sent until the result is back.
                    while job.on_cancel is None:
                        assert time.monotonic() < deadline
                        time.sleep(0.001)
                    pid = slot()["pid"]
                    os.kill(pid, signal.SIGKILL)
                    return job_id, pid

                assert slot()["restarts"] == 0
                job_id, pid = kill_mid_job(long_job)
                status = client.wait(job_id, timeout=300)
                assert status["state"] == "failed"
                assert f"worker process {pid}" in status["error"]
                assert "died" in status["error"]
                assert slot()["restarts"] == 1
                assert slot()["pid"] != pid

                job_id, pid = kill_mid_job(dict(long_job, max_attempts=2))
                status = client.wait(job_id, timeout=300)
                assert status["state"] == "done"
                assert status["attempts"] == 2
                assert f"worker process {pid}" in status["failures"][0]["error"]
                assert slot()["restarts"] == 2

                # A worker found dead before a job is sent costs no attempt.
                process = srv.server._slots[0].process
                os.kill(process.pid, signal.SIGKILL)
                process.join(timeout=30)
                status = client.wait(client.submit(dict(SCENARIO)), timeout=120)
                assert status["state"] == "done"
                assert "failures" not in status
                assert slot()["restarts"] == 3
                fd_dir = f"/proc/{slot()['pid']}/fd"
                if os.path.isdir(fd_dir):
                    # Forked after the socket listens, the new process keeps
                    # no inherited socket but its own pipe end.
                    links = [os.readlink(f"{fd_dir}/{fd}") for fd in os.listdir(fd_dir)]
                    assert sum(link.startswith("socket:") for link in links) == 1

    def test_no_worker_process_outlives_the_server(self):
        with ServerThread(workers=2, quota_rate=0) as srv:
            with ReproClient(srv.host, srv.port) as client:
                assert client.run(dict(SCENARIO), timeout=120)["kind"] == "run"
                pids = [w["pid"] for w in client.healthz()["worker_processes"]]
        assert len(pids) == 2
        assert not any(_alive(pid) for pid in pids)

    @pytest.mark.parametrize("backend", ["process-pool", "work-stealing"])
    def test_sweep_backend_inside_a_worker_matches_local(self, backend, tmp_path):
        store = str(tmp_path / "store") if backend == "work-stealing" else None
        spec = dict(
            SCENARIO, kind="sweep", policies=["local-lfd", "lru"], rus=[4, 6]
        )
        with ServerThread(
            workers=1, quota_rate=0, backend=backend, store=store
        ) as srv:
            with ReproClient(srv.host, srv.port) as client:
                remote = client.run(spec, timeout=300)["records"]
        local = Session(workload=make_scenario("quick", length=40)).sweep(
            [named_policy_spec("local-lfd"), named_policy_spec("lru")],
            ru_counts=(4, 6),
        )
        assert remote == [dataclasses.asdict(r) for r in local.records]

    def test_daemon_memos_stay_bounded(self):
        with ServerThread(workers=1, quota_rate=0) as srv:
            with ReproClient(srv.host, srv.port) as client:
                results = [
                    client.run(
                        {"scenario": "quick",
                         "scenario_kwargs": {"length": 10, "seed": seed}},
                        timeout=120,
                    )["summary"]
                    for seed in range(40)
                ]
            assert len(srv.server._workloads) <= COMPILED_MEMO_SIZE
            assert srv.server._design_locks == {}
        for seed, remote in enumerate(results):
            local = Session(workload=make_scenario("quick", length=10, seed=seed))
            assert remote == local.run(named_policy_spec("local-lfd")).summary()

    def test_compiled_memo_is_bounded_lru(self):
        memo = _WorkloadMemo()
        specs = [
            RunSpec.from_dict({"scenario": "quick", "scenario_kwargs": {"length": n}})
            for n in range(2, COMPILED_MEMO_SIZE + 7)
        ]
        entries = [memo.get(spec) for spec in specs[:COMPILED_MEMO_SIZE]]
        assert memo.get(specs[0]) is entries[0]  # a hit refreshes the entry
        for spec in specs[COMPILED_MEMO_SIZE:]:
            memo.get(spec)
            assert len(memo) <= COMPILED_MEMO_SIZE
        assert len(memo) == COMPILED_MEMO_SIZE
        assert memo.get(specs[0]) is entries[0]  # recently used: kept
        assert memo.get(specs[1]) is not entries[1]  # least recent: rebuilt

"""The ``repro serve`` daemon: an asyncio simulation-as-a-service server.

One :class:`ReproServer` multiplexes many concurrent clients over a
persistent pool of simulation processes:

* the asyncio loop owns all sockets — request parsing, routing, status
  long-polls and live event streams are non-blocking;
* a ``ThreadPoolExecutor`` of ``workers`` dispatch threads runs each
  job's **design-time phase** in the daemon, through a
  :class:`~repro.session.Session` over **one shared**
  :class:`~repro.session.ArtifactCache` (optionally disk-backed by
  ``store=``), so compiled workloads, mobility tables and ideal
  makespans are computed once and reused by every subsequent job — the
  compile-once path that makes thousands of small jobs cheap; a
  per-workload design-time lock prevents a thundering herd of identical
  cold jobs from compiling the same workload in parallel;
* the **run-time phase** — the replacement loop, most of a job's CPU —
  runs on one persistent simulation process per worker slot, so
  ``workers`` jobs simulate on ``workers`` cores instead of sharing one
  interpreter lock.  The dispatch thread ships the job spec and each
  cell's ``(mobility, ideal_us)``; the process rebuilds the workload
  (through a small LRU of compiled workloads), simulates, and sends back
  progress, ``events: true`` JSONL lines and the result.  Cancellation
  is a per-slot shared flag the process reads every 256 events; a
  process that dies fails the attempt it was running and is respawned.

Endpoints (see ``docs/service.md`` for the full protocol):

========  ======================  =========================================
method    path                    purpose
========  ======================  =========================================
GET       ``/healthz``            liveness + job/cache/store/quota counters
POST      ``/jobs``               submit a job spec (201 / 400 / 429)
GET       ``/jobs``               list all jobs
GET       ``/jobs/{id}``          status + progress (``?wait=SECONDS``
                                  long-polls until terminal)
GET       ``/jobs/{id}/result``   result payload (409 until done)
DELETE    ``/jobs/{id}``          request cancellation
GET       ``/jobs/{id}/events``   live chunked JSONL event stream
                                  (``?from=N`` replays from line N)
========  ======================  =========================================
"""

from __future__ import annotations

import asyncio
import atexit
import dataclasses
import math
import multiprocessing
import os
import queue
import signal
import stat
import threading
import time
import uuid
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.artifacts.store import ArtifactStore
from repro.backends import CellBatch, resolve_backend
from repro.exceptions import ExperimentError
from repro.server.http import (
    LAST_CHUNK,
    ProtocolError,
    Request,
    chunk,
    json_response,
    read_request,
    stream_head,
)
from repro.run_spec import RunSpec, SpecError
from repro.server.jobs import ChannelWriter, Job, JobCancelled, JobState, TokenBucket
from repro.session import ArtifactCache, Session, SessionHooks
from repro.sim.simulator import run_simulation
from repro.sim.tracing import SCALAR_HOOK_KEYS, JsonlTraceWriter, TraceSink
from repro.workloads.compiled import CompiledWorkload
from repro.workloads.sequence import Workload


class _CancelSink(TraceSink):
    """Aborts an in-flight simulation once its job was cancelled.

    Attached to every job's event stream as a hook-only sink: one
    counter tick per event of every kind, and a look at the job's
    ``cancel_event`` every 256 events (on a worker process, the slot's
    shared cancel flag), bounding the cancellation latency to a fraction
    of a millisecond of simulation.  The cost is not zero.  On a 2-CPU
    x86 VM, a ``huge-stream``-1000 Local LFD(1) aggregate run took 45 ms
    bare; with this sink on the object protocol it took 96-99 ms (2.1x),
    as a hook sink 52-56 ms (1.1-1.25x).
    """

    def __init__(self, job: Job) -> None:
        self._job = job
        self._countdown = 256

    def scalar_hooks(self):
        return dict.fromkeys((key for key, _ in SCALAR_HOOK_KEYS), self._tick)

    def _tick(self, *fields) -> None:
        self._countdown -= 1
        if self._countdown <= 0:
            self._countdown = 256
            if self._job.cancel_event.is_set():
                raise JobCancelled(f"job {self._job.id} cancelled")


class _JobHooks(SessionHooks):
    """Bridges one job's run-time lifecycle into its job record.

    Progress lands in ``job.progress_done``, cancellation is honoured at
    every cell boundary, and — for event-streaming runs — a
    :class:`JsonlTraceWriter` over the job's ``channel`` broadcasts the
    trace live in the exact JSONL wire format.  On a worker process the
    "job" is a :class:`_SlotJob`, which forwards all three to the daemon.
    """

    def __init__(self, job: Job) -> None:
        self._job = job

    def _check_cancel(self) -> None:
        if self._job.cancel_event.is_set():
            raise JobCancelled(f"job {self._job.id} cancelled")

    def on_run_start(self, cell) -> None:
        self._check_cancel()

    def on_run_end(self, cell, record) -> None:
        self._job.progress_done += 1

    def on_sweep_progress(self, done: int, total: int) -> None:
        self._job.progress_done = done
        self._check_cancel()

    def trace_sinks(self, cell):
        sinks = [_CancelSink(self._job)]
        if self._job.channel is not None:
            sinks.append(JsonlTraceWriter(ChannelWriter(self._job.channel)))
        return sinks


# ----------------------------------------------------------------------
# Worker-process side (module level so it pickles under spawn too)
# ----------------------------------------------------------------------
#: Workloads the daemon, and compiled workloads each simulation process,
#: keep (least recently used out first).  Every cold job brings a fresh
#: workload, so the memos must not grow with the job count; 16 covers a
#: handful of warm workloads interleaved with cold ones.
COMPILED_MEMO_SIZE = 16

#: JSONL lines a simulation process batches into one message.
_EVENT_BATCH = 256


def _compile(spec: RunSpec) -> Tuple[Workload, CompiledWorkload]:
    workload = spec.workload()
    return workload, CompiledWorkload.compile(tuple(workload.apps))


class _WorkloadMemo:
    """A bounded LRU of ``build(spec)`` per scenario call
    (:attr:`RunSpec.workload_key`); by default ``(workload, compiled)``."""

    def __init__(self, build: Callable[[RunSpec], object] = _compile) -> None:
        self._build = build
        self._entries: "OrderedDict[Tuple, object]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, spec: RunSpec):
        key = spec.workload_key
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            return entry
        entry = self._entries[key] = self._build(spec)
        if len(self._entries) > COMPILED_MEMO_SIZE:
            self._entries.popitem(last=False)
        return entry


class _SlotCancel:
    """``cancel_event`` of a :class:`_SlotJob`: set once the daemon wrote
    this attempt's token into the slot's shared flag."""

    __slots__ = ("_flag", "_token")

    def __init__(self, flag, token: int) -> None:
        self._flag = flag
        self._token = token

    def is_set(self) -> bool:
        return self._flag.value == self._token


class _PipeChannel:
    """The process side of a job's event channel: batches of lines to the
    daemon, which appends them to the job's
    :class:`~repro.server.jobs.EventChannel`."""

    def __init__(self, conn) -> None:
        self._conn = conn
        self._lines: List[str] = []

    def append(self, line: str) -> None:
        self._lines.append(line)
        if len(self._lines) >= _EVENT_BATCH:
            self.flush()

    def flush(self) -> None:
        if self._lines:
            self._conn.send(("events", self._lines))
            self._lines = []


class _SlotJob:
    """What :class:`_JobHooks` drives on a simulation process: the job's
    id, cancel flag, event channel and progress counter, forwarded over
    the slot's pipe."""

    def __init__(self, job_id: str, conn, flag, token: int, events: bool) -> None:
        self.id = job_id
        self.cancel_event = _SlotCancel(flag, token)
        self.channel = _PipeChannel(conn) if events else None
        self._conn = conn
        self._progress = 0

    @property
    def progress_done(self) -> int:
        return self._progress

    @progress_done.setter
    def progress_done(self, value: int) -> None:
        if value != self._progress:
            self._progress = value
            self._conn.send(("progress", value))


def _simulate(
    job: _SlotJob, spec: RunSpec, content_key, cells, artifacts, memo, backend
):
    """One job's run-time phase; returns the job's result payload."""
    workload, compiled = memo.get(spec)
    hooks = _JobHooks(job)
    if spec.kind == "run":
        cell, (mobility, ideal) = cells[0], artifacts[0]
        hooks.on_run_start(cell)
        result = run_simulation(
            workload.apps,
            advisor=cell.spec.make_advisor(),
            semantics=cell.spec.make_semantics(),
            mobility_tables=mobility,
            ideal_makespan_us=ideal,
            trace="aggregate",
            extra_sinks=tuple(hooks.trace_sinks(cell)),
            compiled=compiled,
            device=cell.device,
        )
        hooks.on_run_end(cell, None)
        return {"kind": "run", "policy": cell.spec.label, "summary": result.summary()}
    sinks = [tuple(hooks.trace_sinks(cell)) for cell in cells]
    records = backend.run_cells(
        CellBatch(
            workload=workload,
            content_key=content_key,
            compiled=compiled,
            cells=cells,
            artifacts=artifacts,
            trace_mode="aggregate",
            started=lambda i: hooks.on_run_start(cells[i]),
            finished=lambda i, record: hooks.on_run_end(cells[i], record),
            progressed=hooks.on_sweep_progress,
            sinks_for=sinks.__getitem__,
        )
    )
    return {
        "kind": "sweep",
        "ru_counts": list(spec.rus),
        "records": [dataclasses.asdict(r) for r in records],
    }


def _drop_inherited_sockets(keep: int) -> None:
    """Point every inherited socket but ``keep`` at ``/dev/null``.

    A forked process holds copies of the daemon's listening socket and
    client connections; while it does, a connection the daemon closes
    stays open for its peer.  ``dup2`` (not ``close``) keeps each fd
    number taken, so no inherited socket object can later close a
    reused one.
    """
    fd_dir = "/proc/self/fd" if os.path.isdir("/proc/self/fd") else "/dev/fd"
    try:
        fds = [int(name) for name in os.listdir(fd_dir)]
    except OSError:
        return
    null = os.open(os.devnull, os.O_RDWR)
    try:
        for fd in fds:
            if fd in (keep, null) or fd <= 2:
                continue
            try:
                if stat.S_ISSOCK(os.fstat(fd).st_mode):
                    os.dup2(null, fd)
            except OSError:
                pass
    finally:
        os.close(null)


def _slot_main(conn, flag, backend_name: Optional[str], store) -> None:
    """A simulation process: run the jobs its slot sends until told to
    stop, the pipe closes or the daemon is gone."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the daemon owns Ctrl-C
    _drop_inherited_sockets(conn.fileno())
    daemon_pid = os.getppid()
    memo = _WorkloadMemo()
    backend = resolve_backend(backend_name, store=store)
    try:
        while True:
            if not conn.poll(1.0):
                if os.getppid() != daemon_pid:
                    return  # orphaned: the daemon died without stopping us
                continue
            message = conn.recv()
            if message is None:
                return
            token, job_id, spec, content_key, cells, artifacts = message
            job = _SlotJob(job_id, conn, flag, token, spec.events)
            try:
                reply = (
                    "done",
                    _simulate(job, spec, content_key, cells, artifacts, memo, backend),
                )
            except JobCancelled:
                reply = ("cancelled", None)
            except Exception as exc:
                reply = ("error", f"{type(exc).__name__}: {exc}")
            if job.channel is not None:
                job.channel.flush()
            conn.send(reply)
    except (EOFError, OSError):
        return
    finally:
        backend.close()


# ----------------------------------------------------------------------
# Daemon side of a worker slot
# ----------------------------------------------------------------------
class _AttemptError(Exception):
    """A job attempt failed on its simulation process (message is the
    process-side ``"Type: message"`` text)."""


class _WorkerSlot:
    """One persistent simulation process and the pipe to it.

    Driven by one dispatch thread at a time (slots are handed out
    through :attr:`ReproServer._free_slots`); :meth:`cancel` may be
    called from any thread.  Each attempt gets a fresh token, and the
    process aborts when the shared ``flag`` holds its token, so a late
    cancel never hits the slot's next job.
    """

    def __init__(self, index: int, ctx, backend: Optional[str], store) -> None:
        self.index = index
        self.restarts = 0
        self._ctx = ctx
        self._args = (backend, store)
        self._flag = ctx.RawValue("q", 0)
        self._token = 0
        self._spawn()

    def _spawn(self) -> None:
        conn, child = self._ctx.Pipe()
        # Not daemonic: a job's sweep backend may start processes of its own.
        self.process = self._ctx.Process(
            target=_slot_main,
            args=(child, self._flag, *self._args),
            name=f"repro-sim-{self.index}",
            daemon=False,
        )
        self.process.start()
        child.close()
        self._conn = conn

    def _respawn(self) -> None:
        self.close()
        self.restarts += 1
        self._spawn()

    def cancel(self, token: int) -> None:
        self._flag.value = token

    def run(self, job: Job, content_key: str, cells, artifacts) -> Dict[str, object]:
        """Run one attempt's run-time phase; returns the result payload.

        Raises :class:`JobCancelled` when the job was cancelled,
        :class:`_AttemptError` when it failed on the process, and
        :class:`ExperimentError` when the process died under it (the slot
        then respawns its process).
        """
        if not self.process.is_alive():
            self._respawn()  # died while idle: no attempt was lost
        self._token += 1
        token = self._token
        job.on_cancel = lambda: self.cancel(token)
        try:
            self._conn.send((token, job.id, job.spec, content_key, cells, artifacts))
            if job.cancel_event.is_set():
                self.cancel(token)
            while True:
                kind, value = self._conn.recv()
                if kind == "progress":
                    job.progress_done = value
                elif kind == "events":
                    job.channel.extend(value)
                elif kind == "done":
                    return value
                elif kind == "cancelled":
                    raise JobCancelled(f"job {job.id} cancelled")
                else:
                    raise _AttemptError(value)
        except (EOFError, OSError):
            dead = self.process
            self._respawn()
            raise ExperimentError(
                f"simulation worker process {dead.pid} (slot {self.index}) "
                f"died with exit code {dead.exitcode} while running job {job.id}"
            ) from None
        finally:
            job.on_cancel = None

    def close(self) -> None:
        """Stop the process: ask, then terminate, then kill."""
        try:
            self._conn.send(None)
        except OSError:
            pass
        self.process.join(timeout=5)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=5)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=5)
        self._conn.close()

    def describe(self) -> Dict[str, object]:
        return {"slot": self.index, "pid": self.process.pid, "restarts": self.restarts}


class ReproServer:
    """The daemon: job intake, worker pool, lifecycle and event streaming.

    Parameters
    ----------
    host, port:
        Listen address; ``port=0`` picks an ephemeral port (read the
        bound one from ``self.port`` after :meth:`start`).
    store:
        Optional persistent artifact store (directory path or
        :class:`ArtifactStore`) backing the shared cache, so design-time
        artifacts survive daemon restarts and are shared with CLI runs.
    workers:
        Jobs that run at once (at least 1): one dispatch thread and one
        persistent simulation process per slot, so the run-time phases
        of ``workers`` jobs use ``workers`` cores.  Concurrency beyond
        this queues — submissions are accepted immediately and run in
        order.  The processes start in :meth:`start` and stop in
        :meth:`stop`.
    quota_rate, quota_burst:
        Per-client token bucket: sustained submissions/second and burst
        capacity.  ``quota_rate=0`` disables quotas.  Clients identify
        via the ``X-Repro-Client`` header (else their peer address).
    max_pending:
        Hard backlog cap across all clients; submissions beyond it are
        shed with 503 + ``Retry-After`` regardless of quota state (a full
        backlog is server overload, not client misbehaviour — clients
        retry it, unlike their own 429s).
    retry_base_s:
        First requeue delay for jobs submitted with ``max_attempts > 1``;
        doubles per failed attempt (capped at 30 s).
    faults:
        Optional :class:`~repro.resilience.faults.FaultPlan`; exposes
        ``daemon.job.fail`` (an attempt raises mid-execution) and
        ``daemon.stream.drop`` (an event stream's connection dies
        mid-flight, exercising client ``?from=N`` reconnects).
    backend:
        Sweep execution backend name the simulation processes run sweep
        jobs' cells on (``"inline"``, ``"process-pool"`` or
        ``"work-stealing"``; see ``docs/backends.md``).  ``None`` keeps
        the session default.  ``"work-stealing"`` requires ``store``.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8765,
        *,
        store: Union[ArtifactStore, str, Path, None] = None,
        workers: int = 4,
        quota_rate: float = 100.0,
        quota_burst: int = 500,
        max_pending: int = 10_000,
        retry_base_s: float = 0.5,
        faults=None,
        backend: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ExperimentError(f"workers must be >= 1, got {workers}")
        self.host = host
        self.port = port
        self.retry_base_s = float(retry_base_s)
        self.faults = faults
        if store is not None and not isinstance(store, ArtifactStore):
            store = ArtifactStore(store)
        self.store = store
        self.cache = ArtifactCache(store=store)
        if backend == "work-stealing" and store is None:
            raise ExperimentError(
                "backend='work-stealing' requires a persistent --store"
            )
        self.backend = backend
        self.workers = int(workers)
        self.quota_rate = float(quota_rate)
        self.quota_burst = int(quota_burst)
        self.max_pending = int(max_pending)
        self.jobs: Dict[str, Job] = {}
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-job"
        )
        self._slots: List[_WorkerSlot] = []
        self._free_slots: "queue.SimpleQueue[_WorkerSlot]" = queue.SimpleQueue()
        self._buckets: Dict[str, TokenBucket] = {}
        self._workloads = _WorkloadMemo(RunSpec.workload)
        self._workload_lock = threading.Lock()
        #: Per-workload design-time lock and its holder count; an entry
        #: goes when its last holder releases it.
        self._design_locks: Dict[Tuple, List] = {}
        self._locks_guard = threading.Lock()
        self._seq = 0
        #: Accepted-but-not-started jobs (the ``max_pending`` backlog).
        #: Updated from the loop thread and from dispatch threads, so every
        #: update goes through :meth:`_add_pending`.
        self._n_pending = 0
        self._pending_lock = threading.Lock()
        self._t0 = time.time()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()
        self._retry_timers: set = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Start the simulation processes, then bind the listening socket
        (resolves ``port=0``)."""
        self._loop = asyncio.get_running_loop()
        self._t0 = time.time()
        self._start_slots()
        try:
            self._server = await asyncio.start_server(
                self._handle_client, self.host, self.port
            )
        except BaseException:
            self._close_slots()
            raise
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() first"
        await self._server.serve_forever()

    def _start_slots(self) -> None:
        # Same start method as the process-pool backend (the platform
        # default), and before the socket exists so no process inherits it.
        ctx = multiprocessing.get_context()
        for index in range(self.workers):
            slot = _WorkerSlot(index, ctx, self.backend, self.store)
            self._slots.append(slot)
            self._free_slots.put(slot)
        # Runs before multiprocessing's own exit hook, which would wait
        # forever on these non-daemonic processes.
        atexit.register(self._close_slots)

    def _close_slots(self) -> None:
        atexit.unregister(self._close_slots)
        slots, self._slots = self._slots, []
        for slot in slots:
            slot.close()

    async def stop(self) -> None:
        """Stop accepting, cancel queued jobs, drain running ones, then
        stop the simulation processes."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Nudge lingering keep-alive connections to EOF so their handler
        # tasks finish cleanly before the loop shuts down.
        for writer in list(self._connections):
            try:
                writer.close()
            except (ConnectionError, OSError):
                pass
        # Pending retry backoffs die with the server; their jobs fall
        # through to the terminal-cancel sweep below.
        for timer in list(self._retry_timers):
            timer.cancel()
        self._retry_timers.clear()
        for job in self.jobs.values():
            if job.state not in JobState.TERMINAL:
                job.cancel()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            None, lambda: self._executor.shutdown(wait=True, cancel_futures=True)
        )
        await loop.run_in_executor(None, self._close_slots)
        # Queued jobs whose futures were cancelled never reached _execute.
        for job in self.jobs.values():
            if job.state not in JobState.TERMINAL:
                job.finish(JobState.CANCELLED)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = writer.get_extra_info("peername")
        peer_host = peer[0] if isinstance(peer, tuple) else "local"
        self._connections.add(writer)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except ProtocolError as exc:
                    writer.write(
                        json_response(
                            exc.status, {"error": str(exc)}, keep_alive=False
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                client = request.headers.get("x-repro-client") or peer_host
                job = self._stream_target(request)
                if job is not None:
                    await self._stream_events(request, writer, job)
                    break  # streams own the connection; close after
                writer.write(await self._respond(request, client))
                await writer.drain()
                if not request.keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError, TimeoutError):
            pass  # client went away mid-exchange
        except asyncio.CancelledError:
            pass  # loop shutting down; exit the handler quietly
        finally:
            self._connections.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _respond(self, request: Request, client: str) -> bytes:
        try:
            return await self._route(request, client)
        except ProtocolError as exc:
            return json_response(exc.status, {"error": str(exc)})
        except SpecError as exc:
            return json_response(400, {"error": str(exc)})
        except Exception as exc:  # never kill the connection loop
            return json_response(500, {"error": f"{type(exc).__name__}: {exc}"})

    async def _route(self, request: Request, client: str) -> bytes:
        parts = [p for p in request.path.split("/") if p]
        if request.path == "/healthz":
            if request.method != "GET":
                return json_response(405, {"error": "healthz is GET-only"})
            return json_response(200, self.health())
        if parts[:1] == ["jobs"]:
            if len(parts) == 1:
                if request.method == "POST":
                    return self._submit(request, client)
                if request.method == "GET":
                    return json_response(
                        200,
                        {"jobs": [j.status_dict() for j in self.jobs.values()]},
                    )
                return json_response(405, {"error": "jobs is GET/POST-only"})
            job = self.jobs.get(parts[1])
            if job is None:
                return json_response(404, {"error": f"unknown job {parts[1]!r}"})
            if len(parts) == 2:
                if request.method == "GET":
                    return await self._status(request, job)
                if request.method == "DELETE":
                    return self._cancel(job)
                return json_response(405, {"error": "job is GET/DELETE-only"})
            if len(parts) == 3 and request.method == "GET":
                if parts[2] == "result":
                    return self._result(job)
                if parts[2] == "events":
                    # Valid streams are intercepted by _stream_target;
                    # reaching here means events were not recorded.
                    return json_response(
                        409,
                        {
                            "error": (
                                f"job {job.id!r} has no event stream "
                                "(submit with \"events\": true)"
                            )
                        },
                    )
        return json_response(
            404, {"error": f"no route for {request.method} {request.path}"}
        )

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, object]:
        by_state: Dict[str, int] = {
            JobState.QUEUED: 0,
            JobState.RUNNING: 0,
            JobState.DONE: 0,
            JobState.FAILED: 0,
            JobState.CANCELLED: 0,
            JobState.DEAD: 0,
        }
        for job in self.jobs.values():
            by_state[job.state] = by_state.get(job.state, 0) + 1
        payload: Dict[str, object] = {
            "status": "ok",
            "uptime_s": round(time.time() - self._t0, 3),
            "workers": self.workers,
            "worker_processes": [slot.describe() for slot in self._slots],
            "jobs": dict(by_state, total=len(self.jobs)),
            "cache": self.cache.stats_summary(),
            "quota": {
                "rate_per_s": self.quota_rate,
                "burst": self.quota_burst,
                "clients": len(self._buckets),
                "max_pending": self.max_pending,
            },
        }
        payload["store"] = self.store.describe() if self.store is not None else None
        if self.store is not None:
            payload["external_workers"] = self._worker_summary()
        return payload

    def _worker_summary(self) -> Dict[str, object]:
        """Liveness beacons of ``repro worker`` daemons sharing the store."""
        from repro.backends.worker import read_heartbeats

        now = time.time()
        beats = read_heartbeats(self.store)
        return {
            "count": len(beats),
            "workers": {
                worker: {
                    "state": beat.get("state"),
                    "sweep": beat.get("sweep"),
                    "completed": beat.get("completed"),
                    "failed": beat.get("failed"),
                    "age_s": round(now - float(beat.get("time", now)), 3),
                }
                for worker, beat in sorted(beats.items())
            },
        }

    def _bucket(self, client: str) -> TokenBucket:
        bucket = self._buckets.get(client)
        if bucket is None:
            bucket = self._buckets[client] = TokenBucket(
                self.quota_rate, self.quota_burst
            )
        return bucket

    def _submit(self, request: Request, client: str) -> bytes:
        allowed, retry_after = self._bucket(client).try_acquire()
        if not allowed:
            return json_response(
                429,
                {
                    "error": f"quota exceeded for client {client!r}",
                    "retry_after": round(retry_after, 3),
                },
                extra_headers=[("Retry-After", str(max(1, math.ceil(retry_after))))],
            )
        if self._n_pending >= self.max_pending:
            # Load shedding: a full backlog is *our* overload, not the
            # client's misbehaviour, so answer 503 (retryable — the
            # client's RetryPolicy honours the hint) rather than 429.
            return json_response(
                503,
                {
                    "error": f"job backlog full ({self.max_pending} pending)",
                    "retry_after": 1.0,
                },
                extra_headers=[("Retry-After", "1")],
            )
        spec = RunSpec.from_dict(request.json())
        self._seq += 1
        job_id = f"j{self._seq:06d}-{uuid.uuid4().hex[:8]}"
        job = Job(job_id, spec, client, self._loop)
        self.jobs[job_id] = job
        self._add_pending(1)
        future = self._loop.run_in_executor(self._executor, self._execute, job)
        future.add_done_callback(lambda f: self._reap(job, f))
        return json_response(201, job.status_dict())

    def _reap(self, job: Job, future) -> None:
        """Backstop for failures outside _execute's own try/except."""
        if future.cancelled():
            return  # stop() marks the job cancelled
        exc = future.exception()
        if exc is not None and job.state not in JobState.TERMINAL:
            job.finish(JobState.FAILED, error=f"{type(exc).__name__}: {exc}")

    async def _status(self, request: Request, job: Job) -> bytes:
        wait = request.param("wait")
        if wait is not None:
            try:
                seconds = min(60.0, max(0.0, float(wait)))
            except ValueError:
                raise ProtocolError(f"bad wait value {wait!r}") from None
            await job.wait_terminal(seconds)
        return json_response(200, job.status_dict())

    def _cancel(self, job: Job) -> bytes:
        if job.state not in JobState.TERMINAL:
            job.cancel()
        return json_response(200, job.status_dict())

    def _result(self, job: Job) -> bytes:
        if job.state == JobState.DONE:
            return json_response(
                200, {"id": job.id, "state": job.state, "result": job.result}
            )
        payload = {
            "error": f"job {job.id!r} is {job.state}, no result available",
            "status": job.status_dict(),
        }
        return json_response(409, payload)

    def _stream_target(self, request: Request) -> Optional[Job]:
        parts = [p for p in request.path.split("/") if p]
        if (
            request.method == "GET"
            and len(parts) == 3
            and parts[0] == "jobs"
            and parts[2] == "events"
        ):
            job = self.jobs.get(parts[1])
            if job is not None and job.channel is not None:
                return job
        return None

    async def _stream_events(
        self, request: Request, writer: asyncio.StreamWriter, job: Job
    ) -> None:
        """Chunked live JSONL: buffered lines first, then follow the run."""
        try:
            start = max(0, int(request.param("from", "0")))
        except ValueError:
            writer.write(
                json_response(
                    400,
                    {"error": f"bad from value {request.param('from')!r}"},
                    keep_alive=False,
                )
            )
            await writer.drain()
            return
        channel = job.channel
        writer.write(stream_head())
        n = start
        while True:
            lines = channel.lines
            if n < len(lines):
                batch = "".join(lines[n:])
                n = len(lines)
                writer.write(chunk(batch.encode("utf-8")))
                await writer.drain()
                if self.faults is not None and self.faults.should_fire(
                    "daemon.stream.drop"
                ):
                    # Abrupt close with no terminating chunk: the client
                    # sees a truncated stream and reconnects with ?from=N.
                    writer.close()
                    return
                continue
            if channel.closed:
                break
            await channel.wait_beyond(n)
        writer.write(LAST_CHUNK)
        await writer.drain()

    # ------------------------------------------------------------------
    # Job execution (dispatch threads)
    # ------------------------------------------------------------------
    @contextmanager
    def _design_lock(self, key: Tuple):
        """Hold the design-time lock of one workload."""
        with self._locks_guard:
            entry = self._design_locks.setdefault(key, [threading.Lock(), 0])
            entry[1] += 1
        try:
            with entry[0]:
                yield
        finally:
            with self._locks_guard:
                entry[1] -= 1
                if not entry[1]:
                    del self._design_locks[key]

    def _add_pending(self, delta: int) -> None:
        # ``+=`` on an attribute is a read-modify-write the GIL may split.
        with self._pending_lock:
            self._n_pending += delta

    def _execute(self, job: Job) -> None:
        self._add_pending(-1)
        if job.cancel_event.is_set():
            job.finish(JobState.CANCELLED)
            return
        job.state = JobState.RUNNING
        job.started = time.time()
        job.attempts += 1
        job.error = None  # a retried attempt starts with a clean slate
        try:
            if self.faults is not None and self.faults.should_fire("daemon.job.fail"):
                raise ExperimentError(
                    f"injected: attempt {job.attempts} of job {job.id} failed"
                )
            spec = job.spec
            with self._workload_lock:
                workload = self._workloads.get(spec)
            specs = spec.policy_specs()
            session = Session(
                device=spec.device(workload), workload=workload, cache=self.cache
            )
            ru_axis = spec.rus if spec.kind == "sweep" else (session.device.n_rus,)
            # Design-time phase under the per-workload lock: the first
            # cold job pays it once; concurrent identical jobs wait a
            # beat and then hit the shared cache instead of recomputing.
            with self._design_lock(spec.workload_key):
                session.compiled()
                for policy_spec in specs:
                    for n_rus in ru_axis:
                        session.ideal_makespan_us(
                            n_rus=n_rus, semantics=policy_spec.make_semantics()
                        )
                        if policy_spec.skip_events:
                            session.mobility_tables(n_rus=n_rus)
            # Each cell's (mobility, ideal) pair, resolved as Session.run
            # and Session.sweep resolve it, ships with the job.
            plan = session.plan(specs, ru_counts=ru_axis)
            artifacts = session._execute_plan(plan)
            slot = self._free_slots.get()
            try:
                job.result = slot.run(
                    job, session._content_key, plan.cells, artifacts
                )
            finally:
                self._free_slots.put(slot)
            job.finish(JobState.DONE)
        except JobCancelled:
            job.finish(JobState.CANCELLED)
        except _AttemptError as exc:
            self._attempt_failed(job, str(exc))
        except Exception as exc:
            self._attempt_failed(job, f"{type(exc).__name__}: {exc}")

    def _attempt_failed(self, job: Job, error: str) -> None:
        """One attempt died: requeue with backoff, or go terminal.

        Jobs keep their legacy semantics unless they opted in: with the
        default ``max_attempts=1`` the first failure is terminal FAILED,
        exactly as before.  Multi-attempt jobs record the failure chain,
        wait ``retry_base_s × 2^(attempt-1)`` and requeue — until the
        attempt budget or the job's wall-clock ``deadline_s`` runs out,
        at which point they park in the terminal DEAD state.
        """
        job.failures.append(
            {"attempt": job.attempts, "error": error, "time": time.time()}
        )
        spec = job.spec
        out_of_time = (
            spec.deadline_s is not None
            and time.time() - job.submitted >= spec.deadline_s
        )
        if job.attempts >= spec.max_attempts or out_of_time:
            terminal = JobState.DEAD if spec.max_attempts > 1 else JobState.FAILED
            if out_of_time and job.attempts < spec.max_attempts:
                error = f"deadline {spec.deadline_s}s exceeded; last error: {error}"
            job.finish(terminal, error=error)
            return
        pause = min(30.0, self.retry_base_s * (2.0 ** (job.attempts - 1)))
        job.state = JobState.QUEUED
        job.error = error
        job.progress_done = 0
        self._add_pending(1)

        def _requeue() -> None:
            self._retry_timers.discard(timer)
            try:
                future = self._loop.run_in_executor(self._executor, self._execute, job)
                future.add_done_callback(lambda f: self._reap(job, f))
            except RuntimeError:
                # Executor/loop already shut down; stop() finishes the job.
                pass

        def _fire() -> None:
            try:
                self._loop.call_soon_threadsafe(_requeue)
            except RuntimeError:
                pass  # loop closed between the backoff and the firing

        timer = threading.Timer(pause, _fire)
        timer.daemon = True
        self._retry_timers.add(timer)
        timer.start()


class ServerThread:
    """A :class:`ReproServer` on a background thread with its own loop.

    The embedding used by tests, the stress benchmark and anything that
    wants a live daemon inside an otherwise synchronous program::

        with ServerThread(workers=2, quota_rate=0) as srv:
            client = ReproClient(srv.host, srv.port)
            ...

    ``port`` defaults to 0 (ephemeral) so parallel test runs never
    collide.
    """

    def __init__(self, **server_kwargs) -> None:
        server_kwargs.setdefault("port", 0)
        self._kwargs = server_kwargs
        self.server: Optional[ReproServer] = None
        self.error: Optional[BaseException] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._stop_event: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def start(self) -> Tuple[str, int]:
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("repro serve thread failed to start in 30s")
        if self.error is not None:
            raise RuntimeError(f"repro serve thread failed: {self.error}")
        return self.server.host, self.server.port

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surface startup/teardown failures
            self.error = exc
            self._started.set()

    async def _main(self) -> None:
        self.server = ReproServer(**self._kwargs)
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        await self.server.start()
        self._started.set()
        await self._stop_event.wait()
        await self.server.stop()

    def stop(self) -> None:
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout=60)

    def __enter__(self) -> "ServerThread":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

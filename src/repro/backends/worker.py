"""The work-stealing worker loop — in-process or ``repro worker`` on any host.

A worker needs exactly one thing: the store directory.  It discovers
published sweeps through their manifests, reconstructs the workload from
the manifest payload (compiled form served from the store's ``compiled``
kind when warm), then claims, executes and publishes one cell at a time
until the sweep drains.  Several workers — any mix of backend-spawned
processes and ``repro worker`` daemons on other hosts sharing the
directory — steal from the same queue without further coordination.
"""

from __future__ import annotations

import dataclasses
import os
import random
import socket
import time
import traceback
from pathlib import Path
from typing import Dict, Optional, Union

from repro.artifacts.keys import compiled_key, workload_content_key
from repro.artifacts.schema import (
    decode_compiled,
    decode_heartbeat,
    encode_heartbeat,
)
from repro.artifacts.store import ArtifactStore
from repro.backends.base import SweepCell
from repro.backends.batch import CellBatchRunner
from repro.backends.queue import (
    CellQueue,
    active_sweeps,
    check_lease_ttl,
    unpack_obj,
    workload_from_payload,
)
from repro.workloads.compiled import CompiledWorkload

#: Heartbeat cadence ceiling; the effective cadence is
#: ``min(lease_ttl / 3, HEARTBEAT_EVERY_S)`` so short-TTL test setups
#: beacon proportionally faster.
HEARTBEAT_EVERY_S = 5.0


def default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


def publish_heartbeat(
    store: ArtifactStore,
    worker_id: str,
    *,
    sweep: Optional[str] = None,
    completed: int = 0,
    failed: int = 0,
    state: str = "running",
) -> None:
    """Publish (overwrite) one worker's liveness beacon in the store."""
    key = f"hb-{worker_id}"
    store.put(
        "heartbeat",
        key,
        encode_heartbeat(
            key,
            {
                "worker": worker_id,
                "time": time.time(),
                "sweep": sweep,
                "completed": int(completed),
                "failed": int(failed),
                "state": state,
            },
        ),
    )


def read_heartbeats(store: ArtifactStore) -> Dict[str, Dict]:
    """All published worker beacons, keyed by worker id (corrupt = absent)."""
    out: Dict[str, Dict] = {}
    for key in store.keys_of_kind("heartbeat"):
        payload = store.load("heartbeat", key, decode_heartbeat)
        if payload is not None:
            out[payload["worker"]] = payload
    return out


class _SweepContext:
    """Per-sweep worker state: the reconstructed workload, once."""

    def __init__(self, store: ArtifactStore, queue: CellQueue, meta: Dict) -> None:
        self.queue = queue
        workload = workload_from_payload(meta["workload"])
        self.apps = workload.apps
        content = workload_content_key(workload)
        compiled = None
        stored = store.load("compiled", compiled_key(content), decode_compiled)
        if stored is not None and stored.matches(self.apps):
            compiled = stored
        self.compiled: CompiledWorkload = compiled or CompiledWorkload.compile(self.apps)
        #: Shared warm context every cell of this sweep executes on.
        self.runner = CellBatchRunner(self.apps, self.compiled)

    def execute(self, task: Dict, worker_id: str, faults=None) -> None:
        index = task["index"]
        if faults is not None:
            # Deterministic chaos, in dependency order: a slow cell first
            # (models a long simulation holding its lease), then the
            # hard-death point the chaos suite drives with a real SIGKILL.
            if faults.should_fire("worker.cell.slow"):
                time.sleep(0.2)
            if faults.should_fire("worker.cell.sigkill"):
                import signal

                os.kill(os.getpid(), signal.SIGKILL)
        try:
            cell = SweepCell(
                spec=unpack_obj(task["spec_b64"]),
                device=unpack_obj(task["device_b64"]),
            )
            record = self.runner.run_one(
                cell,
                task["mobility"],
                task["ideal_us"],
                trace=task["trace"],
            )
        except BaseException as exc:
            # Deterministic cell failures (a raising policy, a bad spec)
            # must terminate the sweep, not bounce between workers forever:
            # publish the error as the cell's result.
            self.queue.fail(
                index,
                f"{type(exc).__name__}: {exc}\n{traceback.format_exc(limit=5)}",
                worker_id,
            )
            return
        self.queue.complete(index, dataclasses.asdict(record), worker_id)


def run_worker(
    store: Union[ArtifactStore, str, Path],
    sweep_id: Optional[str] = None,
    *,
    worker_id: Optional[str] = None,
    lease_ttl: float = 30.0,
    poll_s: float = 0.1,
    max_idle_s: Optional[float] = None,
    once: bool = False,
    seed: Optional[int] = None,
    faults=None,
    retry=None,
    heartbeats: bool = True,
) -> Dict[str, int]:
    """Pull and execute sweep cells until there is nothing left to do.

    Parameters
    ----------
    store:
        The shared artifact store (or its directory).
    sweep_id:
        Serve exactly this sweep and return when it is fully resulted
        (the backend-spawned worker mode).  ``None`` discovers every
        published sweep and keeps polling for new ones (the ``repro
        worker`` daemon mode) until ``max_idle_s`` of continuous idleness
        or — with ``once=True`` — the first drained scan.
    lease_ttl:
        Seconds a claimed cell may run before other workers treat the
        lease as stale and reclaim it; must be positive, and should
        exceed the slowest cell (leases are never renewed).
    seed:
        Seeds the claim-order shuffle (used by the partition property
        tests; irrelevant for correctness).
    faults:
        Optional :class:`~repro.resilience.faults.FaultPlan` — exposes
        ``worker.cell.slow`` and ``worker.cell.sigkill`` here and is
        threaded into the queue (``queue.claim.lost``) and store
        (``store.write.torn``) — the chaos suite's injection surface.
    retry:
        Optional :class:`~repro.resilience.retry.RetryPolicy` applied to
        the queue's must-not-be-lost store writes (result publication).
    heartbeats:
        Publish a liveness beacon (``heartbeat`` artifact) every
        ``min(lease_ttl / 3, HEARTBEAT_EVERY_S)`` seconds; read back with
        :func:`read_heartbeats` (surfaced by the daemon's ``/health``).

    Returns counters: ``{"completed": N, "failed": N, "sweeps": N}``.
    """
    check_lease_ttl(lease_ttl)
    if not isinstance(store, ArtifactStore):
        store = ArtifactStore(store)
    worker_id = worker_id or default_worker_id()
    rng = random.Random(seed)
    contexts: Dict[str, _SweepContext] = {}
    stats = {"completed": 0, "failed": 0, "sweeps": 0}
    idle_since: Optional[float] = None
    hb_every = min(lease_ttl / 3.0, HEARTBEAT_EVERY_S)
    hb_next = 0.0  # monotonic deadline; 0 publishes immediately
    current_sweep: Optional[str] = None

    def _beat(state: str, force: bool = False) -> None:
        nonlocal hb_next
        if not heartbeats:
            return
        now = time.monotonic()
        if not force and now < hb_next:
            return
        hb_next = now + hb_every
        try:
            publish_heartbeat(
                store,
                worker_id,
                sweep=current_sweep,
                completed=stats["completed"],
                failed=stats["failed"],
                state=state,
            )
        except Exception:
            # A beacon is advisory; losing one must never kill the worker.
            pass

    def _context(sid: str) -> Optional[_SweepContext]:
        ctx = contexts.get(sid)
        if ctx is None:
            queue = CellQueue(store, sid, retry=retry, faults=faults)
            meta = queue.meta()
            if meta is None:
                return None  # manifest gone (sweep cleaned up) or corrupt
            ctx = contexts[sid] = _SweepContext(store, queue, meta)
            stats["sweeps"] += 1
        return ctx

    while True:
        progressed = False
        sweep_ids = [sweep_id] if sweep_id is not None else active_sweeps(store)
        for sid in sweep_ids:
            ctx = _context(sid)
            if ctx is None:
                continue
            current_sweep = sid
            while True:
                task = ctx.queue.claim(worker_id, lease_ttl, rng)
                if task is None:
                    break
                _beat("running")
                ctx.execute(task, worker_id, faults=faults)
                result = ctx.queue.result(task["index"])
                if result is not None and result.get("error"):
                    stats["failed"] += 1
                else:
                    stats["completed"] += 1
                progressed = True
        current_sweep = None
        if sweep_id is not None:
            ctx = contexts.get(sweep_id)
            if ctx is not None and (ctx.queue.finished() or ctx.queue.meta() is None):
                break  # sweep fully resulted, or coordinator cleaned it up
        if progressed:
            idle_since = None
            continue
        if once:
            break
        now = time.time()
        idle_since = idle_since if idle_since is not None else now
        if max_idle_s is not None and now - idle_since >= max_idle_s:
            break
        _beat("idle")
        time.sleep(poll_s)
    _beat("stopped", force=True)
    return stats

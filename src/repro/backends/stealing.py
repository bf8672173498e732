"""The work-stealing backend: sweep cells pulled from a store-backed queue.

The coordinator publishes one :class:`~repro.backends.queue.CellQueue`
per batch into the shared :class:`~repro.artifacts.store.ArtifactStore`,
spawns ``workers`` local worker processes, and collects results as they
are published.  Any ``repro worker --store DIR`` daemon sharing the
store directory — on this host or another — steals cells from the same
queue; the coordinator neither knows nor cares who ran a cell.

Fault tolerance, by construction:

* a worker that crashes mid-cell leaves a lease that expires after
  ``lease_ttl`` seconds; any worker reclaims it and the sweep still
  completes with zero lost and zero duplicated cells (results are
  idempotent, see :mod:`repro.backends.queue`);
* a corrupt queue entry is evicted as a miss — the coordinator
  republishes evicted tasks and re-runs cells whose results were
  corrupted;
* if every local worker dies the coordinator respawns them (bounded by
  ``max_respawns``), so even a wave of crashes only costs time.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import time
import uuid
from pathlib import Path
from typing import Callable, List, Optional, Union

from repro.artifacts.store import ArtifactStore
from repro.backends.base import CellBatch, ExecutorBackend
from repro.backends.queue import CellQueue, check_lease_ttl, pack_obj
from repro.backends.worker import run_worker
from repro.exceptions import ExperimentError
from repro.metrics.summary import PolicyRunRecord


def sweep_queue_id(content_key: str, n_cells: int, nonce: Optional[str] = None) -> str:
    """Unique id for one published sweep (keys its queue entries).

    Unlike design-time artifact keys this is *not* purely
    content-addressed: two concurrent identical sweeps must not share
    lease/result entries (a finished sweep's stale results would
    short-circuit a new one), so a random nonce keeps every publication
    distinct.
    """
    payload = [content_key, int(n_cells), nonce or uuid.uuid4().hex]
    return hashlib.sha256(json.dumps(payload).encode("utf-8")).hexdigest()[:32]


class WorkStealingBackend(ExecutorBackend):
    """N processes pulling cells from a lease-based store queue.

    Parameters
    ----------
    store:
        The shared artifact store (or its directory) used as the
        coordination substrate.  Workers on other hosts join by pointing
        ``repro worker --store`` at the same directory.
    workers:
        Local worker processes spawned per batch.  ``0`` publishes the
        queue and waits for external workers only.
    lease_ttl:
        Seconds before an unfinished claim counts as a crashed worker
        and is reclaimed; must be positive, and should exceed the
        slowest expected cell.
    poll_s:
        Coordinator/worker polling interval.
    timeout_s:
        Overall deadline per batch (``None`` = wait forever; keep a
        finite value when ``workers=0`` guards against no worker ever
        showing up).
    max_respawns:
        Cap on local-worker respawns per batch (default ``3 ×
        workers``), bounding the damage of a deterministically crashing
        environment.
    on_published:
        Test/benchmark seam called with the :class:`CellQueue` after the
        queue is published and before local workers spawn — the hook
        fault-injection tests use to corrupt entries or pre-claim
        leases.
    faults:
        Optional :class:`~repro.resilience.faults.FaultPlan` shipped to
        every local worker (cell-level fault points) and wired into the
        coordinator-side queue (``queue.claim.lost``); the deterministic
        chaos-suite surface.
    retry:
        Optional :class:`~repro.resilience.retry.RetryPolicy` applied to
        the queue's must-not-be-lost store writes on both the
        coordinator (publish) and worker (complete/fail) sides.
    """

    name = "work-stealing"

    def __init__(
        self,
        store: Union[ArtifactStore, str, Path],
        workers: int = 2,
        *,
        lease_ttl: float = 30.0,
        poll_s: float = 0.02,
        timeout_s: Optional[float] = None,
        max_respawns: Optional[int] = None,
        on_published: Optional[Callable[[CellQueue], None]] = None,
        faults=None,
        retry=None,
    ) -> None:
        if workers < 0:
            raise ExperimentError(f"workers must be >= 0, got {workers}")
        if not isinstance(store, ArtifactStore):
            store = ArtifactStore(store)
        self.store = store
        self.workers = workers
        self.lease_ttl = check_lease_ttl(lease_ttl)
        self.poll_s = float(poll_s)
        self.timeout_s = timeout_s
        self.max_respawns = (
            max_respawns if max_respawns is not None else max(3, 3 * workers)
        )
        self.on_published = on_published
        self.faults = faults
        self.retry = retry
        self._procs: List[multiprocessing.Process] = []

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Terminate any local workers still alive (idempotent)."""
        procs, self._procs = self._procs, []
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            proc.join(timeout=10)

    # ------------------------------------------------------------------
    def _spawn_worker(self, sweep_id: str, serial: int) -> multiprocessing.Process:
        proc = multiprocessing.Process(
            target=run_worker,
            args=(str(self.store.root), sweep_id),
            kwargs={
                "worker_id": f"steal-{serial}",
                "lease_ttl": self.lease_ttl,
                "poll_s": self.poll_s,
                "seed": serial,
                # FaultPlan is picklable (per-point state travels with it)
                # so spawned workers inherit the same deterministic plan.
                "faults": self.faults,
                "retry": self.retry,
            },
            daemon=True,
            name=f"repro-steal-{serial}",
        )
        proc.start()
        return proc

    def _record_from(self, queue: CellQueue, index: int, payload: dict) -> Optional[PolicyRunRecord]:
        try:
            return PolicyRunRecord(**payload)
        except TypeError:
            # Foreign/garbled record despite valid JSON: evict so the
            # cell re-runs, exactly like any other corrupt entry.
            queue.store.evict("result", queue.cell_key(index))
            return None

    def run_cells(self, batch: CellBatch) -> List[PolicyRunRecord]:
        cells, n = batch.cells, len(batch.cells)
        tasks = [
            {
                "index": i,
                "spec_b64": pack_obj(cell.spec),
                "device_b64": pack_obj(cell.device),
                "mobility": mobility,
                "ideal_us": ideal,
                "trace": batch.trace_mode,
            }
            for i, (cell, (mobility, ideal)) in enumerate(zip(cells, batch.artifacts))
        ]
        sweep_id = sweep_queue_id(batch.content_key, n)
        queue = CellQueue(
            self.store, sweep_id, n_cells=n, retry=self.retry, faults=self.faults
        )
        queue.publish(batch.workload, tasks, str(batch.trace_mode))
        if self.on_published is not None:
            self.on_published(queue)
        for i in range(n):
            batch.started(i)
        # An explicit parallel=N on the sweep overrides the constructed
        # worker count (mirrors ProcessPoolBackend); workers=0 with the
        # default parallel stays external-only.
        n_workers = batch.parallel if batch.parallel > 1 else self.workers
        serial = 0
        self._procs = [self._spawn_worker(sweep_id, serial := serial + 1)
                       for _ in range(n_workers)]
        respawns = 0
        records: List[Optional[PolicyRunRecord]] = [None] * n
        done = 0
        deadline = time.monotonic() + self.timeout_s if self.timeout_s else None
        try:
            while done < n:
                for i, result in queue.results().items():
                    if records[i] is not None:
                        continue
                    if result["error"] is not None:
                        raise ExperimentError(
                            f"sweep cell {i} ({cells[i].label}) failed on "
                            f"worker {result.get('worker')!r}: {result['error']}"
                        )
                    record = self._record_from(queue, i, result["record"])
                    if record is None:
                        continue
                    records[i] = record
                    done += 1
                    batch.finished(i, record)
                    batch.progressed(done, n)
                if done >= n:
                    break
                queue.reclaim_stale()
                for i in queue.missing_tasks():
                    queue.republish(tasks[i])
                self._procs = [p for p in self._procs if p.is_alive()]
                if n_workers > 0 and not self._procs:
                    if respawns >= self.max_respawns:
                        raise ExperimentError(
                            f"work-stealing sweep stalled: local workers died "
                            f"{respawns} times with {n - done} cells unfinished"
                        )
                    respawns += 1
                    self._procs = [self._spawn_worker(sweep_id, serial := serial + 1)]
                if deadline is not None and time.monotonic() > deadline:
                    raise ExperimentError(
                        f"work-stealing sweep timed out after {self.timeout_s}s "
                        f"with {n - done} of {n} cells unfinished"
                    )
                time.sleep(self.poll_s)
        except BaseException:
            self.close()
            queue.cleanup()
            raise
        # Graceful drain: workers exit on their own once every result
        # exists; reap them, then garbage-collect the queue entries.
        for proc in self._procs:
            proc.join(timeout=30)
        self.close()
        queue.cleanup()
        return records  # type: ignore[return-value]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WorkStealingBackend(store={str(self.store.root)!r}, "
            f"workers={self.workers})"
        )

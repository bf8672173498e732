"""The in-host process-pool backend (the historical ``parallel=N`` path).

Each cell is one pool submission.  One :class:`ProcessPoolBackend`
owns a reusable :class:`~concurrent.futures.ProcessPoolExecutor`:
consecutive batches over the same workload content and worker count
keep the warm pool (the compiled workload ships once per worker through
the initializer, not once per sweep), and a failed batch drops the pool
so the next batch transparently rebuilds it from scratch — a crashed
worker must never poison a later sweep.
"""

from __future__ import annotations

import threading
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    ProcessPoolExecutor,
    wait,
)
from typing import List, Optional, Tuple

from repro.backends.base import CellBatch, ExecutorBackend, SweepCell
from repro.backends.batch import CellBatchRunner
from repro.exceptions import ExperimentError
from repro.metrics.summary import PolicyRunRecord
from repro.sim.manager import MobilityTables
from repro.sim.tracing import TraceMode
from repro.workloads.compiled import CompiledWorkload


# ----------------------------------------------------------------------
# Worker-process side (module level so it pickles under spawn too)
# ----------------------------------------------------------------------
_WORKER_RUNNER: Optional[CellBatchRunner] = None


def _init_worker(apps: Tuple, compiled: Optional[CompiledWorkload] = None) -> None:
    """One-time per-process setup: the apps and their compiled form.

    Shipping the compiled workload in the initargs (instead of per
    submitted cell) means each worker deserialises it exactly once, and
    no cell pays compilation.
    """
    global _WORKER_RUNNER
    _WORKER_RUNNER = CellBatchRunner(apps, compiled)


def _run_cell_in_worker(
    cell: SweepCell,
    mobility: Optional[MobilityTables],
    ideal_us: int,
    trace: TraceMode,
) -> PolicyRunRecord:
    """Execute one cell on the worker's warm run context."""
    return _WORKER_RUNNER.run_one(cell, mobility, ideal_us, trace=trace)


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------
class ProcessPoolBackend(ExecutorBackend):
    """Fans cells out over a reusable in-host process pool.

    Parameters
    ----------
    workers:
        Default pool size; a batch's ``parallel`` value overrides it per
        batch (``Session.sweep(parallel=N)`` lands here), and the pool is
        never wider than the batch has cells.

    The pool persists across batches when the worker count *and* the
    workload content match the previous batch (warm workers, compiled
    workload shipped once); it is rebuilt otherwise, and dropped when a
    batch fails so the next one starts clean.  ``close()`` is idempotent
    and safe to call from another thread while a batch is in flight (the
    daemon shutdown path): the in-flight batch either completes or
    raises a clean :class:`ExperimentError` — never an interpreter
    ``RuntimeError`` from the dead executor.
    """

    name = "process-pool"

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers is not None and workers < 1:
            raise ExperimentError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_workers = 0
        self._pool_content: Optional[str] = None
        self._lock = threading.Lock()

    # -- pool lifecycle -------------------------------------------------
    def close(self) -> None:
        with self._lock:
            pool, self._pool, self._pool_workers = self._pool, None, 0
            self._pool_content = None
        if pool is not None:
            pool.shutdown()

    def _get_pool(self, workers: int, batch: CellBatch) -> ProcessPoolExecutor:
        """A pool with exactly ``workers`` workers initialised for this
        batch's workload, reused when the previous batch matches."""
        stale: Optional[ProcessPoolExecutor] = None
        with self._lock:
            if (
                self._pool is not None
                and self._pool_workers == workers
                and self._pool_content == batch.content_key
            ):
                return self._pool
            stale, self._pool, self._pool_workers = self._pool, None, 0
            pool = ProcessPoolExecutor(
                max_workers=workers,
                initializer=_init_worker,
                initargs=(tuple(batch.apps), batch.compiled),
            )
            self._pool = pool
            self._pool_workers = workers
            self._pool_content = batch.content_key
        if stale is not None:
            stale.shutdown()
        return pool

    @property
    def pool(self) -> Optional[ProcessPoolExecutor]:
        """The live executor, if any (observable by tests)."""
        return self._pool

    # -- execution ------------------------------------------------------
    def run_cells(self, batch: CellBatch) -> List[PolicyRunRecord]:
        n = len(batch.cells)
        # One cell per submission: the pool is never wider than the batch.
        workers = batch.parallel if batch.parallel > 1 else (self.workers or 1)
        workers = min(workers, n)
        if workers <= 1:
            # A one-worker pool would only add IPC overhead; fall back to
            # the inline semantics (including hook-sink support).
            from repro.backends.inline import InlineBackend

            return InlineBackend().run_cells(batch)
        records: List[Optional[PolicyRunRecord]] = [None] * n
        pool = self._get_pool(workers, batch)
        try:
            future_to_index = {}
            for i, (cell, (mobility, ideal)) in enumerate(
                zip(batch.cells, batch.artifacts)
            ):
                batch.started(i)
                try:
                    future = pool.submit(
                        _run_cell_in_worker, cell, mobility, ideal, batch.trace_mode
                    )
                except RuntimeError as exc:
                    # close() raced this batch and shut the pool down —
                    # surface it as a library error, not an interpreter one.
                    raise ExperimentError(
                        f"backend closed while a parallel sweep was in flight "
                        f"({exc})"
                    ) from None
                future_to_index[future] = i
            done_count = 0
            pending = set(future_to_index)
            while pending:
                finished, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in finished:
                    i = future_to_index[future]
                    try:
                        record = future.result()
                    except CancelledError:
                        raise ExperimentError(
                            "backend closed while a parallel sweep was in "
                            "flight (pending cells cancelled)"
                        ) from None
                    records[i] = record
                    done_count += 1
                    batch.finished(i, record)
                    batch.progressed(done_count, n)
        except BaseException:
            # A failed batch may have broken the pool (worker crash) —
            # drop it so the next batch starts from a fresh one.
            self.close()
            raise
        missing = [i for i, r in enumerate(records) if r is None]
        if missing:  # keeps cell/record pairing honest for grid()'s zip
            raise ExperimentError(f"parallel sweep lost results for cells {missing}")
        return records

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProcessPoolBackend(workers={self.workers!r})"


__all__ = [
    "ProcessPoolBackend",
    "SweepCell",
    "_init_worker",
    "_run_cell_in_worker",
]

"""The in-host process-pool backend (the historical ``parallel=N`` path).

Each cell is one pool submission, and the design-time mobility tables
the session's caches missed are computed on the same pool first
(:meth:`ProcessPoolBackend.compute_mobility`).  One
:class:`ProcessPoolBackend` owns a reusable :class:`~concurrent.futures.ProcessPoolExecutor`:
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
from typing import Dict, List, Optional, Sequence, Tuple

from repro.backends.base import CellBatch, ExecutorBackend, SweepCell
from repro.backends.batch import CellBatchRunner
from repro.core.mobility import compute_table
from repro.exceptions import ExperimentError
from repro.graphs.task_graph import TaskGraph
from repro.hw.model import DeviceModel
from repro.metrics.summary import PolicyRunRecord
from repro.sim.manager import MobilityTables
from repro.sim.tracing import TraceMode
from repro.workloads.compiled import CompiledWorkload, distinct_graphs
from repro.workloads.sequence import Workload


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


def _mobility_in_worker(
    units: Sequence[Tuple[int, DeviceModel]],
) -> List[Dict[int, int]]:
    """Compute a chunk of ``(index into the workload's distinct graphs,
    effective device)`` tables on the worker's shipped apps."""
    graphs = distinct_graphs(_WORKER_RUNNER.apps)
    return [compute_table(graphs[gi], device) for gi, device in units]


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

    def _get_pool(
        self, workers: int, content_key: str, apps, compiled: CompiledWorkload
    ) -> ProcessPoolExecutor:
        """A pool with exactly ``workers`` workers initialised for this
        workload, reused when the previous batch matches."""
        stale: Optional[ProcessPoolExecutor] = None
        with self._lock:
            if (
                self._pool is not None
                and self._pool_workers == workers
                and self._pool_content == content_key
            ):
                return self._pool
            stale, self._pool, self._pool_workers = self._pool, None, 0
            pool = ProcessPoolExecutor(
                max_workers=workers,
                initializer=_init_worker,
                initargs=(tuple(apps), compiled),
            )
            self._pool = pool
            self._pool_workers = workers
            self._pool_content = content_key
        if stale is not None:
            stale.shutdown()
        return pool

    @property
    def pool(self) -> Optional[ProcessPoolExecutor]:
        """The live executor, if any (observable by tests)."""
        return self._pool

    def _width(self, parallel: int, n_cells: int) -> int:
        """Workers for a batch: never wider than it has cells."""
        return min(parallel if parallel > 1 else (self.workers or 1), n_cells)

    # -- execution ------------------------------------------------------
    def compute_mobility(
        self,
        units: Sequence[Tuple[TaskGraph, DeviceModel]],
        *,
        workload: Workload,
        content_key: str,
        compiled: CompiledWorkload,
        parallel: int,
        n_cells: int,
    ) -> List[Dict[int, int]]:
        """Missing design-time tables on the pool the cells will reuse.

        Same width as :meth:`run_cells` for the batch (so the pool, its
        workers and their shipped apps carry over), about four chunks per
        worker for balance, each unit a ``(distinct-graph index, device)``
        pair: no graph is pickled per unit.  In-process when the width is
        1.  A failure drops the pool and raises :class:`ExperimentError`.
        """
        workers = self._width(parallel, n_cells)
        if workers <= 1 or not units:
            return super().compute_mobility(
                units,
                workload=workload,
                content_key=content_key,
                compiled=compiled,
                parallel=parallel,
                n_cells=n_cells,
            )
        index = {graph.name: gi for gi, graph in enumerate(workload.distinct_graphs())}
        jobs = [(index[graph.name], device) for graph, device in units]
        n_chunks = min(len(jobs), 4 * workers)
        bounds = [len(jobs) * k // n_chunks for k in range(n_chunks + 1)]
        try:
            pool = self._get_pool(workers, content_key, workload.apps, compiled)
            futures = [
                pool.submit(_mobility_in_worker, jobs[lo:hi])
                for lo, hi in zip(bounds, bounds[1:])
            ]
            return [table for future in futures for table in future.result()]
        except BaseException as exc:
            # A failed design phase may have broken the pool.
            self.close()
            if isinstance(exc, Exception) and not isinstance(exc, ExperimentError):
                raise ExperimentError(
                    f"design-time mobility phase failed on the process pool: "
                    f"{type(exc).__name__}: {exc}"
                ) from exc
            raise

    def run_cells(self, batch: CellBatch) -> List[PolicyRunRecord]:
        n = len(batch.cells)
        # One cell per submission: the pool is never wider than the batch.
        workers = self._width(batch.parallel, n)
        if workers <= 1:
            # A one-worker pool would only add IPC overhead; fall back to
            # the inline semantics (including hook-sink support).
            from repro.backends.inline import InlineBackend

            return InlineBackend().run_cells(batch)
        records: List[Optional[PolicyRunRecord]] = [None] * n
        pool = self._get_pool(workers, batch.content_key, batch.apps, batch.compiled)
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

"""Pluggable sweep execution backends.

A :class:`~repro.backends.base.ExecutorBackend` turns a
:class:`~repro.backends.base.CellBatch` — an experiment's cells plus
their pre-resolved design-time artifacts — into one
:class:`~repro.metrics.summary.PolicyRunRecord` per cell.  Three
implementations ship:

* :class:`~repro.backends.inline.InlineBackend` — serial, zero
  processes; the debugging and ``parallel=1`` path.
* :class:`~repro.backends.pool.ProcessPoolBackend` — a reusable
  ``ProcessPoolExecutor`` fan-out (the historical ``parallel=N``
  behaviour, pool reuse across sweeps included).
* :class:`~repro.backends.stealing.WorkStealingBackend` — N worker
  processes pulling cells from a lease-based queue persisted through the
  shared :class:`~repro.artifacts.store.ArtifactStore`; additional
  ``repro worker --store DIR`` daemons on any host join the same queue.

A cell ships one way: one pool submission or one queue lease per cell,
executed on the receiving process's warm
:class:`~repro.backends.batch.CellBatchRunner`.

:func:`~repro.backends.plan.build_plan` expresses a batch as an explicit
task DAG (compile → mobility/ideal artifacts → cells → reduce) with
shared design-time nodes deduplicated; every backend executes the same
plan shape, which is what the cross-backend conformance suite pins down.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.backends.base import CellBatch, ExecutorBackend, SweepCell, run_cell
from repro.backends.batch import CellBatchRunner
from repro.backends.inline import InlineBackend
from repro.backends.plan import ExperimentPlan, PlanNode, build_plan
from repro.backends.pool import ProcessPoolBackend
from repro.backends.queue import CellQueue, active_sweeps
from repro.backends.stealing import WorkStealingBackend
from repro.backends.worker import run_worker
from repro.exceptions import ExperimentError

#: Backend names accepted anywhere a backend is selected by string
#: (``Session(backend=...)``, ``repro sweep --backend``, the server).
BACKEND_NAMES = ("inline", "process-pool", "work-stealing")


def resolve_backend(
    spec: Union[str, ExecutorBackend, None],
    *,
    parallel: int = 1,
    store=None,
) -> ExecutorBackend:
    """Turn a backend selector into a backend instance.

    ``None`` auto-selects: :class:`InlineBackend` for ``parallel <= 1``,
    else :class:`ProcessPoolBackend` — exactly the historical behaviour.
    A string picks by name (``"process"`` accepted as an alias for
    ``"process-pool"``); ``"work-stealing"`` requires ``store``.  An
    :class:`ExecutorBackend` instance passes through untouched.
    """
    if isinstance(spec, ExecutorBackend):
        return spec
    if spec is None:
        return InlineBackend() if parallel <= 1 else ProcessPoolBackend()
    name = str(spec).strip().lower()
    if name == "inline":
        return InlineBackend()
    if name in ("process-pool", "process"):
        return ProcessPoolBackend()
    if name == "work-stealing":
        if store is None:
            raise ExperimentError(
                "the work-stealing backend needs an artifact store "
                "(pass store=... / --store; workers coordinate through it)"
            )
        workers = max(1, parallel)
        return WorkStealingBackend(store, workers=workers)
    raise ExperimentError(
        f"unknown backend {spec!r} (choose from {', '.join(BACKEND_NAMES)})"
    )


__all__ = [
    "BACKEND_NAMES",
    "CellBatch",
    "CellBatchRunner",
    "CellQueue",
    "ExecutorBackend",
    "ExperimentPlan",
    "InlineBackend",
    "PlanNode",
    "ProcessPoolBackend",
    "SweepCell",
    "WorkStealingBackend",
    "active_sweeps",
    "build_plan",
    "resolve_backend",
    "run_cell",
    "run_worker",
]

"""One warm run context shared by every cell a process executes.

Every cell of a sweep shares the same workload and compiled form.
:class:`CellBatchRunner` owns that per-process run context — the
application sequence and its
:class:`~repro.workloads.compiled.CompiledWorkload` (compiled at most
once) — and executes cells against it without re-importing, re-pickling
or re-deriving anything:

* :class:`~repro.backends.inline.InlineBackend` runs the whole batch on
  one runner;
* :class:`~repro.backends.pool.ProcessPoolBackend` submits one cell per
  future to a worker process that holds one runner;
* work-stealing workers (:func:`repro.backends.worker.run_worker`) lease
  one cell per queue pull and run it on the sweep's runner.

Each cell executes through :func:`repro.backends.base.run_cell`, so
records are byte-identical whichever backend ran them — asserted by the
cross-backend conformance suite in ``tests/test_backends.py``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.metrics.summary import PolicyRunRecord
from repro.sim.manager import MobilityTables
from repro.sim.tracing import TraceMode, TraceSink
from repro.workloads.compiled import CompiledWorkload


class CellBatchRunner:
    """Executes sweep cells against one shared, warm run context.

    Parameters
    ----------
    apps:
        The application sequence every cell simulates.
    compiled:
        Its compiled form; compiled here (once) when omitted.
    """

    __slots__ = ("apps", "compiled")

    def __init__(
        self,
        apps: Sequence,
        compiled: Optional[CompiledWorkload] = None,
    ) -> None:
        self.apps = tuple(apps)
        self.compiled = (
            compiled if compiled is not None else CompiledWorkload.compile(self.apps)
        )

    @classmethod
    def from_batch(cls, batch) -> "CellBatchRunner":
        """A runner for one :class:`~repro.backends.base.CellBatch`."""
        return cls(batch.apps, batch.compiled)

    def run_one(
        self,
        cell,
        mobility: Optional[MobilityTables],
        ideal_us: int,
        trace: TraceMode = "full",
        extra_sinks: Sequence[TraceSink] = (),
    ) -> PolicyRunRecord:
        """Execute one cell's run-time phase on the shared context."""
        from repro.backends.base import run_cell

        return run_cell(
            self.apps,
            cell,
            mobility,
            ideal_us,
            trace=trace,
            extra_sinks=extra_sinks,
            compiled=self.compiled,
        )

    def run_chunk(
        self,
        cells: Sequence,
        artifacts: Sequence[Tuple[Optional[MobilityTables], int]],
        trace: TraceMode = "full",
    ) -> List[PolicyRunRecord]:
        """Execute ``cells[i]`` with ``artifacts[i]`` back-to-back."""
        return [
            self.run_one(cell, mobility, ideal, trace=trace)
            for cell, (mobility, ideal) in zip(cells, artifacts)
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CellBatchRunner(n_apps={len(self.apps)})"

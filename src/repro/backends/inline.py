"""The serial debug backend: cells run in the calling process."""

from __future__ import annotations

from typing import List

from repro.backends.base import CellBatch, ExecutorBackend
from repro.backends.batch import CellBatchRunner
from repro.metrics.summary import PolicyRunRecord


class InlineBackend(ExecutorBackend):
    """Runs every cell serially in the calling process.

    The reference implementation of the backend contract: deterministic
    start/finish ordering, full hook-sink support (sinks never cross a
    process boundary here) and zero setup cost.  ``Session`` selects it
    automatically for ``parallel=1`` batches; pick it explicitly
    (``Session(backend="inline")``) when stepping through a sweep under a
    debugger or profiling a single process.

    The whole batch executes on one shared
    :class:`~repro.backends.batch.CellBatchRunner`: every cell shares one
    interpreter and one warm context.
    """

    name = "inline"

    def run_cells(self, batch: CellBatch) -> List[PolicyRunRecord]:
        records: List[PolicyRunRecord] = []
        total = len(batch.cells)
        runner = CellBatchRunner.from_batch(batch)
        for i, (cell, (mobility, ideal)) in enumerate(
            zip(batch.cells, batch.artifacts)
        ):
            batch.started(i)
            record = runner.run_one(
                cell,
                mobility,
                ideal,
                trace=batch.trace_mode,
                extra_sinks=batch.sinks_for(i),
            )
            batch.finished(i, record)
            batch.progressed(i + 1, total)
            records.append(record)
        return records

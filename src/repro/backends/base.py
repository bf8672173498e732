"""The executor-backend contract: how a batch of sweep cells runs.

:class:`~repro.session.Session` plans an experiment (design-time
artifacts deduplicated through the explicit task DAG of
:mod:`repro.backends.plan`) and then hands the run-time phase — a
:class:`CellBatch` of independent ``(spec, device)`` cells — to an
:class:`ExecutorBackend`.  The backend decides *where* the cells execute:

* :class:`~repro.backends.inline.InlineBackend` — serially, in the
  calling process (debuggable, honours hook trace sinks);
* :class:`~repro.backends.pool.ProcessPoolBackend` — over a reusable
  in-host :class:`~concurrent.futures.ProcessPoolExecutor` (the
  historical ``parallel=N`` behaviour);
* :class:`~repro.backends.stealing.WorkStealingBackend` — N worker
  processes (in-process or ``repro worker`` on other hosts) pulling
  cells from a lease-based queue persisted through the content-addressed
  :class:`~repro.artifacts.store.ArtifactStore`.

The contract every backend honours (asserted by
``tests/test_backends.py``):

1. ``run_cells`` returns one :class:`PolicyRunRecord` per cell **in cell
   order** (never completion order), byte-identical to the serial path —
   a sweep's numbers must not depend on where it ran.
2. ``batch.started(i)`` fires before cell ``i`` executes and
   ``batch.finished(i, record)`` after it produced its record;
   ``batch.progressed(done, total)`` counts completed cells
   monotonically.  Start/finish pairs of different cells may interleave.
3. ``close()`` is idempotent and the backend is a context manager;
   ``with backend:`` closes it on exit.
4. A failed batch (worker crash, raising policy) surfaces as an
   exception *and leaves the backend reusable*: the next ``run_cells``
   on the same instance must succeed from scratch.

Before the cells, the session may ask the backend for the design-time
mobility tables its caches missed (:meth:`ExecutorBackend.compute_mobility`):
the process pool computes them on its workers, every other backend in
the calling process.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.mobility import compute_table
from repro.core.policy_spec import PolicySpec
from repro.exceptions import ExperimentError
from repro.graphs.task_graph import TaskGraph
from repro.hw.model import DeviceModel
from repro.metrics.summary import PolicyRunRecord
from repro.sim.manager import MobilityTables
from repro.sim.simulator import run_simulation
from repro.sim.tracing import TraceMode, TraceSink
from repro.workloads.compiled import CompiledWorkload
from repro.workloads.sequence import Workload


@dataclass(frozen=True, init=False)
class SweepCell:
    """One cell of a sweep/grid: which spec on which device.

    ``device`` always holds the cell's
    :class:`~repro.hw.model.DeviceModel`.  The constructor also accepts
    the ``n_rus``/``reconfig_latency`` pair, which describes
    ``DeviceModel.homogeneous(n_rus, reconfig_latency)``; given together
    with ``device``, the pair must agree with it.
    """

    spec: PolicySpec
    device: DeviceModel

    def __init__(
        self,
        spec: PolicySpec,
        n_rus: Optional[int] = None,
        reconfig_latency: Optional[int] = None,
        device: Optional[DeviceModel] = None,
    ) -> None:
        if device is None:
            if n_rus is None or reconfig_latency is None:
                raise TypeError(
                    "SweepCell needs device= or both n_rus and reconfig_latency"
                )
            device = DeviceModel.homogeneous(n_rus, reconfig_latency)
        elif n_rus not in (None, device.n_rus) or (
            reconfig_latency not in (None, device.reconfig_latency)
        ):
            raise ExperimentError(
                f"SweepCell: n_rus={n_rus}, reconfig_latency={reconfig_latency} "
                f"contradicts device {device.label!r}"
            )
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "device", device)

    @property
    def n_rus(self) -> int:
        return self.device.n_rus

    @property
    def reconfig_latency(self) -> int:
        return self.device.reconfig_latency

    @property
    def label(self) -> str:
        if self.device.is_paper_path():
            return f"{self.spec.label} @ {self.n_rus} RUs"
        return f"{self.spec.label} @ {self.device.label}"


def _noop_started(index: int) -> None:
    pass


def _noop_finished(index: int, record: PolicyRunRecord) -> None:
    pass


def _noop_progressed(done: int, total: int) -> None:
    pass


def _no_sinks(index: int) -> Tuple[TraceSink, ...]:
    return ()


@dataclass
class CellBatch:
    """Everything a backend needs to execute one batch of cells.

    The session resolves the design-time phase *before* building the
    batch (see :func:`repro.backends.plan.build_plan`): ``artifacts[i]``
    is the ``(mobility_tables_or_None, ideal_makespan_us)`` pair cell
    ``i`` runs with, already deduplicated across cells.  Backends only
    replay the run-time phase (the per-graph tables behind the mobility
    artifacts may have come from :meth:`ExecutorBackend.compute_mobility`).

    ``sinks_for`` provides per-cell extra trace sinks; only in-process
    backends can honour it (sink objects cannot cross a process
    boundary), remote backends ignore it — mirroring the historical
    ``parallel > 1`` behaviour.

    Distributing backends ship one cell per pool submission or queue
    lease.
    """

    workload: Workload
    content_key: str
    compiled: CompiledWorkload
    cells: List[SweepCell]
    artifacts: List[Tuple[Optional[MobilityTables], int]]
    trace_mode: TraceMode = "full"
    parallel: int = 1
    started: Callable[[int], None] = _noop_started
    finished: Callable[[int, PolicyRunRecord], None] = _noop_finished
    progressed: Callable[[int, int], None] = _noop_progressed
    sinks_for: Callable[[int], Tuple[TraceSink, ...]] = _no_sinks

    def __post_init__(self) -> None:
        if len(self.cells) != len(self.artifacts):
            raise ValueError(
                f"batch has {len(self.cells)} cells but "
                f"{len(self.artifacts)} artifact pairs"
            )

    @property
    def batch_size(self) -> int:
        # Cells per submission, always 1; perfbench/tracer.py sizes payloads by it.
        return 1

    @property
    def apps(self):
        return self.workload.apps


def run_cell(
    apps: Sequence,
    cell: SweepCell,
    mobility: Optional[MobilityTables],
    ideal_us: int,
    trace: TraceMode = "full",
    extra_sinks: Sequence[TraceSink] = (),
    compiled: Optional[CompiledWorkload] = None,
) -> PolicyRunRecord:
    """Execute one cell's run-time phase; the shared backend primitive.

    Every backend — inline, pool worker, stealing worker — funnels
    through this function, which is what makes cross-backend
    byte-identity a structural property rather than a coincidence.
    """
    result = run_simulation(
        apps,
        advisor=cell.spec.make_advisor(),
        semantics=cell.spec.make_semantics(),
        mobility_tables=mobility,
        ideal_makespan_us=ideal_us,
        trace=trace,
        extra_sinks=extra_sinks,
        device=cell.device,
        compiled=compiled,
    )
    return PolicyRunRecord.from_result(cell.spec.label, cell.n_rus, result)


class ExecutorBackend(ABC):
    """Abstract executor: runs a :class:`CellBatch`, returns its records.

    Subclasses implement :meth:`run_cells`; :meth:`close` releases any
    held resources (worker pools, queue state) and must be idempotent.
    Backends are reusable across batches — and across *sessions*, as long
    as consecutive batches agree on the workload content (pool-based
    backends re-initialise their workers when it changes).
    """

    #: Registry name (also what ``Session(backend="<name>")`` accepts).
    name: str = "abstract"

    @abstractmethod
    def run_cells(self, batch: CellBatch) -> List[PolicyRunRecord]:
        """Execute every cell; records returned in cell order."""

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
        """Mobility tables for the design-time units a batch's caches
        missed, in unit order.

        ``units[i]`` is a ``(distinct graph of workload, effective device)``
        pair (:meth:`~repro.core.mobility.MobilityCalculator.missing_units`);
        the other arguments describe the :class:`CellBatch` the session is
        about to run (``parallel`` and ``n_cells`` fix its width).  The
        default computes the units serially in the calling process.
        """
        return [compute_table(graph, device) for graph, device in units]

    def close(self) -> None:
        """Release resources (idempotent; default: nothing to release)."""

    def __enter__(self) -> "ExecutorBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"

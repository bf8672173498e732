"""The declarative experiment engine: ``Session(device, workload)``.

The paper's pipeline is "design-time analysis once, run-time reuse many
times".  :class:`Session` makes that the shape of the public API instead of
something every experiment re-wires by hand:

* a :class:`~repro.hw.model.DeviceModel` describes the hardware — the
  paper's device is ``DeviceModel.homogeneous(n_rus, 4000)``,
* a :class:`~repro.workloads.sequence.Workload` (or a registered scenario
  name) describes the software,
* a :class:`~repro.core.policy_spec.PolicySpec` describes one policy line,

and the session runs any number of ``(spec, device)`` cells over them,
computing the design-time artifacts — mobility tables and the
zero-latency ideal makespan — **once** per ``(workload, device)`` in a
content-keyed two-tier :class:`ArtifactCache` shared by every cell.
The device is the only hardware value below the session: ``n_rus`` and
``reconfig_latency`` arguments (the paper's Fig. 9 axes) resize or
re-latency the session's one device.
Attach a persistent :class:`~repro.artifacts.store.ArtifactStore`
(``Session(store=...)``) and "once" holds across processes: warm runs
load the compiled workload and mobility tables from disk (the ideal costs
about as much to recompute as to load).

``Session.sweep(specs, ru_counts, parallel=N)`` plans the experiment as
an explicit task DAG (:meth:`Session.plan`, design-time nodes
deduplicated structurally) and hands the independent cells to a
pluggable :class:`~repro.backends.base.ExecutorBackend` — inline,
process-pool, or store-coordinated work-stealing across hosts
(``Session(backend="work-stealing")`` + ``repro worker``), one cell per
pool submission or queue lease;
``Session.grid`` adds a reconfiguration-latency axis for cartesian
studies.  Observers can
subscribe to the run lifecycle through :class:`SessionHooks` — including
attaching custom trace sinks per cell.  Batch cells always stream into
the O(1) aggregate sink of :mod:`repro.sim.tracing`; for single runs,
``trace="aggregate"`` (or a JSONL path) does the same.

Example::

    from repro import DeviceModel, Session, local_lfd_spec, lru_spec

    session = Session(DeviceModel.homogeneous(4), "quick")
    sweep = session.sweep([lru_spec(), local_lfd_spec(1, skip_events=True)],
                          ru_counts=(4, 6, 8), parallel=2)
    print(sweep.render_table("reuse_pct", "% reuse"))
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.artifacts.keys import (
    compiled_key,
    graphs_content_key,
    mobility_key,
    workload_content_key,  # noqa: F401  (re-exported; was defined here)
)
from repro.artifacts.schema import (
    decode_compiled,
    decode_mobility_tables,
    encode_compiled,
    encode_mobility_tables,
)
from repro.artifacts.store import ArtifactStore
from repro.backends.base import CellBatch, ExecutorBackend, SweepCell
from repro.backends.plan import ExperimentPlan, build_plan
from repro.backends.pool import (
    ProcessPoolBackend,
    _init_worker,  # noqa: F401  (compat re-export; was defined here)
)
from repro.core.mobility import MobilityCalculator
from repro.hw.latency import FixedLatency
from repro.hw.model import DeviceModel
from repro.core.policy_spec import PolicySpec
from repro.exceptions import ExperimentError
from repro.graphs.task_graph import TaskGraph
from repro.metrics.summary import PolicyRunRecord, SweepResult
from repro.sim.manager import MobilityTables
from repro.sim.semantics import ManagerSemantics
from repro.sim.simulator import (
    SimulationResult,
    folded_ideal,
    ideal_floorplan,
    ideal_makespan,
    run_simulation,
)
from repro.sim.tracing import TraceMode, TraceSink
from repro.workloads.compiled import CompiledWorkload
from repro.workloads.sequence import Workload


def _resize_device(
    device: DeviceModel,
    n_rus: Optional[int] = None,
    reconfig_latency: Optional[int] = None,
) -> DeviceModel:
    """``device`` at another RU count and/or fixed latency (``None``
    keeps that axis).  Resizing a heterogeneous floorplan raises
    (:meth:`~repro.hw.model.DeviceModel.with_n_rus`)."""
    if n_rus is not None and n_rus != device.n_rus:
        device = device.with_n_rus(n_rus)
    if reconfig_latency is not None and reconfig_latency != device.reconfig_latency:
        device = device.with_latency_model(FixedLatency(reconfig_latency))
    return device


def _device_key(device: DeviceModel) -> str:
    """In-memory key for a device: its canonical fingerprint."""
    return json.dumps(device.fingerprint(), sort_keys=True)


# ----------------------------------------------------------------------
# The two-tier design-time artifact cache
# ----------------------------------------------------------------------
@dataclass
class CacheStats:
    """Hit/miss counters for one artifact kind (observable by tests).

    ``hits`` counts memory-tier hits, ``disk_hits`` counts entries served
    from the persistent :class:`~repro.artifacts.store.ArtifactStore`
    (always 0 without a store), and ``misses`` counts memory-tier misses;
    ``computations`` is what actually ran the design-time phase.
    """

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0

    @property
    def computations(self) -> int:
        return self.misses - self.disk_hits

    def as_dict(self) -> Dict[str, int]:
        return {
            "memory_hits": self.hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "computations": self.computations,
        }


class ArtifactCache:
    """Content-keyed two-tier (memory -> disk) design-time artifact cache.

    Stores:

    * the **zero-latency ideal makespan** of each *graph* per ``(graph
      content, min(n_rus, len(graph)))`` — all a uniform-capacity
      floorplan's ideal depends on, since a graph alone never uses more
      RUs than it has tasks — in memory only (one costs about a store load) —
      a workload's ideal folds them over its sequence and arrivals
      (:func:`~repro.sim.simulator.folded_ideal`), so every latency,
      arrival pattern and workload over the catalog shares them.
      Mixed-capacity floorplans memoize whole-workload ideals instead;
    * the **mobility tables** per ``(graph catalog content, device
      fingerprint)`` (paper Fig. 6/7 — latency-dependent because delayed
      schedules shift by it).  On disk the tables key on the
      *distinct graphs* only, so workloads drawing different sequences
      from the same catalog share them.  One calculator memo serves
      every device, so each graph's table is computed once per
      effective device (``min(n_rus, len(graph))`` RUs on identical
      slots; see :mod:`repro.core.mobility`).

    With ``store=None`` the cache is purely in-memory (one process pays
    each computation once — the pre-store behaviour).  With a
    :class:`~repro.artifacts.store.ArtifactStore` every miss consults the
    disk tier before computing and publishes what it computed, so fresh
    processes, CLI invocations and ``parallel=N`` pools sharing the store
    directory pay the design-time phase exactly once overall.

    A cache may be shared between sessions (e.g. one session per seed over
    the same catalog) — keys never collide across different content.
    """

    def __init__(self, store: Optional[ArtifactStore] = None) -> None:
        self.store = store
        self._ideal: Dict[Tuple, int] = {}
        self._mobility: Dict[Tuple, MobilityTables] = {}
        self._compiled: Dict[str, CompiledWorkload] = {}
        self._mobility_calc: Optional[MobilityCalculator] = None
        self._records: Dict[Tuple, "PolicyRunRecord"] = {}
        self.ideal_stats = CacheStats()
        self.mobility_stats = CacheStats()
        self.compiled_stats = CacheStats()
        self.record_stats = CacheStats()

    def _store_put(self, kind: str, key: str, entry) -> None:
        """Publish best-effort: the value is already computed, so a disk
        failure (full/unwritable/NFS hiccup) must not abort the sweep —
        warn once and degrade to memory-only for the rest of this cache's
        life (reads were already failure-tolerant)."""
        from repro.artifacts.store import ArtifactStoreError

        try:
            self.store.put(kind, key, entry)
        except ArtifactStoreError as exc:
            import warnings

            warnings.warn(
                f"artifact store disabled for this cache after a write "
                f"failure ({exc}); continuing memory-only",
                RuntimeWarning,
                stacklevel=3,
            )
            self.store = None

    def stats_summary(self) -> Dict[str, Dict[str, int]]:
        return {
            "ideal": self.ideal_stats.as_dict(),
            "mobility": self.mobility_stats.as_dict(),
            "compiled": self.compiled_stats.as_dict(),
            "records": self.record_stats.as_dict(),
        }

    # -- run-record memo (memory tier only) -----------------------------
    # The simulator is deterministic: a cell's summary record is a pure
    # function of (workload content, spec, hardware).  Warm
    # sessions therefore reuse finished records instead of re-simulating
    # identical cells — the second identical sweep on a session, or the
    # overlap between ablation studies sharing one cache, costs dict
    # lookups instead of sim time.  Memory tier only: records are cheap
    # to recompute relative to disk churn, and the disk tier stays
    # reserved for design-time artifacts.
    def run_record(self, key: Tuple) -> Optional["PolicyRunRecord"]:
        """A memoized cell record, or ``None`` (counts hit/miss stats)."""
        record = self._records.get(key)
        if record is not None:
            self.record_stats.hits += 1
        else:
            self.record_stats.misses += 1
        return record

    def store_run_record(self, key: Tuple, record: "PolicyRunRecord") -> None:
        self._records[key] = record

    def forget_records(self) -> None:
        """Drop every memoized run record (design-time artifacts stay)."""
        self._records.clear()

    def compiled_workload(
        self, content_key: str, apps: Sequence[TaskGraph]
    ) -> CompiledWorkload:
        """The :class:`CompiledWorkload` for this content, computed once.

        Memory tier first, then the artifact store (kind ``"compiled"``),
        then :meth:`CompiledWorkload.compile` — published back to the
        store so warm processes skip workload compilation entirely.
        """
        cached = self._compiled.get(content_key)
        if cached is not None:
            self.compiled_stats.hits += 1
            return cached
        self.compiled_stats.misses += 1
        disk_key = compiled_key(content_key)
        if self.store is not None:
            stored = self.store.load("compiled", disk_key, decode_compiled)
            if stored is not None and stored.matches(apps):
                self.compiled_stats.disk_hits += 1
                self._compiled[content_key] = stored
                return stored
        compiled = CompiledWorkload.compile(apps)
        self._compiled[content_key] = compiled
        if self.store is not None:
            self._store_put(
                "compiled",
                disk_key,
                encode_compiled(
                    disk_key,
                    compiled,
                    meta={"content_key": content_key, "n_apps": compiled.n_apps},
                ),
            )
        return compiled

    def _calculator(self, device: DeviceModel) -> MobilityCalculator:
        """A calculator for ``device`` sharing one table memo with every
        other device's, so a graph's table is computed once per
        effective device (see :mod:`repro.core.mobility`)."""
        if self._mobility_calc is None:
            self._mobility_calc = MobilityCalculator(device=device)
        return self._mobility_calc.for_device(device)

    def ideal_makespan_us(
        self,
        content_key: str,
        apps: Sequence[TaskGraph],
        device: DeviceModel,
        arrival_times: Optional[Sequence[int]] = None,
        semantics: ManagerSemantics = ManagerSemantics(),
        compiled: Optional[CompiledWorkload] = None,
    ) -> int:
        if compiled is None:
            compiled = self.compiled_workload(content_key, apps)
        floorplan = ideal_floorplan(device)
        if floorplan is not None:
            # No closed form on mixed capacities: memoize the whole run.
            saturated = arrival_times is None or not any(arrival_times)
            key = (content_key, floorplan, None if saturated else tuple(arrival_times))
            return self._ideal_lookup(
                key,
                lambda: ideal_makespan(
                    apps,
                    arrival_times=arrival_times,
                    semantics=semantics,
                    device=device,
                    compiled=compiled,
                ),
            )

        # TaskGraph hashes and compares by content, so it is its own key.
        ideal_device = device.zero_latency()

        def per_graph(graph: TaskGraph, solo: CompiledWorkload) -> int:
            # Alone, a graph never uses more RUs than it has tasks.
            return self._ideal_lookup(
                (graph, min(device.n_rus, len(graph))),
                lambda: ideal_makespan([graph], device=ideal_device, compiled=solo),
            )

        return folded_ideal(
            apps,
            ideal_device,
            arrival_times,
            semantics,
            compiled,
            per_graph,
        )

    def _ideal_lookup(self, key: Tuple, compute) -> int:
        if key in self._ideal:
            self.ideal_stats.hits += 1
        else:
            self.ideal_stats.misses += 1
            self._ideal[key] = compute()
        return self._ideal[key]

    def missing_mobility_units(
        self,
        content_key: str,
        distinct_graphs: Sequence[TaskGraph],
        devices: Sequence[DeviceModel],
    ) -> List[Tuple[TaskGraph, DeviceModel]]:
        """The ``(graph, effective device)`` tables that
        :meth:`mobility_tables` would compute for ``devices``: those of
        devices missing from the memory and disk tiers, not yet memoized,
        each once.  Seed them with :meth:`seed_mobility`."""
        catalog_key: Optional[str] = None
        units: Dict[Tuple[TaskGraph, DeviceModel], None] = {}  # ordered set
        for device in devices:
            if (content_key, _device_key(device)) in self._mobility:
                continue
            if self.store is not None:
                if catalog_key is None:
                    catalog_key = graphs_content_key(distinct_graphs)
                if self.store.exists("mobility", mobility_key(catalog_key, device)):
                    continue
            calc = self._calculator(device)
            units.update(dict.fromkeys(calc.missing_units(distinct_graphs)))
        return list(units)

    def seed_mobility(
        self,
        units: Sequence[Tuple[TaskGraph, DeviceModel]],
        tables: Sequence[Mapping[int, int]],
    ) -> None:
        """Memoize per-graph tables computed elsewhere (e.g. on a worker
        pool) for :meth:`missing_mobility_units`' units."""
        if units:
            self._calculator(units[0][1]).seed(units, tables)

    def mobility_tables(
        self,
        content_key: str,
        distinct_graphs: Sequence[TaskGraph],
        device: DeviceModel,
    ) -> MobilityTables:
        device_key = _device_key(device)
        key = (content_key, device_key)
        if key in self._mobility:
            self.mobility_stats.hits += 1
            return self._mobility[key]
        self.mobility_stats.misses += 1
        if self.store is not None:
            # Disk entries key on the graph catalog, not the sequence:
            # every workload over the same applications shares them.
            catalog_key = graphs_content_key(distinct_graphs)
            disk_key = mobility_key(catalog_key, device)
            stored = self.store.load("mobility", disk_key, decode_mobility_tables)
            if stored is not None:
                self.mobility_stats.disk_hits += 1
                self._mobility[key] = stored
                return stored
        tables = self._calculator(device).compute_tables(distinct_graphs)
        self._mobility[key] = tables
        if self.store is not None:
            meta = {
                "graphs": sorted(g.name for g in distinct_graphs),
                "device": device.fingerprint(),
            }
            self._store_put(
                "mobility",
                disk_key,
                encode_mobility_tables(disk_key, tables, meta=meta),
            )
        return tables

    def warm(
        self,
        workload: Workload,
        ru_counts: Sequence[int],
        reconfig_latencies: Optional[Sequence[int]] = None,
    ) -> None:
        """Precompute (or fault in) every persistent artifact for a
        workload sweep.

        Covers the compiled workload and the mobility tables of the
        workload's own device at each (RU count, latency) — a warm store
        then serves both from disk.  Resizing a heterogeneous floorplan to
        another RU count raises :class:`~repro.exceptions.DeviceError`.
        Zero-latency ideals are memory-only and cost about a store load
        to recompute, so there is nothing to warm.
        """
        content = workload_content_key(workload)
        self.compiled_workload(content, list(workload.apps))
        for n_rus in ru_counts:
            for latency in reconfig_latencies or (None,):
                self.mobility_tables(
                    content,
                    workload.distinct_graphs(),
                    _resize_device(workload.device, n_rus, latency),
                )


# ----------------------------------------------------------------------
# Event hooks
# ----------------------------------------------------------------------
# SweepCell lives in repro.backends.base now (backends consume it without
# importing the session) and is re-exported here for compatibility.


class SessionHooks:
    """Observer protocol for the run lifecycle (default: ignore).

    ``on_run_start`` fires before a cell executes and ``on_run_end`` after
    it produced its record.  During parallel sweeps the start/end pairs of
    different cells interleave and completion order is nondeterministic;
    ``on_sweep_progress`` counts completed cells monotonically either way.

    ``trace_sinks`` lets an observer attach
    :class:`~repro.sim.tracing.TraceSink` instances to a cell's event
    stream (return one fresh sink per call — a sink observes a single
    run).  Hook sinks are honoured on in-process runs only: during
    ``parallel > 1`` sweeps the cells execute in worker processes and
    sink objects cannot cross that boundary, so they are skipped there.
    """

    def on_run_start(self, cell: SweepCell) -> None:
        """A cell is about to execute."""

    def on_run_end(self, cell: SweepCell, record: PolicyRunRecord) -> None:
        """A cell finished and produced ``record``."""

    def on_sweep_progress(self, done: int, total: int) -> None:
        """``done`` of ``total`` sweep cells have completed."""

    def trace_sinks(self, cell: SweepCell) -> Iterable[TraceSink]:
        """Extra trace sinks to attach to this cell's event stream."""
        return ()


@dataclass(frozen=True)
class GridCellRecord:
    """One cartesian-grid measurement (adds the latency axis to a record)."""

    spec_label: str
    n_rus: int
    reconfig_latency: int
    record: PolicyRunRecord


@dataclass(frozen=True)
class DeviceCellRecord:
    """One device-sweep measurement: a spec on one explicit hardware model."""

    spec_label: str
    device_label: str
    device: DeviceModel
    record: PolicyRunRecord


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class Session:
    """Runs policy specs against one workload on one device family.

    Parameters
    ----------
    device:
        The hardware: a :class:`~repro.hw.model.DeviceModel` (slots,
        per-configuration latencies, reconfiguration controllers; the
        paper's device is ``DeviceModel.homogeneous(n_rus, 4000)``).
        Defaults to the workload's own device
        (:attr:`~repro.workloads.sequence.Workload.device`).
    workload:
        A :class:`Workload`, or the name of a registered scenario
        (resolved through :func:`repro.workloads.scenarios.make_scenario`;
        extra ``scenario_kwargs`` are forwarded to the factory).
    hooks:
        Iterable of :class:`SessionHooks` observers.
    cache:
        A shared :class:`ArtifactCache`; by default each session owns one.
    store:
        A persistent :class:`~repro.artifacts.store.ArtifactStore` (or a
        directory path for one): the session's cache gains a disk tier so
        design-time artifacts survive the process and are shared with
        concurrent workers.  Mutually exclusive with ``cache`` — pass a
        preconfigured ``ArtifactCache(store=...)`` to combine both.
    backend:
        How batches execute: ``None`` (auto — inline for ``parallel=1``,
        a reusable process pool otherwise, the historical behaviour), a
        backend name (``"inline"``, ``"process-pool"``,
        ``"work-stealing"``; the latter requires an artifact store — its
        workers coordinate through it and ``repro worker --store DIR``
        daemons on other hosts join in), or an
        :class:`~repro.backends.base.ExecutorBackend` instance (used but
        not owned: the caller closes it).  Backends the session resolves
        from a name are owned and released by :meth:`close`.
    trace:
        Default trace mode for :meth:`run` only: ``"full"`` (classic
        record lists, the default), ``"aggregate"`` (O(1) counters — use
        this for very long workloads), or a JSONL output path (events
        streamed to disk, aggregate counters in memory).  Batches
        (``sweep``/``device_sweep``/``grid``) keep only summary records,
        so they always run on the aggregate sink; a JSONL path is valid
        for a single-cell batch only.

    Warm batches reuse memoized cell records: the simulator is
    deterministic, so a cell this session's cache has already finished —
    same workload content, policy spec and hardware — is served from
    memory instead of re-simulated.  Per-cell hooks still fire, and cells
    observed by hook trace sinks always re-execute (the sinks need the
    event stream).  :meth:`forget_records` drops the memo.
    """

    def __init__(
        self,
        device: Optional[DeviceModel] = None,
        workload: Union[Workload, str, None] = None,
        *,
        hooks: Iterable[SessionHooks] = (),
        cache: Optional[ArtifactCache] = None,
        store: Union[ArtifactStore, str, Path, None] = None,
        backend: Union[str, ExecutorBackend, None] = None,
        trace: TraceMode = "full",
        **scenario_kwargs,
    ) -> None:
        if workload is None:
            raise ExperimentError("Session requires a workload (object or scenario name)")
        if isinstance(workload, str):
            from repro.workloads.scenarios import make_scenario

            workload = make_scenario(workload, **scenario_kwargs)
        elif scenario_kwargs:
            raise ExperimentError(
                "scenario keyword arguments are only valid when the workload "
                "is given as a scenario name"
            )
        self.workload = workload
        self.device: DeviceModel = workload.device if device is None else device
        if store is not None and cache is not None:
            raise ExperimentError(
                "pass either cache= or store=, not both (use "
                "ArtifactCache(store=...) to share a cache with a disk tier)"
            )
        if store is not None and not isinstance(store, ArtifactStore):
            store = ArtifactStore(store)
        self.cache = cache or ArtifactCache(store=store)
        self.hooks: Tuple[SessionHooks, ...] = tuple(hooks)
        self.trace_mode: TraceMode = trace
        self._apps: Tuple[TaskGraph, ...] = tuple(workload.apps)
        self._content_key = workload_content_key(workload)
        self._compiled_obj: Optional[CompiledWorkload] = None
        # Backend resolution is lazy (a process pool only spins up when a
        # parallel batch actually runs) but name validation is eager so a
        # typo — or work-stealing without a store — fails at construction.
        self._backend_spec: Union[str, ExecutorBackend, None] = backend
        if isinstance(backend, str):
            from repro.backends import BACKEND_NAMES

            name = backend.strip().lower()
            name = "process-pool" if name == "process" else name
            if name not in BACKEND_NAMES:
                raise ExperimentError(
                    f"unknown backend {backend!r} "
                    f"(choose from {', '.join(BACKEND_NAMES)})"
                )
            if name == "work-stealing" and self.cache.store is None:
                raise ExperimentError(
                    "backend='work-stealing' needs an artifact store "
                    "(Session(store=...) — workers coordinate through it)"
                )
            self._backend_spec = name
        # Name-resolved backends are session-owned (released by close());
        # an ExecutorBackend instance is the caller's to close.  Guarded
        # by a lock: a daemon shutdown path may close() the session from
        # another thread while a sweep is in flight.
        self._owned_backends: Dict[str, ExecutorBackend] = {}
        self._backend_lock = threading.Lock()

    # -- lifecycle ------------------------------------------------------
    def compiled(self) -> CompiledWorkload:
        """This workload's :class:`CompiledWorkload` (cached, store-backed)."""
        if self._compiled_obj is None:
            self._compiled_obj = self.cache.compiled_workload(
                self._content_key, self._apps
            )
        return self._compiled_obj

    def close(self) -> None:
        """Release the session-owned backends (idempotent, thread-safe).

        Sessions are usable without ever calling this — owned backends
        also shut down when the session is garbage-collected or the
        process exits — but long-lived programs that are done sweeping
        should release the workers eagerly.  ``with Session(...) as s:``
        does it automatically.  A backend *instance* passed to the
        constructor is not owned and stays open for its owner.

        Safe to call any number of times, from any thread, including
        concurrently with an in-flight parallel sweep (the daemon
        shutdown path): cells already submitted run to completion and the
        sweep either finishes normally or raises a clean
        :class:`ExperimentError` — never a deadlock or an interpreter
        ``RuntimeError``.
        """
        with self._backend_lock:
            owned, self._owned_backends = self._owned_backends, {}
        for backend in owned.values():
            backend.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter-shutdown order varies
        try:
            self.close()
        except Exception:
            pass

    def _backend_for(self, parallel: int) -> ExecutorBackend:
        """The backend this batch runs on.

        ``None`` auto-selects by parallelism (inline vs process pool —
        the historical behaviour); a name resolves once and the instance
        is cached on the session, so the process pool persists across
        consecutive sweeps exactly as before.
        """
        spec = self._backend_spec
        if isinstance(spec, ExecutorBackend):
            return spec
        name = spec if spec is not None else (
            "inline" if parallel <= 1 else "process-pool"
        )
        with self._backend_lock:
            backend = self._owned_backends.get(name)
            if backend is None:
                from repro.backends import resolve_backend

                backend = resolve_backend(
                    name, parallel=parallel, store=self.cache.store
                )
                self._owned_backends[name] = backend
        return backend

    @property
    def _pool(self) -> Optional[ProcessPoolExecutor]:
        """The live process-pool executor, if any (legacy test seam)."""
        backend = self._owned_backends.get("process-pool")
        if backend is None and isinstance(self._backend_spec, ProcessPoolBackend):
            backend = self._backend_spec
        return backend.pool if isinstance(backend, ProcessPoolBackend) else None

    # -- hook fan-out ---------------------------------------------------
    def _emit(self, method: str, *args) -> None:
        for hook in self.hooks:
            getattr(hook, method)(*args)

    def _hook_sinks(self, cell: SweepCell) -> Tuple[TraceSink, ...]:
        return tuple(
            sink for hook in self.hooks for sink in hook.trace_sinks(cell)
        )

    def _batch_trace(self, trace: Optional[TraceMode], n_cells: int) -> TraceMode:
        """Resolve a batch's trace mode; JSONL paths are per-run only.

        Cells keep only their summary record, which the aggregate sink
        yields byte-identically, so ``"full"`` runs as ``"aggregate"``.
        """
        mode = self.trace_mode if trace is None else trace
        if mode == "full":
            return "aggregate"
        if mode != "aggregate" and n_cells > 1:
            raise ExperimentError(
                f"trace={mode!r}: a JSONL trace path is only supported for "
                "single runs (a sweep would overwrite it once per cell); "
                "use Session.run per cell, or trace='aggregate'"
            )
        return mode

    def _resolve_device(
        self,
        n_rus: Optional[int] = None,
        reconfig_latency: Optional[int] = None,
        device: Optional[DeviceModel] = None,
    ) -> DeviceModel:
        """The device one run or cell uses: ``device`` (default: the
        session's) resized to ``n_rus`` / re-latencied to a fixed
        ``reconfig_latency`` where given.  Resizing a heterogeneous
        floorplan by RU count raises
        (:meth:`~repro.hw.model.DeviceModel.with_n_rus`); sweep over
        explicit models with :meth:`device_sweep` instead.
        """
        return _resize_device(
            self.device if device is None else device, n_rus, reconfig_latency
        )

    # -- design-time artifacts ------------------------------------------
    def ideal_makespan_us(
        self,
        n_rus: Optional[int] = None,
        arrival_times: Optional[Sequence[int]] = None,
        semantics: ManagerSemantics = ManagerSemantics(),
        device: Optional[DeviceModel] = None,
    ) -> int:
        """Zero-latency ideal for this workload on the resolved device
        (see :meth:`run` for ``n_rus``/``device``), honouring the
        measured run's arrival times (idle waiting for a late
        application is not reconfiguration overhead)."""
        return self.cache.ideal_makespan_us(
            self._content_key,
            self._apps,
            self._resolve_device(n_rus, device=device),
            arrival_times=arrival_times,
            semantics=semantics,
            compiled=self.compiled(),
        )

    def mobility_tables(
        self,
        n_rus: Optional[int] = None,
        reconfig_latency: Optional[int] = None,
        device: Optional[DeviceModel] = None,
    ) -> MobilityTables:
        """Cached design-time mobility tables for this workload's graphs
        on the resolved device (see :meth:`run`)."""
        return self.cache.mobility_tables(
            self._content_key,
            self.workload.distinct_graphs(),
            self._resolve_device(n_rus, reconfig_latency, device),
        )

    def _cell_artifacts(
        self, cell: SweepCell, arrival_times: Optional[Sequence[int]] = None
    ):
        mobility = (
            self.mobility_tables(device=cell.device)
            if cell.spec.skip_events
            else None
        )
        ideal = self.ideal_makespan_us(
            arrival_times=arrival_times,
            semantics=cell.spec.make_semantics(),
            device=cell.device,
        )
        return mobility, ideal

    # -- cell construction ----------------------------------------------
    def _sweep_cells(
        self, specs: Sequence[PolicySpec], ru_counts: Optional[Sequence[int]]
    ) -> List[SweepCell]:
        if not specs:
            raise ExperimentError("sweep requires at least one PolicySpec")
        ru_counts = tuple(ru_counts) if ru_counts is not None else (self.device.n_rus,)
        return [
            SweepCell(spec, device=device)
            for device in [self._resolve_device(n) for n in ru_counts]
            for spec in specs
        ]

    def _grid_cells(
        self,
        specs: Sequence[PolicySpec],
        ru_counts: Optional[Sequence[int]],
        reconfig_latencies: Optional[Sequence[int]],
    ) -> List[SweepCell]:
        if not specs:
            raise ExperimentError("grid requires at least one PolicySpec")
        ru_counts = tuple(ru_counts) if ru_counts is not None else (self.device.n_rus,)
        latencies = (
            tuple(reconfig_latencies)
            if reconfig_latencies is not None
            else (self.device.reconfig_latency,)
        )
        return [
            SweepCell(spec, device=device)
            for device in [
                self._resolve_device(n, lat) for lat in latencies for n in ru_counts
            ]
            for spec in specs
        ]

    # -- single runs ----------------------------------------------------
    def run(
        self,
        spec: PolicySpec,
        n_rus: Optional[int] = None,
        reconfig_latency: Optional[int] = None,
        arrival_times: Optional[Sequence[int]] = None,
        trace: Optional[TraceMode] = None,
        device: Optional[DeviceModel] = None,
        checkpoint_every: int = 0,
        checkpoint_key: Optional[str] = None,
    ) -> SimulationResult:
        """Execute one spec; returns the full :class:`SimulationResult`.

        The run uses ``device`` (default: the session's), resized to
        ``n_rus`` and re-latencied to a fixed ``reconfig_latency`` where
        given — for this run only.  With
        ``arrival_times`` the zero-latency ideal is computed under the
        same arrivals (idle waiting must not be misread as
        reconfiguration overhead) and cached per arrival pattern —
        repeated runs over the same arrivals, and any attached artifact
        store, reuse it.  ``trace`` overrides the session's trace mode
        for this run; observers registered through ``hooks`` may attach
        extra sinks via :meth:`SessionHooks.trace_sinks`.

        ``checkpoint_every=N`` makes the run crash-safe: a resumable
        engine snapshot is written to the session's artifact store every
        N events (requires a ``store=``), and a re-invocation of the same
        run after a crash resumes from it — see docs/resilience.md.  The
        checkpoint key defaults to a deterministic digest of the
        workload, spec label and device fingerprint; pass
        ``checkpoint_key`` to override (e.g. to isolate two concurrent
        identical runs).
        """
        cell = SweepCell(
            spec, device=self._resolve_device(n_rus, reconfig_latency, device)
        )
        checkpoint_store = None
        if checkpoint_every:
            from repro.resilience.checkpoint import run_checkpoint_key

            checkpoint_store = self.cache.store
            if checkpoint_store is None:
                raise ExperimentError(
                    "checkpoint_every requires an artifact store; construct "
                    "the Session with store=ArtifactStore(...)"
                )
            if checkpoint_key is None:
                checkpoint_key = run_checkpoint_key(
                    self._content_key, spec.label, cell.device
                )
        self._emit("on_run_start", cell)
        mobility, ideal = self._cell_artifacts(cell, arrival_times=arrival_times)
        result = run_simulation(
            self._apps,
            advisor=spec.make_advisor(),
            semantics=spec.make_semantics(),
            mobility_tables=mobility,
            arrival_times=arrival_times,
            ideal_makespan_us=ideal,
            trace=self.trace_mode if trace is None else trace,
            extra_sinks=self._hook_sinks(cell),
            compiled=self.compiled(),
            checkpoint_every=checkpoint_every,
            checkpoint_store=checkpoint_store,
            checkpoint_key=checkpoint_key if checkpoint_every else None,
            device=cell.device,
        )
        self._emit(
            "on_run_end", cell, PolicyRunRecord.from_result(spec.label, cell.n_rus, result)
        )
        return result

    def record(self, spec: PolicySpec, n_rus: Optional[int] = None) -> PolicyRunRecord:
        """Like :meth:`run` but returns the flat summary record."""
        result = self.run(spec, n_rus=n_rus)
        return PolicyRunRecord.from_result(spec.label, n_rus or self.device.n_rus, result)

    # -- batches --------------------------------------------------------
    def sweep(
        self,
        specs: Sequence[PolicySpec],
        ru_counts: Optional[Sequence[int]] = None,
        title: str = "sweep",
        parallel: int = 1,
        trace: Optional[TraceMode] = None,
    ) -> SweepResult:
        """Run every ``(spec, n_rus)`` cell; returns a :class:`SweepResult`.

        Design-time artifacts are computed once per ``n_rus`` and shared
        by all cells (and shipped to workers when ``parallel > 1``); the
        per-graph mobility tables the caches miss are computed by the
        batch's backend — on the process pool when ``parallel > 1``.
        Results are deterministic and identical for any ``parallel``
        value; only wall-clock changes.  Every cell streams
        into the O(1) aggregate sink (a sweep keeps only its records), so
        ``trace="full"`` is the same as ``"aggregate"``; a JSONL path is
        accepted for a single cell only.
        """
        ru_counts = tuple(ru_counts) if ru_counts is not None else (self.device.n_rus,)
        cells = self._sweep_cells(specs, ru_counts)
        sweep = SweepResult(title=title, ru_counts=ru_counts)
        for record in self._run_cells(cells, parallel, trace):
            sweep.add(record)
        return sweep

    def device_sweep(
        self,
        specs: Sequence[PolicySpec],
        devices: Sequence[DeviceModel],
        parallel: int = 1,
        trace: Optional[TraceMode] = None,
    ) -> List["DeviceCellRecord"]:
        """Run every ``(spec, device)`` cell over explicit hardware models.

        This is the heterogeneous-hardware counterpart of :meth:`sweep`:
        the x-axis is a list of :class:`~repro.hw.model.DeviceModel`
        values (different floorplans, latency models or controller
        counts) instead of an RU count.  Design-time artifacts are cached
        per device fingerprint, and ``parallel=N`` fans the cells out
        exactly like :meth:`sweep`.
        """
        if not specs:
            raise ExperimentError("device_sweep requires at least one PolicySpec")
        if not devices:
            raise ExperimentError("device_sweep requires at least one device")
        cells = [SweepCell(spec, device=model) for model in devices for spec in specs]
        records = self._run_cells(cells, parallel, trace)
        return [
            DeviceCellRecord(
                spec_label=cell.spec.label,
                device_label=cell.device.label,
                device=cell.device,
                record=record,
            )
            for cell, record in zip(cells, records)
        ]

    def grid(
        self,
        specs: Sequence[PolicySpec],
        ru_counts: Optional[Sequence[int]] = None,
        reconfig_latencies: Optional[Sequence[int]] = None,
        parallel: int = 1,
        trace: Optional[TraceMode] = None,
    ) -> List[GridCellRecord]:
        """Cartesian product over specs x RU counts x latencies."""
        cells = self._grid_cells(specs, ru_counts, reconfig_latencies)
        records = self._run_cells(cells, parallel, trace)
        return [
            GridCellRecord(
                spec_label=cell.spec.label,
                n_rus=cell.n_rus,
                reconfig_latency=cell.reconfig_latency,
                record=record,
            )
            for cell, record in zip(cells, records)
        ]

    # -- planning -------------------------------------------------------
    def plan(
        self,
        specs: Sequence[PolicySpec],
        ru_counts: Optional[Sequence[int]] = None,
        reconfig_latencies: Optional[Sequence[int]] = None,
    ) -> ExperimentPlan:
        """The explicit task DAG :meth:`sweep` (or :meth:`grid`, when
        ``reconfig_latencies`` is given) would execute.

        One ``compile`` root, one node per *distinct* design-time
        artifact (mobility tables, ideal makespans — shared nodes
        deduplicated by the same coordinates the artifact cache keys on),
        one node per cell, one ``reduce`` sink.  Purely declarative:
        nothing executes, nothing is cached.
        """
        if reconfig_latencies is not None:
            cells = self._grid_cells(specs, ru_counts, reconfig_latencies)
        else:
            cells = self._sweep_cells(specs, ru_counts)
        return build_plan(cells)

    def _execute_plan(
        self,
        plan: ExperimentPlan,
        backend: Optional[ExecutorBackend] = None,
        parallel: int = 1,
    ) -> List[Tuple[Optional[MobilityTables], int]]:
        """Run the design-time phase of a plan through the artifact cache.

        Nodes execute in topological order — each *distinct* artifact
        exactly once, the dedup structural rather than a cache side
        effect — and the result is the per-cell ``(mobility, ideal)``
        pairs a :class:`CellBatch` carries.  With a ``backend``, the
        per-graph mobility tables every mobility node misses (memory and
        disk tiers) are first computed by
        :meth:`ExecutorBackend.compute_mobility` and seeded into the
        cache's calculator memo; the nodes then assemble and publish
        their tables from it as usual.
        """
        # Each artifact node serves >= 1 cells with identical coordinates;
        # any one of them can stand in when calling the cache.
        representative: Dict[str, SweepCell] = {}
        for i in range(len(plan.cells)):
            for dep in plan.cell_node(i).deps:
                representative.setdefault(dep, plan.cells[i])
        if backend is not None:
            graphs = self.workload.distinct_graphs()
            units = self.cache.missing_mobility_units(
                self._content_key,
                graphs,
                [
                    representative[node.key].device
                    for node in plan.nodes.values()
                    if node.kind == "mobility"
                ],
            )
            if units:
                self.cache.seed_mobility(
                    units,
                    backend.compute_mobility(
                        units,
                        workload=self.workload,
                        content_key=self._content_key,
                        compiled=self.compiled(),
                        parallel=parallel,
                        n_cells=len(plan.cells),
                    ),
                )
        mobility_for: Dict[str, MobilityTables] = {}
        ideal_for: Dict[str, int] = {}
        for node in plan.topological_order():
            if node.kind == "compile":
                self.compiled()
            elif node.kind == "mobility":
                cell = representative[node.key]
                mobility_for[node.key] = self.mobility_tables(device=cell.device)
            elif node.kind == "ideal":
                cell = representative[node.key]
                ideal_for[node.key] = self.ideal_makespan_us(
                    semantics=cell.spec.make_semantics(), device=cell.device
                )
        artifacts: List[Tuple[Optional[MobilityTables], int]] = []
        for i in range(len(plan.cells)):
            mobility: Optional[MobilityTables] = None
            ideal: Optional[int] = None
            for dep in plan.cell_node(i).deps:
                if dep in mobility_for:
                    mobility = mobility_for[dep]
                elif dep in ideal_for:
                    ideal = ideal_for[dep]
            if ideal is None:  # pragma: no cover - build_plan guarantees it
                raise ExperimentError(f"plan cell {i} has no ideal node")
            artifacts.append((mobility, ideal))
        return artifacts

    # -- execution ------------------------------------------------------
    def forget_records(self) -> None:
        """Drop the cache's memoized run records (forces re-simulation).

        The memo lives on the session's :class:`ArtifactCache`, so a
        shared cache forgets for every session using it.
        """
        self.cache.forget_records()

    def _record_key(self, cell: SweepCell) -> Tuple:
        """Memo key for one cell's summary record.

        The record is a pure function of the workload content, the spec
        and the device fingerprint (a device's display name does not
        matter); equal specs pickle identically (frozen dataclasses of
        plain values), and a spurious byte difference only costs a cache
        miss, never a wrong record.
        """
        import pickle

        return (
            self._content_key,
            _device_key(cell.device),
            pickle.dumps(cell.spec, protocol=4),
        )

    def _run_cells(
        self,
        cells: List[SweepCell],
        parallel: int,
        trace: Optional[TraceMode] = None,
    ) -> List[PolicyRunRecord]:
        if parallel < 1:
            raise ExperimentError(f"parallel must be >= 1, got {parallel}")
        cells = list(cells)
        trace_mode = self._batch_trace(trace, len(cells))
        total = len(cells)
        # Warm-session record reuse: deterministic sim means a cell the
        # cache already finished (same content/spec/hardware) is served
        # from memory.  A JSONL trace path is side-effecting (it writes a
        # file), so only aggregate batches are memoizable; cells a hook
        # wants to observe through trace sinks re-execute.
        reusable = trace_mode == "aggregate"
        # trace_sinks is called exactly once per cell per sweep (hooks may
        # allocate a sink per call), and a sinked cell always re-executes.
        cell_sinks: List[Tuple[TraceSink, ...]] = [
            self._hook_sinks(cell) if self.hooks else () for cell in cells
        ]
        records: List[Optional[PolicyRunRecord]] = [None] * total
        keys: List[Optional[Tuple]] = [None] * total
        pending: List[int] = []
        for i, cell in enumerate(cells):
            if not reusable:
                pending.append(i)
                continue
            keys[i] = self._record_key(cell)
            hit = self.cache.run_record(keys[i])
            if hit is not None and not cell_sinks[i]:
                records[i] = hit
            else:
                pending.append(i)
        # Replay the per-cell lifecycle for reused cells up front — the
        # hook contract (start/end pair per cell, monotone progress) is
        # identical whether a record was simulated or served warm.
        done = 0
        for i in range(total):
            if records[i] is None:
                continue
            self._emit("on_run_start", cells[i])
            self._emit("on_run_end", cells[i], records[i])
            done += 1
            self._emit("on_sweep_progress", done, total)
        if not pending:
            return list(records)  # type: ignore[arg-type]
        sub_cells = [cells[i] for i in pending]
        # The design phase resolves through the parent's cache (the
        # backend computes only the per-graph tables it misses); the
        # cells then replay the run-time phase on the backend.
        backend = self._backend_for(parallel)
        artifacts = self._execute_plan(build_plan(sub_cells), backend, parallel)
        base_done = done
        batch = CellBatch(
            workload=self.workload,
            content_key=self._content_key,
            compiled=self.compiled(),
            cells=sub_cells,
            artifacts=artifacts,
            trace_mode=trace_mode,
            parallel=parallel,
            started=lambda j: self._emit("on_run_start", sub_cells[j]),
            finished=lambda j, record: self._emit(
                "on_run_end", sub_cells[j], record
            ),
            progressed=lambda d, _t: self._emit(
                "on_sweep_progress", base_done + d, total
            ),
            sinks_for=lambda j: cell_sinks[pending[j]],
        )
        fresh = backend.run_cells(batch)
        for j, i in enumerate(pending):
            records[i] = fresh[j]
            if keys[i] is not None:
                self.cache.store_run_record(keys[i], fresh[j])
        return list(records)  # type: ignore[arg-type]

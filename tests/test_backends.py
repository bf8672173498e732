"""Cross-backend conformance, fault-injection and plan property tests.

Every :class:`~repro.backends.base.ExecutorBackend` implementation must
satisfy the same observable contract (see ``docs/backends.md``):

1. records come back in cell order and are byte-identical to the serial
   reference path;
2. the started/finished/progressed callbacks fire per cell, progress
   monotonically;
3. ``close()`` is idempotent and the backend works as a context manager;
4. a failed batch leaves the backend reusable — the next sweep runs.

The work-stealing backend additionally gets fault injection (a worker
that claims a cell and dies, a corrupt queue entry) and the plan/queue
layers get hypothesis property tests: any k-worker partition of a sweep
produces exactly the ``parallel=1`` records, and a topological order of
an experiment plan never schedules a cell before its predecessors.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import random
import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.artifacts.schema import decode_task
from repro.artifacts.store import ArtifactStore
from repro.backends import (
    BACKEND_NAMES,
    CellQueue,
    ExecutorBackend,
    InlineBackend,
    ProcessPoolBackend,
    SweepCell,
    WorkStealingBackend,
    active_sweeps,
    build_plan,
    resolve_backend,
    run_worker,
)
from repro.core.policy_spec import lfd_spec, local_lfd_spec, lru_spec
from repro.exceptions import ExperimentError
from repro.hw.model import DeviceModel
from repro.session import Session
from repro.workloads.scenarios import quick_workload

RU_SUBSET = (4, 6)
SPECS = [lru_spec(), local_lfd_spec(1, skip_events=True)]


@pytest.fixture(scope="module")
def workload():
    return quick_workload(length=20)


@pytest.fixture(scope="module")
def small_workload():
    return quick_workload(length=10)


def _record_blobs(records):
    """Canonical byte form of a record sequence, for identity asserts."""
    return [
        json.dumps(dataclasses.asdict(r), sort_keys=True) for r in records
    ]


@pytest.fixture(scope="module")
def serial_baseline(workload):
    """The reference records: default backend, parallel=1."""
    sweep = Session(workload=workload).sweep(SPECS, ru_counts=RU_SUBSET)
    return _record_blobs(sweep.records)


def _make_backend(name: str, tmp_path) -> ExecutorBackend:
    if name == "inline":
        return InlineBackend()
    if name == "process-pool":
        return ProcessPoolBackend(workers=2)
    assert name == "work-stealing"
    return WorkStealingBackend(
        ArtifactStore(tmp_path / "ws-store"),
        workers=2,
        lease_ttl=20.0,
        poll_s=0.02,
        timeout_s=300,
    )


# ----------------------------------------------------------------------
# The conformance suite: every backend, same contract
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", BACKEND_NAMES)
class TestBackendConformance:
    def test_records_byte_identical_to_serial(
        self, name, tmp_path, workload, serial_baseline
    ):
        with _make_backend(name, tmp_path) as backend:
            sweep = Session(workload=workload, backend=backend).sweep(
                SPECS, ru_counts=RU_SUBSET
            )
        assert _record_blobs(sweep.records) == serial_baseline

    def test_records_in_cell_order(self, name, tmp_path, workload):
        with _make_backend(name, tmp_path) as backend:
            sweep = Session(workload=workload, backend=backend).sweep(
                SPECS, ru_counts=RU_SUBSET
            )
        assert [(r.policy_label, r.n_rus) for r in sweep.records] == [
            (spec.label, n_rus) for n_rus in RU_SUBSET for spec in SPECS
        ]

    def test_callbacks_fire_per_cell(self, name, tmp_path, workload):
        from repro.session import SessionHooks

        class Recorder(SessionHooks):
            def __init__(self):
                self.started, self.ended, self.progress = [], [], []

            def on_run_start(self, cell):
                self.started.append(cell)

            def on_run_end(self, cell, record):
                self.ended.append((cell, record))

            def on_sweep_progress(self, done, total):
                self.progress.append((done, total))

        hooks = Recorder()
        with _make_backend(name, tmp_path) as backend:
            Session(workload=workload, hooks=(hooks,), backend=backend).sweep(
                SPECS, ru_counts=RU_SUBSET
            )
        n = len(SPECS) * len(RU_SUBSET)
        assert len(hooks.started) == len(hooks.ended) == n
        assert [p[0] for p in hooks.progress] == list(range(1, n + 1))
        assert all(total == n for _, total in hooks.progress)

    def test_close_idempotent_and_context_manager(self, name, tmp_path, workload):
        backend = _make_backend(name, tmp_path)
        with backend as entered:
            assert entered is backend
            Session(workload=workload, backend=backend).sweep(
                [lru_spec()], ru_counts=(4,)
            )
        backend.close()  # second close after __exit__: no-op
        backend.close()

    def test_reusable_across_sweeps(self, name, tmp_path, workload):
        with _make_backend(name, tmp_path) as backend:
            session = Session(workload=workload, backend=backend)
            first = session.sweep(SPECS, ru_counts=(4,))
            second = session.sweep(SPECS, ru_counts=(4,))
        assert _record_blobs(first.records) == _record_blobs(second.records)

    def test_reusable_after_failed_batch(self, name, tmp_path, workload):
        # Inline/pool re-raise the cell's original exception; the
        # work-stealing queue can only transport the message, so it
        # surfaces as ExperimentError.  Both carry the cell's reason.
        with _make_backend(name, tmp_path) as backend:
            session = Session(workload=workload, backend=backend)
            with pytest.raises(Exception, match="boom-policy"):
                session.sweep([_boom_spec()], ru_counts=(4,))
            sweep = session.sweep([lru_spec()], ru_counts=(4,))
        assert len(sweep.records) == 1


# ----------------------------------------------------------------------
# Backend selection
# ----------------------------------------------------------------------
class TestResolveBackend:
    def test_none_auto_selects_by_parallelism(self):
        assert isinstance(resolve_backend(None, parallel=1), InlineBackend)
        assert isinstance(resolve_backend(None, parallel=4), ProcessPoolBackend)

    def test_names_and_alias(self, tmp_path):
        assert isinstance(resolve_backend("inline"), InlineBackend)
        assert isinstance(resolve_backend("process-pool"), ProcessPoolBackend)
        assert isinstance(resolve_backend("process"), ProcessPoolBackend)
        store = ArtifactStore(tmp_path / "s")
        ws = resolve_backend("work-stealing", parallel=3, store=store)
        assert isinstance(ws, WorkStealingBackend)
        assert ws.workers == 3

    def test_instance_passes_through(self):
        backend = InlineBackend()
        assert resolve_backend(backend, parallel=8) is backend

    def test_unknown_name_rejected(self):
        with pytest.raises(ExperimentError, match="unknown backend"):
            resolve_backend("carrier-pigeon")

    def test_work_stealing_requires_store(self):
        with pytest.raises(ExperimentError, match="store"):
            resolve_backend("work-stealing")

    def test_session_validates_backend_eagerly(self, workload, tmp_path):
        with pytest.raises(ExperimentError, match="unknown backend"):
            Session(workload=workload, backend="carrier-pigeon")
        with pytest.raises(ExperimentError, match="store"):
            Session(workload=workload, backend="work-stealing")
        # With a store attached the same selection is accepted.
        Session(
            workload=workload, store=tmp_path / "s", backend="work-stealing"
        ).close()

    def test_session_process_alias(self, workload):
        session = Session(workload=workload, backend="process")
        try:
            sweep = session.sweep(SPECS, ru_counts=(4,), parallel=2)
            assert session._pool is not None
        finally:
            session.close()
        assert len(sweep.records) == len(SPECS)


# ----------------------------------------------------------------------
# The experiment plan
# ----------------------------------------------------------------------
SPEC_POOL = (
    lru_spec(),
    local_lfd_spec(1, skip_events=True),
    local_lfd_spec(2),
    lfd_spec(),
)


class TestExperimentPlan:
    def test_session_plan_shape(self, workload):
        plan = Session(workload=workload).plan(SPECS, ru_counts=RU_SUBSET)
        counts = plan.counts()
        assert counts["cell"] == len(SPECS) * len(RU_SUBSET)
        assert counts["compile"] == counts["reduce"] == 1
        # One mobility node per (n_rus, latency) among skip cells, one
        # ideal node per (n_rus, semantics projection): both SPECS
        # project to the same zero-latency schedule, so sharing is
        # structural — one ideal per RU count for the whole panel.
        assert counts["mobility"] == len(RU_SUBSET)
        assert counts["ideal"] == len(RU_SUBSET)

    def test_empty_batch_rejected(self):
        with pytest.raises(ExperimentError, match="at least one cell"):
            build_plan([])

    def test_missing_dep_rejected(self):
        from repro.backends.plan import ExperimentPlan, PlanNode

        nodes = [PlanNode(key="cell:0", kind="cell", deps=("compile",), index=0)]
        with pytest.raises(ExperimentError, match="missing"):
            ExperimentPlan(nodes, [])

    def test_cycle_rejected(self):
        from repro.backends.plan import ExperimentPlan, PlanNode

        nodes = [
            PlanNode(key="compile", kind="compile", deps=("reduce",)),
            PlanNode(key="reduce", kind="reduce", deps=("compile",)),
        ]
        with pytest.raises(ExperimentError, match="cycle"):
            ExperimentPlan(nodes, [])

    @given(
        picks=st.lists(st.integers(0, len(SPEC_POOL) - 1), min_size=1, max_size=5),
        rus=st.lists(st.integers(2, 10), min_size=1, max_size=3, unique=True),
        latencies=st.lists(
            st.integers(1_000, 8_000), min_size=1, max_size=2, unique=True
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_topological_order_respects_dependencies(self, picks, rus, latencies):
        """A cell is never scheduled before compile or its artifacts."""
        cells = [
            SweepCell(SPEC_POOL[p], n_rus, latency)
            for p in picks
            for n_rus in rus
            for latency in latencies
        ]
        plan = build_plan(cells)
        position = {node.key: i for i, node in enumerate(plan.topological_order())}
        assert len(position) == len(plan)
        for node in plan.nodes.values():
            for dep in node.deps:
                assert position[dep] < position[node.key]
        assert position["compile"] == 0
        assert position["reduce"] == len(plan) - 1
        # Dedup invariants: node counts match the distinct coordinates.
        skip_pairs = {
            (c.n_rus, c.reconfig_latency) for c in cells if c.spec.skip_events
        }
        assert len(plan.nodes_of_kind("mobility")) == len(skip_pairs)
        assert plan.counts()["cell"] == len(cells)


# ----------------------------------------------------------------------
# Work-stealing fault injection
# ----------------------------------------------------------------------
def _ws_session(workload, store, **kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("poll_s", 0.02)
    kwargs.setdefault("timeout_s", 300)
    backend = WorkStealingBackend(store, **kwargs)
    return Session(workload=workload, backend=backend)


def _claim_and_die(store_root: str, sweep_id: str, ttl: float) -> None:
    """Saboteur worker: claim one cell, then crash without completing it."""
    queue = CellQueue(ArtifactStore(store_root), sweep_id)
    queue.claim("saboteur", ttl, random.Random(0))
    os._exit(1)


class TestWorkStealingFaults:
    def test_crashed_worker_lease_reclaimed(self, small_workload, tmp_path):
        """A worker dying mid-cell loses its lease after the TTL and the
        sweep still completes: zero lost, zero duplicated cells."""
        store = ArtifactStore(tmp_path / "store")
        crashed = []

        def sabotage(queue):
            proc = multiprocessing.Process(
                target=_claim_and_die, args=(str(store.root), queue.sweep_id, 0.4)
            )
            proc.start()
            proc.join(30)
            crashed.append(proc.exitcode)

        baseline = Session(workload=small_workload).sweep(SPECS, ru_counts=(4,))
        session = _ws_session(
            small_workload, store, lease_ttl=0.4, on_published=sabotage
        )
        sweep = session.sweep(SPECS, ru_counts=(4,))
        assert crashed == [1]  # the saboteur really claimed and died
        assert _record_blobs(sweep.records) == _record_blobs(baseline.records)

    def test_corrupt_task_entry_is_republished(self, small_workload, tmp_path):
        """A torn task entry is evicted as a miss and the coordinator
        republishes it — the sweep completes, nothing crashes."""
        store = ArtifactStore(tmp_path / "store")
        corrupted = []

        def corrupt_first_task(queue):
            path = store._entry_path("task", queue.cell_key(0))
            path.write_text("{ this is not json")
            corrupted.append(str(path))

        baseline = Session(workload=small_workload).sweep(SPECS, ru_counts=(4,))
        session = _ws_session(small_workload, store, on_published=corrupt_first_task)
        sweep = session.sweep(SPECS, ru_counts=(4,))
        assert corrupted
        assert _record_blobs(sweep.records) == _record_blobs(baseline.records)

    def test_corrupt_entry_is_a_miss_not_a_crash(self, tmp_path):
        """Strict decode: garbage in the store is evicted, counted, gone."""
        store = ArtifactStore(tmp_path / "store")
        path = store._entry_path("task", "deadbeef")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("not json at all")
        assert store.load("task", "deadbeef", decode_task) is None
        assert store.stats.corrupt_evicted >= 1
        assert not path.exists()

    def test_queue_garbage_collected_after_sweep(self, small_workload, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        session = _ws_session(small_workload, store)
        session.sweep(SPECS, ru_counts=(4,))
        counts = store.entry_counts()
        assert counts["sweep"] == counts["task"] == 0
        assert counts["lease"] == counts["result"] == 0
        assert active_sweeps(store) == []

    def test_external_daemon_worker_serves_sweep(self, small_workload, tmp_path):
        """workers=0: the coordinator only publishes; a ``repro worker``
        style daemon discovers the sweep through the store and runs it."""
        store = ArtifactStore(tmp_path / "store")
        daemon = multiprocessing.Process(
            target=run_worker,
            args=(str(store.root),),
            kwargs={"max_idle_s": 30, "poll_s": 0.02},
            daemon=True,
        )
        daemon.start()
        try:
            baseline = Session(workload=small_workload).sweep(SPECS, ru_counts=(4,))
            session = _ws_session(small_workload, store, workers=0, timeout_s=120)
            sweep = session.sweep(SPECS, ru_counts=(4,))
            assert _record_blobs(sweep.records) == _record_blobs(baseline.records)
        finally:
            daemon.terminate()
            daemon.join(10)

    def test_run_worker_once_on_empty_store(self, tmp_path):
        stats = run_worker(ArtifactStore(tmp_path / "store"), once=True)
        assert stats == {"completed": 0, "failed": 0, "sweeps": 0}

    def test_cell_error_reaches_coordinator(self, small_workload, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        session = _ws_session(small_workload, store)
        with pytest.raises(ExperimentError, match="boom-policy"):
            session.sweep([_boom_spec()], ru_counts=(4,))
        # The failed sweep's queue entries were cleaned up on the way out.
        assert active_sweeps(store) == []


# ----------------------------------------------------------------------
# The partition property: any k-worker split equals parallel=1
# ----------------------------------------------------------------------
def _drain_interleaved(queue, k: int, seed: int) -> None:
    """Round-robin k in-process workers over the queue until it drains."""
    from repro.backends.worker import _SweepContext

    ctx = _SweepContext(queue.store, queue, queue.meta())
    rngs = [random.Random(seed * 31 + w) for w in range(k)]
    progressed = True
    while progressed and not queue.finished():
        progressed = False
        for w in range(k):
            task = queue.claim(f"partition-{w}", 60.0, rngs[w])
            if task is not None:
                ctx.execute(task, f"partition-{w}")
                progressed = True


class TestPartitionProperty:
    @given(k=st.integers(1, 4), seed=st.integers(0, 10_000))
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_any_partition_matches_serial(self, small_workload, k, seed):
        """However the cells are split across k workers (the split is
        driven by each worker's shuffled claim order), the collected
        records are exactly the ``parallel=1`` records."""
        baseline = Session(workload=small_workload).sweep(SPECS, ru_counts=(4,))
        tmp = tempfile.mkdtemp(prefix="repro-partition-")
        try:
            store = ArtifactStore(tmp)
            session = _ws_session(
                small_workload,
                store,
                workers=0,
                timeout_s=60,
                on_published=lambda q: _drain_interleaved(q, k, seed),
            )
            sweep = session.sweep(SPECS, ru_counts=(4,))
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        assert _record_blobs(sweep.records) == _record_blobs(baseline.records)


# ----------------------------------------------------------------------
# Failure-path helpers (module level: specs cross process boundaries)
# ----------------------------------------------------------------------
def _boom_factory():
    raise RuntimeError("boom-policy refused to construct")


def _boom_spec():
    from repro.core.policy_spec import PolicySpec

    return PolicySpec(label="boom", policy_factory=_boom_factory)


class TestPoolRegression:
    def test_pool_rebuilt_after_batch_failure(self, workload):
        """Session drops the pool when a parallel batch fails, and the
        next sweep transparently rebuilds it."""
        session = Session(workload=workload)
        try:
            session.sweep(SPECS, ru_counts=(4,), parallel=2)
            assert session._pool is not None
            with pytest.raises(RuntimeError, match="boom-policy"):
                session.sweep([_boom_spec()], ru_counts=(4, 6), parallel=2)
            assert session._pool is None  # broken pool was discarded
            # Forget memoized records so the next sweep actually needs a
            # pool (a warm session would serve the repeat from memory).
            session.forget_records()
            sweep = session.sweep(SPECS, ru_counts=(4,), parallel=2)
            assert session._pool is not None  # rebuilt on demand
            assert len(sweep.records) == len(SPECS)
        finally:
            session.close()


# ----------------------------------------------------------------------
# Design phase on the pool: missing mobility tables fan out to workers
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def catalog_workload():
    from repro.graphs.random_graphs import random_layered_graph
    from repro.workloads.sequence import Workload, random_sequence

    catalog = [random_layered_graph(f"C{i}", 3 + i % 4, seed=900 + i) for i in range(8)]
    return Workload(
        apps=tuple(random_sequence(catalog, 24, seed=5)),
        n_rus=4,
        reconfig_latency=4000,
        name="pool-design",
    )


DESIGN_RUS = (3, 4, 6)
DESIGN_LATENCIES = (2000, 8000)


def _grid(session, parallel):
    return session.grid(
        SPECS,
        ru_counts=DESIGN_RUS,
        reconfig_latencies=DESIGN_LATENCIES,
        parallel=parallel,
    )


def _all_tables(session):
    return {
        (n, lat): session.mobility_tables(n, lat)
        for n in DESIGN_RUS
        for lat in DESIGN_LATENCIES
    }


class TestPooledDesignPhase:
    def test_pool_computes_the_tables_serial_would(self, catalog_workload, monkeypatch):
        from repro.core.mobility import MobilityCalculator

        in_parent = []
        real = MobilityCalculator.compute

        def counting(self, graph):
            in_parent.append(graph.name)  # workers append to their own copy
            return real(self, graph)

        monkeypatch.setattr(MobilityCalculator, "compute", counting)
        with Session(workload=catalog_workload) as pooled:
            pooled_records = _grid(pooled, parallel=2)
            assert in_parent == []  # every table came from a worker
            pooled_tables = _all_tables(pooled)
            assert pooled.cache.mobility_stats.computations == len(pooled_tables)
        serial = Session(workload=catalog_workload)
        serial_records = _grid(serial, parallel=1)
        assert in_parent  # the parallel=1 batch computed in-process
        assert _all_tables(serial) == pooled_tables
        assert [r.record for r in serial_records] == [r.record for r in pooled_records]

    def test_disk_tables_are_not_recomputed_and_round_trip(
        self, catalog_workload, tmp_path, monkeypatch
    ):
        store = ArtifactStore(tmp_path / "store")
        with Session(workload=catalog_workload, store=store) as cold:
            _grid(cold, parallel=2)
            published = _all_tables(cold)
        asked = []
        real = ProcessPoolBackend.compute_mobility

        def spying(self, units, **kwargs):
            asked.append(len(units))
            return real(self, units, **kwargs)

        monkeypatch.setattr(ProcessPoolBackend, "compute_mobility", spying)
        with Session(workload=catalog_workload, store=store) as warm:
            _grid(warm, parallel=2)
            stats = warm.cache.mobility_stats
            assert stats.disk_hits == len(published)
            assert stats.computations == 0
            assert asked == []  # no unit missed both tiers
            assert _all_tables(warm) == published

    def test_worker_failure_raises_and_drops_the_pool(self, catalog_workload):
        """One RU cannot hold these graphs: the design phase fails on a
        worker.  The pool is dropped and the next grid succeeds."""
        session = Session(workload=catalog_workload)
        try:
            with pytest.raises(ExperimentError, match="design-time mobility phase"):
                session.grid(SPECS, ru_counts=(1, 4), parallel=2)
            assert session._pool is None
            records = _grid(session, parallel=2)
            assert session._pool is not None
            assert len(records) == len(SPECS) * len(DESIGN_RUS) * len(DESIGN_LATENCIES)
        finally:
            session.close()

    def test_inline_backends_compute_in_the_parent(self, catalog_workload):
        """The default ``compute_mobility`` (inline, work-stealing) runs
        in the calling process and matches the pool's tables."""
        from repro.core.mobility import MobilityCalculator, compute_table

        graphs = catalog_workload.distinct_graphs()
        device = DeviceModel.homogeneous(4, 4000)
        units = MobilityCalculator(device=device).missing_units(graphs)
        tables = InlineBackend().compute_mobility(
            units,
            workload=catalog_workload,
            content_key="k",
            compiled=None,
            parallel=1,
            n_cells=1,
        )
        assert tables == [compute_table(g, d) for g, d in units]
        assert {g.name: t for (g, _), t in zip(units, tables)} == (
            MobilityCalculator(device=device).compute_tables(graphs)
        )

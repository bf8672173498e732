"""In-process batched sweep execution: byte-identity for any batch size.

The ``batch_size`` knob is pure wall-clock tuning — one worker
submission (or queue lease) covers ``k`` cells sharing one
:class:`~repro.backends.batch.CellBatchRunner` — and must never change a
record.  This suite pins that:

* every backend (inline / process-pool / work-stealing) produces records
  byte-identical to the serial ``batch_size=1`` reference for any ``k``
  (including ``k`` > number of cells, and hypothesis-drawn ``k``);
* the per-cell callbacks still fire per cell, in order, under chunking;
* ``batch_size`` resolution and validation (Session, CellBatch, CLI
  plumbing) reject nonsense and default to 1;
* the work-stealing manifest carries the coordinator's ``batch_size``
  down to external workers, and ``claim_many`` leases whole chunks.
"""

from __future__ import annotations

import dataclasses
import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.artifacts.store import ArtifactStore
from repro.backends import (
    BACKEND_NAMES,
    CellBatchRunner,
    CellQueue,
    InlineBackend,
    ProcessPoolBackend,
    WorkStealingBackend,
    resolve_batch_size,
    run_worker,
)
from repro.backends.base import CellBatch
from repro.core.policy_spec import local_lfd_spec, lru_spec
from repro.exceptions import ExperimentError
from repro.hw import DeviceModel
from repro.session import Session, SessionHooks
from repro.workloads.compiled import CompiledWorkload
from repro.workloads.scenarios import quick_workload

RU_SUBSET = (4, 6)
SPECS = [lru_spec(), local_lfd_spec(1, skip_events=True)]


@pytest.fixture(scope="module")
def workload():
    return quick_workload(length=20)


def _record_blobs(records):
    return [json.dumps(dataclasses.asdict(r), sort_keys=True) for r in records]


@pytest.fixture(scope="module")
def serial_baseline(workload):
    """batch_size=1, parallel=1, inline: the reference byte stream."""
    sweep = Session(workload=workload).sweep(SPECS, ru_counts=RU_SUBSET)
    return _record_blobs(sweep.records)


def _make_backend(name, tmp_path):
    if name == "inline":
        return InlineBackend()
    if name == "process-pool":
        return ProcessPoolBackend(workers=2)
    assert name == "work-stealing"
    return WorkStealingBackend(
        ArtifactStore(tmp_path / "ws-store"),
        workers=2,
        lease_ttl=30.0,
        poll_s=0.02,
        timeout_s=300,
    )


# ----------------------------------------------------------------------
# Byte-identity across backends and batch sizes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", BACKEND_NAMES)
@pytest.mark.parametrize("batch_size", [2, 3, 64])
def test_batched_records_byte_identical(
    name, batch_size, tmp_path, workload, serial_baseline
):
    with _make_backend(name, tmp_path) as backend:
        sweep = Session(workload=workload, backend=backend).sweep(
            SPECS, ru_counts=RU_SUBSET, parallel=2, batch_size=batch_size
        )
    assert _record_blobs(sweep.records) == serial_baseline


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(batch_size=st.integers(min_value=1, max_value=16))
def test_property_pool_batch_size_is_behaviour_free(
    batch_size, workload, serial_baseline
):
    """Hypothesis: any k against the reusable pool backend."""
    with ProcessPoolBackend(workers=2) as backend:
        sweep = Session(workload=workload, backend=backend).sweep(
            SPECS, ru_counts=RU_SUBSET, parallel=2, batch_size=batch_size
        )
    assert _record_blobs(sweep.records) == serial_baseline


def test_session_default_batch_size_applies(workload, serial_baseline):
    """A Session-level batch_size is the sweep default; per-call overrides."""
    session = Session(workload=workload, backend=ProcessPoolBackend(workers=2),
                      batch_size=3)
    assert session.batch_size == 3
    sweep = session.sweep(SPECS, ru_counts=RU_SUBSET, parallel=2)
    assert _record_blobs(sweep.records) == serial_baseline
    override = session.sweep(SPECS, ru_counts=RU_SUBSET, parallel=2, batch_size=1)
    assert _record_blobs(override.records) == serial_baseline


class _CallbackLog(SessionHooks):
    def __init__(self):
        self.started = []
        self.finished = []
        self.progress = []

    def on_run_start(self, cell):
        self.started.append(cell.label)

    def on_run_end(self, cell, record):
        self.finished.append((cell.label, record.policy_label))

    def on_sweep_progress(self, done, total):
        self.progress.append((done, total))


@pytest.mark.parametrize("name", BACKEND_NAMES)
def test_callbacks_fire_per_cell_under_chunking(name, tmp_path, workload):
    hooks = _CallbackLog()
    with _make_backend(name, tmp_path) as backend:
        sweep = Session(workload=workload, backend=backend, hooks=(hooks,)).sweep(
            SPECS, ru_counts=RU_SUBSET, parallel=2, batch_size=3
        )
    n = len(sweep.records)
    assert len(hooks.started) == n
    assert len(hooks.finished) == n
    assert [done for done, _ in hooks.progress] == list(range(1, n + 1))
    assert all(total == n for _, total in hooks.progress)


# ----------------------------------------------------------------------
# Resolution and validation
# ----------------------------------------------------------------------
def test_resolve_batch_size():
    assert resolve_batch_size(None) == 1
    assert resolve_batch_size(None, default=4) == 4
    assert resolve_batch_size(7, default=4) == 7
    with pytest.raises(ExperimentError):
        resolve_batch_size(0)
    with pytest.raises(ExperimentError):
        resolve_batch_size(-3)


def test_cell_batch_rejects_bad_batch_size(workload):
    compiled = CompiledWorkload.compile(workload.apps)
    with pytest.raises(ValueError):
        CellBatch(
            workload=workload,
            content_key="k",
            compiled=compiled,
            cells=[],
            artifacts=[],
            batch_size=0,
        )


def test_session_rejects_bad_batch_size(workload):
    with pytest.raises(ExperimentError):
        Session(workload=workload, batch_size=0)
    session = Session(workload=workload)
    with pytest.raises(ExperimentError):
        session.sweep(SPECS, ru_counts=(4,), batch_size=-1)


# ----------------------------------------------------------------------
# CellBatchRunner: the shared warm context
# ----------------------------------------------------------------------
def test_runner_reuses_compiled_and_cache(workload):
    runner = CellBatchRunner(workload.apps)
    session = Session(workload=workload)
    cells = session._sweep_cells(SPECS, RU_SUBSET)
    artifacts = session._execute_plan(
        __import__("repro.backends.plan", fromlist=["build_plan"]).build_plan(cells)
    )
    seen = []
    records = runner.run_chunk(
        cells, artifacts, "full", on_record=lambda i, r: seen.append(i)
    )
    assert seen == list(range(len(cells)))
    reference = session.sweep(SPECS, ru_counts=RU_SUBSET).records
    assert _record_blobs(records) == _record_blobs(reference)


# ----------------------------------------------------------------------
# Warm-session record reuse
# ----------------------------------------------------------------------
class _CountingBackend(InlineBackend):
    """Inline execution that counts what the session actually submits."""

    def __init__(self):
        self.batches = 0
        self.cells_run = 0
        self.modes = []

    def run_cells(self, batch):
        self.batches += 1
        self.cells_run += len(batch.cells)
        self.modes.append(batch.trace_mode)
        return super().run_cells(batch)


def test_warm_sweep_served_from_record_memo(workload, serial_baseline):
    backend = _CountingBackend()
    session = Session(workload=workload, backend=backend)
    first = session.sweep(SPECS, ru_counts=RU_SUBSET)
    warm = session.sweep(SPECS, ru_counts=RU_SUBSET)
    assert backend.batches == 1  # second sweep never reached the backend
    assert backend.cells_run == len(first.records)
    assert session.cache.record_stats.hits == len(first.records)
    assert _record_blobs(warm.records) == serial_baseline


def test_batches_run_on_the_aggregate_sink(workload):
    """``"full"`` — the session default or passed in — never reaches a
    batch, and one memo entry per cell serves every trace mode."""
    spy = _CountingBackend()
    session = Session(workload=workload, trace="full", backend=spy)
    first = session.sweep(SPECS, ru_counts=RU_SUBSET)
    session.grid(SPECS, ru_counts=(4,), reconfig_latencies=(2000,), trace="full")
    session.device_sweep(SPECS, [DeviceModel.homogeneous(5, 4000, n_controllers=2)])
    assert spy.modes == ["aggregate"] * 3
    cells_run, hits = spy.cells_run, session.cache.record_stats.hits
    again = session.sweep(SPECS, ru_counts=RU_SUBSET, trace="aggregate")
    assert spy.cells_run == cells_run and spy.batches == 3
    assert session.cache.record_stats.hits == hits + len(first.records)
    assert _record_blobs(again.records) == _record_blobs(first.records)


def test_partial_overlap_only_runs_new_cells(workload):
    backend = _CountingBackend()
    session = Session(workload=workload, backend=backend)
    session.sweep(SPECS, ru_counts=(4,))
    grown = session.sweep(SPECS, ru_counts=(4, 6))
    # Only the n_rus=6 cells were new; the 4-RU records came from memory.
    assert backend.cells_run == 2 * len(SPECS)
    baseline = Session(workload=workload).sweep(SPECS, ru_counts=(4, 6))
    assert _record_blobs(grown.records) == _record_blobs(baseline.records)


def test_record_reuse_off_re_executes(workload):
    backend = _CountingBackend()
    session = Session(workload=workload, backend=backend, record_reuse=False)
    for _ in range(2):
        session.sweep(SPECS, ru_counts=RU_SUBSET)
    assert backend.cells_run == 2 * len(SPECS) * len(RU_SUBSET)


def test_forget_records_forces_resimulation(workload):
    backend = _CountingBackend()
    session = Session(workload=workload, backend=backend)
    session.sweep(SPECS, ru_counts=RU_SUBSET)
    session.forget_records()
    session.sweep(SPECS, ru_counts=RU_SUBSET)
    assert backend.cells_run == 2 * len(SPECS) * len(RU_SUBSET)


def test_hooks_fire_per_cell_on_reused_records(workload):
    hooks = _CallbackLog()
    session = Session(workload=workload, hooks=(hooks,))
    n = len(session.sweep(SPECS, ru_counts=RU_SUBSET).records)
    hooks.started.clear(), hooks.finished.clear(), hooks.progress.clear()
    session.sweep(SPECS, ru_counts=RU_SUBSET)  # fully memoized
    assert len(hooks.started) == len(hooks.finished) == n
    assert hooks.progress == [(i, n) for i in range(1, n + 1)]


def test_hook_trace_sinks_bypass_record_memo(workload):
    """A hook that wants the event stream forces re-execution."""
    from repro.sim.tracing import TraceSink

    class _Counter(TraceSink):
        def __init__(self):
            self.events = 0

        def on_event(self, event):
            self.events += 1

    class _SinkHooks(SessionHooks):
        def __init__(self):
            self.sinks = []

        def trace_sinks(self, cell):
            sink = _Counter()
            self.sinks.append(sink)
            return (sink,)

    observer = _SinkHooks()
    session = Session(workload=workload, hooks=(observer,))
    session.sweep(SPECS, ru_counts=RU_SUBSET)
    observer.sinks.clear()
    session.sweep(SPECS, ru_counts=RU_SUBSET)
    assert observer.sinks  # cells re-ran for the sinks on the warm sweep
    assert all(s.events > 0 for s in observer.sinks)


# ----------------------------------------------------------------------
# Work-stealing plumbing: manifest batch_size, chunked leases
# ----------------------------------------------------------------------
def test_manifest_carries_batch_size(workload, tmp_path):
    store = ArtifactStore(tmp_path / "store")
    captured = {}

    def grab(queue):
        captured["meta"] = queue.meta()

    backend = WorkStealingBackend(
        store, workers=1, poll_s=0.02, timeout_s=300, on_published=grab
    )
    with backend:
        Session(workload=workload, backend=backend).sweep(
            [lru_spec()], ru_counts=(4,), batch_size=5
        )
    assert captured["meta"]["batch_size"] == 5


def test_old_manifest_without_batch_size_defaults_to_one(workload, tmp_path):
    """Workers tolerate pre-batching manifests (missing key -> 1)."""
    from repro.backends.worker import _SweepContext
    from repro.backends.queue import workload_to_payload

    store = ArtifactStore(tmp_path / "store")
    queue = CellQueue(store, "sweep-x", n_cells=0)
    meta = {"n_cells": 0, "workload": workload_to_payload(workload)}
    ctx = _SweepContext(store, queue, meta)
    assert ctx.batch_size == 1
    ctx_bad = _SweepContext(
        store, queue, dict(meta, batch_size="nonsense")
    )
    assert ctx_bad.batch_size == 1


def test_claim_many_leases_whole_chunks(workload, tmp_path):
    store = ArtifactStore(tmp_path / "store")
    published = {}

    def hold(queue):
        published["queue"] = queue
        # Lease a whole chunk before any worker runs: all three cells
        # leave the claimable pool in one scan.
        tasks = queue.claim_many("probe", ttl_s=60.0, limit=3,
                                 rng=random.Random(0))
        published["leased"] = sorted(t["index"] for t in tasks)
        assert queue.claim_many("late", ttl_s=60.0, limit=3,
                                rng=random.Random(1)) == []
        # Release so the sweep can finish.
        for t in tasks:
            queue.store.remove("lease", queue.cell_key(t["index"]))

    backend = WorkStealingBackend(
        store, workers=1, poll_s=0.02, timeout_s=300, on_published=hold
    )
    with backend:
        sweep = Session(workload=workload, backend=backend).sweep(
            [lru_spec()], ru_counts=(4, 5, 6), batch_size=3
        )
    assert published["leased"] == [0, 1, 2]
    assert len(sweep.records) == 3


def test_external_worker_honours_manifest_batch_size(workload, tmp_path):
    """run_worker with batch_size=None chunks by the published manifest."""
    store = ArtifactStore(tmp_path / "store")
    session = Session(workload=workload)
    cells = session._sweep_cells([lru_spec()], (4, 5))
    from repro.backends.plan import build_plan
    from repro.backends.queue import pack_obj
    from repro.backends.stealing import sweep_queue_id

    artifacts = session._execute_plan(build_plan(cells))
    tasks = [
        {
            "index": i,
            "spec_b64": pack_obj(cell.spec),
            "device_b64": pack_obj(cell.device),
            "mobility": mobility,
            "ideal_us": ideal,
            "trace": "full",
        }
        for i, (cell, (mobility, ideal)) in enumerate(zip(cells, artifacts))
    ]
    sweep_id = sweep_queue_id("content", len(tasks), nonce="t")
    queue = CellQueue(store, sweep_id, n_cells=len(tasks))
    queue.publish(session.workload, tasks, "full", batch_size=2)
    stats = run_worker(store, sweep_id, worker_id="w0", once=True, seed=0)
    assert stats == {"completed": 2, "failed": 0, "sweeps": 1}
    assert queue.finished()

"""Batched sweep execution: one cell per submission, warm records.

A distributing backend ships exactly one cell per pool submission or
queue lease, each run on a warm
:class:`~repro.backends.batch.CellBatchRunner`.  This suite pins that:

* every backend (inline / process-pool / work-stealing) produces records
  byte-identical to the serial reference for any batch length,
  including batches with more cells than workers;
* the per-cell callbacks fire once per cell, in order;
* ``CellBatch.batch_size`` is a read-only 1 and the removed
  ``batch_size`` knob is rejected loudly;
* a current worker serves a manifest written by an older coordinator
  that still carried a ``batch_size`` entry;
* warm sessions serve memoized records instead of re-simulating.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.artifacts.schema import encode_sweep_meta
from repro.artifacts.store import ArtifactStore
from repro.backends import (
    BACKEND_NAMES,
    CellBatchRunner,
    CellQueue,
    InlineBackend,
    ProcessPoolBackend,
    WorkStealingBackend,
    run_worker,
)
from repro.backends.base import CellBatch
from repro.core.policy_spec import local_lfd_spec, lru_spec
from repro.exceptions import ExperimentError
from repro.hw import DeviceModel
from repro.metrics.summary import PolicyRunRecord
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
    """parallel=1, inline: the reference byte stream."""
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
# Byte-identity across backends and batch lengths
# ----------------------------------------------------------------------
def _latencies(n_cells):
    """A one-spec, one-RU-count grid axis with ``n_cells`` cells."""
    return tuple(1000 * (k + 1) for k in range(n_cells))


@pytest.mark.parametrize("name", BACKEND_NAMES)
@pytest.mark.parametrize("n_cells", [2, 3, 64])
def test_batched_records_byte_identical(name, n_cells, tmp_path, workload):
    """One cell per submission, whatever the batch length: fewer cells
    than workers (the pool shrinks to fit) and many more than workers."""
    axes = dict(ru_counts=(4,), reconfig_latencies=_latencies(n_cells))
    reference = Session(workload=workload).grid([lru_spec()], **axes)
    with _make_backend(name, tmp_path) as backend:
        records = Session(workload=workload, backend=backend).grid(
            [lru_spec()], parallel=3, **axes
        )
    assert len(records) == n_cells
    assert _record_blobs(r.record for r in records) == _record_blobs(
        r.record for r in reference
    )


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
            SPECS, ru_counts=RU_SUBSET, parallel=2
        )
    n = len(sweep.records)
    assert len(hooks.started) == n
    assert len(hooks.finished) == n
    assert [done for done, _ in hooks.progress] == list(range(1, n + 1))
    assert all(total == n for _, total in hooks.progress)


# ----------------------------------------------------------------------
# The removed batch_size knob
# ----------------------------------------------------------------------
def test_cell_batch_rejects_bad_batch_size(workload):
    """``CellBatch.batch_size`` is always 1 and cannot be set."""
    compiled = CompiledWorkload.compile(workload.apps)
    fields = dict(
        workload=workload, content_key="k", compiled=compiled, cells=[], artifacts=[]
    )
    with pytest.raises(TypeError):
        CellBatch(batch_size=2, **fields)
    batch = CellBatch(**fields)
    assert batch.batch_size == 1
    with pytest.raises(AttributeError):
        batch.batch_size = 2


def test_session_rejects_bad_batch_size(workload):
    """Old callers passing ``batch_size`` fail loudly, never silently."""
    with pytest.raises(ExperimentError):
        Session(workload=workload, batch_size=0)
    session = Session(workload=workload)
    with pytest.raises(TypeError):
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
    records = runner.run_chunk(cells, artifacts, "full")
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
# Work-stealing plumbing: manifests from older coordinators
# Work-stealing plumbing: manifest batch_size, chunked leases
# ----------------------------------------------------------------------
def test_worker_serves_old_manifest_with_batch_size(workload, tmp_path):
    """An older coordinator's manifest still carries ``batch_size: 5``;
    a current worker ignores it and serves the sweep to completion."""
    from repro.backends.plan import build_plan
    from repro.backends.queue import pack_obj
    from repro.backends.stealing import sweep_queue_id

    store = ArtifactStore(tmp_path / "store")
    session = Session(workload=workload)
    cells = session._sweep_cells([lru_spec()], (4, 5, 6))
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
    queue.publish(session.workload, tasks, "full")
    meta = dict(queue.meta(), batch_size=5)
    store.put("sweep", sweep_id, encode_sweep_meta(sweep_id, meta))
    assert queue.meta()["batch_size"] == 5
    stats = run_worker(store, sweep_id, worker_id="w0", once=True, seed=0)
    assert stats == {"completed": 3, "failed": 0, "sweeps": 1}
    assert queue.finished()
    served = [PolicyRunRecord(**queue.result(i)["record"]) for i in range(3)]
    assert _record_blobs(served) == _record_blobs(session.sweep(
        [lru_spec()], ru_counts=(4, 5, 6)
    ).records)

"""Checkpoint/resume of a running :class:`ExecutionManager`.

A checkpoint is a consistent snapshot of the engine taken *between*
events (the manager fires its checkpoint hook only at the bottom of the
event loop): the columnar :class:`~repro.sim.columns.EngineState`, the
event queue, the RU state machines, the advisor, the dispatch/window
cursors and the trace-sink counters.  Restoring the snapshot into a
freshly-constructed manager for the same workload/device/policy and
running it produces an event-for-event byte-identical trace to the
uninterrupted run — pinned by ``tests/test_resilience.py``.

Format: a versioned ``checkpoint`` artifact (see
:mod:`repro.artifacts.schema`) whose payload carries a plain-JSON
*fingerprint* (workload/device shape, validated before any unpickling)
plus the engine snapshot as one base64 pickle.  One pickle, on purpose:
the manager's correctness depends on *object identity* between the heap
payload of an in-flight event and the ``RU.pending``/executing instance
it refers to (``_handle_end_of_execution`` hard-fails on a mismatch),
and a single pickle's memo table preserves exactly that sharing.

Sinks are snapshotted with one exception: a
:class:`~repro.sim.tracing.JsonlTraceWriter` wraps a live file handle,
so only its ``n_events`` counter is captured.  A resumed path-mode run
therefore appends post-resume events to a *fresh* file; concatenating
the pre-crash file truncated to ``n_events`` lines with the resumed file
reproduces the uninterrupted capture byte-for-byte (docs/resilience.md).

Corruption anywhere — truncated JSON, a garbled pickle, a fingerprint
from a different workload — surfaces as
:class:`~repro.artifacts.store.ArtifactDecodeError` or
:class:`CheckpointError`; the store path treats both as evict-as-miss
and falls back to a fresh run.
"""

from __future__ import annotations

import base64
import hashlib
import json
import pickle
from typing import Dict, Optional

from repro.exceptions import SimulationError
from repro.sim.tracing import JsonlTraceWriter

#: Bump when the snapshot layout changes; old checkpoints then decode as
#: misses and the run restarts from scratch instead of mis-restoring.
CHECKPOINT_VERSION = 1

#: EngineState columns captured verbatim (order is part of the format).
_COLUMNS = (
    "remaining",
    "unfinished",
    "skipped",
    "loc",
    "win_counts",
    "ru_cid",
    "ru_app",
    "ru_flat",
)


class CheckpointError(SimulationError):
    """A checkpoint cannot be restored into this manager."""


def _pack(obj) -> str:
    return base64.b64encode(pickle.dumps(obj)).decode("ascii")


def _unpack(blob: str):
    try:
        return pickle.loads(base64.b64decode(blob.encode("ascii")))
    except Exception as exc:
        raise CheckpointError(f"cannot unpickle checkpoint state: {exc}") from exc


def run_checkpoint_key(content_key: str, label: str, device) -> str:
    """Deterministic checkpoint key for one (workload, policy, device) run.

    The same run invoked again maps to the same key, which is what makes
    ``repro run --checkpoint`` resume automatically after a crash.  The
    whole :class:`~repro.hw.model.DeviceModel` fingerprint (floorplan,
    latency model, controllers) is part of the key.
    """
    payload = json.dumps(
        [str(content_key), str(label), device.fingerprint()], sort_keys=True
    )
    return "run-" + hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


def _fingerprint(manager) -> Dict[str, object]:
    compiled = manager.compiled
    return {
        "n_apps": int(compiled.n_apps),
        "n_tasks": int(compiled.n_tasks),
        "n_configs": int(compiled.n_configs),
        # Normalised through JSON so it compares equal to a decoded one.
        "device": json.loads(json.dumps(manager.device.fingerprint())),
        "graph_names": [capp.name for capp in compiled.graphs],
        "app_graph": [int(g) for g in compiled.app_graph],
    }


def capture_checkpoint(manager) -> Dict[str, object]:
    """Snapshot a manager between events into a checkpoint payload.

    Only call from the manager's checkpoint hook (or with the manager
    not running): mid-handler state is not a consistent cut.
    """
    state = manager.state
    snapshot = {
        "columns": {name: list(getattr(state, name)) for name in _COLUMNS},
        "apps_left": state.apps_left,
        "clock": manager.clock,
        "queue": manager.queue,
        "rus": list(manager.rus),
        "advisor": manager.advisor,
        "dispatch": (
            manager._dispatch_app,
            manager._dispatch_pos,
            manager._current_app,
        ),
        "head": (manager._head_da, manager._head_dp, manager._head_obj),
        "free_controllers": list(manager._free_controllers),
        "free_rus": list(manager._free_rus),
        "ready": list(manager._ready),
        "parked": {app: list(rus) for app, rus in manager._parked.items()},
        "busy_cfgs": set(manager._busy_cfgs),
        "forced_delays": dict(manager._forced_delays),
        "window": (manager._win_add, manager._win_rem, manager._win_end_app),
        "events_done": manager._events_done,
        "sinks": [
            ("jsonl", sink.n_events)
            if isinstance(sink, JsonlTraceWriter)
            else ("sink", sink)
            for sink in manager._sinks
        ],
    }
    return {
        "version": CHECKPOINT_VERSION,
        "fingerprint": _fingerprint(manager),
        "clock": int(manager.clock),
        "events_done": int(manager._events_done),
        "apps_left": int(state.apps_left),
        "engine_b64": _pack(snapshot),
    }


def restore_checkpoint(manager, payload: Dict[str, object]) -> None:
    """Restore a captured payload into a freshly-constructed manager.

    The manager must have been built with the same workload, device,
    policy spec and trace configuration as the checkpointed run —
    validated via the fingerprint and the sink shape before any state is
    touched.  Raises :class:`CheckpointError` on any mismatch or
    corruption; the manager is left unmodified in that case.
    """
    if payload.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {payload.get('version')!r} != {CHECKPOINT_VERSION}"
        )
    expected = _fingerprint(manager)
    if payload.get("fingerprint") != expected:
        raise CheckpointError(
            "checkpoint fingerprint does not match this run's workload/device"
        )
    snapshot = _unpack(payload["engine_b64"])

    sink_tags = snapshot["sinks"]
    if len(sink_tags) != len(manager._sinks):
        raise CheckpointError(
            f"checkpoint has {len(sink_tags)} trace sinks, this run has "
            f"{len(manager._sinks)}; resume with the same trace configuration"
        )
    for (tag, value), sink in zip(sink_tags, manager._sinks):
        if (tag == "jsonl") != isinstance(sink, JsonlTraceWriter):
            raise CheckpointError(
                "checkpoint trace-sink layout does not match this run"
            )

    state = manager.state
    columns = snapshot["columns"]
    for name in _COLUMNS:
        # In place: the manager's hot-loop aliases (and the Dynamic-List
        # window view over ``win_counts``) point at these exact lists.
        getattr(state, name)[:] = columns[name]
    state.apps_left = snapshot["apps_left"]

    manager.clock = snapshot["clock"]
    manager.queue = snapshot["queue"]
    manager._push = manager.queue.push
    manager.rus[:] = snapshot["rus"]
    manager.advisor = snapshot["advisor"]
    manager._bind_advisor()

    (
        manager._dispatch_app,
        manager._dispatch_pos,
        manager._current_app,
    ) = snapshot["dispatch"]
    manager._head_da, manager._head_dp, manager._head_obj = snapshot["head"]
    manager._free_controllers[:] = snapshot["free_controllers"]
    manager._free_rus[:] = snapshot["free_rus"]
    manager._ready[:] = snapshot["ready"]
    manager._parked.clear()
    manager._parked.update(snapshot["parked"])
    # In place: the scratch decision context aliases this set.
    manager._busy_cfgs.clear()
    manager._busy_cfgs.update(snapshot["busy_cfgs"])
    manager._forced_delays.clear()
    manager._forced_delays.update(snapshot["forced_delays"])
    manager._win_add, manager._win_rem, manager._win_end_app = snapshot["window"]

    primary_index = next(
        i for i, sink in enumerate(manager._sinks) if sink is manager._trace_primary
    )
    restored_sinks = []
    for (tag, value), sink in zip(sink_tags, manager._sinks):
        if tag == "jsonl":
            sink.n_events = value
            restored_sinks.append(sink)
        else:
            restored_sinks.append(value)
    manager._sinks = tuple(restored_sinks)
    manager._trace_primary = manager._sinks[primary_index]
    manager._bind_sinks()

    manager._events_done = snapshot["events_done"]
    manager._started = True


def arm_checkpointing(manager, every: int, store, key: str) -> None:
    """Write a ``checkpoint`` artifact to ``store`` every ``every`` events."""
    from repro.artifacts.schema import encode_checkpoint

    if every < 1:
        raise SimulationError(f"checkpoint_every must be >= 1, got {every}")

    def write(mgr) -> None:
        store.put("checkpoint", key, encode_checkpoint(key, capture_checkpoint(mgr)))

    manager.set_cut_hook(write, int(every))


def resume_from_store(manager, store, key: str) -> bool:
    """Restore the manager from ``store`` if a usable checkpoint exists.

    Returns True when resumed.  A corrupt or mismatched checkpoint is
    evicted and the run falls back to a fresh start — crash-safety must
    never make a run *less* likely to complete.
    """
    from repro.artifacts.schema import decode_checkpoint

    payload = store.load("checkpoint", key, decode_checkpoint)
    if payload is None:
        return False
    try:
        restore_checkpoint(manager, payload)
    except CheckpointError:
        store.evict("checkpoint", key)
        return False
    return True

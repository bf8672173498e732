"""Checkpoint/resume of a running :class:`ExecutionManager`.

A checkpoint is :meth:`ExecutionManager.snapshot` pickled, taken
*between* events (the manager fires its checkpoint hook only at the
bottom of the event loop), plus a plain-JSON *fingerprint* of the run
it belongs to.  ``snapshot()``/``restore()`` are the one capture of
engine run state, so this module holds no field list and writes no
manager attribute.  Restoring into a freshly-constructed manager for the
same run and running it produces an event-for-event byte-identical
trace to the uninterrupted run — pinned by ``tests/test_resilience.py``.

Format: a versioned ``checkpoint`` artifact (see
:mod:`repro.artifacts.schema`) whose payload carries the fingerprint
(workload and device shape, arrival times, manager semantics, advisor
and policy classes — validated before any unpickling) plus the snapshot
tuple as one base64 pickle.  One pickle, on purpose: the manager's
correctness depends on *object identity* between the heap payload of an
in-flight event and the ``RU.pending``/head instance it refers to
(``_handle_end_of_execution`` hard-fails on a mismatch), and a single
pickle's memo table preserves exactly that sharing.

A :class:`~repro.sim.tracing.JsonlTraceWriter` wraps a live file handle,
so its snapshot is only its ``n_events`` counter.  A resumed path-mode
run therefore appends post-resume events to a *fresh* file;
concatenating the pre-crash file truncated to ``n_events`` lines with
the resumed file reproduces the uninterrupted capture byte-for-byte
(docs/resilience.md).

Corruption anywhere — truncated JSON, a garbled pickle, a fingerprint
from a different run, another trace-sink layout — surfaces as
:class:`~repro.artifacts.store.ArtifactDecodeError` or
:class:`CheckpointError`; the store path treats both as evict-as-miss
and falls back to a fresh run.
"""

from __future__ import annotations

import base64
import hashlib
import json
import pickle
from dataclasses import fields
from typing import Dict, Optional

from repro.exceptions import SimulationError

#: Bump when the snapshot layout changes; old checkpoints then decode as
#: misses and the run restarts from scratch instead of mis-restoring.
CHECKPOINT_VERSION = 2


class CheckpointError(SimulationError):
    """A checkpoint cannot be restored into this manager."""


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
    latency model, controllers) is part of the key; what else tells two
    runs apart (arrival times, semantics) is in the fingerprint, so a
    checkpoint of another run under the same key is evicted as a miss.
    """
    payload = json.dumps(
        [str(content_key), str(label), device.fingerprint()], sort_keys=True
    )
    return "run-" + hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


def _class_name(obj) -> str:
    cls = type(obj)
    return f"{cls.__module__}.{cls.__qualname__}"


def _fingerprint(manager) -> Dict[str, object]:
    compiled = manager.compiled
    semantics = manager.semantics
    advisor = manager.advisor
    policy = getattr(advisor, "policy", None)
    arrivals = json.dumps(manager._arrivals, default=int)
    return {
        "n_apps": int(compiled.n_apps),
        "n_tasks": int(compiled.n_tasks),
        "n_configs": int(compiled.n_configs),
        # Normalised through JSON so it compares equal to a decoded one.
        "device": json.loads(json.dumps(manager.device.fingerprint())),
        "graph_names": [capp.name for capp in compiled.graphs],
        "app_graph": [int(g) for g in compiled.app_graph],
        "arrivals": hashlib.sha256(arrivals.encode("ascii")).hexdigest(),
        "semantics": {
            f.name: repr(getattr(semantics, f.name)) for f in fields(semantics)
        },
        "advisor": _class_name(advisor),
        "policy": None if policy is None else _class_name(policy),
    }


def capture_checkpoint(
    manager, fingerprint: Optional[Dict[str, object]] = None
) -> Dict[str, object]:
    """Snapshot a manager between events into a checkpoint payload.

    Only call from the manager's checkpoint hook (or with the manager
    not running): mid-handler state is not a consistent cut.  The
    fingerprint is constant for a run, so a caller capturing the same
    run repeatedly may pass it in.
    """
    return {
        "version": CHECKPOINT_VERSION,
        "fingerprint": fingerprint or _fingerprint(manager),
        "clock": int(manager.clock),
        "events_done": int(manager._events_done),
        "apps_left": int(manager.state.apps_left),
        "engine_b64": base64.b64encode(pickle.dumps(manager.snapshot())).decode(
            "ascii"
        ),
    }


def restore_checkpoint(manager, payload: Dict[str, object]) -> None:
    """Restore a captured payload into a freshly-constructed manager.

    The manager must have been built for the same run — workload,
    device, arrivals, semantics, advisor/policy and trace-sink layout —
    which is validated before any state is touched.  Raises
    :class:`CheckpointError` on any mismatch or corruption; the manager
    is left unmodified in that case.
    """
    if payload.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {payload.get('version')!r} != {CHECKPOINT_VERSION}"
        )
    if payload.get("fingerprint") != _fingerprint(manager):
        raise CheckpointError(
            "checkpoint fingerprint does not match this run's workload/device, "
            "arrivals, semantics or policy"
        )
    snapshot = _unpack(payload["engine_b64"])
    try:
        manager.restore(snapshot)
    except SimulationError as exc:
        raise CheckpointError(f"cannot restore checkpoint: {exc}") from exc


def arm_checkpointing(manager, every: int, store, key: str) -> None:
    """Write a ``checkpoint`` artifact to ``store`` every ``every`` events."""
    from repro.artifacts.schema import encode_checkpoint

    if every < 1:
        raise SimulationError(f"checkpoint_every must be >= 1, got {every}")

    fingerprint = _fingerprint(manager)

    def write(mgr) -> None:
        payload = capture_checkpoint(mgr, fingerprint)
        store.put("checkpoint", key, encode_checkpoint(key, payload))

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

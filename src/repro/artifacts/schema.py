"""Versioned JSON envelope for on-disk artifact entries.

Every entry is one JSON object::

    {
      "schema": 1,
      "kind": "mobility" | "compiled" | ...,
      "key": "<sha256 the entry is stored under>",
      "meta": {...},         # human-readable provenance, never read back
      "payload": {...}       # the artifact itself
    }

Decoding is strict: a wrong schema version, a kind mismatch or a
malformed payload raises :class:`ArtifactDecodeError`, which the store
treats as a cache miss (and evicts the entry) rather than an error — a
corrupted or stale file must never poison an experiment.

Mobility tables need real (de)serialization because JSON object keys are
strings while the in-memory tables are ``graph name -> node id (int) ->
mobility (int)``.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

from repro.exceptions import ReproError

#: Bump to invalidate every existing on-disk entry (layout dir also moves).
SCHEMA_VERSION = 1


class ArtifactDecodeError(ReproError):
    """An on-disk entry could not be decoded (corrupt, stale, foreign)."""


def _envelope(kind: str, key: str, payload: Any, meta: Optional[Mapping] = None) -> Dict:
    return {
        "schema": SCHEMA_VERSION,
        "kind": kind,
        "key": key,
        "meta": dict(meta or {}),
        "payload": payload,
    }


def _open_envelope(kind: str, key: str, entry: Any) -> Any:
    if not isinstance(entry, dict):
        raise ArtifactDecodeError(f"artifact entry is not an object: {type(entry)}")
    if entry.get("schema") != SCHEMA_VERSION:
        raise ArtifactDecodeError(
            f"unsupported artifact schema {entry.get('schema')!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    if entry.get("kind") != kind:
        raise ArtifactDecodeError(
            f"artifact kind mismatch: stored {entry.get('kind')!r}, wanted {kind!r}"
        )
    if entry.get("key") != key:
        raise ArtifactDecodeError(
            f"artifact key mismatch: stored under {key}, claims {entry.get('key')!r}"
        )
    if "payload" not in entry:
        raise ArtifactDecodeError("artifact entry has no payload")
    return entry["payload"]


# ----------------------------------------------------------------------
# Mobility tables: graph name -> node id (int) -> mobility (int)
# ----------------------------------------------------------------------
def encode_mobility_tables(
    key: str, tables: Mapping[str, Mapping[int, int]], meta: Optional[Mapping] = None
) -> Dict:
    payload = {
        name: {str(node): int(mob) for node, mob in table.items()}
        for name, table in tables.items()
    }
    return _envelope("mobility", key, payload, meta)


def decode_mobility_tables(key: str, entry: Any) -> Dict[str, Dict[int, int]]:
    payload = _open_envelope("mobility", key, entry)
    if not isinstance(payload, dict):
        raise ArtifactDecodeError("mobility payload is not an object")
    try:
        return {
            str(name): {int(node): int(mob) for node, mob in table.items()}
            for name, table in payload.items()
        }
    except (AttributeError, TypeError, ValueError) as exc:
        raise ArtifactDecodeError(f"malformed mobility payload: {exc}") from exc


# ----------------------------------------------------------------------
# Compiled workloads: the run-independent pre-processing
# ----------------------------------------------------------------------
def encode_compiled(key: str, compiled, meta: Optional[Mapping] = None) -> Dict:
    """Envelope for a :class:`~repro.workloads.compiled.CompiledWorkload`."""
    return _envelope("compiled", key, compiled.to_payload(), meta)


def decode_compiled(key: str, entry: Any):
    from repro.workloads.compiled import CompiledWorkload

    payload = _open_envelope("compiled", key, entry)
    if not isinstance(payload, dict):
        raise ArtifactDecodeError("compiled payload is not an object")
    try:
        return CompiledWorkload.from_payload(payload)
    except Exception as exc:  # WorkloadError and malformed-structure errors
        raise ArtifactDecodeError(f"malformed compiled payload: {exc}") from exc


# ----------------------------------------------------------------------
# Work-stealing sweep queue entries (see repro.backends.queue)
# ----------------------------------------------------------------------
def _mobility_tables_payload(tables: Optional[Mapping]) -> Optional[Dict]:
    if tables is None:
        return None
    return {
        name: {str(node): int(mob) for node, mob in table.items()}
        for name, table in tables.items()
    }


def _mobility_tables_from_payload(payload: Any) -> Optional[Dict[str, Dict[int, int]]]:
    if payload is None:
        return None
    try:
        return {
            str(name): {int(node): int(mob) for node, mob in table.items()}
            for name, table in payload.items()
        }
    except (AttributeError, TypeError, ValueError) as exc:
        raise ArtifactDecodeError(f"malformed mobility payload: {exc}") from exc


def encode_sweep_meta(key: str, payload: Mapping, meta: Optional[Mapping] = None) -> Dict:
    """Envelope for one sweep's queue manifest (kind ``"sweep"``).

    The payload carries the serialized workload (graphs + sequence +
    scalars), the cell count and the trace mode — everything a worker on
    another host needs beyond the per-cell task entries.
    """
    return _envelope("sweep", key, dict(payload), meta)


def decode_sweep_meta(key: str, entry: Any) -> Dict:
    payload = _open_envelope("sweep", key, entry)
    if not isinstance(payload, dict):
        raise ArtifactDecodeError("sweep payload is not an object")
    try:
        n_cells = int(payload["n_cells"])
        workload = payload["workload"]
        if n_cells < 1 or not isinstance(workload, dict):
            raise ValueError("bad n_cells/workload")
        for field in ("graphs", "sequence", "n_rus", "reconfig_latency"):
            if field not in workload:
                raise ValueError(f"workload payload missing {field!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactDecodeError(f"malformed sweep payload: {exc}") from exc
    return payload


def encode_task(key: str, payload: Mapping, meta: Optional[Mapping] = None) -> Dict:
    """Envelope for one queued sweep cell (kind ``"task"``).

    ``payload["mobility"]`` uses the same string-keyed table layout as
    the ``mobility`` artifact kind; ``spec_b64``/``device_b64`` carry the
    pickled :class:`~repro.core.policy_spec.PolicySpec` / device model
    (specs are picklable by contract — they already cross process
    boundaries in pool sweeps).
    """
    payload = dict(payload)
    payload["mobility"] = _mobility_tables_payload(payload.get("mobility"))
    return _envelope("task", key, payload, meta)


def decode_task(key: str, entry: Any) -> Dict:
    payload = _open_envelope("task", key, entry)
    if not isinstance(payload, dict):
        raise ArtifactDecodeError("task payload is not an object")
    try:
        out = {
            "index": int(payload["index"]),
            "spec_b64": str(payload["spec_b64"]),
            "device_b64": payload["device_b64"],
            "ideal_us": int(payload["ideal_us"]),
            "trace": str(payload.get("trace", "aggregate")),
            "mobility": _mobility_tables_from_payload(payload.get("mobility")),
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactDecodeError(f"malformed task payload: {exc}") from exc
    if not isinstance(out["device_b64"], str):
        raise ArtifactDecodeError("task device_b64 is not a string")
    return out


def encode_cell_result(key: str, payload: Mapping, meta: Optional[Mapping] = None) -> Dict:
    """Envelope for one completed (or failed) cell (kind ``"result"``)."""
    return _envelope("result", key, dict(payload), meta)


def decode_cell_result(key: str, entry: Any) -> Dict:
    payload = _open_envelope("result", key, entry)
    if not isinstance(payload, dict):
        raise ArtifactDecodeError("result payload is not an object")
    try:
        index = int(payload["index"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactDecodeError(f"malformed result payload: {exc}") from exc
    record, error = payload.get("record"), payload.get("error")
    if error is not None:
        if not isinstance(error, str):
            raise ArtifactDecodeError("result error is not a string")
    elif not isinstance(record, dict):
        raise ArtifactDecodeError("result has neither a record nor an error")
    return {
        "index": index,
        "record": record,
        "error": error,
        "worker": payload.get("worker"),
    }


def encode_lease(key: str, payload: Mapping, meta: Optional[Mapping] = None) -> Dict:
    """Envelope for one cell lease (kind ``"lease"``)."""
    return _envelope("lease", key, dict(payload), meta)


def decode_lease(key: str, entry: Any) -> Dict:
    payload = _open_envelope("lease", key, entry)
    if not isinstance(payload, dict):
        raise ArtifactDecodeError("lease payload is not an object")
    try:
        acquired = float(payload["acquired"])
        ttl_s = float(payload["ttl_s"])
        return {
            "worker": str(payload["worker"]),
            "acquired": acquired,
            "ttl_s": ttl_s,
            # Absolute expiry, recorded at claim time.  Leases from
            # before the defensive-expiry change carry no ``expires``;
            # deriving it here keeps them reclaimable.
            "expires": float(payload.get("expires", acquired + ttl_s)),
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactDecodeError(f"malformed lease payload: {exc}") from exc


# ----------------------------------------------------------------------
# Engine checkpoints (see repro.resilience.checkpoint for the format)
# ----------------------------------------------------------------------
def encode_checkpoint(key: str, payload: Mapping, meta: Optional[Mapping] = None) -> Dict:
    """Envelope for one engine checkpoint (kind ``"checkpoint"``)."""
    return _envelope("checkpoint", key, dict(payload), meta)


def decode_checkpoint(key: str, entry: Any) -> Dict:
    """Structural validation only; the pickled engine snapshot inside
    ``engine_b64`` is opened (and further validated) by
    :func:`repro.resilience.checkpoint.restore_checkpoint`."""
    payload = _open_envelope("checkpoint", key, entry)
    if not isinstance(payload, dict):
        raise ArtifactDecodeError("checkpoint payload is not an object")
    try:
        out = {
            "version": int(payload["version"]),
            "fingerprint": payload["fingerprint"],
            "clock": int(payload["clock"]),
            "events_done": int(payload["events_done"]),
            "apps_left": int(payload["apps_left"]),
            "engine_b64": payload["engine_b64"],
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactDecodeError(f"malformed checkpoint payload: {exc}") from exc
    if not isinstance(out["fingerprint"], dict):
        raise ArtifactDecodeError("checkpoint fingerprint is not an object")
    if not isinstance(out["engine_b64"], str):
        raise ArtifactDecodeError("checkpoint engine state is not a string")
    return out


# ----------------------------------------------------------------------
# Worker heartbeats: liveness beacons published through the store
# ----------------------------------------------------------------------
def encode_heartbeat(key: str, payload: Mapping, meta: Optional[Mapping] = None) -> Dict:
    """Envelope for one worker heartbeat (kind ``"heartbeat"``)."""
    return _envelope("heartbeat", key, dict(payload), meta)


def decode_heartbeat(key: str, entry: Any) -> Dict:
    payload = _open_envelope("heartbeat", key, entry)
    if not isinstance(payload, dict):
        raise ArtifactDecodeError("heartbeat payload is not an object")
    try:
        return {
            "worker": str(payload["worker"]),
            "time": float(payload["time"]),
            "sweep": payload.get("sweep"),
            "completed": int(payload.get("completed", 0)),
            "failed": int(payload.get("failed", 0)),
            "state": str(payload.get("state", "running")),
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactDecodeError(f"malformed heartbeat payload: {exc}") from exc

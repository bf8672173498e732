"""The on-disk artifact store: JSON-per-entry, atomic, concurrency-safe.

Directory layout (versioned so a schema bump never reads stale bytes)::

    <root>/v1/
        mobility/<key[:2]>/<key>.json
        compiled/<key[:2]>/<key>.json
        ...                      # one directory per kind in KINDS

Writes go through a unique temp file in the destination directory
followed by :func:`os.replace`, which is atomic on POSIX and Windows —
concurrent ``parallel=N`` workers (or independent CLI invocations)
racing on the same key each publish a complete entry and the last one
wins; readers never observe a torn file.  Entries are immutable given
their key (content-addressed), so "last writer wins" is also "every
writer wrote the same artifact".

Corrupted or foreign entries (truncated JSON, schema mismatch) are
treated as misses, counted in :class:`StoreStats` and evicted best-effort
so the next write repairs them.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple, Union

from repro.artifacts.schema import SCHEMA_VERSION, ArtifactDecodeError
from repro.exceptions import ReproError

#: Artifact kinds the store recognises (one subdirectory each).
#: The ``sweep``/``task``/``lease``/``result`` kinds carry the
#: work-stealing sweep queue (see :mod:`repro.backends.queue`); unlike
#: the content-addressed design-time kinds they are transient — the
#: coordinating backend removes them when a sweep completes.
#: ``checkpoint`` holds engine snapshots (removed on run completion,
#: see :mod:`repro.resilience.checkpoint`) and ``heartbeat`` the worker
#: liveness beacons (see :mod:`repro.backends.worker`).
KINDS = (
    "mobility",
    "compiled",
    "sweep",
    "task",
    "lease",
    "result",
    "checkpoint",
    "heartbeat",
)

#: Environment variable overriding the default store location.
STORE_ENV_VAR = "REPRO_CACHE_DIR"


class ArtifactStoreError(ReproError):
    """The store itself is unusable (bad root, unwritable directory)."""


def default_store_root() -> Path:
    """Resolve the default store directory.

    ``$REPRO_CACHE_DIR`` when set, else ``~/.cache/repro/artifacts``
    (honouring ``$XDG_CACHE_HOME``).
    """
    env = os.environ.get(STORE_ENV_VAR)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "artifacts"


@dataclass
class StoreStats:
    """Disk-tier counters (observable by tests and ``repro cache stats``)."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    corrupt_evicted: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "corrupt_evicted": self.corrupt_evicted,
        }


class ArtifactStore:
    """Content-addressed persistent store for design-time artifacts.

    Parameters
    ----------
    root:
        Directory the store lives under (created on first write).  The
        versioned layout directory (``v1``) is appended automatically.
    faults:
        Optional :class:`~repro.resilience.faults.FaultPlan`.  The store
        exposes one fault point, ``store.write.torn``: when it fires,
        :meth:`put` persists a truncated entry instead of the real bytes
        — exactly the half-written file a crash between ``write`` and
        ``fsync`` would leave — which every reader then treats as a
        corrupt-evict miss.

    The store deals in *envelopes* (see :mod:`repro.artifacts.schema`):
    ``get`` returns the decoded JSON entry or ``None`` on miss, ``put``
    persists an envelope atomically.  Callers encode/decode payloads with
    the schema helpers; :class:`repro.session.ArtifactCache` is the
    canonical caller.
    """

    def __init__(
        self, root: Union[str, Path, None] = None, *, faults=None
    ) -> None:
        self.root = Path(root) if root is not None else default_store_root()
        self.layout_dir = self.root / f"v{SCHEMA_VERSION}"
        self.stats = StoreStats()
        self.faults = faults

    # ------------------------------------------------------------------
    def _entry_path(self, kind: str, key: str) -> Path:
        if kind not in KINDS:
            raise ArtifactStoreError(f"unknown artifact kind {kind!r} (have {KINDS})")
        return self.layout_dir / kind / key[:2] / f"{key}.json"

    def get(self, kind: str, key: str) -> Optional[Any]:
        """Decoded JSON entry for ``(kind, key)``, or ``None`` on miss.

        A file that exists but cannot be parsed as JSON counts as a miss,
        bumps ``stats.corrupt_evicted`` and is deleted best-effort.
        Schema-level validation (kind/key/version) is the caller's job via
        :mod:`repro.artifacts.schema`; use :meth:`evict` when it fails.
        """
        path = self._entry_path(kind, key)
        try:
            raw = path.read_text(encoding="utf-8")
        except (FileNotFoundError, OSError):
            self.stats.misses += 1
            return None
        try:
            entry = json.loads(raw)
        except ValueError:
            self.stats.misses += 1
            self.evict(kind, key)
            return None
        self.stats.hits += 1
        return entry

    def load(self, kind: str, key: str, decoder) -> Optional[Any]:
        """Like :meth:`get`, but runs ``decoder(key, entry)`` on the raw
        entry and treats :class:`ArtifactDecodeError` (schema mismatch,
        malformed payload) exactly like a corrupt file: miss + evict.
        """
        path = self._entry_path(kind, key)
        try:
            raw = path.read_text(encoding="utf-8")
        except (FileNotFoundError, OSError):
            self.stats.misses += 1
            return None
        try:
            value = decoder(key, json.loads(raw))
        except (ValueError, ArtifactDecodeError):
            self.stats.misses += 1
            self.evict(kind, key)
            return None
        self.stats.hits += 1
        return value

    def put(self, kind: str, key: str, entry: Any) -> Path:
        """Atomically persist ``entry`` (a JSON-serialisable envelope)."""
        path = self._entry_path(kind, key)
        data = json.dumps(entry, sort_keys=True) + "\n"
        if self.faults is not None and self.faults.should_fire("store.write.torn"):
            data = data[: max(1, len(data) // 2)]
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                prefix=f".{key[:8]}-", suffix=".tmp", dir=path.parent
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    handle.write(data)
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except OSError as exc:
            raise ArtifactStoreError(
                f"cannot write artifact {kind}/{key} under {self.root}: {exc}"
            ) from exc
        self.stats.writes += 1
        return path

    def put_exclusive(self, kind: str, key: str, entry: Any) -> bool:
        """Persist ``entry`` only if ``(kind, key)`` does not exist yet.

        The atomic claim primitive of the work-stealing queue: ``O_CREAT |
        O_EXCL`` guarantees exactly one of any number of concurrent
        callers — across processes *and* hosts sharing the directory —
        wins the create; everyone else gets ``False``.  Unlike
        :meth:`put`, the winner's write is visible in place (a reader
        racing the write may see a torn entry, which every queue decoder
        treats as reclaimable), so use it for claim markers, not
        payload-bearing artifacts.
        """
        path = self._entry_path(kind, key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        except OSError as exc:
            raise ArtifactStoreError(
                f"cannot create artifact {kind}/{key} under {self.root}: {exc}"
            ) from exc
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(entry, handle, sort_keys=True)
                handle.write("\n")
        except OSError as exc:
            raise ArtifactStoreError(
                f"cannot write artifact {kind}/{key} under {self.root}: {exc}"
            ) from exc
        self.stats.writes += 1
        return True

    def evict(self, kind: str, key: str) -> None:
        """Best-effort removal of one entry (used for corrupt files)."""
        try:
            self._entry_path(kind, key).unlink()
            self.stats.corrupt_evicted += 1
        except OSError:
            pass

    def remove(self, kind: str, key: str) -> bool:
        """Silent removal of one entry (queue GC, lease release).

        Unlike :meth:`evict` this does not count toward
        ``corrupt_evicted`` — removing a consumed queue entry is normal
        operation, not corruption recovery.
        """
        try:
            self._entry_path(kind, key).unlink()
            return True
        except OSError:
            return False

    def exists(self, kind: str, key: str) -> bool:
        """Whether an entry file is present (no stats, no decoding)."""
        return self._entry_path(kind, key).is_file()

    def keys_of_kind(self, kind: str, prefix: str = "") -> list:
        """Sorted keys currently on disk for ``kind`` (optionally filtered
        by prefix) — how workers discover published sweeps."""
        if kind not in KINDS:
            raise ArtifactStoreError(f"unknown artifact kind {kind!r} (have {KINDS})")
        kind_dir = self.layout_dir / kind
        if not kind_dir.is_dir():
            return []
        keys = [path.stem for path in kind_dir.glob("*/*.json")]
        if prefix:
            keys = [k for k in keys if k.startswith(prefix)]
        return sorted(keys)

    # ------------------------------------------------------------------
    def entries(self) -> Iterator[Tuple[str, Path]]:
        """Yield ``(kind, path)`` for every entry currently on disk."""
        for kind in KINDS:
            kind_dir = self.layout_dir / kind
            if not kind_dir.is_dir():
                continue
            for path in sorted(kind_dir.glob("*/*.json")):
                yield kind, path

    def entry_counts(self) -> Dict[str, int]:
        counts = {kind: 0 for kind in KINDS}
        for kind, _ in self.entries():
            counts[kind] += 1
        return counts

    def size_bytes(self) -> int:
        total = 0
        for _, path in self.entries():
            try:
                total += path.stat().st_size
            except OSError:
                pass  # concurrently cleared/evicted by another process
        return total

    def clear(self) -> int:
        """Delete every entry; returns how many files were removed."""
        removed = 0
        for _, path in list(self.entries()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def describe(self) -> Dict[str, Any]:
        """One JSON-friendly summary for ``repro cache stats``."""
        counts = self.entry_counts()
        return {
            "root": str(self.root),
            "layout": f"v{SCHEMA_VERSION}",
            "entries": counts,
            "total_entries": sum(counts.values()),
            "size_bytes": self.size_bytes(),
            "session_stats": self.stats.as_dict(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArtifactStore(root={str(self.root)!r})"

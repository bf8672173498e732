"""The store-coordinated sweep queue: leases, results, reclamation.

The work-stealing backend needs a coordination substrate that already
works across processes *and* hosts — which the content-addressed
:class:`~repro.artifacts.store.ArtifactStore` is: atomic JSON-per-entry
writes over a shared directory (local disk or NFS), concurrent-writer
safe.  A sweep becomes four entry kinds:

``sweep``
    One manifest per sweep: serialized workload, cell count, trace mode.
    How a ``repro worker`` on another host discovers work.
``task``
    One immutable entry per cell: the pickled spec, device, mobility
    tables and ideal makespan the cell runs with.
``lease``
    The claim marker.  Created with ``O_CREAT | O_EXCL`` (exactly one
    winner per cell), carrying ``(worker, acquired, ttl_s, expires)``.
    A lease past its expiry without a result is *stale* — its worker
    crashed — and any process may reclaim it (evict + re-claim), so a
    sweep always completes.

Lease liveness across hosts uses the defensively-recorded absolute
``expires`` stamp, *not* ``acquired + ttl_s`` recomputed by the reader:
the writer's and reader's wall clocks can disagree (NTP slew, container
drift), so readers additionally grant :data:`SKEW_MARGIN_S` of grace
before declaring a lease stale.  A worker leases one cell per claim
and never renews it, so ``ttl_s`` must exceed the slowest cell.
``result``
    One entry per finished cell: the flat record dict (or an error).
    Results are idempotent: should the reclaim race ever run a cell
    twice, both workers publish byte-identical records and last-writer-
    wins is harmless — zero lost, zero duplicated cells by construction.

Corrupt entries of any kind decode strictly
(:mod:`repro.artifacts.schema`) and are evicted as misses, never
crashes: a torn lease is reclaimable, a torn task is republished by the
coordinator, a torn result re-runs the cell.
"""

from __future__ import annotations

import base64
import pickle
import random
import time
from typing import Dict, List, Optional, Sequence

from repro.artifacts.schema import (
    decode_cell_result,
    decode_lease,
    decode_sweep_meta,
    decode_task,
    encode_cell_result,
    encode_lease,
    encode_sweep_meta,
    encode_task,
)
from repro.artifacts.store import ArtifactStore, ArtifactStoreError
from repro.exceptions import ExperimentError
from repro.graphs.serialization import graph_from_dict, graph_to_dict
from repro.workloads.sequence import Workload

#: Grace a reader grants past a lease's recorded ``expires`` before
#: declaring it stale.  Covers realistic wall-clock disagreement between
#: hosts sharing the store directory (NTP slew is typically < 0.5 s;
#: anything worse is an operational problem no margin should paper over).
SKEW_MARGIN_S = 2.0


def check_lease_ttl(ttl_s: float) -> float:
    """``ttl_s`` if positive; a lease with TTL <= 0 is stale when written."""
    if ttl_s <= 0:
        raise ExperimentError(f"lease_ttl must be > 0 seconds, got {ttl_s}")
    return float(ttl_s)


# ----------------------------------------------------------------------
# Payload helpers
# ----------------------------------------------------------------------
def pack_obj(obj) -> str:
    """Pickle + base64 an object for a JSON queue payload (specs, devices)."""
    return base64.b64encode(pickle.dumps(obj)).decode("ascii")


def unpack_obj(blob: str):
    """Inverse of :func:`pack_obj`; raises ``ExperimentError`` on garbage."""
    try:
        return pickle.loads(base64.b64decode(blob.encode("ascii")))
    except Exception as exc:
        raise ExperimentError(f"cannot unpickle queue payload: {exc}") from exc


def workload_to_payload(workload: Workload) -> Dict:
    """JSON-native serialization of a workload (graphs + sequence + scalars)."""
    return {
        "graphs": [graph_to_dict(g) for g in workload.distinct_graphs()],
        "sequence": [g.name for g in workload.apps],
        "n_rus": workload.n_rus,
        "reconfig_latency": workload.reconfig_latency,
        "name": workload.name,
        "seed": workload.seed,
    }


def workload_from_payload(payload: Dict) -> Workload:
    """Reconstruct a :class:`Workload` on the worker side."""
    try:
        catalog = {g["name"]: graph_from_dict(g) for g in payload["graphs"]}
        apps = tuple(catalog[name] for name in payload["sequence"])
        return Workload(
            apps=apps,
            n_rus=int(payload["n_rus"]),
            reconfig_latency=int(payload["reconfig_latency"]),
            name=str(payload.get("name", "workload")),
            seed=payload.get("seed"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ExperimentError(f"malformed workload payload: {exc}") from exc


# ----------------------------------------------------------------------
# The queue
# ----------------------------------------------------------------------
class CellQueue:
    """One sweep's cells in the shared store; safe for any worker count.

    All methods are crash-tolerant: every mutation is a single atomic
    file operation, so a worker dying at any point leaves the queue in a
    state some other worker can make progress from.

    ``retry`` (a :class:`~repro.resilience.retry.RetryPolicy`) wraps the
    store writes that must not be lost to a transient I/O hiccup (an NFS
    timeout, a torn-write fault): ``publish``, ``complete`` and
    ``fail`` retry on :class:`ArtifactStoreError`/``OSError`` before
    surfacing the failure.  ``faults`` (a
    :class:`~repro.resilience.faults.FaultPlan`) exposes the
    ``queue.claim.lost`` point: a freshly-won claim's lease file vanishes
    — the crashed-after-claim scenario — which another worker must then
    reclaim after expiry.
    """

    def __init__(
        self,
        store: ArtifactStore,
        sweep_id: str,
        n_cells: Optional[int] = None,
        *,
        retry=None,
        faults=None,
    ) -> None:
        self.store = store
        self.sweep_id = sweep_id
        self._n_cells = n_cells
        self.retry = retry
        self.faults = faults

    def _durable(self, fn, *args):
        """Run a must-not-be-lost store write under the retry policy."""
        if self.retry is None:
            return fn(*args)
        return self.retry.run(
            lambda: fn(*args),
            retryable=(ArtifactStoreError, OSError),
        )

    # -- keys -----------------------------------------------------------
    def cell_key(self, index: int) -> str:
        return f"{self.sweep_id}-c{index:05d}"

    @property
    def n_cells(self) -> int:
        if self._n_cells is None:
            meta = self.meta()
            if meta is None:
                raise ExperimentError(
                    f"sweep {self.sweep_id!r} has no manifest in {self.store.root}"
                )
            self._n_cells = int(meta["n_cells"])
        return self._n_cells

    # -- coordinator side ----------------------------------------------
    def publish(
        self,
        workload: Workload,
        tasks: Sequence[Dict],
        trace: str,
    ) -> None:
        """Write the manifest and every per-cell task entry."""
        self._n_cells = len(tasks)
        for payload in tasks:
            self._durable(
                self.store.put,
                "task",
                self.cell_key(payload["index"]),
                encode_task(self.cell_key(payload["index"]), payload),
            )
        # Manifest last: a worker that sees it can rely on the tasks.
        self._durable(
            self.store.put,
            "sweep",
            self.sweep_id,
            encode_sweep_meta(
                self.sweep_id,
                {
                    "n_cells": len(tasks),
                    "workload": workload_to_payload(workload),
                    "trace": trace,
                },
            ),
        )

    def republish(self, payload: Dict) -> None:
        """Restore one task entry (a corrupt one was evicted as a miss)."""
        key = self.cell_key(payload["index"])
        self.store.put("task", key, encode_task(key, payload))

    def cleanup(self) -> None:
        """Remove every entry of this sweep (results collected, queue done)."""
        for i in range(self.n_cells):
            key = self.cell_key(i)
            for kind in ("task", "lease", "result"):
                self.store.remove(kind, key)
        self.store.remove("sweep", self.sweep_id)

    # -- worker side ----------------------------------------------------
    def meta(self) -> Optional[Dict]:
        return self.store.load("sweep", self.sweep_id, decode_sweep_meta)

    def claim(
        self,
        worker_id: str,
        ttl_s: float,
        rng: Optional[random.Random] = None,
    ) -> Optional[Dict]:
        """Claim one unfinished, unleased cell; ``None`` when nothing is
        claimable right now (all done, or all leased by live workers).

        Stale leases encountered on the way are reclaimed in place.  The
        scan order is shuffled per call so concurrent workers spread over
        the queue instead of contending cell by cell.
        """
        order = list(range(self.n_cells))
        (rng or random).shuffle(order)
        now = time.time()
        for i in order:
            key = self.cell_key(i)
            if self.store.exists("result", key):
                continue
            lease = self.store.load("lease", key, decode_lease)
            if lease is not None:
                if now <= lease["expires"] + SKEW_MARGIN_S:
                    continue  # live worker owns it (or clocks disagree)
                self.store.remove("lease", key)  # stale: crashed worker
            if not self.store.put_exclusive(
                "lease",
                key,
                encode_lease(
                    key,
                    {
                        "worker": worker_id,
                        "acquired": now,
                        "ttl_s": ttl_s,
                        "expires": now + ttl_s,
                    },
                ),
            ):
                continue  # another worker won the claim race
            if self.faults is not None and self.faults.should_fire(
                "queue.claim.lost"
            ):
                # The claim marker vanishes right after the win — as if
                # the claimant crashed between claim and execution.
                self.store.remove("lease", key)
            task = self.store.load("task", key, decode_task)
            if task is None:
                # Task entry corrupt (evicted above) or missing: release
                # the lease so the coordinator's republish can take effect.
                self.store.remove("lease", key)
                continue
            return task
        return None

    def complete(self, index: int, record: Dict, worker_id: str) -> None:
        key = self.cell_key(index)
        self._durable(
            self.store.put,
            "result",
            key,
            encode_cell_result(key, {"index": index, "record": record, "worker": worker_id}),
        )
        self.store.remove("lease", key)

    def fail(self, index: int, error: str, worker_id: str) -> None:
        key = self.cell_key(index)
        self._durable(
            self.store.put,
            "result",
            key,
            encode_cell_result(key, {"index": index, "error": error, "worker": worker_id}),
        )
        self.store.remove("lease", key)

    # -- shared observation ---------------------------------------------
    def result(self, index: int) -> Optional[Dict]:
        return self.store.load("result", self.cell_key(index), decode_cell_result)

    def results(self) -> Dict[int, Dict]:
        out: Dict[int, Dict] = {}
        for i in range(self.n_cells):
            payload = self.result(i)
            if payload is not None:
                out[i] = payload
        return out

    def missing_tasks(self) -> List[int]:
        """Cells whose task entry vanished (corruption) and have no result."""
        return [
            i
            for i in range(self.n_cells)
            if not self.store.exists("task", self.cell_key(i))
            and not self.store.exists("result", self.cell_key(i))
        ]

    def reclaim_stale(self) -> List[int]:
        """Evict expired leases; returns the reclaimed cell indices."""
        now = time.time()
        reclaimed = []
        for i in range(self.n_cells):
            key = self.cell_key(i)
            if self.store.exists("result", key):
                continue
            lease = self.store.load("lease", key, decode_lease)
            if lease is not None and now > lease["expires"] + SKEW_MARGIN_S:
                self.store.remove("lease", key)
                reclaimed.append(i)
        return reclaimed

    def finished(self) -> bool:
        return all(
            self.store.exists("result", self.cell_key(i)) for i in range(self.n_cells)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CellQueue({self.sweep_id!r}, n_cells={self._n_cells})"


def active_sweeps(store: ArtifactStore) -> List[str]:
    """Sweep ids with a manifest currently published in ``store``."""
    return store.keys_of_kind("sweep")

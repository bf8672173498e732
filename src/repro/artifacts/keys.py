"""Content-addressed keys for design-time artifacts.

Every key is a SHA-256 hex digest of a canonical JSON payload, so two
processes (or two machines) that describe the same inputs derive the same
key without coordination.  The key inputs mirror what each artifact
actually depends on:

* **mobility tables** — graph content and the device fingerprint (slots,
  latency model, controllers: a delay harmless on a wide device can be
  harmful on a narrow one);
* **compiled workloads** — workload content (graphs *and* sequence
  order).

Zero-latency ideals are not stored: they are folded from per-graph
ideals that cost about as much as a store load (see
:func:`repro.sim.simulator.folded_ideal`).
"""

from __future__ import annotations

import hashlib
import json
from typing import Sequence

from repro.graphs.serialization import graph_to_dict
from repro.graphs.task_graph import TaskGraph
from repro.hw.model import DeviceModel


def _digest(payload: object) -> str:
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def graphs_content_key(graphs: Sequence[TaskGraph]) -> str:
    """Digest of a *set* of graphs (order-insensitive, name-deduplicated).

    Mobility tables are per-graph artifacts keyed by name, so the key
    covers the distinct graph contents only — the sequence they appear in
    is irrelevant.
    """
    seen = {}
    for g in graphs:
        seen.setdefault(g.name, g)
    payload = [graph_to_dict(seen[name]) for name in sorted(seen)]
    return _digest(payload)


def workload_content_key(workload) -> str:
    """Stable digest of a workload's *content* (graphs + sequence).

    Two workloads with identical application structures and identical
    sequences share design-time artifacts regardless of how they were
    constructed, so caches key on content rather than object identity or
    scenario name.
    """
    payload = {
        "graphs": [graph_to_dict(g) for g in workload.distinct_graphs()],
        "sequence": [g.name for g in workload.apps],
    }
    return _digest(payload)


def compiled_key(content_key: str) -> str:
    """Composite key for one compiled-workload entry.

    ``content_key`` is :func:`workload_content_key` of the workload —
    the compiled form is a pure function of graphs + sequence, so no
    device or semantics input belongs in the key.  The version marker
    invalidates stored entries whenever the compiled layout changes.
    """
    return _digest(["compiled-v1", content_key])


def mobility_key(content_key: str, device: DeviceModel) -> str:
    """Composite key for one workload's mobility tables entry.

    ``content_key`` is :func:`graphs_content_key` of the distinct graphs
    (or :func:`workload_content_key`; any stable content digest works as
    long as producer and consumer agree).  ``device`` contributes its full
    :meth:`~repro.hw.model.DeviceModel.fingerprint` — mobility depends on
    the RU count, slot compatibility, per-configuration load costs *and*
    the controller count.
    """
    return _digest(["mobility", content_key, device.fingerprint()])

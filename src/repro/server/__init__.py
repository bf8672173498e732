"""``repro serve`` — the simulation-as-a-service subsystem.

A long-running asyncio daemon (:class:`ReproServer`) that accepts
simulation and sweep jobs over HTTP+JSON from many concurrent clients,
runs their design-time phase over one shared
:class:`~repro.session.ArtifactCache` (compile-once, warm-store reuse)
and their simulations on a persistent pool of worker processes,
and exposes the full job lifecycle: submit, status/progress, live JSONL
event streaming, result retrieval and cancellation, with per-client
token-bucket quotas.  See ``docs/service.md`` for the protocol
reference and :mod:`repro.client` for the matching client library.

Everything here is standard library only — no new runtime dependencies.
"""

from repro.server.daemon import ReproServer, ServerThread
from repro.server.jobs import Job, JobCancelled, JobState, TokenBucket

__all__ = [
    "Job",
    "JobCancelled",
    "JobState",
    "ReproServer",
    "ServerThread",
    "TokenBucket",
]

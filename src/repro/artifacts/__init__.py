"""Persistent design-time artifact store (the "pay once" contract).

The paper's hybrid argument is that the expensive mobility analysis runs
*once* at design time so the run-time replacement module stays cheap
(§V.A, the ~10x purely-run-time comparison).  Before this subsystem the
"once" only held per process: every CLI invocation, test worker and
``parallel=N`` pool re-ran the full Fig. 6 search because the resulting
tables lived in an in-memory dict.

``repro.artifacts`` makes the design-time phase durable:

* :mod:`repro.artifacts.keys` — content-addressed keys for the
  design-time artifact kinds (mobility tables, compiled workloads),
  derived from graph content and device sizing where they matter;
* :mod:`repro.artifacts.schema` — the versioned JSON envelope each entry
  is stored in, with strict encode/decode (JSON object keys are strings;
  mobility tables use integer node ids);
* :mod:`repro.artifacts.store` — :class:`ArtifactStore`, a
  JSON-per-entry on-disk store under a versioned directory layout with
  atomic writes (temp file + ``os.replace``), safe for concurrent
  writers, tolerant of corrupted entries (treated as misses and evicted).

:class:`repro.session.ArtifactCache` layers its in-memory dictionaries on
top of a store (memory -> disk -> compute), so a cold ``Session.sweep``
followed by a warm one in a *new process* skips every mobility
computation and workload compilation.  The CLI exposes the store as ``repro cache
stats|clear|warm`` and ``--store DIR`` on the run/sweep/figure commands.
"""

from repro.artifacts.keys import (
    compiled_key,
    graphs_content_key,
    mobility_key,
    workload_content_key,
)
from repro.artifacts.schema import (
    SCHEMA_VERSION,
    decode_compiled,
    decode_mobility_tables,
    encode_compiled,
    encode_mobility_tables,
)
from repro.artifacts.store import ArtifactStore, StoreStats, default_store_root

__all__ = [
    "ArtifactStore",
    "StoreStats",
    "SCHEMA_VERSION",
    "compiled_key",
    "decode_compiled",
    "decode_mobility_tables",
    "default_store_root",
    "encode_compiled",
    "encode_mobility_tables",
    "graphs_content_key",
    "mobility_key",
    "workload_content_key",
]

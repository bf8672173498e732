"""Compiled workloads: the run-independent part of a simulation, built once.

``ExecutionManager`` historically re-derived the same structure on every
run: each graph's reconfiguration order, predecessor counts, per-task
configuration/exec-time/bitstream lookups and the maximum-concurrency
feasibility check — per *application instance*, so a 5000-app sequence
over 3 distinct graphs paid the derivation 5000 times per run, and a
64-cell sweep paid it 64 times more.

:class:`CompiledWorkload` hoists all of it out of the run:

* per distinct graph, a :class:`CompiledApp` with the reconfiguration
  order and parallel per-position arrays (config id, dense-interned
  config index, execution time, bitstream size), predecessor-count and
  successor templates, and the max-concurrency bound;
* per workload, the **flattened future reference string** — every
  instance's configurations in global dispatch order (``flat_configs`` /
  ``flat_cids``) with per-application offsets — which is what lets the
  manager maintain its Dynamic-List window incrementally instead of
  rescanning the remaining sequence on every replacement decision;
* a dense interning of :class:`ConfigId` values so hot-path bookkeeping
  (location map, window membership counts, per-configuration load costs)
  indexes flat arrays instead of hashing tuples.

A compiled workload is immutable, device-independent and picklable: one
instance is shared by every sweep cell and shipped once per worker
process.  It also serialises to a JSON payload (:meth:`to_payload` /
:meth:`from_payload`) so the :mod:`repro.artifacts` store can persist it
under the workload content key — a warm store skips compilation too.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import WorkloadError
from repro.graphs.task import ConfigId
from repro.graphs.task_graph import TaskGraph


def max_concurrency(graph: TaskGraph) -> int:
    """Max simultaneously-executing tasks of the zero-latency schedule."""
    start = graph.asap_start_times()
    events: List[Tuple[int, int]] = []
    for nid in graph.node_ids:
        s = start[nid]
        events.append((s, 1))
        events.append((s + graph.task(nid).exec_time, -1))
    events.sort()
    best = cur = 0
    for _, delta in events:
        cur += delta
        best = max(best, cur)
    return best


@dataclass(frozen=True)
class CompiledApp:
    """One distinct application, pre-processed for the manager's hot loop.

    All ``rec_*`` arrays are parallel to :attr:`rec_order` (the design-time
    "sorted sequence of reconfigurations", paper §IV): position ``p``
    describes the ``p``-th load of the application.  ``pred_counts`` and
    ``successors`` are keyed by node id and remain the advisor-facing
    mappings; the *columnar* templates below re-express them per rec-order
    slot so the manager's :class:`~repro.sim.columns.EngineState` never
    touches a dict in the hot loop:

    ``node_slot``
        node id -> rec-order position (the node's dense slot).
    ``pred_template``
        ``array('q')`` of predecessor counts per slot — the template every
        application *instance* copies for runtime dependency bookkeeping.
    ``succ_slots``
        per slot, the tuple of successor *slots* to decrement when the
        task at that slot completes.
    """

    name: str
    rec_order: Tuple[int, ...]
    rec_configs: Tuple[ConfigId, ...]
    rec_cids: Tuple[int, ...]
    rec_exec_times: Tuple[int, ...]
    rec_bitstreams: Tuple[int, ...]
    pred_counts: Mapping[int, int]
    successors: Mapping[int, Tuple[int, ...]]
    max_concurrency: int
    n_tasks: int = 0
    # Derived columnar templates (recomputed on every construction path,
    # excluded from equality/serialisation — see to_payload).
    node_slot: Mapping[int, int] = field(
        default=None, compare=False, repr=False  # type: ignore[assignment]
    )
    pred_template: "array" = field(
        default=None, compare=False, repr=False  # type: ignore[assignment]
    )
    succ_slots: Tuple[Tuple[int, ...], ...] = field(
        default=None, compare=False, repr=False  # type: ignore[assignment]
    )

    def __post_init__(self) -> None:
        # Stored (not derived) so hot loops read a plain attribute.
        if self.n_tasks != len(self.rec_order):
            object.__setattr__(self, "n_tasks", len(self.rec_order))
        if self.node_slot is None:
            slot = {nid: pos for pos, nid in enumerate(self.rec_order)}
            object.__setattr__(self, "node_slot", slot)
            object.__setattr__(
                self,
                "pred_template",
                array("q", (self.pred_counts[nid] for nid in self.rec_order)),
            )
            object.__setattr__(
                self,
                "succ_slots",
                tuple(
                    tuple(slot[s] for s in self.successors[nid])
                    for nid in self.rec_order
                ),
            )


@dataclass(frozen=True)
class CompiledWorkload:
    """A frozen application sequence, fully pre-processed for simulation.

    ``graphs`` holds the distinct :class:`CompiledApp` entries in
    first-appearance order and ``app_graph[i]`` names the entry instance
    ``i`` runs.  ``config_ids`` is the dense interning table
    (``config_ids[cid]`` inverts ``config_index[config]``);
    ``config_bitstreams`` is per dense id.  ``flat_configs`` /
    ``flat_cids`` concatenate every instance's reconfiguration sequence
    (``app_offsets[i]`` is instance ``i``'s first flat position, with a
    final total-length sentinel).

    ``pred_template_flat`` is the per-*instance* concatenation of each
    graph's ``pred_template`` — length ``n_tasks``, parallel to
    ``flat_configs``.  One ``list(...)`` of it seeds the whole runtime
    dependency column of :class:`~repro.sim.columns.EngineState`, so the
    manager never builds per-instance dicts.  ``app_n_tasks`` is the
    per-instance task count (parallel to ``app_graph``).  Both are derived
    in ``__post_init__`` on every construction path and excluded from
    equality and serialisation.
    """

    graphs: Tuple[CompiledApp, ...]
    app_graph: Tuple[int, ...]
    config_ids: Tuple[ConfigId, ...]
    config_index: Mapping[ConfigId, int]
    config_bitstreams: Tuple[int, ...]
    flat_configs: Tuple[ConfigId, ...]
    flat_cids: Tuple[int, ...]
    app_offsets: Tuple[int, ...]
    max_concurrency: int
    n_tasks: int
    pred_template_flat: "array" = field(
        default=None, compare=False, repr=False  # type: ignore[assignment]
    )
    app_n_tasks: Tuple[int, ...] = field(
        default=None, compare=False, repr=False  # type: ignore[assignment]
    )

    def __post_init__(self) -> None:
        if self.pred_template_flat is None:
            flat = array("q")
            for gi in self.app_graph:
                flat.extend(self.graphs[gi].pred_template)
            object.__setattr__(self, "pred_template_flat", flat)
            object.__setattr__(
                self,
                "app_n_tasks",
                tuple(self.graphs[gi].n_tasks for gi in self.app_graph),
            )

    @property
    def n_apps(self) -> int:
        return len(self.app_graph)

    @property
    def n_configs(self) -> int:
        return len(self.config_ids)

    def app(self, index: int) -> CompiledApp:
        return self.graphs[self.app_graph[index]]

    def solo(self, gi: int) -> "CompiledWorkload":
        """Distinct graph ``gi`` alone, as a one-application workload
        sharing this one's compiled graph and configuration table."""
        capp = self.graphs[gi]
        return CompiledWorkload(
            graphs=(capp,),
            app_graph=(0,),
            config_ids=self.config_ids,
            config_index=self.config_index,
            config_bitstreams=self.config_bitstreams,
            flat_configs=capp.rec_configs,
            flat_cids=capp.rec_cids,
            app_offsets=(0, capp.n_tasks),
            max_concurrency=capp.max_concurrency,
            n_tasks=capp.n_tasks,
        )

    def matches(self, graphs: Sequence[TaskGraph]) -> bool:
        """Consistency check against an application sequence.

        Verifies the sequence (per-position graph names) *and* the
        structural content of each distinct graph against the compiled
        arrays — same-named graphs with different exec times, bitstreams
        or edges must not silently simulate stale data.  Cost is
        O(sequence) name checks plus O(distinct graphs x tasks)
        structural checks — negligible next to a run.
        """
        if len(graphs) != len(self.app_graph):
            return False
        checked: set = set()
        for g, gi in zip(graphs, self.app_graph):
            capp = self.graphs[gi]
            if g.name != capp.name:
                return False
            if id(g) in checked:
                continue
            checked.add(id(g))
            if capp.rec_order != g.reconfiguration_order():
                return False
            for pos, nid in enumerate(capp.rec_order):
                spec = g.task(nid)
                if (
                    capp.rec_exec_times[pos] != spec.exec_time
                    or capp.rec_bitstreams[pos] != spec.bitstream_kb
                ):
                    return False
            if capp.successors != {
                nid: g.successors(nid) for nid in g.node_ids
            }:
                return False
        return True

    def load_costs(self, device) -> Tuple[int, ...]:
        """Per-dense-config load latency (µs) on ``device``.

        Only needed on non-fixed-latency devices; the manager short-
        circuits fixed-latency devices to a scalar.
        """
        return tuple(
            device.load_latency_us(cfg, kb)
            for cfg, kb in zip(self.config_ids, self.config_bitstreams)
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def compile(cls, graphs: Sequence[TaskGraph]) -> "CompiledWorkload":
        """Compile an application sequence (graphs repeat by reference)."""
        if not graphs:
            raise WorkloadError("cannot compile an empty application sequence")
        # Distinct graphs by name, first-appearance order.  Two *objects*
        # sharing a name must be content-equal: configurations are
        # identified by (name, node_id), so same-name-different-content
        # graphs would silently corrupt reuse accounting.
        by_name: Dict[str, TaskGraph] = {}
        capp_index: Dict[str, int] = {}
        capps: List[CompiledApp] = []
        app_graph: List[int] = []
        config_index: Dict[ConfigId, int] = {}
        config_ids: List[ConfigId] = []
        config_bitstreams: List[int] = []
        for graph in graphs:
            seen = by_name.get(graph.name)
            if seen is None:
                by_name[graph.name] = graph
                capp_index[graph.name] = len(capps)
                capps.append(
                    cls._compile_app(
                        graph, config_index, config_ids, config_bitstreams
                    )
                )
            elif seen is not graph and seen != graph:
                raise WorkloadError(
                    f"workload contains two different graphs named "
                    f"{graph.name!r}; configuration identity is "
                    "(name, node_id), so graph names must be unique per content"
                )
            app_graph.append(capp_index[graph.name])

        flat_configs: List[ConfigId] = []
        flat_cids: List[int] = []
        app_offsets: List[int] = [0]
        for gi in app_graph:
            capp = capps[gi]
            flat_configs.extend(capp.rec_configs)
            flat_cids.extend(capp.rec_cids)
            app_offsets.append(len(flat_configs))

        return cls(
            graphs=tuple(capps),
            app_graph=tuple(app_graph),
            config_ids=tuple(config_ids),
            config_index=config_index,
            config_bitstreams=tuple(config_bitstreams),
            flat_configs=tuple(flat_configs),
            flat_cids=tuple(flat_cids),
            app_offsets=tuple(app_offsets),
            max_concurrency=max(c.max_concurrency for c in capps),
            n_tasks=sum(capps[gi].n_tasks for gi in app_graph),
        )

    @staticmethod
    def _compile_app(
        graph: TaskGraph,
        config_index: Dict[ConfigId, int],
        config_ids: List[ConfigId],
        config_bitstreams: List[int],
    ) -> CompiledApp:
        rec_order = graph.reconfiguration_order()
        rec_configs: List[ConfigId] = []
        rec_cids: List[int] = []
        rec_exec: List[int] = []
        rec_bits: List[int] = []
        for nid in rec_order:
            spec = graph.task(nid)
            config = ConfigId(graph.name, nid)
            cid = config_index.get(config)
            if cid is None:
                cid = len(config_ids)
                config_index[config] = cid
                config_ids.append(config)
                config_bitstreams.append(spec.bitstream_kb)
            rec_configs.append(config)
            rec_cids.append(cid)
            rec_exec.append(spec.exec_time)
            rec_bits.append(spec.bitstream_kb)
        return CompiledApp(
            name=graph.name,
            rec_order=rec_order,
            rec_configs=tuple(rec_configs),
            rec_cids=tuple(rec_cids),
            rec_exec_times=tuple(rec_exec),
            rec_bitstreams=tuple(rec_bits),
            pred_counts={
                nid: len(graph.predecessors(nid)) for nid in graph.node_ids
            },
            successors={
                nid: graph.successors(nid) for nid in graph.node_ids
            },
            max_concurrency=max_concurrency(graph),
        )

    @classmethod
    def from_workload(cls, workload) -> "CompiledWorkload":
        """Compile a :class:`~repro.workloads.sequence.Workload`."""
        return cls.compile(workload.apps)

    # ------------------------------------------------------------------
    # Serialization (the artifact store's "compiled" kind)
    # ------------------------------------------------------------------
    def to_payload(self) -> Dict[str, object]:
        """JSON-serialisable structure (see :meth:`from_payload`).

        Only the per-graph arrays and the sequence are stored — the flat
        arrays and interning are recomputed deterministically on decode,
        which keeps entries small and the dense ids canonical.
        """
        return {
            "graphs": [
                {
                    "name": capp.name,
                    "rec_order": list(capp.rec_order),
                    "exec_times": list(capp.rec_exec_times),
                    "bitstreams": list(capp.rec_bitstreams),
                    "pred_counts": {
                        str(nid): int(count)
                        for nid, count in sorted(capp.pred_counts.items())
                    },
                    "successors": {
                        str(nid): list(succs)
                        for nid, succs in sorted(capp.successors.items())
                    },
                    "max_concurrency": capp.max_concurrency,
                }
                for capp in self.graphs
            ],
            "sequence": list(self.app_graph),
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "CompiledWorkload":
        """Rebuild a compiled workload from :meth:`to_payload` output."""
        try:
            graph_payloads = payload["graphs"]
            sequence = [int(i) for i in payload["sequence"]]
            capps: List[CompiledApp] = []
            config_index: Dict[ConfigId, int] = {}
            config_ids: List[ConfigId] = []
            config_bitstreams: List[int] = []
            for gp in graph_payloads:
                name = str(gp["name"])
                rec_order = tuple(int(n) for n in gp["rec_order"])
                rec_exec = tuple(int(t) for t in gp["exec_times"])
                rec_bits = tuple(int(b) for b in gp["bitstreams"])
                if not (len(rec_order) == len(rec_exec) == len(rec_bits)):
                    raise WorkloadError("misaligned compiled-app arrays")
                rec_configs = []
                rec_cids = []
                for nid, kb in zip(rec_order, rec_bits):
                    config = ConfigId(name, nid)
                    cid = config_index.get(config)
                    if cid is None:
                        cid = len(config_ids)
                        config_index[config] = cid
                        config_ids.append(config)
                        config_bitstreams.append(kb)
                    rec_configs.append(config)
                    rec_cids.append(cid)
                capps.append(
                    CompiledApp(
                        name=name,
                        rec_order=rec_order,
                        rec_configs=tuple(rec_configs),
                        rec_cids=tuple(rec_cids),
                        rec_exec_times=rec_exec,
                        rec_bitstreams=rec_bits,
                        pred_counts={
                            int(nid): int(count)
                            for nid, count in gp["pred_counts"].items()
                        },
                        successors={
                            int(nid): tuple(int(s) for s in succs)
                            for nid, succs in gp["successors"].items()
                        },
                        max_concurrency=int(gp["max_concurrency"]),
                    )
                )
            flat_configs: List[ConfigId] = []
            flat_cids: List[int] = []
            app_offsets: List[int] = [0]
            for gi in sequence:
                capp = capps[gi]
                flat_configs.extend(capp.rec_configs)
                flat_cids.extend(capp.rec_cids)
                app_offsets.append(len(flat_configs))
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise WorkloadError(f"malformed compiled-workload payload: {exc}") from exc
        return cls(
            graphs=tuple(capps),
            app_graph=tuple(sequence),
            config_ids=tuple(config_ids),
            config_index=config_index,
            config_bitstreams=tuple(config_bitstreams),
            flat_configs=tuple(flat_configs),
            flat_cids=tuple(flat_cids),
            app_offsets=tuple(app_offsets),
            max_concurrency=max(c.max_concurrency for c in capps),
            n_tasks=sum(capps[gi].n_tasks for gi in sequence),
        )


def compile_workload(graphs_or_workload) -> CompiledWorkload:
    """Compile a graph sequence or a :class:`Workload` (convenience)."""
    apps = getattr(graphs_or_workload, "apps", graphs_or_workload)
    return CompiledWorkload.compile(apps)


# ----------------------------------------------------------------------
# Lazy decision-context views over the flat reference string
# ----------------------------------------------------------------------
class RefsView:
    """Immutable sequence view of ``flat_configs[start:stop]``.

    Handed to replacement policies as ``future_refs`` / ``oracle_refs``:
    building one is O(1) regardless of window length, which is what turns
    the oracle (whole-remaining-sequence) policies from quadratic to
    linear.  Supports the tuple operations policies use — iteration,
    indexing, length, membership, equality against any sequence — plus
    :meth:`find`, the C-speed first-occurrence scan
    :func:`~repro.core.policies.base.forward_distance` dispatches to.
    """

    __slots__ = ("_flat", "_start", "_stop")

    def __init__(self, flat: Sequence[ConfigId], start: int, stop: int) -> None:
        n = len(flat)
        self._flat = flat
        self._start = min(max(start, 0), n)
        self._stop = min(max(stop, self._start), n)

    def find(self, config) -> int:
        """Index of the first occurrence of ``config``, or -1.

        Delegates to ``tuple.index`` — a C scan over the backing array —
        instead of a Python-level loop.
        """
        try:
            return self._flat.index(config, self._start, self._stop) - self._start
        except ValueError:
            return -1

    def __len__(self) -> int:
        return self._stop - self._start

    def __iter__(self):
        flat = self._flat
        for i in range(self._start, self._stop):
            yield flat[i]

    def __getitem__(self, item):
        n = self._stop - self._start
        if isinstance(item, slice):
            start, stop, step = item.indices(n)
            if step == 1:
                return RefsView(self._flat, self._start + start, self._start + stop)
            return tuple(self._flat[self._start + i] for i in range(start, stop, step))
        if item < 0:
            item += n
        if not 0 <= item < n:
            raise IndexError("RefsView index out of range")
        return self._flat[self._start + item]

    def __contains__(self, config) -> bool:
        return self.find(config) >= 0

    def __eq__(self, other) -> bool:
        if isinstance(other, RefsView):
            if self is other:
                return True
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other)
            )
        if isinstance(other, (tuple, list)):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented

    def __hash__(self):
        return hash(self.to_tuple())

    def to_tuple(self) -> Tuple[ConfigId, ...]:
        return tuple(self._flat[self._start : self._stop])

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"RefsView({self.to_tuple()!r})"


class WindowConfigSet:
    """Set-like view of the configurations inside the Dynamic-List window.

    Backed by the manager's incrementally-maintained per-dense-config
    reference counts, so membership (`the paper's ``reusable(victim)``
    test`) is two O(1) lookups instead of building a ``frozenset`` of the
    window on every decision.
    """

    __slots__ = ("_counts", "_index", "_ids")

    def __init__(
        self,
        counts: List[int],
        index: Mapping[ConfigId, int],
        ids: Sequence[ConfigId],
    ) -> None:
        self._counts = counts
        self._index = index
        self._ids = ids

    def __contains__(self, config) -> bool:
        cid = self._index.get(config)
        return cid is not None and self._counts[cid] > 0

    def __iter__(self):
        counts = self._counts
        for cid, config in enumerate(self._ids):
            if counts[cid] > 0:
                yield config

    def __len__(self) -> int:
        return sum(1 for c in self._counts if c > 0)

    def to_frozenset(self):
        return frozenset(self)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"WindowConfigSet({sorted(self.to_frozenset())!r})"

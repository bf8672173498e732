"""The explicit experiment task DAG: compile → mobility/ideal → cells → reduce.

Before this module, design-time work was deduplicated *implicitly* —
every cell asked the :class:`~repro.session.ArtifactCache` for its
mobility tables and ideal makespan, and all but the first ask hit the
cache.  :func:`build_plan` makes the sharing structural instead: an
experiment becomes a dict-of-nodes task graph (the shape of Dask's
task-scheduling spec), where each *distinct* design-time artifact is one
node, each cell depends on exactly the nodes it needs, and a final
``reduce`` node depends on every cell.  The scheduler then executes each
design-time node **once** — sharing is visible in the plan, not an
artifact of cache hits — and hands the ready cells to an
:class:`~repro.backends.base.ExecutorBackend`.

Ordering guarantee (property-tested in ``tests/test_backends.py``): a
topological order never schedules a cell before its ``compile``,
``mobility`` and ``ideal`` predecessors, and the ``reduce`` node comes
last.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.backends.base import SweepCell
from repro.exceptions import ExperimentError
from repro.sim.simulator import ideal_floorplan

#: Node kinds, in the conceptual pipeline order.
NODE_KINDS = ("compile", "mobility", "ideal", "cell", "reduce")

COMPILE_NODE = "compile"
REDUCE_NODE = "reduce"


@dataclass(frozen=True)
class PlanNode:
    """One task of the experiment DAG.

    ``key`` is unique within the plan; ``deps`` are the keys that must
    complete first.  ``index`` is the cell index for ``cell`` nodes;
    ``params`` carries the artifact coordinates for ``mobility``/``ideal``
    nodes (what the scheduler passes to the artifact cache).
    """

    key: str
    kind: str
    deps: Tuple[str, ...] = ()
    index: Optional[int] = None
    params: Tuple = ()

    def __post_init__(self) -> None:
        if self.kind not in NODE_KINDS:
            raise ExperimentError(
                f"unknown plan node kind {self.kind!r} (have {NODE_KINDS})"
            )


class ExperimentPlan:
    """A validated experiment task DAG over one batch of sweep cells."""

    def __init__(self, nodes: Sequence[PlanNode], cells: Sequence[SweepCell]) -> None:
        self.nodes: Dict[str, PlanNode] = {}
        for node in nodes:
            if node.key in self.nodes:
                raise ExperimentError(f"duplicate plan node {node.key!r}")
            self.nodes[node.key] = node
        self.cells: Tuple[SweepCell, ...] = tuple(cells)
        self.validate()

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Every dependency exists and the graph is acyclic."""
        for node in self.nodes.values():
            for dep in node.deps:
                if dep not in self.nodes:
                    raise ExperimentError(
                        f"plan node {node.key!r} depends on missing {dep!r}"
                    )
        self.topological_order()  # raises on cycles

    def topological_order(self) -> List[PlanNode]:
        """Deterministic topological order (Kahn over insertion order)."""
        indegree = {key: len(node.deps) for key, node in self.nodes.items()}
        dependents: Dict[str, List[str]] = {key: [] for key in self.nodes}
        for node in self.nodes.values():
            for dep in node.deps:
                dependents[dep].append(node.key)
        ready = [key for key in self.nodes if indegree[key] == 0]
        order: List[PlanNode] = []
        while ready:
            key = ready.pop(0)
            order.append(self.nodes[key])
            for succ in dependents[key]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self.nodes):
            stuck = sorted(set(self.nodes) - {n.key for n in order})
            raise ExperimentError(f"experiment plan has a cycle through {stuck}")
        return order

    # ------------------------------------------------------------------
    def nodes_of_kind(self, kind: str) -> List[PlanNode]:
        return [n for n in self.nodes.values() if n.kind == kind]

    def cell_node(self, index: int) -> PlanNode:
        return self.nodes[f"cell:{index}"]

    def counts(self) -> Dict[str, int]:
        """Node count per kind — what the dedup actually bought."""
        out = {kind: 0 for kind in NODE_KINDS}
        for node in self.nodes.values():
            out[node.kind] += 1
        return out

    def describe(self) -> str:
        c = self.counts()
        return (
            f"ExperimentPlan: {c['cell']} cells over {c['mobility']} mobility "
            f"+ {c['ideal']} ideal design-time nodes (1 compile, 1 reduce)"
        )

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.describe()}>"


def _mobility_coords(cell: SweepCell) -> str:
    """What a cell's mobility tables depend on: its whole device."""
    return repr(sorted(cell.device.fingerprint().items()))


def build_plan(cells: Sequence[SweepCell]) -> ExperimentPlan:
    """The task DAG for one batch of cells.

    * one ``compile`` root (the workload compiles exactly once);
    * one ``mobility`` node per distinct device fingerprint among the
      *skip-enabled* cells (ASAP cells need none);
    * one ``ideal`` node per distinct ``(n_rus, floorplan)`` — the
      coordinates the artifact cache's ideals depend on (the floorplan
      is :func:`~repro.sim.simulator.ideal_floorplan`: ``None`` unless
      slot capacities differ), so plan-level dedup and cache-level dedup
      agree by construction;
    * one ``cell`` node per cell, depending on ``compile`` plus its
      artifact nodes;
    * one ``reduce`` sink depending on every cell.
    """
    if not cells:
        raise ExperimentError("build_plan requires at least one cell")
    nodes: List[PlanNode] = [PlanNode(key=COMPILE_NODE, kind="compile")]
    mobility_nodes: Dict[str, str] = {}
    ideal_nodes: Dict[Tuple, str] = {}
    for cell in cells:
        if cell.spec.skip_events:
            coords = _mobility_coords(cell)
            if coords not in mobility_nodes:
                key = f"mobility:{len(mobility_nodes)}"
                mobility_nodes[coords] = key
                nodes.append(
                    PlanNode(
                        key=key,
                        kind="mobility",
                        deps=(COMPILE_NODE,),
                        params=(coords,),
                    )
                )
        coords = (cell.n_rus, ideal_floorplan(cell.device))
        if coords not in ideal_nodes:
            key = f"ideal:{len(ideal_nodes)}"
            ideal_nodes[coords] = key
            nodes.append(
                PlanNode(key=key, kind="ideal", deps=(COMPILE_NODE,), params=coords)
            )
    cell_keys: List[str] = []
    for i, cell in enumerate(cells):
        deps = [COMPILE_NODE]
        if cell.spec.skip_events:
            deps.append(mobility_nodes[_mobility_coords(cell)])
        deps.append(ideal_nodes[(cell.n_rus, ideal_floorplan(cell.device))])
        key = f"cell:{i}"
        cell_keys.append(key)
        nodes.append(PlanNode(key=key, kind="cell", deps=tuple(deps), index=i))
    nodes.append(PlanNode(key=REDUCE_NODE, kind="reduce", deps=tuple(cell_keys)))
    return ExperimentPlan(nodes, cells)

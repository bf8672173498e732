"""Calibration harness for the paper's hand-drawn motivational figures.

The paper gives the worked examples of Figs. 2, 3 and 7 as schedules with
exact reuse rates, overheads, makespans and mobilities, but does not give
the underlying task-graph structures (they are "Task Graph 1/2" sketches).
This module formalises the search we ran while building the reproduction:
enumerate the small space of candidate DAG shapes x execution-time
assignments x manager semantic variants, simulate each, and keep the
configurations that reproduce *every* number simultaneously.

Running :func:`calibrate_fig2` and :func:`calibrate_fig37` re-derives the
fixtures frozen in :mod:`repro.experiments.motivational`; the test suite
asserts the frozen fixtures are among the matches, so the calibration is
reproducible evidence for DESIGN.md §2(3) rather than a one-off script.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.mobility import MobilityCalculator
from repro.core.policies.classic import LRUPolicy
from repro.core.policies.lfd import LFDPolicy, LocalLFDPolicy
from repro.core.replacement_module import PolicyAdvisor
from repro.exceptions import SimulationError
from repro.graphs.builders import TaskGraphBuilder
from repro.graphs.task_graph import TaskGraph
from repro.hw.model import DeviceModel
from repro.sim.semantics import CrossAppPrefetch, ManagerSemantics
from repro.sim.simtime import ms
from repro.sim.simulator import run_simulation

#: The worked examples' device: 4 RUs, 4 ms reconfigurations.
DEVICE = DeviceModel.homogeneous(4, ms(4))

#: Paper Fig. 2 targets: (reuse %, overhead ms) per policy.
FIG2_TARGETS = {"LRU": (16.7, 22.0), "LFD": (41.7, 11.0), "LocalLFD": (41.7, 15.0)}

#: Paper Fig. 7 targets (ms).
FIG7_TARGETS = {
    "reference": 30.0,
    "delay5_1": 36.0,
    "delay6_1": 32.0,
    "delay7_1": 30.0,
    "delay7_2": 32.0,
}

#: Paper Fig. 3 targets.
FIG3_ASAP = {"makespan_ms": 74.0, "overhead_ms": 12.0, "reuse_pct": 0.0}
FIG3_SKIP = {"makespan_ms": 70.0, "overhead_ms": 8.0, "reuse_pct": 10.0}


def _build(name: str, times: Dict[int, int], edges: Sequence[Tuple[int, int]]) -> TaskGraph:
    builder = TaskGraphBuilder(name)
    for nid, t in sorted(times.items()):
        builder.add_task(nid, t)
    builder.add_edges(edges)
    return builder.build()


@dataclass(frozen=True)
class Fig2Candidate:
    """One point of the Fig. 2 search space."""

    tg1_edges: Tuple[Tuple[int, int], ...]
    tg1_times_ms: Tuple[float, float, float]
    tg2_edges: Tuple[Tuple[int, int], ...]
    tg2_times_ms: Tuple[float, float]
    cross_app: CrossAppPrefetch

    def graphs(self) -> Tuple[TaskGraph, TaskGraph]:
        tg1 = _build(
            "TG1", {i + 1: ms(t) for i, t in enumerate(self.tg1_times_ms)}, self.tg1_edges
        )
        tg2 = _build(
            "TG2", {i + 4: ms(t) for i, t in enumerate(self.tg2_times_ms)}, self.tg2_edges
        )
        return tg1, tg2


#: TG1 structural candidates over nodes {1, 2, 3}.
TG1_STRUCTURES: Dict[str, Tuple[Tuple[int, int], ...]] = {
    "chain": ((1, 2), (2, 3)),
    "fork": ((1, 2), (1, 3)),
    "join": ((1, 3), (2, 3)),
    "independent": (),
}

#: TG2 structural candidates over nodes {4, 5}.
TG2_STRUCTURES: Dict[str, Tuple[Tuple[int, int], ...]] = {
    "chain": ((4, 5),),
    "independent": (),
}


def evaluate_fig2(candidate: Fig2Candidate) -> Optional[Dict[str, Tuple[float, float]]]:
    """(reuse %, overhead ms) per policy, or ``None`` if unschedulable."""
    tg1, tg2 = candidate.graphs()
    apps = [tg1, tg2, tg2, tg1, tg2]
    out: Dict[str, Tuple[float, float]] = {}
    runs = {
        "LRU": (PolicyAdvisor(LRUPolicy()), ManagerSemantics(cross_app_prefetch=candidate.cross_app)),
        "LFD": (
            PolicyAdvisor(LFDPolicy()),
            ManagerSemantics(cross_app_prefetch=candidate.cross_app, provide_oracle=True),
        ),
        "LocalLFD": (
            PolicyAdvisor(LocalLFDPolicy()),
            ManagerSemantics(cross_app_prefetch=candidate.cross_app, lookahead_apps=1),
        ),
    }
    for label, (advisor, semantics) in runs.items():
        try:
            result = run_simulation(apps, advisor, semantics, device=DEVICE)
        except SimulationError:
            return None
        out[label] = (round(result.reuse_pct, 1), result.overhead_us / 1000.0)
    return out


def calibrate_fig2(max_results: int = 10) -> List[Fig2Candidate]:
    """Enumerate the Fig. 2 search space; return exact matches."""
    matches: List[Fig2Candidate] = []
    for tg1_edges in TG1_STRUCTURES.values():
        for tg1_times in sorted(set(permutations((2.5, 2.5, 4.0)))):
            for tg2_edges in TG2_STRUCTURES.values():
                for cross_app in CrossAppPrefetch:
                    candidate = Fig2Candidate(
                        tg1_edges=tg1_edges,
                        tg1_times_ms=tg1_times,
                        tg2_edges=tg2_edges,
                        tg2_times_ms=(4.0, 4.0),
                        cross_app=cross_app,
                    )
                    measured = evaluate_fig2(candidate)
                    if measured == FIG2_TARGETS:
                        matches.append(candidate)
                        if len(matches) >= max_results:
                            return matches
    return matches


# ----------------------------------------------------------------------
# Figs. 3 and 7 (shared TG2 reconstruction)
# ----------------------------------------------------------------------
#: All ordered node pairs of {4, 5, 6, 7} (forward edges only).
_TG2_PAIRS = ((4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7))


def evaluate_fig7(graph: TaskGraph) -> Optional[Dict[str, float]]:
    """Fig. 7 measurements (ms) for a TG2 candidate, or ``None``."""
    calc = MobilityCalculator(device=DEVICE)
    try:
        return {
            "reference": calc.reference_makespan(graph) / 1000.0,
            "delay5_1": calc.delayed_makespan(graph, 5, 1) / 1000.0,
            "delay6_1": calc.delayed_makespan(graph, 6, 1) / 1000.0,
            "delay7_1": calc.delayed_makespan(graph, 7, 1) / 1000.0,
            "delay7_2": calc.delayed_makespan(graph, 7, 2) / 1000.0,
        }
    except SimulationError:
        return None


def calibrate_fig7(max_results: int = 10) -> List[TaskGraph]:
    """TG2 candidates (structure + times) matching all Fig. 7 numbers."""
    matches: List[TaskGraph] = []
    for mask in range(1 << len(_TG2_PAIRS)):
        edges = tuple(p for i, p in enumerate(_TG2_PAIRS) if mask >> i & 1)
        for times in sorted(set(permutations((12.0, 6.0, 8.0, 4.0)))):
            graph = _build("TG2", {n: ms(t) for n, t in zip((4, 5, 6, 7), times)}, edges)
            if evaluate_fig7(graph) == FIG7_TARGETS:
                matches.append(graph)
                if len(matches) >= max_results:
                    return matches
    return matches


def evaluate_fig3(tg1: TaskGraph, tg2: TaskGraph) -> Optional[Dict[str, Dict[str, float]]]:
    """Fig. 3 measurements for a (TG1, TG2) pair, or ``None``."""
    apps = [tg1, tg2, tg1]
    semantics = ManagerSemantics(lookahead_apps=1)
    try:
        asap = run_simulation(
            apps, PolicyAdvisor(LocalLFDPolicy()), semantics, device=DEVICE
        )
        mobility = MobilityCalculator(device=DEVICE).compute_tables(apps)
        skip = run_simulation(
            apps,
            PolicyAdvisor(LocalLFDPolicy(), skip_events=True),
            semantics,
            mobility_tables=mobility,
            device=DEVICE,
        )
    except SimulationError:
        return None
    return {
        "asap": {
            "makespan_ms": asap.makespan_us / 1000.0,
            "overhead_ms": asap.overhead_us / 1000.0,
            "reuse_pct": round(asap.reuse_pct, 1),
        },
        "skip": {
            "makespan_ms": skip.makespan_us / 1000.0,
            "overhead_ms": skip.overhead_us / 1000.0,
            "reuse_pct": round(skip.reuse_pct, 1),
        },
    }


def calibrate_fig37(max_results: int = 10) -> List[Tuple[TaskGraph, TaskGraph]]:
    """(TG1, TG2) pairs matching Fig. 7 *and* both Fig. 3 scenarios."""
    matches: List[Tuple[TaskGraph, TaskGraph]] = []
    for tg2 in calibrate_fig7(max_results=16):
        for tg1_edges in TG1_STRUCTURES.values():
            for tg1_times in sorted(set(permutations((12.0, 6.0, 6.0)))):
                tg1 = _build(
                    "TG1", {i + 1: ms(t) for i, t in enumerate(tg1_times)}, tg1_edges
                )
                measured = evaluate_fig3(tg1, tg2)
                if measured == {"asap": FIG3_ASAP, "skip": FIG3_SKIP}:
                    matches.append((tg1, tg2))
                    if len(matches) >= max_results:
                        return matches
    return matches

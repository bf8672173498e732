"""Motivational-example reproductions (paper Figs. 2, 3 and 7).

The task graphs below were reconstructed by the calibration harness
(:mod:`repro.experiments.calibration`): they are the unique small
structures under which the simulator reproduces **exactly** every number
the paper reports in its worked examples — reuse rates, overheads,
makespans and mobilities — see DESIGN.md §2(3).

All three experiments run on 4 RUs with a 4 ms reconfiguration latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

from repro.core.mobility import MobilityCalculator
from repro.core.policy_spec import lfd_spec, local_lfd_spec, lru_spec
from repro.graphs.builders import TaskGraphBuilder
from repro.graphs.task_graph import TaskGraph
from repro.hw.model import DeviceModel
from repro.session import Session
from repro.sim.simtime import ms
from repro.sim.simulator import SimulationResult
from repro.util.tables import TextTable
from repro.workloads.sequence import Workload

#: Device used by every worked example in the paper.
PAPER_EXAMPLE_DEVICE = DeviceModel.homogeneous(4, ms(4), name="paper-example")
N_RUS = PAPER_EXAMPLE_DEVICE.n_rus
RECONFIG_LATENCY = PAPER_EXAMPLE_DEVICE.reconfig_latency


# ----------------------------------------------------------------------
# Calibrated task graphs
# ----------------------------------------------------------------------
def fig2_task_graph_1() -> TaskGraph:
    """Fig. 2 Task Graph 1: chain ``1(2.5ms) -> 2(2.5ms) -> 3(4ms)``."""
    return (
        TaskGraphBuilder("TG1")
        .add_task(1, ms(2.5))
        .add_task(2, ms(2.5))
        .add_task(3, ms(4))
        .add_chain([1, 2, 3])
        .build()
    )


def fig2_task_graph_2() -> TaskGraph:
    """Fig. 2 Task Graph 2: chain ``4(4ms) -> 5(4ms)``."""
    return (
        TaskGraphBuilder("TG2")
        .add_task(4, ms(4))
        .add_task(5, ms(4))
        .add_edge(4, 5)
        .build()
    )


def fig2_sequence() -> List[TaskGraph]:
    """Fig. 2 execution order: TG1, TG2 (x2), TG1, TG2 — 12 tasks."""
    tg1 = fig2_task_graph_1()
    tg2 = fig2_task_graph_2()
    return [tg1, tg2, tg2, tg1, tg2]


def fig3_task_graph_1() -> TaskGraph:
    """Fig. 3 Task Graph 1: fork ``1(12ms) -> {2(6ms), 3(6ms)}``."""
    return (
        TaskGraphBuilder("TG1")
        .add_task(1, ms(12))
        .add_task(2, ms(6))
        .add_task(3, ms(6))
        .add_edge(1, 2)
        .add_edge(1, 3)
        .build()
    )


def fig3_task_graph_2() -> TaskGraph:
    """Fig. 3/7 Task Graph 2: ``4(12ms) -> {5(6ms), 6(4ms)}, 5 -> 7(8ms)``.

    Reconfiguration sequence 4, 5, 6, 7; reference schedule 30 ms;
    mobilities (5, 6, 7) = (0, 0, 1) — all as in the paper's Fig. 7.
    """
    return (
        TaskGraphBuilder("TG2")
        .add_task(4, ms(12))
        .add_task(5, ms(6))
        .add_task(6, ms(4))
        .add_task(7, ms(8))
        .add_edge(4, 5)
        .add_edge(4, 6)
        .add_edge(5, 7)
        .build()
    )


def fig3_sequence() -> List[TaskGraph]:
    """Fig. 3 execution order: TG1, TG2, TG1 — 10 tasks."""
    tg1 = fig3_task_graph_1()
    tg2 = fig3_task_graph_2()
    return [tg1, tg2, tg1]


# ----------------------------------------------------------------------
# Experiment records
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MotivationalRow:
    """One policy row of a motivational figure: paper vs. measured."""

    label: str
    reuse_pct: float
    overhead_ms: float
    makespan_ms: float
    paper_reuse_pct: float
    paper_overhead_ms: float

    @property
    def reuse_matches(self) -> bool:
        return abs(self.reuse_pct - self.paper_reuse_pct) < 0.05

    @property
    def overhead_matches(self) -> bool:
        return abs(self.overhead_ms - self.paper_overhead_ms) < 1e-9


def _row(
    label: str,
    result: SimulationResult,
    paper_reuse: float,
    paper_overhead: float,
) -> MotivationalRow:
    return MotivationalRow(
        label=label,
        reuse_pct=round(result.reuse_pct, 1),
        overhead_ms=result.overhead_us / 1000.0,
        makespan_ms=result.makespan_us / 1000.0,
        paper_reuse_pct=paper_reuse,
        paper_overhead_ms=paper_overhead,
    )


def _example_session(apps: List[TaskGraph], name: str) -> Session:
    workload = Workload(
        apps=tuple(apps),
        n_rus=PAPER_EXAMPLE_DEVICE.n_rus,
        reconfig_latency=PAPER_EXAMPLE_DEVICE.reconfig_latency,
        name=name,
    )
    return Session(PAPER_EXAMPLE_DEVICE, workload)


def run_fig2() -> List[MotivationalRow]:
    """Reproduce Fig. 2: LRU vs LFD vs Local LFD(1), ASAP, 4 RUs.

    Paper values: LRU 16.7 % / 22 ms; LFD 41.7 % / 11 ms;
    Local LFD 41.7 % / 15 ms.
    """
    session = _example_session(fig2_sequence(), "fig2")
    return [
        _row("LRU", session.run(lru_spec()), 16.7, 22.0),
        _row("LFD", session.run(lfd_spec()), 41.7, 11.0),
        _row("Local LFD (1)", session.run(local_lfd_spec(1)), 41.7, 15.0),
    ]


def run_fig3() -> List[MotivationalRow]:
    """Reproduce Fig. 3: Local LFD(1) ASAP vs + Skip Events, 4 RUs.

    Paper values: ASAP — reuse 0 %, overhead 12 ms, makespan 74 ms;
    Skip Events — reuse 10 %, overhead 8 ms, makespan 70 ms.
    """
    session = _example_session(fig3_sequence(), "fig3")
    asap = session.run(local_lfd_spec(1))
    skip = session.run(local_lfd_spec(1, skip_events=True))
    return [
        _row("Local LFD ASAP", asap, 0.0, 12.0),
        _row("Local LFD + Skip Events", skip, 10.0, 8.0),
    ]


@dataclass(frozen=True)
class Fig7Result:
    """Mobility-calculation walk-through (paper Fig. 7)."""

    reference_makespan_ms: float
    delay5_makespan_ms: float      # task 5 delayed 1 event (paper: 36)
    delay6_makespan_ms: float      # task 6 delayed 1 event (paper: 32)
    delay7_once_makespan_ms: float   # task 7 delayed 1 event (paper: 30)
    delay7_twice_makespan_ms: float  # task 7 delayed 2 events (paper: 32)
    mobilities: Mapping[int, int]    # paper: {4: 0, 5: 0, 6: 0, 7: 1}


def run_fig7() -> Fig7Result:
    """Reproduce Fig. 7: mobility calculation on Task Graph 2, 4 RUs."""
    graph = fig3_task_graph_2()
    calc = MobilityCalculator(device=PAPER_EXAMPLE_DEVICE)
    result = calc.compute(graph)
    return Fig7Result(
        reference_makespan_ms=result.reference_makespan_us / 1000.0,
        delay5_makespan_ms=calc.delayed_makespan(graph, 5, 1) / 1000.0,
        delay6_makespan_ms=calc.delayed_makespan(graph, 6, 1) / 1000.0,
        delay7_once_makespan_ms=calc.delayed_makespan(graph, 7, 1) / 1000.0,
        delay7_twice_makespan_ms=calc.delayed_makespan(graph, 7, 2) / 1000.0,
        mobilities=result.mobilities,
    )


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def render_fig2_report() -> str:
    table = TextTable(
        ["policy", "reuse % (paper)", "overhead ms (paper)", "makespan ms"],
        title="Fig. 2 — replacement policies on the motivational workload (4 RUs)",
    )
    for row in run_fig2():
        table.add_row(
            [
                row.label,
                f"{row.reuse_pct:.1f} ({row.paper_reuse_pct:.1f})",
                f"{row.overhead_ms:g} ({row.paper_overhead_ms:g})",
                f"{row.makespan_ms:g}",
            ]
        )
    return table.render()


def render_fig3_report() -> str:
    table = TextTable(
        ["mode", "reuse % (paper)", "overhead ms (paper)", "makespan ms (paper)"],
        title="Fig. 3 — skip events escape the ASAP local optimum (4 RUs)",
    )
    paper_makespans = {"Local LFD ASAP": 74.0, "Local LFD + Skip Events": 70.0}
    for row in run_fig3():
        table.add_row(
            [
                row.label,
                f"{row.reuse_pct:.1f} ({row.paper_reuse_pct:.1f})",
                f"{row.overhead_ms:g} ({row.paper_overhead_ms:g})",
                f"{row.makespan_ms:g} ({paper_makespans[row.label]:g})",
            ]
        )
    return table.render()


def render_fig7_report() -> str:
    r = run_fig7()
    table = TextTable(
        ["schedule", "makespan ms", "paper ms"],
        title="Fig. 7 — design-time mobility calculation on Task Graph 2 (4 RUs)",
    )
    table.add_row(["reference (all mobility 0)", f"{r.reference_makespan_ms:g}", "30"])
    table.add_row(["task 5 delayed 1 event", f"{r.delay5_makespan_ms:g}", "36"])
    table.add_row(["task 6 delayed 1 event", f"{r.delay6_makespan_ms:g}", "32"])
    table.add_row(["task 7 delayed 1 event", f"{r.delay7_once_makespan_ms:g}", "30"])
    table.add_row(["task 7 delayed 2 events", f"{r.delay7_twice_makespan_ms:g}", "32"])
    mob = ", ".join(f"t{n}={m}" for n, m in sorted(r.mobilities.items()))
    return table.render() + f"\nmobilities: {mob} (paper: t4=0, t5=0, t6=0, t7=1)"

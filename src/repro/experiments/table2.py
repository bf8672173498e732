"""Table II — impact of the replacement module on system performance.

Per benchmark application the paper reports:

* column 2 — "Initial Execution Time": the application's makespan with no
  overheads (JPEG 79 ms, MPEG-1 37 ms, HOUGH 94 ms);
* column 3 — run-time overhead of the task-graph execution manager [9]
  (0.87–1.02 ms, ≈11x the replacement module's);
* column 4 — run-time execution time of the replacement module
  (averaged over DL sizes 1/2/4; 81.5 µs on the PowerPC);
* column 5 — column 4 as a percentage of column 2 (0.09–0.22 %);
* column 6 — design-time (mobility-calculation) execution time,
  1–3 orders of magnitude above the run-time module (8.6–14.5 ms).

Our measured columns 3/4/6 are Python wall-clock times — the platform
factor differs from the 100 MHz PowerPC, but the reproduction targets are
the relations: replacement ≪ manager ≪ application, and design-time 1–3
orders above run-time.  Column 5 mixes a measured wall time with a
*simulated* execution time exactly as the paper mixes measured module time
with nominal application time; it demonstrates the "negligible overhead"
claim rather than a platform-specific constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.mobility import MobilityCalculator
from repro.core.policies.lfd import LocalLFDPolicy
from repro.core.replacement_module import PolicyAdvisor
from repro.experiments.table1 import worst_case_context, _reference_strings
from repro.graphs.multimedia import benchmark_suite
from repro.hw.model import PAPER_DEVICE_MODEL
from repro.sim.manager import ExecutionManager
from repro.sim.semantics import ManagerSemantics
from repro.util.tables import TextTable
from repro.util.timing import measure_best, measure_calls


#: Paper Table II reference values.
PAPER_TABLE2 = {
    "JPEG": {"initial_ms": 79, "manager_ms": 0.87, "module_ms": 0.08153, "overhead_pct": 0.10, "design_ms": 8.60},
    "MPEG1": {"initial_ms": 37, "manager_ms": 1.02, "module_ms": 0.08153, "overhead_pct": 0.22, "design_ms": 11.09},
    "HOUGH": {"initial_ms": 94, "manager_ms": 0.88, "module_ms": 0.08153, "overhead_pct": 0.09, "design_ms": 14.48},
}


@dataclass(frozen=True)
class Table2Row:
    """One benchmark application's measurements."""

    app: str
    initial_exec_ms: float        # simulated ideal makespan (paper col 2)
    manager_wall_ms: float        # wall time of one managed run (col 3 analog)
    module_wall_ms: float         # avg replacement decision wall time (col 4 analog)
    overhead_pct: float           # col 4 / col 2 * 100 (col 5 analog)
    design_time_wall_ms: float    # mobility calculation wall time (col 6 analog)

    @property
    def design_over_runtime(self) -> float:
        """Design-time / run-time ratio (paper: 1–3 orders of magnitude)."""
        return self.design_time_wall_ms / max(self.module_wall_ms, 1e-9)


def _avg_module_decision_ms(calls: int = 2000) -> float:
    """Average worst-case Local LFD decision time over DL sizes 1, 2, 4."""
    total = 0.0
    for window in (1, 2, 4):
        refs, _ = _reference_strings(sequence_length=500, dl_window=window)
        ctx = worst_case_context(future_refs=refs, oracle_refs=None)
        advisor = PolicyAdvisor(LocalLFDPolicy(), skip_events=True)
        total += measure_calls(lambda: advisor.decide(ctx), calls) * 1e3
    return total / 3.0


def run_table2(decision_calls: int = 2000) -> List[Table2Row]:
    """Measure every Table II column for the three benchmark applications."""
    module_ms = _avg_module_decision_ms(decision_calls)
    rows: List[Table2Row] = []
    for graph in benchmark_suite():
        initial_ms = graph.critical_path_length() / 1000.0

        def run_once(graph=graph):
            ExecutionManager(
                graphs=[graph],
                device=PAPER_DEVICE_MODEL,
                advisor=PolicyAdvisor(LocalLFDPolicy()),
                semantics=ManagerSemantics(lookahead_apps=1),
            ).run()

        manager_wall_ms = measure_best(run_once, repeats=5) * 1e3

        calc = MobilityCalculator(device=PAPER_DEVICE_MODEL)
        design_wall_ms = measure_best(lambda: calc.compute(graph), repeats=3) * 1e3

        rows.append(
            Table2Row(
                app=graph.name,
                initial_exec_ms=initial_ms,
                manager_wall_ms=manager_wall_ms,
                module_wall_ms=module_ms,
                overhead_pct=100.0 * module_ms / initial_ms,
                design_time_wall_ms=design_wall_ms,
            )
        )
    return rows


def render_table2(rows: Optional[List[Table2Row]] = None) -> str:
    rows = rows if rows is not None else run_table2()
    table = TextTable(
        [
            "task graph",
            "initial exec (ms)",
            "manager (ms)",
            "repl. module (ms)",
            "overhead (%)",
            "design time (ms)",
            "design/run ratio",
        ],
        title="Table II — impact of the replacement module (measured, Python; see module docstring)",
    )
    for row in rows:
        table.add_row(
            [
                row.app,
                f"{row.initial_exec_ms:g}",
                f"{row.manager_wall_ms:.3f}",
                f"{row.module_wall_ms:.5f}",
                f"{row.overhead_pct:.3f}",
                f"{row.design_time_wall_ms:.2f}",
                f"{row.design_over_runtime:.0f}x",
            ]
        )
    paper = TextTable(
        ["task graph", "initial exec (ms)", "manager (ms)", "module (ms)", "overhead (%)", "design (ms)"],
        title="Paper Table II (PowerPC @ 100 MHz)",
    )
    for app, vals in PAPER_TABLE2.items():
        paper.add_row(
            [
                app,
                vals["initial_ms"],
                vals["manager_ms"],
                vals["module_ms"],
                vals["overhead_pct"],
                vals["design_ms"],
            ]
        )
    return table.render() + "\n" + paper.render()

"""X-HYB — the hybrid design-time/run-time speed-up (abstract claim).

"by performing the bulk of the computations at design time, we reduce the
execution time of the replacement technique by 10 times with respect to an
equivalent purely run-time one."

We measure the run-time cost of one skip-capable replacement decision in
two implementations:

* **hybrid** (the paper's technique): mobility comes from a table
  precomputed by :class:`~repro.core.mobility.MobilityCalculator`;
* **purely run-time**: :class:`~repro.core.mobility.
  PurelyRuntimeMobilityAdvisor` recomputes the incoming task's mobility
  with the full Fig. 6 search inside the decision.

Both make identical decisions; only where the mobility computation happens
differs.  The reported number is the per-decision speed-up.

The purely run-time comparator pays the *literal* Fig. 6 linear scan with
no memoization — it models the absence of a design-time phase.  The
hybrid's one-off design-time cost is measured with the production engine
(exponential-probe-then-bisect, memoized reference schedules; see
:class:`~repro.core.mobility.MobilityCalculator`), which widens the
amortized gap further: the design-time phase itself got cheaper while the
run-time table lookup stayed O(1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.mobility import MobilityCalculator, PurelyRuntimeMobilityAdvisor
from repro.core.policies.lfd import LocalLFDPolicy
from repro.core.replacement_module import PolicyAdvisor
from repro.experiments.motivational import fig3_task_graph_2
from repro.graphs.multimedia import benchmark_suite
from repro.graphs.task import ConfigId, TaskInstance
from repro.hw.model import PAPER_DEVICE_MODEL
from repro.sim.interface import DecisionContext
from repro.sim.ru import RUState, RUView
from repro.util.tables import TextTable
from repro.util.timing import measure_calls

#: Device of the paper's worked examples (4 RUs, 4 ms latency).
DEVICE = PAPER_DEVICE_MODEL


def _skip_exercising_context(graph_name: str, node_id: int) -> DecisionContext:
    """A context in which the chosen victim *is* reusable, so the skip path
    (and hence the mobility computation) is exercised on every decision.

    A single candidate guarantees the policy selects the reusable
    configuration regardless of its distance heuristics.
    """
    victim_cfg = ConfigId(graph_name, node_id)
    candidates = (
        RUView(index=0, config=victim_cfg, state=RUState.LOADED, last_use=0, load_end=0),
    )
    incoming = TaskInstance(app_index=0, config=ConfigId(graph_name, node_id), exec_time=1000)
    future = (victim_cfg,)  # victim referenced in DL -> reusable
    return DecisionContext(
        now=0,
        incoming=incoming,
        candidates=candidates,
        future_refs=future,
        oracle_refs=None,
        dl_configs=frozenset(future),
        busy_configs=frozenset(),
        mobility=1,  # hybrid advisor reads this; runtime advisor recomputes
        skipped_events=0,
    )


@dataclass(frozen=True)
class HybridSpeedupResult:
    graph_name: str
    hybrid_decision_us: float
    runtime_decision_us: float
    design_time_ms: float    # one-off cost the hybrid pays up front

    @property
    def speedup(self) -> float:
        return self.runtime_decision_us / max(self.hybrid_decision_us, 1e-9)


def run_hybrid_speedup(
    graph=None,
    calls_hybrid: int = 2000,
    calls_runtime: int = 20,
) -> HybridSpeedupResult:
    """Measure per-decision time: precomputed-mobility vs recompute-always."""
    graph = graph if graph is not None else fig3_task_graph_2()
    node = graph.reconfiguration_order()[-1]
    ctx = _skip_exercising_context(graph.name, node)

    hybrid = PolicyAdvisor(LocalLFDPolicy(), skip_events=True)
    hybrid_us = measure_calls(lambda: hybrid.decide(ctx), calls_hybrid) * 1e6

    runtime = PurelyRuntimeMobilityAdvisor(
        policy=LocalLFDPolicy(),
        graphs_by_name={graph.name: graph},
        device=DEVICE,
    )
    runtime_us = measure_calls(lambda: runtime.decide(ctx), calls_runtime) * 1e6

    # One-off design-time cost, measured with the production search engine
    # (bisect + memoized reference; a fresh calculator so nothing is warm).
    calc = MobilityCalculator(device=DEVICE)
    import time

    t0 = time.perf_counter()
    calc.compute(graph)
    design_ms = (time.perf_counter() - t0) * 1e3

    return HybridSpeedupResult(
        graph_name=graph.name,
        hybrid_decision_us=hybrid_us,
        runtime_decision_us=runtime_us,
        design_time_ms=design_ms,
    )


def render_hybrid_speedup(result: Optional[HybridSpeedupResult] = None) -> str:
    result = result if result is not None else run_hybrid_speedup()
    table = TextTable(
        ["implementation", "per-decision time (us)"],
        title="X-HYB — hybrid vs purely run-time replacement decision",
    )
    table.add_row(["hybrid (precomputed mobility)", f"{result.hybrid_decision_us:.2f}"])
    table.add_row(["purely run-time (recompute mobility)", f"{result.runtime_decision_us:.2f}"])
    return (
        table.render()
        + f"\nspeed-up: {result.speedup:.1f}x (paper claims ~10x); "
        + f"one-off design-time cost: {result.design_time_ms:.2f} ms"
    )

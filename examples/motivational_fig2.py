#!/usr/bin/env python3
"""Walk through the paper's Fig. 2 motivational example with Gantt charts.

Reproduces the exact schedules of the paper's Fig. 2: two small task
graphs executed as TG1, TG2 (x2), TG1, TG2 on a 4-RU device with 4 ms
reconfiguration latency, under LRU, clairvoyant LFD and Local LFD (1).

Paper numbers (all reproduced exactly):

    LRU          reuse 16.7 %, overhead 22 ms
    LFD          reuse 41.7 %, overhead 11 ms   (optimal)
    Local LFD(1) reuse 41.7 %, overhead 15 ms

Usage::

    python examples/motivational_fig2.py
"""

from __future__ import annotations

from repro import (
    LFDPolicy,
    LRUPolicy,
    LocalLFDPolicy,
    ManagerSemantics,
    PolicyAdvisor,
    render_gantt,
    run_simulation,
)
from repro.experiments.motivational import (
    PAPER_EXAMPLE_DEVICE,
    fig2_sequence,
    fig2_task_graph_1,
    fig2_task_graph_2,
)
from repro.sim.gantt import render_timeline_events


def main() -> None:
    tg1, tg2 = fig2_task_graph_1(), fig2_task_graph_2()
    print("Task Graph 1 (reconstructed):")
    print(tg1.describe())
    print("\nTask Graph 2 (reconstructed):")
    print(tg2.describe())

    apps = fig2_sequence()
    print(f"\nExecution order: {[g.name for g in apps]} "
          f"({sum(len(g) for g in apps)} tasks total)\n")

    runs = [
        ("(a) LRU", PolicyAdvisor(LRUPolicy()), ManagerSemantics()),
        ("(b) LFD", PolicyAdvisor(LFDPolicy()), ManagerSemantics(provide_oracle=True)),
        (
            "(c) Local LFD (1)",
            PolicyAdvisor(LocalLFDPolicy()),
            ManagerSemantics(lookahead_apps=1),
        ),
    ]
    for label, advisor, semantics in runs:
        result = run_simulation(apps, advisor, semantics, device=PAPER_EXAMPLE_DEVICE)
        print("=" * 70)
        print(
            f"{label}: reuse {result.reuse_pct:.1f} %, "
            f"overhead {result.overhead_us / 1000:g} ms, "
            f"makespan {result.makespan_us / 1000:g} ms"
        )
        print(render_gantt(result.trace, cell_us=1000))
        print("\nevent log:")
        print(render_timeline_events(result.trace))
        print()


if __name__ == "__main__":
    main()

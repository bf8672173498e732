"""Exhaustive-search optimal replacement (verification oracle).

Belady's theorem says LFD maximises reuse when applied over the complete
reference string; the paper leans on this ("it is proved to guarantee the
optimal reuse rate").  For a *scheduled, prefetching* system this is a
non-trivial transfer, so the test suite verifies it empirically: this
module explores **every** victim-choice sequence on small workloads and
returns the true optimum, against which LFD (and any policy) can be
checked.

The search walks the decision tree depth-first.  A
:class:`ScriptedAdvisor` replays a prefix of decisions and defaults to the
first candidate afterwards while recording each decision point's fan-out;
since the simulator is deterministic, extending the prefix one position at
a time enumerates the whole tree without re-instrumenting the manager.

Complexity is O(n_rus^decisions) simulations — strictly a tool for tiny
instances (the motivational workloads: ≲ 10 evictions, ≤ 3 candidates).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.exceptions import ExperimentError
from repro.graphs.task_graph import TaskGraph
from repro.hw.model import DeviceModel
from repro.sim.interface import Decision, DecisionContext, ReplacementAdvisor
from repro.sim.manager import ExecutionManager
from repro.sim.semantics import ManagerSemantics
from repro.sim.trace import Trace


class ScriptedAdvisor(ReplacementAdvisor):
    """Replays ``script`` (victim indices); records each decision point.

    Beyond the script it deterministically picks the first candidate, so a
    run is fully defined by its prefix.  After the run,
    ``candidate_counts[i]`` is the fan-out of decision point ``i``.
    """

    def __init__(self, script: Sequence[int]) -> None:
        self.script = list(script)
        self.candidate_counts: List[int] = []
        self._position = 0

    def decide(self, ctx: DecisionContext) -> Decision:
        self.candidate_counts.append(len(ctx.candidates))
        if self._position < len(self.script):
            choice = self.script[self._position]
        else:
            choice = 0
        self._position += 1
        if choice >= len(ctx.candidates):
            raise ExperimentError(
                f"scripted choice {choice} out of range "
                f"({len(ctx.candidates)} candidates)"
            )
        return Decision.load(ctx.candidates[choice].index)

    def reset(self) -> None:
        self._position = 0
        self.candidate_counts = []


@dataclass(frozen=True)
class OptimalResult:
    """Outcome of the exhaustive search."""

    best_reuse: int
    best_makespan_for_best_reuse: int
    runs_explored: int
    best_script: Tuple[int, ...]


def exhaustive_best_reuse(
    graphs: Sequence[TaskGraph],
    semantics: ManagerSemantics = ManagerSemantics(),
    max_runs: int = 50_000,
    *,
    device: DeviceModel,
) -> OptimalResult:
    """True maximum reuse over all victim-choice sequences (ASAP, no skips).

    Also reports the best makespan among maximum-reuse schedules.  Raises
    :class:`ExperimentError` when the search would exceed ``max_runs``
    simulations (instance too large for exhaustive exploration).
    """
    best_reuse = -1
    best_makespan = None
    best_script: Tuple[int, ...] = ()
    runs = 0

    def run_with(script: List[int]) -> Tuple[Trace, List[int]]:
        advisor = ScriptedAdvisor(script)
        manager = ExecutionManager(
            graphs=list(graphs),
            device=device,
            advisor=advisor,
            semantics=semantics,
        )
        trace = manager.run()
        return trace, advisor.candidate_counts

    def explore(prefix: List[int]) -> None:
        nonlocal best_reuse, best_makespan, best_script, runs
        runs += 1
        if runs > max_runs:
            raise ExperimentError(
                f"exhaustive search exceeded {max_runs} runs; instance too large"
            )
        trace, counts = run_with(prefix)
        reuse = trace.n_reused_executions
        if reuse > best_reuse or (
            reuse == best_reuse
            and best_makespan is not None
            and trace.makespan < best_makespan
        ):
            best_reuse = reuse
            best_makespan = trace.makespan
            best_script = tuple(prefix)
        elif best_makespan is None:
            best_makespan = trace.makespan
        # Branch on every decision point past the prefix (the defaults).
        for position in range(len(prefix), len(counts)):
            for alternative in range(1, counts[position]):
                explore(prefix + [0] * (position - len(prefix)) + [alternative])

    explore([])
    return OptimalResult(
        best_reuse=best_reuse,
        best_makespan_for_best_reuse=int(best_makespan or 0),
        runs_explored=runs,
        best_script=best_script,
    )

"""Replacement-policy abstraction.

A policy answers one question: *given that the incoming task needs an RU
and these are the eviction candidates, which configuration do we discard?*
Policies are pure strategies over the immutable
:class:`~repro.sim.interface.DecisionContext`; all recency/age stamps they
need (``last_use``, ``load_end``) are maintained by the RU state machine
and exposed through :class:`~repro.sim.ru.RUView`, which keeps every
policy trivially unit-testable without a simulator.
"""

from __future__ import annotations

import abc
import math
from typing import Optional, Sequence, Tuple

from repro.exceptions import PolicyError
from repro.graphs.task import ConfigId
from repro.sim.interface import DecisionContext, noop_hook
from repro.sim.ru import RUView


class ReplacementPolicy(abc.ABC):
    """Victim-selection strategy.

    Subclasses must set :attr:`name` (used in reports and the registry)
    and implement :meth:`select_victim`.
    """

    #: Short identifier used by the registry and experiment reports.
    name: str = "abstract"

    @abc.abstractmethod
    def select_victim(self, ctx: DecisionContext) -> int:
        """Return the RU index of the chosen victim.

        ``ctx.candidates`` is guaranteed non-empty; the returned index must
        belong to one of the candidates (the manager validates this).
        """

    def describe(self) -> str:
        """One-line human-readable description."""
        return self.name

    @noop_hook
    def reset(self) -> None:
        """Clear any internal state before a fresh run (default: none;
        a policy keeping state in ``select_victim`` must override it)."""

    # ------------------------------------------------------------------
    # Optional bookkeeping hooks (forwarded by PolicyAdvisor).
    #
    # Stateless policies (LRU/FIFO/...) read everything they need from the
    # RU views; stateful ones from the cache literature (LFU, LRU-K,
    # CLOCK) override these to maintain frequency/reference state.  The
    # defaults are marked no-op hooks so the engine skips the calls
    # entirely for policies that keep no state.
    # ------------------------------------------------------------------
    @noop_hook
    def on_load_complete(self, ru_index: int, config, now: int) -> None:
        """A reconfiguration finished (a configuration entered an RU)."""

    @noop_hook
    def on_reuse(self, ru_index: int, config, now: int) -> None:
        """A configuration was claimed without reconfiguration."""

    @noop_hook
    def on_execution_end(self, ru_index: int, config, now: int) -> None:
        """A task finished executing (a configuration 'use')."""

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<{type(self).__name__} {self.name!r}>"


def forward_distance(
    config: Optional[ConfigId], refs: Sequence[ConfigId]
) -> float:
    """Position of the first future reference to ``config``.

    Returns ``math.inf`` when the configuration is never referenced again
    within ``refs`` — such candidates are ideal victims for LFD-style
    policies (Belady [10]: evict the request farthest in the future).

    Reference strings supplied by the engine expose a C-speed ``find``
    (a :class:`~repro.workloads.compiled.RefsView` over the compiled
    workload's flat reference array); plain sequences fall back to the
    literal scan.
    """
    if config is None:
        return math.inf
    find = getattr(refs, "find", None)
    if find is not None:
        i = find(config)
        return math.inf if i < 0 else float(i)
    for i, ref in enumerate(refs):
        if ref == config:
            return float(i)
    return math.inf


def argbest(
    candidates: Tuple[RUView, ...],
    key,
    prefer_max: bool,
) -> RUView:
    """Deterministic argmin/argmax over candidates.

    Ties are broken by lowest RU index, which reproduces the paper's
    "selects the first candidate it finds" behaviour (candidates arrive in
    RU-index order from the manager).
    """
    if not candidates:
        raise PolicyError("no candidates to choose from")
    best = candidates[0]
    best_key = key(best)
    for view in candidates[1:]:
        k = key(view)
        if (k > best_key) if prefer_max else (k < best_key):
            best, best_key = view, k
    return best

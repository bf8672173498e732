"""The run-time replacement module (paper §V.B, Fig. 8).

:class:`PolicyAdvisor` adapts a :class:`~repro.core.policies.base.
ReplacementPolicy` to the manager's :class:`~repro.sim.interface.
ReplacementAdvisor` contract and adds the paper's **skip-event** feature:

    "if the selected victim is going to be reused in the near future
    (i.e. inside the boundaries of DL) and ... the mobility of the task is
    greater than the number of total skipped events at that moment ...
    the function just increases the number of skipped events so far.
    Otherwise, it triggers the reconfiguration."

The mobility values come from the design-time phase
(:mod:`repro.core.mobility`); the manager carries them in its
``mobility_tables`` and threads ``mobility`` / ``skipped_events`` through
the decision context, so this adapter is stateless and cheap — exactly the
paper's point about performing the bulk of the computations at design time.
"""

from __future__ import annotations

from repro.core.policies.base import ReplacementPolicy
from repro.sim.interface import (
    Decision,
    DecisionContext,
    ReplacementAdvisor,
    find_candidate,
)


#: Valid skip decision rules (see :class:`PolicyAdvisor`).
SKIP_MODES = ("literal", "prospect")


class PolicyAdvisor(ReplacementAdvisor):
    """Wraps a victim-selection policy, optionally honouring skip events.

    Parameters
    ----------
    policy:
        The victim-selection strategy (LRU, LFD, Local LFD, ...).
    skip_events:
        Enable the paper's skip-event feature (Fig. 8 steps 4-5).  Only
        meaningful when the simulation also supplies mobility tables —
        with all-zero mobility the condition ``mobility > skipped_events``
        is never true and the advisor degenerates to pure ASAP.
    skip_mode:
        ``"literal"`` (default) — exactly Fig. 8: skip whenever the victim
        is reusable within DL and mobility allows.
        ``"prospect"`` — additionally require that some *busy* RU holds a
        configuration not needed within DL, i.e. a better victim will
        surface at an upcoming event.  This refinement operationalises the
        paper's "this delay is not going to introduce any additional
        overhead" intent under contention and is evaluated in the ablation
        experiment (X-ABL).
    """

    def __init__(
        self,
        policy: ReplacementPolicy,
        skip_events: bool = False,
        skip_mode: str = "literal",
    ) -> None:
        if skip_mode not in SKIP_MODES:
            raise ValueError(
                f"skip_mode must be one of {SKIP_MODES}, got {skip_mode!r}"
            )
        self.policy = policy
        self.skip_events = skip_events
        self.skip_mode = skip_mode
        # Hot-path shortcut: the bookkeeping hooks only forward to the
        # policy, so bind the policy's methods directly on the instance —
        # one frame less per notification, millions of notifications per
        # sweep.  Subclasses that override a hook keep their override.
        cls = type(self)
        if cls.on_load_complete is PolicyAdvisor.on_load_complete:
            self.on_load_complete = policy.on_load_complete  # type: ignore[method-assign]
        if cls.on_reuse is PolicyAdvisor.on_reuse:
            self.on_reuse = policy.on_reuse  # type: ignore[method-assign]
        if cls.on_execution_end is PolicyAdvisor.on_execution_end:
            self.on_execution_end = policy.on_execution_end  # type: ignore[method-assign]
        if cls.reset is PolicyAdvisor.reset:
            self.reset = policy.reset  # type: ignore[method-assign]

    # ------------------------------------------------------------------
    def decide(self, ctx: DecisionContext) -> Decision:
        victim_index = self.policy.select_victim(ctx)
        if self.skip_events and self._should_skip(ctx, victim_index):
            # The skip carries the policy's actual victim so the trace
            # reports which configuration the delay protected.
            return Decision.skip_event(victim_index)
        return Decision.load(victim_index)

    def _should_skip(self, ctx: DecisionContext, victim_index: int) -> bool:
        """Fig. 8 step 4: ``reusable(victim) && mobility > skipped_events``.

        The cheap mobility test runs first; a victim that is not a
        candidate raises :class:`PolicyError`, as the manager does for a
        load decision naming one.
        """
        if ctx.mobility <= ctx.skipped_events:
            return False
        config = find_candidate(ctx.candidates, victim_index).config
        if config is None or config not in ctx.dl_configs:
            return False
        if self.skip_mode == "prospect":
            return any(cfg not in ctx.dl_configs for cfg in ctx.busy_configs)
        return True

    def reset(self) -> None:
        self.policy.reset()

    # Forward manager bookkeeping to stateful policies (LFU, LRU-K, ...).
    def on_load_complete(self, ru_index: int, config, now: int) -> None:
        self.policy.on_load_complete(ru_index, config, now)

    def on_reuse(self, ru_index: int, config, now: int) -> None:
        self.policy.on_reuse(ru_index, config, now)

    def on_execution_end(self, ru_index: int, config, now: int) -> None:
        self.policy.on_execution_end(ru_index, config, now)

    def describe(self) -> str:
        suffix = " + Skip Events" if self.skip_events else ""
        return f"{self.policy.describe()}{suffix}"


def make_advisor(policy: ReplacementPolicy, skip_events: bool = False) -> PolicyAdvisor:
    """Convenience constructor mirroring the paper's two modes:
    plain ASAP (``skip_events=False``) and ASAP + Skip Events."""
    return PolicyAdvisor(policy, skip_events=skip_events)

"""Interfaces between the execution manager and the replacement module.

The manager (substrate, ref [9]) and the replacement technique (the paper's
contribution, :mod:`repro.core`) are decoupled exactly as in the paper: on
every load attempt the manager builds an immutable
:class:`DecisionContext` and asks a :class:`ReplacementAdvisor` what to do.
The advisor answers with a :class:`Decision`:

* ``load(victim_index)`` — evict that RU and reconfigure (Fig. 8 steps 6-7);
* ``skip()`` — delay the reconfiguration one event (Fig. 8 step 5).

Free RUs never reach the advisor: the manager fills them directly (there is
nothing to replace).  Bookkeeping notifications (loads, reuses, execution
boundaries, application starts) let stateful policies such as LRU maintain
recency without the manager knowing policy internals.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import FrozenSet, Optional, Sequence, Tuple

from repro.exceptions import PolicyError
from repro.graphs.task import ConfigId, TaskInstance
from repro.sim.ru import RUView
from repro.util.slots import add_slots


@add_slots
@dataclass(frozen=True)
class DecisionContext:
    """Everything a replacement policy may look at for one decision.

    **Validity window.**  A context (and everything reachable from it —
    ``candidates``, ``future_refs``, ``oracle_refs``, ``dl_configs``,
    ``busy_configs``) is valid only for the duration of the ``decide``
    call it was built for.  The engine reuses a scratch carrier and lazy
    views across decisions and hands the live RU objects as candidates,
    so an advisor must copy anything it wants to keep
    (``tuple(ctx.future_refs)``, ``frozenset(ctx.dl_configs)``,
    ``ru.view()``, ...) rather than retain references.  None of the
    built-in policies retain state from the context.

    This frozen dataclass remains the documented field contract (and
    what unit tests construct); the engine's carrier duck-types it.

    Attributes
    ----------
    now:
        Current simulation time (µs).
    incoming:
        The task instance that must be loaded.
    candidates:
        Non-empty sequence of the evictable RUs (S3-protected RUs are
        already filtered out, and on mixed floorplans so are slots the
        incoming bitstream does not fit), in RU-index order.  The engine
        passes the live :class:`~repro.sim.ru.RU` objects, which offer
        every :class:`RUView` field: read them, never mutate them, and
        only during this ``decide`` call.
    future_refs:
        The window-limited future reference string: configurations of the
        not-yet-dispatched tasks, in reconfiguration-sequence order, for
        the current application and the next ``lookahead_apps``
        applications (the Dynamic-List view).  Excludes ``incoming``.
    oracle_refs:
        The complete future reference string (all remaining applications),
        or ``None`` unless the manager runs with ``provide_oracle=True``.
        Only the clairvoyant LFD baseline reads this.
    dl_configs:
        Set of configurations appearing in ``future_refs`` — the paper's
        "inside the boundaries of DL" test for ``reusable(victim)``.
    busy_configs:
        Configurations currently executing or being reconfigured (their
        RUs are not candidates *yet*).  Lets skip heuristics judge whether
        waiting one event can surface a better victim.
    mobility:
        Design-time mobility of ``incoming`` (0 when no mobility table was
        supplied).
    skipped_events:
        Events skipped so far while loading ``incoming``'s application
        instance (the Fig. 8 counter).
    """

    now: int
    incoming: TaskInstance
    candidates: Sequence[RUView]
    future_refs: Tuple[ConfigId, ...]
    oracle_refs: Optional[Tuple[ConfigId, ...]]
    dl_configs: FrozenSet[ConfigId]
    busy_configs: FrozenSet[ConfigId]
    mobility: int
    skipped_events: int


@add_slots
@dataclass(frozen=True)
class Decision:
    """Advisor verdict for one load attempt.

    For a load, ``victim_index`` is the RU to evict.  For a skip it is
    the RU whose configuration the skip *protects* (the victim the policy
    selected before the skip rule fired) — optional for backwards
    compatibility, but advisors should provide it so traces report the
    spared configuration exactly instead of the manager guessing.
    """

    victim_index: Optional[int]   # RU index to evict (load) / protect (skip)
    skip: bool = False

    @staticmethod
    def load(victim_index: int) -> "Decision":
        # Decisions are immutable values; small victim indices (the
        # overwhelmingly common case) return interned instances so the
        # hot loop allocates nothing per decision.
        if 0 <= victim_index < len(_INTERNED_LOADS):
            return _INTERNED_LOADS[victim_index]
        return Decision(victim_index=victim_index, skip=False)

    @staticmethod
    def skip_event(victim_index: Optional[int] = None) -> "Decision":
        return Decision(victim_index=victim_index, skip=True)


_INTERNED_LOADS: Tuple[Decision, ...] = tuple(
    Decision(victim_index=i, skip=False) for i in range(64)
)


def find_candidate(candidates: Sequence[RUView], index: Optional[int]) -> RUView:
    """The candidate on RU ``index``; :class:`PolicyError` when none is."""
    for ru in candidates:
        if ru.index == index:
            return ru
    raise PolicyError(
        f"advisor chose RU{index}, not a candidate "
        f"(candidates: {[ru.index for ru in candidates]})"
    )


def noop_hook(fn):
    """Mark a default (do-nothing) bookkeeping hook.

    The execution manager resolves every advisor hook once at
    construction and *elides the call entirely* when the resolved
    implementation carries this marker — stateless policies then pay
    nothing per notification.  Overriding a hook (anywhere in the class
    hierarchy, or by binding an instance attribute) removes the marker's
    effect automatically, because resolution looks at the implementation
    that would actually run.
    """
    fn.__repro_noop_hook__ = True
    return fn


def resolve_hook(bound):
    """``bound`` unless it resolves to a :func:`noop_hook`, else ``None``."""
    fn = getattr(bound, "__func__", bound)
    return None if getattr(fn, "__repro_noop_hook__", False) else bound


class ReplacementAdvisor(abc.ABC):
    """Strategy object consulted by the manager on every eviction."""

    @abc.abstractmethod
    def decide(self, ctx: DecisionContext) -> Decision:
        """Choose a victim among ``ctx.candidates`` or skip the event."""

    # ------------------------------------------------------------------
    # Bookkeeping notifications (default: ignore)
    # ------------------------------------------------------------------
    @noop_hook
    def on_load_complete(self, ru_index: int, config: ConfigId, now: int) -> None:
        """A reconfiguration finished on ``ru_index``."""

    @noop_hook
    def on_reuse(self, ru_index: int, config: ConfigId, now: int) -> None:
        """A configuration was reused without reconfiguration."""

    @noop_hook
    def on_execution_start(self, ru_index: int, config: ConfigId, now: int) -> None:
        """A task started executing."""

    @noop_hook
    def on_execution_end(self, ru_index: int, config: ConfigId, now: int) -> None:
        """A task finished executing."""

    @noop_hook
    def on_app_activated(self, app_index: int, now: int) -> None:
        """An application became the current one."""

    @noop_hook
    def reset(self) -> None:
        """Clear internal state before a fresh simulation run.

        Advisors that keep run state override it; the marker on this
        default tells :meth:`~repro.sim.manager.ExecutionManager.snapshot`
        that an advisor without bookkeeping hooks or a ``reset`` override
        is stateless and need not be copied."""

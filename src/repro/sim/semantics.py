"""Manager semantics knobs (resolved paper ambiguities).

The paper under-specifies a few behaviours of the task-graph execution
manager; DESIGN.md §3 motivates each knob.  The defaults below are the
configuration selected by the calibration harness
(:mod:`repro.experiments.calibration`) as the one reproducing the paper's
worked examples (Figs. 2, 3 and 7).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from repro.exceptions import LookaheadWindowError


class CrossAppPrefetch(Enum):
    """S1 — may reconfigurations start for not-yet-current applications?

    ``ISOLATED``
        Never: the reconfiguration sequence of an application is processed
        only while that application is the current one.
    ``FREE_RU_ONLY``
        Prefetch into *free* RUs only; a future application's load never
        evicts a configuration.
    ``FULL``
        Future-application loads may evict like current-application loads.
    """

    ISOLATED = "isolated"
    FREE_RU_ONLY = "free_ru_only"
    FULL = "full"


@dataclass(frozen=True)
class ManagerSemantics:
    """Frozen bundle of manager behaviour switches.

    Attributes
    ----------
    cross_app_prefetch:
        S1, see :class:`CrossAppPrefetch`.  Calibrated default:
        ``ISOLATED`` — prefetch hides latencies *within* the current
        application; the next application's reconfigurations start at its
        activation.  This is the configuration under which the paper's
        Figs. 2, 3 and 7 reproduce exactly (see
        :mod:`repro.experiments.calibration`).  The Dynamic-List window is
        then pure *information* for Local LFD, not a prefetch horizon.
    stall_on_loaded_future:
        S2 — when the head of the reconfiguration sequence belongs to a
        future application and its configuration is already loaded, the
        sequence stalls until that application becomes current (the reuse
        is consumed on activation).  Only relevant for the non-ISOLATED
        prefetch ablations.  Calibrated default: ``True``.
    lookahead_apps:
        The Dynamic-List window: how many applications beyond the current
        one are visible ("Local LFD (w)").  Under non-ISOLATED prefetch
        modes this also bounds how far dispatch may run ahead.
    provide_oracle:
        When ``True`` the decision context carries the complete future
        reference string (clairvoyant view) — required by the LFD baseline,
        which "is applied over all the complete sequence of tasks".
    """

    cross_app_prefetch: CrossAppPrefetch = CrossAppPrefetch.ISOLATED
    stall_on_loaded_future: bool = True
    lookahead_apps: int = 1
    provide_oracle: bool = False

    def __post_init__(self) -> None:
        if self.lookahead_apps < 0:
            raise LookaheadWindowError(
                f"lookahead_apps must be >= 0, got {self.lookahead_apps}"
            )

    def with_lookahead(self, lookahead_apps: int) -> "ManagerSemantics":
        return replace(self, lookahead_apps=lookahead_apps)

    def with_oracle(self, provide_oracle: bool = True) -> "ManagerSemantics":
        return replace(self, provide_oracle=provide_oracle)


#: Calibrated "paper mode" defaults.
PAPER_SEMANTICS = ManagerSemantics()

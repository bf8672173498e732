"""Reconfigurable Unit (RU) state machine.

The paper's device is "composed of a set of equal-sized reconfigurable
units (RUs)" [refs 7, 8].  Each RU holds at most one configuration; the
device's reconfiguration controller pool loads configurations into them
(one controller in the paper's model, possibly several under
:class:`~repro.hw.model.DeviceModel`).  Each RU occupies one
:class:`~repro.hw.model.RUSlot` of the floorplan — a capability/size
class that bounds which bitstreams it can hold.

RU life cycle::

    EMPTY --begin_load--> RECONFIGURING --load done--> LOADED
    LOADED --start execution--> EXECUTING --end--> LOADED   (config stays!)
    LOADED --begin_load (eviction)--> RECONFIGURING

The configuration *remains* in the RU after execution — that persistence is
what creates reuse opportunities.  An RU whose configuration has been
claimed for an execution that has not finished yet (``pending`` set) is
protected from eviction (semantics S3).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

from repro.exceptions import SimulationError
from repro.graphs.task import ConfigId, TaskInstance
from repro.hw.model import RUSlot
from repro.util.slots import add_slots


class RUState(Enum):
    EMPTY = "empty"
    RECONFIGURING = "reconfiguring"
    LOADED = "loaded"
    EXECUTING = "executing"


@add_slots
@dataclass(frozen=True)
class RUView:
    """Immutable snapshot of one RU handed to replacement policies.

    ``last_use``
        Time the configuration was last *touched* (load completion or
        execution completion) — the LRU recency stamp.
    ``load_end``
        Time the current configuration finished loading (FIFO age stamp).
    ``kind`` / ``capacity_kb``
        The floorplan slot class this RU occupies (defaults describe the
        paper's unconstrained equal-sized RUs).
    """

    index: int
    config: Optional[ConfigId]
    state: RUState
    last_use: int
    load_end: int
    kind: str = "std"
    capacity_kb: Optional[int] = None


class RU:
    """Mutable runtime state of one reconfigurable unit.

    The manager hands live RUs to the replacement module as decision
    candidates, so an RU offers every :class:`RUView` field.  The
    manager applies the transitions below inline and calls a method only
    on an illegal state, so it raises that method's
    :class:`SimulationError`.
    """

    __slots__ = (
        "index",
        "slot",
        "state",
        "config",
        "pending",
        "pending_reused",
        "last_use",
        "load_end",
    )

    def __init__(self, index: int, slot: Optional[RUSlot] = None) -> None:
        self.index = index
        self.slot = slot if slot is not None else RUSlot()
        self.state = RUState.EMPTY
        self.config: Optional[ConfigId] = None
        #: Instance claimed to execute next on this RU (protection S3).
        self.pending: Optional[TaskInstance] = None
        #: Whether the pending claim came from a reuse (vs a fresh load).
        self.pending_reused = False
        self.last_use = 0
        self.load_end = 0

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def begin_load(self, instance: TaskInstance, now: int) -> None:
        """Start reconfiguring this RU with ``instance``'s configuration."""
        if self.state in (RUState.RECONFIGURING, RUState.EXECUTING):
            raise SimulationError(
                f"RU{self.index}: cannot load while {self.state.value}"
            )
        if self.pending is not None:
            raise SimulationError(
                f"RU{self.index}: cannot evict a claimed configuration "
                f"(pending {self.pending})"
            )
        self.state = RUState.RECONFIGURING
        self.config = instance.config
        self.pending = instance
        self.pending_reused = False

    def finish_load(self, now: int) -> None:
        if self.state is not RUState.RECONFIGURING:
            raise SimulationError(
                f"RU{self.index}: finish_load in state {self.state.value}"
            )
        self.state = RUState.LOADED
        self.load_end = now
        self.last_use = now

    def claim_reuse(self, instance: TaskInstance) -> None:
        """Claim the already-loaded configuration for ``instance``."""
        if self.state is not RUState.LOADED:
            raise SimulationError(
                f"RU{self.index}: reuse claim in state {self.state.value}"
            )
        if self.config != instance.config:
            raise SimulationError(
                f"RU{self.index}: reuse claim for {instance.config} but holds {self.config}"
            )
        if self.pending is not None:
            raise SimulationError(f"RU{self.index}: double claim")
        self.pending = instance
        self.pending_reused = True

    def start_execution(self, now: int) -> TaskInstance:
        if self.state is not RUState.LOADED or self.pending is None:
            raise SimulationError(
                f"RU{self.index}: cannot start execution "
                f"(state={self.state.value}, pending={self.pending})"
            )
        self.state = RUState.EXECUTING
        return self.pending

    def finish_execution(self, now: int) -> TaskInstance:
        if self.state is not RUState.EXECUTING or self.pending is None:
            raise SimulationError(
                f"RU{self.index}: finish_execution in state {self.state.value}"
            )
        instance = self.pending
        self.pending = None
        self.pending_reused = False
        self.state = RUState.LOADED
        self.last_use = now
        return instance

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def is_candidate(self) -> bool:
        """Eligible as a replacement victim (S3 protection rule)."""
        return self.state is RUState.LOADED and self.pending is None

    @property
    def is_free(self) -> bool:
        return self.state is RUState.EMPTY

    @property
    def kind(self) -> str:
        """Slot class (an :class:`RUView` field: RUs are passed as candidates)."""
        return self.slot.kind

    @property
    def capacity_kb(self) -> Optional[int]:
        """Slot capacity (an :class:`RUView` field)."""
        return self.slot.capacity_kb

    def fits(self, bitstream_kb: int) -> bool:
        """Can this RU's slot hold a bitstream of the given size?"""
        return self.slot.fits(bitstream_kb)

    def view(self) -> RUView:
        return RUView(
            index=self.index,
            config=self.config,
            state=self.state,
            last_use=self.last_use,
            load_end=self.load_end,
            kind=self.slot.kind,
            capacity_kb=self.slot.capacity_kb,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        cfg = str(self.config) if self.config else "-"
        pend = f" pending={self.pending}" if self.pending else ""
        return f"RU{self.index}[{self.state.value} {cfg}{pend}]"

"""The first-class hardware model: slots, controllers, latency model.

The paper's device is ``n`` equal reconfigurable units behind **one**
reconfiguration circuitry with **one** fixed latency — two scalars.
:class:`DeviceModel` generalises all three axes while keeping that device
as a byte-identical special case:

* **Slots** — each RU is an :class:`RUSlot` with a capability *kind* and
  an optional bitstream capacity (KiB).  A configuration may only load
  into a slot large enough for its bitstream, which models heterogeneous
  partial-reconfiguration regions whose floorplan determines which task
  fits where.
* **Latency model** — a :class:`~repro.hw.latency.LatencyModel` maps each
  configuration to its load cost (fixed, size-proportional, or tabulated).
* **Controllers** — ``n_controllers >= 1`` reconfiguration circuitries
  load bitstreams in parallel.  Arbitration is deterministic: loads are
  dispatched in reconfiguration-sequence order and each takes the
  lowest-numbered free controller.

It is the only hardware value the engine, the design-time phase and the
:class:`~repro.session.Session` API accept: the paper's device is
``DeviceModel.homogeneous(n, 4000)`` (:data:`PAPER_DEVICE_MODEL` for
``n = 4``).  :meth:`DeviceModel.is_paper_path` identifies the
zero-overhead fast path — uniform unconstrained slots, fixed latency,
single controller — on which every golden-value test runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import DeviceError
from repro.graphs.task import ConfigId
from repro.hw.latency import (
    DEFAULT_BITSTREAM_KB,
    FixedLatency,
    LatencyModel,
)


@dataclass(frozen=True)
class RUSlot:
    """One reconfigurable-unit slot of the floorplan.

    ``kind`` is a capability-class label (reports, Gantt lanes, presets);
    ``capacity_kb`` bounds the bitstreams the slot can hold — ``None``
    means unconstrained (the paper's equal-sized-RU idealisation).
    """

    kind: str = "std"
    capacity_kb: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.kind:
            raise DeviceError("slot kind must be a non-empty string")
        if self.capacity_kb is not None and self.capacity_kb <= 0:
            raise DeviceError(
                f"slot capacity_kb must be > 0 (or None), got {self.capacity_kb}"
            )

    def fits(self, bitstream_kb: int) -> bool:
        """Can a bitstream of this size be loaded into the slot?"""
        return self.capacity_kb is None or bitstream_kb <= self.capacity_kb

    def describe(self) -> str:
        if self.capacity_kb is None:
            return self.kind
        return f"{self.kind}≤{self.capacity_kb}KiB"


@dataclass(frozen=True)
class DeviceModel:
    """A reconfigurable device: slots + latency model + controller pool."""

    slots: Tuple[RUSlot, ...]
    latency_model: LatencyModel = FixedLatency(4000)
    n_controllers: int = 1
    name: str = ""

    def __post_init__(self) -> None:
        if not self.slots:
            raise DeviceError("a device needs at least one RU slot")
        if self.n_controllers < 1:
            raise DeviceError(
                f"n_controllers must be >= 1, got {self.n_controllers}"
            )
        object.__setattr__(self, "slots", tuple(self.slots))

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def homogeneous(
        cls,
        n_rus: int,
        reconfig_latency: int = 4000,
        n_controllers: int = 1,
        name: str = "",
    ) -> "DeviceModel":
        """The paper's device family: ``n`` equal unconstrained RUs."""
        if n_rus < 1:
            raise DeviceError(f"n_rus must be >= 1, got {n_rus}")
        return cls(
            slots=tuple(RUSlot() for _ in range(n_rus)),
            latency_model=FixedLatency(reconfig_latency),
            n_controllers=n_controllers,
            name=name,
        )

    # ------------------------------------------------------------------
    # Scalar-device-compatible surface
    # ------------------------------------------------------------------
    @property
    def n_rus(self) -> int:
        return len(self.slots)

    @property
    def reconfig_latency(self) -> int:
        """Nominal (display/legacy) latency — exact on fixed-latency devices."""
        return self.latency_model.nominal_us

    @property
    def reconfig_latency_ms(self) -> float:
        return self.reconfig_latency / 1000.0

    @property
    def label(self) -> str:
        if self.name:
            return self.name
        parts = [f"{self.n_rus} RUs"]
        if not self.has_uniform_slots:
            parts[0] = "/".join(s.describe() for s in self.slots)
        parts.append(self.latency_model.describe())
        if self.n_controllers > 1:
            parts.append(f"{self.n_controllers} controllers")
        return " @ ".join(parts[:2]) + (
            f", {parts[2]}" if len(parts) > 2 else ""
        )

    # ------------------------------------------------------------------
    # Structure queries (the engine's fast-path switches)
    # ------------------------------------------------------------------
    @property
    def has_uniform_slots(self) -> bool:
        """Every slot unconstrained — no compatibility filtering needed."""
        return all(s.capacity_kb is None for s in self.slots)

    @property
    def fixed_latency_us(self) -> Optional[int]:
        """Constant per-load latency, or ``None`` when it varies."""
        return self.latency_model.fixed_us

    def is_paper_path(self) -> bool:
        """Uniform slots + fixed latency + single controller: the
        paper's device family, on which the engine runs its fast path and
        sweep-cell labels name the RU count instead of the device."""
        return (
            self.has_uniform_slots
            and self.fixed_latency_us is not None
            and self.n_controllers == 1
        )

    # ------------------------------------------------------------------
    # Load semantics
    # ------------------------------------------------------------------
    def load_latency_us(self, config: ConfigId, bitstream_kb: int) -> int:
        return self.latency_model.latency_us(config, bitstream_kb)

    def slot_fits(self, index: int, bitstream_kb: int) -> bool:
        return self.slots[index].fits(bitstream_kb)

    def compatible_slot_indices(self, bitstream_kb: int) -> Tuple[int, ...]:
        return tuple(
            i for i, slot in enumerate(self.slots) if slot.fits(bitstream_kb)
        )

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def with_controllers(self, n_controllers: int) -> "DeviceModel":
        return replace(self, n_controllers=n_controllers)

    def with_latency_model(self, latency_model: LatencyModel) -> "DeviceModel":
        return replace(self, latency_model=latency_model)

    def with_n_rus(self, n_rus: int) -> "DeviceModel":
        """Resize the device — only meaningful for uniform floorplans.

        Heterogeneous floorplans have no canonical resize (which slot
        class grows?), so RU-count sweeps over them raise; sweep over
        explicit :class:`DeviceModel` values instead
        (:meth:`repro.session.Session.device_sweep`).
        """
        if n_rus < 1:
            raise DeviceError(f"n_rus must be >= 1, got {n_rus}")
        if n_rus == self.n_rus:
            return self
        if len(set(self.slots)) > 1:
            raise DeviceError(
                f"cannot resize heterogeneous device {self.label!r} by RU "
                "count; sweep over explicit DeviceModel values instead "
                "(Session.device_sweep)"
            )
        return replace(self, slots=tuple(self.slots[0] for _ in range(n_rus)))

    def zero_latency(self) -> "DeviceModel":
        """Same floorplan and controllers, free reconfigurations.

        This is the device the zero-latency *ideal* baseline runs on:
        slot compatibility still constrains placement, but loads cost
        nothing — exactly like-for-like with the measured run.
        """
        return replace(self, latency_model=FixedLatency(0))

    def sweep(self, ru_counts: Sequence[int]) -> Tuple["DeviceModel", ...]:
        return tuple(self.with_n_rus(n) for n in ru_counts)

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def fingerprint(self) -> dict:
        """Canonical JSON-serialisable identity for artifact cache keys."""
        return {
            "slots": [[s.kind, s.capacity_kb] for s in self.slots],
            "latency": list(self.latency_model.fingerprint()),
            "controllers": self.n_controllers,
        }

    def describe(self) -> str:
        slot_desc = (
            f"{self.n_rus}x {self.slots[0].describe()}"
            if len(set(self.slots)) == 1
            else " + ".join(s.describe() for s in self.slots)
        )
        return (
            f"{slot_desc}; latency {self.latency_model.describe()}; "
            f"{self.n_controllers} controller(s)"
        )


#: The 4-RU, 4 ms, single-controller device of every worked example.
PAPER_DEVICE_MODEL = DeviceModel.homogeneous(4, 4000, name="paper-4ru")

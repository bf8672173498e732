"""Application-sequence generation (the paper's workloads).

The evaluation executes "a sequence of 500 applications randomly selected
from our set of benchmarks" (paper §VI).  :func:`random_sequence` draws
such sequences deterministically from a seed; :func:`weighted_sequence`
and :func:`bursty_sequence` support the ablation studies (skewed
popularity and temporal locality change reuse opportunities).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import WorkloadError
from repro.graphs.task_graph import TaskGraph
from repro.hw.model import DeviceModel
from repro.workloads.compiled import distinct_graphs
from repro.util.rng import SeedLike, make_rng


@dataclass(frozen=True)
class Workload:
    """A fully-specified application sequence plus device parameters.

    ``apps`` repeats :class:`TaskGraph` objects by reference: instances of
    the same application share configurations, which is what creates reuse.

    ``device`` is the workload's :class:`~repro.hw.model.DeviceModel`:
    scenarios that are *about* the hardware pass one (heterogeneous slots,
    per-configuration latencies, multiple controllers), which must agree
    with ``n_rus``; otherwise it is ``DeviceModel.homogeneous(n_rus,
    reconfig_latency)``.
    """

    apps: Tuple[TaskGraph, ...]
    n_rus: int
    reconfig_latency: int
    name: str = "workload"
    seed: Optional[int] = None
    device: Optional[DeviceModel] = None

    def __post_init__(self) -> None:
        if not self.apps:
            raise WorkloadError("workload has no applications")
        if self.n_rus < 1:
            raise WorkloadError(f"n_rus must be >= 1, got {self.n_rus}")
        if self.reconfig_latency < 0:
            raise WorkloadError("reconfig_latency must be >= 0")
        distinct_graphs(self.apps)  # two different graphs may not share a name
        if self.device is None:
            object.__setattr__(
                self,
                "device",
                DeviceModel.homogeneous(self.n_rus, self.reconfig_latency),
            )
        elif self.device.n_rus != self.n_rus:
            raise WorkloadError(
                f"workload says {self.n_rus} RUs but its device model has "
                f"{self.device.n_rus}"
            )

    @property
    def n_apps(self) -> int:
        return len(self.apps)

    @property
    def n_tasks(self) -> int:
        return sum(len(g) for g in self.apps)

    def distinct_graphs(self) -> List[TaskGraph]:
        """Unique applications, in first-appearance order."""
        return distinct_graphs(self.apps)

    def app_histogram(self) -> Dict[str, int]:
        hist: Dict[str, int] = {}
        for g in self.apps:
            hist[g.name] = hist.get(g.name, 0) + 1
        return hist

    def with_device(self, n_rus: Optional[int] = None, reconfig_latency: Optional[int] = None) -> "Workload":
        """Scalar device override: the workload's device becomes the
        homogeneous one the (overridden) scalars describe."""
        return Workload(
            apps=self.apps,
            n_rus=self.n_rus if n_rus is None else n_rus,
            reconfig_latency=(
                self.reconfig_latency if reconfig_latency is None else reconfig_latency
            ),
            name=self.name,
            seed=self.seed,
        )

    def with_device_model(self, device: DeviceModel) -> "Workload":
        """Attach a full device model (scalars follow the model)."""
        return Workload(
            apps=self.apps,
            n_rus=device.n_rus,
            reconfig_latency=device.reconfig_latency,
            name=self.name,
            seed=self.seed,
            device=device,
        )


def random_sequence(
    catalog: Sequence[TaskGraph],
    length: int,
    seed: SeedLike = 0,
) -> List[TaskGraph]:
    """Uniform random sequence of ``length`` applications from ``catalog``.

    This is the paper's §VI workload generator (with ``length=500`` and the
    three multimedia benchmarks as catalog).
    """
    if not catalog:
        raise WorkloadError("catalog is empty")
    if length < 1:
        raise WorkloadError(f"length must be >= 1, got {length}")
    rng = make_rng(seed)
    picks = rng.integers(0, len(catalog), size=length)
    return [catalog[int(i)] for i in picks]


def weighted_sequence(
    catalog: Sequence[TaskGraph],
    length: int,
    weights: Sequence[float],
    seed: SeedLike = 0,
) -> List[TaskGraph]:
    """Random sequence with per-application popularity weights."""
    if len(weights) != len(catalog):
        raise WorkloadError("weights must match catalog length")
    w = np.asarray(weights, dtype=float)
    if (w < 0).any() or w.sum() <= 0:
        raise WorkloadError("weights must be non-negative and sum > 0")
    rng = make_rng(seed)
    picks = rng.choice(len(catalog), size=length, p=w / w.sum())
    return [catalog[int(i)] for i in picks]


def bursty_sequence(
    catalog: Sequence[TaskGraph],
    length: int,
    burst_len: int = 4,
    seed: SeedLike = 0,
) -> List[TaskGraph]:
    """Sequence with temporal locality: the same application repeats in
    bursts of ~``burst_len`` before switching.  High-reuse regime used by
    the ablation study."""
    if burst_len < 1:
        raise WorkloadError(f"burst_len must be >= 1, got {burst_len}")
    if not catalog:
        raise WorkloadError("catalog is empty")
    rng = make_rng(seed)
    out: List[TaskGraph] = []
    while len(out) < length:
        g = catalog[int(rng.integers(0, len(catalog)))]
        n = int(rng.integers(1, burst_len + 1))
        out.extend([g] * n)
    return out[:length]


def round_robin_sequence(catalog: Sequence[TaskGraph], length: int) -> List[TaskGraph]:
    """Deterministic cyclic sequence (worst case for small-window reuse)."""
    if not catalog:
        raise WorkloadError("catalog is empty")
    return [catalog[i % len(catalog)] for i in range(length)]

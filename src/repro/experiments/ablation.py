"""X-ABL — ablations of the design choices DESIGN.md calls out.

Six studies, all on deterministic workloads:

* **A1 — Dynamic-List window**: reuse/overhead vs window 0..8; shows the
  diminishing returns past w=4 that justify the paper's small windows.
* **A2 — cross-application prefetch semantics (S1)**: ISOLATED (paper
  mode) vs FREE_RU_ONLY vs FULL.
* **A3 — skip rule**: literal Fig. 8 vs the prospect refinement.
* **A4 — policy zoo**: FIFO/MRU/RANDOM alongside the paper's policies.
* **A5 — reconfiguration latency sweep**: how the Local LFD advantage
  scales with the latency/exec-time ratio.
* **A6 — dynamic arrivals**: how late knowledge degrades Local LFD.

Every study describes its configurations as :class:`PolicySpec` values and
runs them through one :class:`~repro.session.Session` per workload, so the
zero-latency ideal and the mobility tables are computed once and shared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.policies.classic import FIFOPolicy, LRUPolicy, MRUPolicy, RandomPolicy
from repro.core.policies.extended import ClockPolicy, LFUPolicy, LRUKPolicy
from repro.core.policies.lfd import LFDPolicy, LocalLFDPolicy
from repro.core.policy_spec import PolicySpec
from repro.metrics.energy import reconfiguration_energy
from repro.session import ArtifactCache, Session
from repro.sim.semantics import CrossAppPrefetch
from repro.sim.simulator import SimulationResult
from repro.util.tables import TextTable
from repro.workloads.arrival import (
    bursty_arrivals,
    periodic_arrivals,
    poisson_arrivals,
    saturated_arrivals,
)
from repro.workloads.scenarios import paper_evaluation_workload
from repro.workloads.sequence import Workload


@dataclass(frozen=True)
class AblationRow:
    label: str
    reuse_pct: float
    remaining_overhead_pct: float
    overhead_ms: float
    n_reconfigs: int
    n_skips: int
    energy_savings_pct: float


def _row(label: str, result: SimulationResult, graphs) -> AblationRow:
    energy = reconfiguration_energy(result.trace, graphs)
    return AblationRow(
        label=label,
        reuse_pct=round(result.reuse_pct, 2),
        remaining_overhead_pct=round(result.remaining_overhead_pct(), 2),
        overhead_ms=round(result.overhead_us / 1000.0, 1),
        n_reconfigs=result.trace.n_reconfigurations,
        n_skips=result.trace.n_skips,
        energy_savings_pct=round(energy.savings_pct(), 1),
    )


def _session(
    workload: Optional[Workload],
    cache: Optional[ArtifactCache] = None,
    backend=None,
) -> Session:
    workload = workload or paper_evaluation_workload(length=200, n_rus=6)
    return Session(workload=workload, cache=cache, backend=backend)


def make_ablation_cache(store=None) -> ArtifactCache:
    """Shared cache for a full ablation pass; ``store`` (an
    :class:`~repro.artifacts.store.ArtifactStore` or directory path) adds
    the persistent disk tier so repeated ablation runs skip the
    design-time phase."""
    from repro.artifacts import ArtifactStore

    if store is not None and not isinstance(store, ArtifactStore):
        store = ArtifactStore(store)
    return ArtifactCache(store=store)


def _local_lfd(window: int, **overrides) -> PolicySpec:
    return PolicySpec(
        label=f"Local LFD ({window})",
        policy_factory=LocalLFDPolicy,
        lookahead_apps=window,
        **overrides,
    )


def run_window_sweep(
    workload: Optional[Workload] = None,
    windows: Sequence[int] = (0, 1, 2, 4, 8),
    cache: Optional[ArtifactCache] = None,
    backend=None,
) -> List[AblationRow]:
    """A1: Local LFD reuse/overhead as the DL window grows."""
    session = _session(workload, cache, backend)
    apps = session.workload.apps
    rows = [
        _row(f"Local LFD ({w})", session.run(_local_lfd(w)), apps) for w in windows
    ]
    oracle = PolicySpec(label="LFD (oracle)", policy_factory=LFDPolicy, oracle=True)
    rows.append(_row("LFD (oracle)", session.run(oracle), apps))
    return rows


def run_semantics_ablation(
    workload: Optional[Workload] = None,
    cache: Optional[ArtifactCache] = None,
    backend=None,
) -> List[AblationRow]:
    """A2: the S1 cross-application-prefetch knob under Local LFD (1)."""
    session = _session(workload, cache, backend)
    apps = session.workload.apps
    return [
        _row(
            f"S1={mode.value}",
            session.run(_local_lfd(1, cross_app_prefetch=mode)),
            apps,
        )
        for mode in CrossAppPrefetch
    ]


def run_skip_mode_ablation(
    workload: Optional[Workload] = None,
    cache: Optional[ArtifactCache] = None,
    backend=None,
) -> List[AblationRow]:
    """A3: literal Fig. 8 skips vs the prospect refinement."""
    session = _session(workload, cache, backend)
    apps = session.workload.apps
    rows = [_row("no skips (ASAP)", session.run(_local_lfd(1)), apps)]
    for mode in ("literal", "prospect"):
        spec = _local_lfd(1, skip_events=True, skip_mode=mode)
        rows.append(_row(f"skip mode: {mode}", session.run(spec), apps))
    return rows


def run_policy_zoo(
    workload: Optional[Workload] = None,
    cache: Optional[ArtifactCache] = None,
    backend=None,
) -> List[AblationRow]:
    """A4: every registered policy on the same workload."""
    session = _session(workload, cache, backend)
    apps = session.workload.apps
    zoo = [
        PolicySpec("RANDOM", RandomPolicy, policy_kwargs=(("seed", 7),)),
        PolicySpec("MRU", MRUPolicy),
        PolicySpec("FIFO", FIFOPolicy),
        PolicySpec("LRU", LRUPolicy),
        PolicySpec("LFU", LFUPolicy),
        PolicySpec("LRU-2", LRUKPolicy, policy_kwargs=(("k", 2),)),
        PolicySpec("CLOCK", ClockPolicy),
        _local_lfd(1),
        PolicySpec("LFD", LFDPolicy, oracle=True),
    ]
    return [_row(spec.label, session.run(spec), apps) for spec in zoo]


def run_latency_sweep(
    workload: Optional[Workload] = None,
    latencies_us: Sequence[int] = (1000, 2000, 4000, 8000, 16000),
    cache: Optional[ArtifactCache] = None,
    backend=None,
) -> List[AblationRow]:
    """A5: Local LFD(1) vs LRU gap as reconfiguration latency grows."""
    session = _session(workload, cache, backend)
    apps = session.workload.apps
    rows = []
    for latency in latencies_us:
        for spec in (PolicySpec("LRU", LRUPolicy), _local_lfd(1)):
            result = session.run(spec, reconfig_latency=latency)
            rows.append(
                _row(f"{spec.label} @ {latency // 1000}ms latency", result, apps)
            )
    return rows


def run_arrival_ablation(
    workload: Optional[Workload] = None,
    cache: Optional[ArtifactCache] = None,
    backend=None,
) -> List[AblationRow]:
    """A6: dynamic arrivals — how late knowledge degrades Local LFD.

    Compares the saturated queue of the paper's evaluation against
    periodic, Poisson and bursty open-system arrivals.  Late arrivals
    shrink the effective Dynamic List (an application not yet enqueued is
    invisible), so reuse degrades towards the window-0 level as the
    system becomes less loaded.  The session recomputes the zero-latency
    ideal under each arrival model (idle waiting must not be misread as
    reconfiguration overhead).
    """
    session = _session(workload, cache, backend)
    apps = session.workload.apps
    n = len(apps)
    # Mean service time per application ~ critical path; pace arrivals
    # around it so the queue alternates between backlog and idle.
    mean_cp = sum(g.critical_path_length() for g in apps) // n
    models = [
        ("saturated (paper mode)", saturated_arrivals(n)),
        ("periodic @ 1.0x service", periodic_arrivals(n, mean_cp)),
        # Slower than service: the queue often drains, the Dynamic List is
        # frequently empty and Local LFD loses its future knowledge.
        ("periodic @ 1.5x service", periodic_arrivals(n, mean_cp * 3 // 2)),
        ("poisson @ 1.5x service", poisson_arrivals(n, mean_cp * 1.5, seed=5)),
        ("bursty (5 @ 5x gaps)", bursty_arrivals(n, 5, 5 * mean_cp, seed=5)),
    ]
    spec = _local_lfd(2)
    return [
        _row(label, session.run(spec, arrival_times=arrivals), apps)
        for label, arrivals in models
    ]


def run_controller_ablation(
    workload: Optional[Workload] = None,
    controller_counts: Sequence[int] = (1, 2, 4),
    cache: Optional[ArtifactCache] = None,
    backend=None,
) -> List[AblationRow]:
    """A7: parallel reconfiguration controllers (the circuitry bottleneck).

    The paper's device serializes every load through one circuitry; this
    study relaxes that with
    :meth:`~repro.hw.model.DeviceModel.with_controllers` and measures how
    much of the residual overhead is controller *contention* rather than
    raw load latency — the part extra circuitry can buy back.
    """
    session = _session(workload, cache, backend)
    apps = session.workload.apps
    rows = []
    for count in controller_counts:
        device = session.device.with_controllers(count)
        for spec in (PolicySpec("LRU", LRUPolicy), _local_lfd(1, skip_events=True)):
            rows.append(
                _row(
                    f"{spec.label} @ {count} controller(s)",
                    session.run(spec, device=device),
                    apps,
                )
            )
    return rows


def render_ablation_rows(title: str, rows: List[AblationRow]) -> str:
    table = TextTable(
        ["configuration", "reuse %", "remaining ovh %", "overhead ms", "reconfigs", "skips", "energy saved %"],
        title=title,
    )
    for r in rows:
        table.add_row(
            [r.label, r.reuse_pct, r.remaining_overhead_pct, r.overhead_ms, r.n_reconfigs, r.n_skips, r.energy_savings_pct]
        )
    return table.render()


def render_all_ablations(
    workload: Optional[Workload] = None,
    store=None,
    backend=None,
) -> str:
    # Resolve the default workload once and share one artifact cache, so
    # the six studies really do compute each design-time artifact once
    # (once *ever*, when a persistent store is attached).
    workload = workload or paper_evaluation_workload(length=200, n_rus=6)
    cache = make_ablation_cache(store)
    kw = {"cache": cache, "backend": backend}
    sections = [
        render_ablation_rows("A1 — Dynamic-List window sweep", run_window_sweep(workload, **kw)),
        render_ablation_rows("A2 — cross-app prefetch semantics (S1)", run_semantics_ablation(workload, **kw)),
        render_ablation_rows("A3 — skip rule", run_skip_mode_ablation(workload, **kw)),
        render_ablation_rows("A4 — policy zoo", run_policy_zoo(workload, **kw)),
        render_ablation_rows("A5 — reconfiguration-latency sweep", run_latency_sweep(workload, **kw)),
        render_ablation_rows("A6 — dynamic arrival models", run_arrival_ablation(workload, **kw)),
        render_ablation_rows("A7 — reconfiguration controllers", run_controller_ablation(workload, **kw)),
    ]
    return "\n\n".join(sections)

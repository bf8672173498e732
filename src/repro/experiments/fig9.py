"""Fig. 9 — the paper's main performance evaluation.

Three panels over a 500-application random workload and 4..10 RUs:

* **9a** — reuse rates, ASAP (no skips): LRU, Local LFD (1/2/4), LFD.
* **9b** — reuse rates with skip events: LRU, Local LFD (1),
  Local LFD (1) + Skip Events, LFD.  The headline result: with skips,
  Local LFD (1) *beats* the no-delay optimum LFD.
* **9c** — remaining reconfiguration overhead (% of the original
  overhead): LRU, Local LFD (1/2/4) + Skip Events, LFD.

Shape targets from the paper: LRU avg reuse ≈30.1 %, LFD ≈46.0 %,
Local LFD(4) ≈45.9 %; with skips Local LFD(1) ≈48.2 % vs LFD ≈44.4 %;
remaining overhead LRU ≈19.2 % at 4 RUs, LFD avg ≈7.2 %,
Local LFD(4)+Skip avg ≈8.9 %.

The sweeps run through :class:`repro.session.Session`: design-time
artifacts (mobility tables, zero-latency ideals) are cached once per
``(workload, n_rus)`` and shared by every spec, ``parallel=N`` fans the
cells out over worker processes, and every cell streams into the O(1)
aggregate trace sink (a cell keeps only its summary record).
:class:`PolicySpec` and the spec-set constructors now live in
:mod:`repro.core.policy_spec`; they are re-exported here for backwards
compatibility.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

from repro.core.policy_spec import (  # noqa: F401  (re-exported legacy API)
    PolicySpec,
    fig9a_specs,
    fig9b_specs,
    fig9c_specs,
    lfd_spec,
    local_lfd_spec,
    lru_spec,
)
from repro.metrics.summary import SweepResult
from repro.session import Session, SessionHooks
from repro.workloads.scenarios import paper_evaluation_workload
from repro.workloads.sequence import Workload

#: The paper's RU sweep.
PAPER_RU_COUNTS: Tuple[int, ...] = (4, 5, 6, 7, 8, 9, 10)


def run_policy_sweep(
    specs: Sequence[PolicySpec],
    title: str,
    workload: Optional[Workload] = None,
    ru_counts: Sequence[int] = PAPER_RU_COUNTS,
    parallel: int = 1,
    hooks: Iterable[SessionHooks] = (),
    store=None,
    device=None,
    backend=None,
) -> SweepResult:
    """Run every (spec, n_rus) cell on the workload.

    Mobility tables are computed once per (graph, n_rus) — the design-time
    phase — and shared by all skip-enabled specs; the zero-latency ideal is
    computed once per n_rus and shared by all specs.  Both come from the
    session's content-keyed artifact cache; pass ``store`` (an
    :class:`~repro.artifacts.store.ArtifactStore` or a directory path) to
    add the persistent disk tier so repeated invocations — including fresh
    processes — skip the design-time phase entirely.  ``backend``
    selects the sweep execution backend (``"inline"``,
    ``"process-pool"``, ``"work-stealing"`` or an
    :class:`~repro.backends.base.ExecutorBackend` instance; see
    ``docs/backends.md``).
    """
    if workload is None:
        workload = paper_evaluation_workload()
    session = Session(
        device=device,
        workload=workload,
        hooks=hooks,
        store=store,
        backend=backend,
    )
    return session.sweep(specs, ru_counts=ru_counts, title=title, parallel=parallel)


def run_fig9a(
    workload: Optional[Workload] = None,
    ru_counts=PAPER_RU_COUNTS,
    parallel: int = 1,
    store=None,
    backend=None,
) -> SweepResult:
    """Fig. 9a: reuse rates, ASAP loading (mobility 0 everywhere)."""
    return run_policy_sweep(
        fig9a_specs(), "Fig. 9a — reuse rate (%)", workload, ru_counts, parallel,
        store=store, backend=backend,
    )


def run_fig9b(
    workload: Optional[Workload] = None,
    ru_counts=PAPER_RU_COUNTS,
    parallel: int = 1,
    store=None,
    backend=None,
) -> SweepResult:
    """Fig. 9b: reuse rates with the Skip Event feature."""
    return run_policy_sweep(
        fig9b_specs(),
        "Fig. 9b — reuse rate (%) with skip events",
        workload,
        ru_counts,
        parallel,
        store=store,
        backend=backend,
    )


def run_fig9c(
    workload: Optional[Workload] = None,
    ru_counts=PAPER_RU_COUNTS,
    parallel: int = 1,
    store=None,
    backend=None,
) -> SweepResult:
    """Fig. 9c: remaining reconfiguration overhead (%)."""
    return run_policy_sweep(
        fig9c_specs(),
        "Fig. 9c — remaining reconfiguration overhead (%)",
        workload,
        ru_counts,
        parallel,
        store=store,
        backend=backend,
    )


def render_fig9a(sweep: Optional[SweepResult] = None) -> str:
    sweep = sweep or run_fig9a()
    return sweep.render_table("reuse_pct", "% reuse vs number of RUs")


def render_fig9b(sweep: Optional[SweepResult] = None) -> str:
    sweep = sweep or run_fig9b()
    return sweep.render_table("reuse_pct", "% reuse vs number of RUs (skip events)")


def render_fig9c(sweep: Optional[SweepResult] = None) -> str:
    sweep = sweep or run_fig9c()
    return sweep.render_table(
        "remaining_overhead_pct", "% remaining reconfiguration overhead"
    )

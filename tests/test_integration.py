"""End-to-end integration tests on the paper's evaluation pipeline."""

import pytest

from repro.core.mobility import MobilityCalculator
from repro.core.policies.classic import LRUPolicy
from repro.core.policies.lfd import LFDPolicy, LocalLFDPolicy
from repro.core.replacement_module import PolicyAdvisor
from repro.graphs.multimedia import benchmark_suite
from repro.metrics.energy import reconfiguration_energy
from repro.sim.semantics import ManagerSemantics
from repro.sim.simulator import ideal_makespan, run_simulation
from repro.sim.validation import validate_trace
from repro.workloads.scenarios import paper_evaluation_workload
from repro.hw.model import DeviceModel


@pytest.fixture(scope="module")
def workload():
    return paper_evaluation_workload(length=60, seed=123)


class TestEvaluationPipeline:
    def test_full_paper_pipeline_runs_clean(self, workload):
        """Design-time phase + run-time phase on a real workload slice."""
        apps = list(workload.apps)
        mobility = MobilityCalculator(
            device=DeviceModel.homogeneous(4, workload.reconfig_latency),
        ).compute_tables(workload.distinct_graphs())
        result = run_simulation(
            apps,
            PolicyAdvisor(LocalLFDPolicy(), skip_events=True),
            ManagerSemantics(lookahead_apps=1),
            mobility_tables=mobility,
            device=DeviceModel.homogeneous(4, workload.reconfig_latency),
        )
        validate_trace(result.trace, apps)
        assert result.trace.n_skips > 0          # skips actually engage
        assert 0 < result.reuse_pct < 100

    def test_policy_ordering_on_real_workload(self, workload):
        """LRU <= Local LFD(1) <= Local LFD(4) ~ LFD in reuse."""
        apps = list(workload.apps)
        ideal = ideal_makespan(apps, device=DeviceModel.homogeneous(6))

        def reuse(advisor, semantics):
            return run_simulation(
                apps,
                advisor,
                semantics,
                ideal_makespan_us=ideal,
                device=DeviceModel.homogeneous(6, workload.reconfig_latency),
            ).reuse_pct

        lru = reuse(PolicyAdvisor(LRUPolicy()), ManagerSemantics())
        local1 = reuse(PolicyAdvisor(LocalLFDPolicy()), ManagerSemantics(lookahead_apps=1))
        local4 = reuse(PolicyAdvisor(LocalLFDPolicy()), ManagerSemantics(lookahead_apps=4))
        lfd = reuse(PolicyAdvisor(LFDPolicy()), ManagerSemantics(provide_oracle=True))
        assert lru <= local1 + 1e-9
        assert local1 <= local4 + 1e-9
        assert local4 <= lfd + 1e-9

    def test_reuse_saves_energy(self, workload):
        apps = list(workload.apps)
        lru = run_simulation(
            apps,
            PolicyAdvisor(LRUPolicy()),
            device=DeviceModel.homogeneous(6, workload.reconfig_latency),
        )
        local = run_simulation(
            apps,
            PolicyAdvisor(LocalLFDPolicy()),
            ManagerSemantics(lookahead_apps=4),
            device=DeviceModel.homogeneous(6, workload.reconfig_latency),
        )
        e_lru = reconfiguration_energy(lru.trace, apps)
        e_local = reconfiguration_energy(local.trace, apps)
        assert e_local.total_uj < e_lru.total_uj

    def test_all_ru_counts_schedule_the_benchmarks(self):
        apps = benchmark_suite() * 4
        for n_rus in range(4, 11):
            result = run_simulation(
                apps,
                PolicyAdvisor(LRUPolicy()),
                device=DeviceModel.homogeneous(n_rus, 4000),
            )
            validate_trace(result.trace, apps)

    def test_more_rus_never_hurt_reuse_for_lfd(self, workload):
        apps = list(workload.apps)
        rates = []
        for n_rus in (4, 6, 8, 10):
            result = run_simulation(
                apps,
                PolicyAdvisor(LFDPolicy()),
                ManagerSemantics(provide_oracle=True),
                device=DeviceModel.homogeneous(n_rus, workload.reconfig_latency),
            )
            rates.append(result.reuse_pct)
        assert rates == sorted(rates)


class TestSeedSensitivity:
    def test_different_seeds_same_qualitative_ordering(self):
        for seed in (1, 2, 3):
            w = paper_evaluation_workload(length=45, seed=seed)
            apps = list(w.apps)
            lru = run_simulation(
                apps,
                PolicyAdvisor(LRUPolicy()),
                device=DeviceModel.homogeneous(6, w.reconfig_latency),
            )
            lfd = run_simulation(
                apps,
                PolicyAdvisor(LFDPolicy()),
                ManagerSemantics(provide_oracle=True),
                device=DeviceModel.homogeneous(6, w.reconfig_latency),
            )
            assert lfd.reuse_pct >= lru.reuse_pct
            assert lfd.overhead_us <= lru.overhead_us

"""Exhaustive-search verification of the LFD optimality claim.

Belady's optimality is the paper's justification for using LFD as the
reuse upper bound; these tests verify it holds in the *scheduled,
prefetching* setting by comparing LFD's reuse against the true optimum
found by exploring every victim-choice sequence on small workloads.
"""

import pytest

from repro.core.optimal import ScriptedAdvisor, exhaustive_best_reuse
from repro.core.policies.classic import LRUPolicy
from repro.core.policies.lfd import LFDPolicy
from repro.core.replacement_module import PolicyAdvisor
from repro.exceptions import ExperimentError
from repro.experiments.motivational import fig2_sequence, fig3_sequence
from repro.graphs.builders import chain_graph
from repro.graphs.random_graphs import random_layered_graph
from repro.sim.semantics import ManagerSemantics
from repro.sim.simtime import ms
from repro.sim.simulator import run_simulation
from repro.hw.model import DeviceModel


def lfd_reuse(apps, n_rus, latency):
    result = run_simulation(
        apps,
        PolicyAdvisor(LFDPolicy()),
        ManagerSemantics(provide_oracle=True),
        device=DeviceModel.homogeneous(n_rus, latency),
    )
    return result.trace.n_reused_executions


class TestFig2Optimality:
    def test_lfd_matches_exhaustive_optimum(self):
        """On the paper's Fig. 2 workload, LFD's 5 reuses are provably
        the maximum any replacement policy can achieve."""
        apps = fig2_sequence()
        optimum = exhaustive_best_reuse(apps, device=DeviceModel.homogeneous(4, ms(4)))
        assert optimum.best_reuse == 5  # the paper's 41.7 % of 12 tasks
        assert lfd_reuse(apps, 4, ms(4)) == optimum.best_reuse

    def test_lru_is_suboptimal_here(self):
        apps = fig2_sequence()
        lru = run_simulation(
            apps, PolicyAdvisor(LRUPolicy()), device=DeviceModel.homogeneous(4, ms(4))
        )
        optimum = exhaustive_best_reuse(apps, device=DeviceModel.homogeneous(4, ms(4)))
        assert lru.trace.n_reused_executions < optimum.best_reuse


class TestFig3Optimality:
    def test_no_asap_policy_can_reuse_on_fig3(self):
        """Fig. 3's point: NO pure-ASAP victim choice achieves any reuse
        on that workload — only delaying (skip events) does."""
        apps = fig3_sequence()
        optimum = exhaustive_best_reuse(apps, device=DeviceModel.homogeneous(4, ms(4)))
        assert optimum.best_reuse == 0


class TestRandomInstances:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_lfd_matches_optimum_on_random_workloads(self, seed):
        a = random_layered_graph("A", 3, seed=seed, max_width=2,
                                 low_us=2000, high_us=9000)
        b = random_layered_graph("B", 2, seed=seed + 100, max_width=2,
                                 low_us=2000, high_us=9000)
        apps = [a, b, a, b]
        optimum = exhaustive_best_reuse(apps, device=DeviceModel.homogeneous(3, ms(4)))
        assert lfd_reuse(apps, 3, ms(4)) == optimum.best_reuse


class TestSearchMechanics:
    def test_scripted_advisor_out_of_range(self):
        g = chain_graph("G", [ms(5)] * 4)
        from repro.sim.manager import ExecutionManager

        manager = ExecutionManager(
            graphs=[g],
            advisor=ScriptedAdvisor([99]),
            device=DeviceModel.homogeneous(2, ms(4)),
        )
        with pytest.raises(ExperimentError):
            manager.run()

    def test_run_budget_enforced(self):
        apps = [chain_graph("G", [ms(5)] * 6)] * 4
        with pytest.raises(ExperimentError):
            exhaustive_best_reuse(
                apps, max_runs=3, device=DeviceModel.homogeneous(2, ms(4))
            )

    def test_no_evictions_means_single_run(self):
        g = chain_graph("G", [ms(5), ms(5)])
        optimum = exhaustive_best_reuse(
            [g, g], device=DeviceModel.homogeneous(4, ms(4))
        )
        assert optimum.runs_explored == 1
        assert optimum.best_reuse == 2

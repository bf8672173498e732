"""Tests for the dynamic arrival models."""

import pytest

from repro.core.policies.lfd import LocalLFDPolicy
from repro.core.replacement_module import PolicyAdvisor
from repro.exceptions import WorkloadError
from repro.graphs.builders import chain_graph
from repro.sim.semantics import ManagerSemantics
from repro.sim.simtime import ms
from repro.sim.simulator import run_simulation
from repro.sim.validation import validate_trace
from repro.workloads.arrival import (
    bursty_arrivals,
    periodic_arrivals,
    poisson_arrivals,
    saturated_arrivals,
    validate_arrivals,
)
from repro.hw.model import DeviceModel


class TestGenerators:
    def test_saturated_all_zero(self):
        assert saturated_arrivals(5) == [0, 0, 0, 0, 0]

    def test_saturated_negative_rejected(self):
        with pytest.raises(WorkloadError):
            saturated_arrivals(-1)

    def test_periodic_spacing(self):
        assert periodic_arrivals(4, 100, start_us=50) == [50, 150, 250, 350]

    def test_periodic_invalid(self):
        with pytest.raises(WorkloadError):
            periodic_arrivals(3, -1)

    def test_poisson_sorted_and_deterministic(self):
        a = poisson_arrivals(50, 1000.0, seed=3)
        b = poisson_arrivals(50, 1000.0, seed=3)
        assert a == b
        assert a == sorted(a)
        assert all(t >= 0 for t in a)

    def test_poisson_mean_rough(self):
        times = poisson_arrivals(2000, 1000.0, seed=0)
        mean_gap = times[-1] / len(times)
        assert 800 < mean_gap < 1200

    def test_poisson_invalid(self):
        with pytest.raises(WorkloadError):
            poisson_arrivals(5, 0.0)

    def test_bursty_structure(self):
        times = bursty_arrivals(20, burst_size=4, gap_us=1000, seed=1)
        assert len(times) == 20
        assert times == sorted(times)

    def test_bursty_invalid(self):
        with pytest.raises(WorkloadError):
            bursty_arrivals(5, burst_size=0, gap_us=10)
        with pytest.raises(WorkloadError):
            bursty_arrivals(5, burst_size=2, gap_us=-1)

    def test_validate_arrivals(self):
        validate_arrivals([0, 5, 5, 9])
        with pytest.raises(WorkloadError):
            validate_arrivals([0, 5, 3])
        with pytest.raises(WorkloadError):
            validate_arrivals([-1])


class TestArrivalSimulation:
    def test_idle_gaps_extend_makespan(self):
        g = chain_graph("G", [ms(5)])
        apps = [g, g, g]
        sat = run_simulation(
            apps,
            PolicyAdvisor(LocalLFDPolicy()),
            device=DeviceModel.homogeneous(4, ms(4)),
        )
        spaced = run_simulation(
            apps,
            PolicyAdvisor(LocalLFDPolicy()),
            arrival_times=[0, ms(100), ms(200)],
            device=DeviceModel.homogeneous(4, ms(4)),
        )
        assert spaced.makespan_us > sat.makespan_us
        validate_trace(spaced.trace, apps)

    def test_late_arrival_invisible_to_window(self):
        """An application that has not arrived is not in the DL window, so
        Local LFD cannot protect its configurations."""
        a = chain_graph("A", [ms(5), ms(5)])
        b = chain_graph("B", [ms(5), ms(5)])
        apps = [a, b, a]
        # With the third app arriving very late, the eviction during app 1
        # cannot know A recurs; reuse of A drops to zero.
        late = run_simulation(
            apps,
            PolicyAdvisor(LocalLFDPolicy()),
            ManagerSemantics(lookahead_apps=4),
            arrival_times=[0, 0, ms(10_000)],
            device=DeviceModel.homogeneous(2, ms(4)),
        )
        sat = run_simulation(
            apps,
            PolicyAdvisor(LocalLFDPolicy()),
            ManagerSemantics(lookahead_apps=4),
            device=DeviceModel.homogeneous(2, ms(4)),
        )
        assert late.trace.n_reused_executions <= sat.trace.n_reused_executions

    def test_arrival_ablation_rows(self):
        from repro.experiments.ablation import run_arrival_ablation
        from repro.workloads.scenarios import paper_evaluation_workload

        rows = run_arrival_ablation(paper_evaluation_workload(length=20, n_rus=6))
        assert len(rows) == 5
        labels = [r.label for r in rows]
        assert labels[0].startswith("saturated")

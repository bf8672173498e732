"""Tests for the run_simulation() entry point and SimulationResult metrics."""

import pytest

from repro.core.policies.classic import LRUPolicy
from repro.core.replacement_module import PolicyAdvisor
from repro.graphs.builders import chain_graph, fork_join_graph
from repro.graphs.multimedia import benchmark_suite
from repro.sim.semantics import ManagerSemantics
from repro.sim.simtime import ms
from repro.sim.simulator import (
    ideal_makespan,
    run_simulation,
    sum_of_critical_paths,
)
from repro.hw.model import DeviceModel


class TestIdealMakespan:
    def test_equals_sum_of_critical_paths_when_rus_suffice(self):
        apps = benchmark_suite()
        assert ideal_makespan(
            apps, device=DeviceModel.homogeneous(4)
        ) == sum_of_critical_paths(apps)

    def test_single_chain(self):
        g = chain_graph("G", [ms(3), ms(7)])
        assert ideal_makespan([g], device=DeviceModel.homogeneous(2)) == ms(10)

    def test_repeated_apps(self):
        g = fork_join_graph("FJ", ms(1), [ms(2), ms(5)], ms(1))
        assert ideal_makespan(
            [g, g, g], device=DeviceModel.homogeneous(4)
        ) == 3 * g.critical_path_length()


class TestSimulateMetrics:
    def test_overhead_is_makespan_minus_ideal(self):
        g = chain_graph("G", [ms(10), ms(10)])
        result = run_simulation(
            [g], PolicyAdvisor(LRUPolicy()), device=DeviceModel.homogeneous(4, ms(4))
        )
        assert result.overhead_us == result.makespan_us - result.ideal_makespan_us
        assert result.overhead_us == ms(4)  # only the first load is exposed

    def test_reuse_pct_range(self):
        g = chain_graph("G", [ms(10)])
        result = run_simulation(
            [g, g], PolicyAdvisor(LRUPolicy()), device=DeviceModel.homogeneous(4, ms(4))
        )
        assert result.reuse_pct == pytest.approx(50.0)

    def test_remaining_overhead_pct_normalisation(self):
        # Single app, one task: baseline = 1 exec * 4ms; overhead = 4ms.
        g = chain_graph("G", [ms(10)])
        result = run_simulation(
            [g], PolicyAdvisor(LRUPolicy()), device=DeviceModel.homogeneous(4, ms(4))
        )
        assert result.remaining_overhead_pct() == pytest.approx(100.0)

    def test_zero_latency_zero_overhead(self):
        g = chain_graph("G", [ms(10), ms(5)])
        result = run_simulation(
            [g, g], PolicyAdvisor(LRUPolicy()), device=DeviceModel.homogeneous(4, 0)
        )
        assert result.overhead_us == 0
        assert result.remaining_overhead_pct() == 0.0

    def test_precomputed_ideal_accepted(self):
        g = chain_graph("G", [ms(10)])
        result = run_simulation(
            [g],
            PolicyAdvisor(LRUPolicy()),
            ideal_makespan_us=ms(10),
            device=DeviceModel.homogeneous(4, ms(4)),
        )
        assert result.ideal_makespan_us == ms(10)

    def test_summary_keys(self):
        g = chain_graph("G", [ms(10)])
        summary = run_simulation(
            [g], PolicyAdvisor(LRUPolicy()), device=DeviceModel.homogeneous(4, ms(4))
        ).summary()
        for key in (
            "makespan_us",
            "ideal_makespan_us",
            "overhead_us",
            "reuse_pct",
            "remaining_overhead_pct",
            "reconfigurations",
            "n_apps",
        ):
            assert key in summary


class TestArrivalAwareIdeal:
    """Regression: ideal_makespan() used to drop arrival_times (and
    semantics), so staggered-arrival runs booked idle waiting as
    reconfiguration overhead."""

    def test_staggered_overhead_equals_hand_computed_value(self):
        # Two single-task apps, 10 ms each, 4 ms latency, app B arriving
        # long after app A finished.  Measured: A loads 0-4, runs 4-14;
        # B arrives at 100, loads 100-104, runs 104-114 -> makespan 114.
        # Ideal (free loads, same arrivals): A runs 0-10, B runs 100-110
        # -> 110.  Overhead is exactly one exposed latency, 4 ms — not
        # the 94 ms the arrival-blind baseline (sum of critical paths,
        # 20 ms) would report.
        a = chain_graph("A", [ms(10)])
        b = chain_graph("B", [ms(10)])
        arrivals = [0, ms(100)]
        result = run_simulation(
            [a, b],
            PolicyAdvisor(LRUPolicy()),
            arrival_times=arrivals,
            device=DeviceModel.homogeneous(2, ms(4)),
        )
        assert result.makespan_us == ms(114)
        assert result.ideal_makespan_us == ms(110)
        assert result.overhead_us == ms(4)

    def test_ideal_makespan_accepts_arrivals_directly(self):
        a = chain_graph("A", [ms(10)])
        b = chain_graph("B", [ms(10)])
        assert ideal_makespan([a, b], device=DeviceModel.homogeneous(2)) == ms(20)
        assert ideal_makespan(
            [a, b], arrival_times=[0, ms(100)], device=DeviceModel.homogeneous(2)
        ) == ms(110)
        # All-zero arrivals are the saturated default.
        assert ideal_makespan(
            [a, b], arrival_times=[0, 0], device=DeviceModel.homogeneous(2)
        ) == ms(20)

    def test_saturated_arrivals_unchanged(self):
        """Zero-arrival workloads keep the golden baseline byte-identical."""
        apps = benchmark_suite()
        assert ideal_makespan(
            apps, arrival_times=[0] * len(apps), device=DeviceModel.homogeneous(4)
        ) == ideal_makespan(
            apps,
            device=DeviceModel.homogeneous(4),
        )


class TestDeterminism:
    def test_same_inputs_same_trace(self):
        apps = benchmark_suite() * 3
        r1 = run_simulation(
            apps,
            PolicyAdvisor(LRUPolicy()),
            ManagerSemantics(),
            device=DeviceModel.homogeneous(4, ms(4)),
        )
        r2 = run_simulation(
            apps,
            PolicyAdvisor(LRUPolicy()),
            ManagerSemantics(),
            device=DeviceModel.homogeneous(4, ms(4)),
        )
        assert r1.makespan_us == r2.makespan_us
        assert r1.trace.executions == r2.trace.executions
        assert r1.trace.reconfigs == r2.trace.reconfigs


class TestDeviceIsRequired:
    def test_stale_scalar_positional_calls_raise_type_error(self):
        """The old ``(graphs, n_rus, reconfig_latency, ...)`` positional
        form cannot bind an int to the keyword-only ``device``."""
        from repro.core.mobility import MobilityCalculator
        from repro.sim.manager import ExecutionManager

        g = chain_graph("G", [ms(10)])
        advisor = PolicyAdvisor(LRUPolicy())
        with pytest.raises(TypeError, match="device"):
            run_simulation([g], 4, ms(4), advisor)
        with pytest.raises(TypeError, match="device"):
            ExecutionManager([g], 4, ms(4), advisor)
        with pytest.raises(TypeError, match="device"):
            ideal_makespan([g], 4)
        with pytest.raises(TypeError, match="device"):
            MobilityCalculator(4, ms(4))

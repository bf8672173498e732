"""Tests for the metrics package (energy model, sweep aggregation)."""

import pytest

from repro.core.policies.classic import LRUPolicy
from repro.core.replacement_module import PolicyAdvisor
from repro.graphs.builders import chain_graph
from repro.metrics.energy import EnergyModel, reconfiguration_energy
from repro.metrics.summary import PolicyRunRecord, SweepResult
from repro.sim.simtime import ms
from repro.sim.simulator import run_simulation
from repro.hw.model import DeviceModel


class TestEnergyModel:
    def test_linear_cost(self):
        model = EnergyModel(e_per_kb_uj=2.0, e_fixed_uj=100.0)
        assert model.energy_of_reconfig_uj(50) == 200.0

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            EnergyModel().energy_of_reconfig_uj(-1)

    def test_reuse_avoids_energy(self):
        g = chain_graph("G", [ms(10), ms(10)])
        result = run_simulation(
            [g, g], PolicyAdvisor(LRUPolicy()), device=DeviceModel.homogeneous(4, ms(4))
        )
        report = reconfiguration_energy(result.trace, [g, g])
        assert report.n_reconfigurations == 2
        assert report.n_avoided == 2
        assert report.avoided_uj == pytest.approx(report.total_uj)
        assert report.savings_pct() == pytest.approx(50.0)

    def test_no_reuse_no_savings(self):
        a = chain_graph("A", [ms(5)])
        b = chain_graph("B", [ms(5)])
        result = run_simulation(
            [a, b], PolicyAdvisor(LRUPolicy()), device=DeviceModel.homogeneous(4, ms(4))
        )
        report = reconfiguration_energy(result.trace, [a, b])
        assert report.n_avoided == 0
        assert report.savings_pct() == 0.0

    def test_total_mj_conversion(self):
        g = chain_graph("G", [ms(5)])
        result = run_simulation(
            [g], PolicyAdvisor(LRUPolicy()), device=DeviceModel.homogeneous(4, ms(4))
        )
        report = reconfiguration_energy(result.trace, [g])
        assert report.total_mj == pytest.approx(report.total_uj / 1000.0)

    def test_bitstream_size_scales_energy(self):
        small = chain_graph("S", [ms(5)])
        big_spec = small.task(1).with_exec_time(ms(5))
        from repro.graphs.task import TaskSpec
        from repro.graphs.task_graph import TaskGraph

        big = TaskGraph("B", [TaskSpec(1, ms(5), bitstream_kb=2048)])
        rs = run_simulation(
            [small],
            PolicyAdvisor(LRUPolicy()),
            device=DeviceModel.homogeneous(4, ms(4)),
        )
        rb = run_simulation(
            [big], PolicyAdvisor(LRUPolicy()), device=DeviceModel.homogeneous(4, ms(4))
        )
        es = reconfiguration_energy(rs.trace, [small])
        eb = reconfiguration_energy(rb.trace, [big])
        assert eb.total_uj > es.total_uj


class TestSweepResult:
    def _record(self, label, n_rus, reuse):
        return PolicyRunRecord(
            policy_label=label,
            n_rus=n_rus,
            reuse_pct=reuse,
            remaining_overhead_pct=10.0,
            overhead_ms=1.0,
            makespan_ms=2.0,
            ideal_makespan_ms=1.0,
            n_reconfigurations=3,
            n_reuses=1,
            n_skips=0,
        )

    def test_series_and_average(self):
        sweep = SweepResult(title="T", ru_counts=(4, 5))
        sweep.add(self._record("LRU", 4, 10.0))
        sweep.add(self._record("LRU", 5, 20.0))
        assert sweep.series("LRU", "reuse_pct") == [10.0, 20.0]
        assert sweep.average("LRU", "reuse_pct") == 15.0

    def test_cell_lookup_missing(self):
        sweep = SweepResult(title="T", ru_counts=(4,))
        with pytest.raises(KeyError):
            sweep.cell("LRU", 4)

    def test_policies_in_first_appearance_order(self):
        sweep = SweepResult(title="T", ru_counts=(4,))
        sweep.add(self._record("B", 4, 1.0))
        sweep.add(self._record("A", 4, 1.0))
        assert sweep.policies() == ["B", "A"]

    def test_render_table_contains_avg(self):
        sweep = SweepResult(title="T", ru_counts=(4, 5))
        sweep.add(self._record("LRU", 4, 10.0))
        sweep.add(self._record("LRU", 5, 20.0))
        text = sweep.render_table("reuse_pct", "reuse")
        assert "Avg." in text and "15.00" in text

    def test_from_result(self):
        g = chain_graph("G", [ms(10)])
        result = run_simulation(
            [g, g], PolicyAdvisor(LRUPolicy()), device=DeviceModel.homogeneous(4, ms(4))
        )
        record = PolicyRunRecord.from_result("LRU", 4, result)
        assert record.policy_label == "LRU"
        assert record.reuse_pct == pytest.approx(50.0)
        assert record.n_rus == 4

"""Tests for utilization metrics, result export and DOT rendering."""

import pytest

from repro.core.policies.classic import LRUPolicy
from repro.core.replacement_module import PolicyAdvisor
from repro.experiments.export import (
    rows_to_csv,
    save_text,
    sweep_from_csv,
    sweep_to_csv,
    sweep_to_json,
)
from repro.graphs.builders import chain_graph, fork_join_graph
from repro.graphs.dot import graph_to_dot, save_dot
from repro.graphs.multimedia import hough_transform
from repro.metrics.summary import PolicyRunRecord, SweepResult
from repro.metrics.utilization import app_latency_stats, utilization
from repro.sim.simtime import ms
from repro.sim.simulator import run_simulation
from repro.sim.trace import Trace
from repro.hw.model import DeviceModel


def run_small():
    g = chain_graph("G", [ms(10), ms(10)])
    apps = [g, g]
    return apps, run_simulation(
        apps, PolicyAdvisor(LRUPolicy()), device=DeviceModel.homogeneous(2, ms(4))
    )


class TestUtilization:
    def test_fractions_in_unit_range(self):
        _, result = run_small()
        report = utilization(result.trace)
        for value in report.exec_utilization.values():
            assert 0.0 <= value <= 1.0
        for value in report.reconfig_utilization.values():
            assert 0.0 <= value <= 1.0

    def test_total_busy_matches_trace(self):
        _, result = run_small()
        report = utilization(result.trace)
        busy_us = sum(
            u * report.makespan_us for u in report.exec_utilization.values()
        )
        assert busy_us == pytest.approx(sum(e.duration for e in result.trace.executions))

    def test_empty_trace(self):
        report = utilization(Trace(n_rus=2, reconfig_latency=0))
        assert report.mean_exec_utilization == 0.0


class TestAppLatency:
    def test_turnaround_partition(self):
        apps, result = run_small()
        stats = app_latency_stats(result.trace, apps)
        # Turnarounds partition the makespan.
        assert stats.mean_turnaround_us * len(apps) == pytest.approx(
            result.makespan_us
        )
        assert stats.mean_slowdown >= 1.0

    def test_p95_at_least_p50(self):
        apps, result = run_small()
        stats = app_latency_stats(result.trace, apps)
        assert stats.p95_turnaround_us >= stats.p50_turnaround_us

    def test_empty(self):
        stats = app_latency_stats(Trace(n_rus=1, reconfig_latency=0), [])
        assert stats.max_turnaround_us == 0


def _sweep():
    sweep = SweepResult(title="T", ru_counts=(4, 5))
    for n_rus, reuse in ((4, 10.0), (5, 20.0)):
        sweep.add(
            PolicyRunRecord(
                policy_label="LRU",
                n_rus=n_rus,
                reuse_pct=reuse,
                remaining_overhead_pct=9.0,
                overhead_ms=1.5,
                makespan_ms=10.0,
                ideal_makespan_ms=8.5,
                n_reconfigurations=7,
                n_reuses=3,
                n_skips=1,
            )
        )
    return sweep


class TestExport:
    def test_csv_round_trip(self):
        sweep = _sweep()
        text = sweep_to_csv(sweep)
        records = sweep_from_csv(text)
        assert records == sweep.records

    def test_csv_has_header(self):
        assert sweep_to_csv(_sweep()).splitlines()[0].startswith("policy_label,")

    def test_json_fields(self):
        import json

        payload = json.loads(sweep_to_json(_sweep()))
        assert payload["title"] == "T"
        assert payload["ru_counts"] == [4, 5]
        assert len(payload["records"]) == 2

    def test_rows_to_csv_dataclasses(self):
        from repro.experiments.ablation import AblationRow

        rows = [
            AblationRow("x", 1.0, 2.0, 3.0, 4, 5, 6.0),
            AblationRow("y", 1.0, 2.0, 3.0, 4, 5, 6.0),
        ]
        text = rows_to_csv(rows)
        assert text.splitlines()[0].startswith("label,")
        assert len(text.splitlines()) == 3

    def test_rows_to_csv_rejects_non_dataclass(self):
        with pytest.raises(TypeError):
            rows_to_csv([{"a": 1}])

    def test_rows_to_csv_empty(self):
        assert rows_to_csv([]) == ""

    def test_save_text(self, tmp_path):
        path = tmp_path / "out.csv"
        save_text("hello", str(path))
        assert path.read_text() == "hello"


class TestDot:
    def test_contains_nodes_and_edges(self):
        g = fork_join_graph("FJ", ms(1), [ms(2), ms(3)], ms(1))
        dot = graph_to_dot(g)
        assert dot.startswith('digraph "FJ"')
        for nid in g.node_ids:
            assert f"n{nid}" in dot
        assert "->" in dot

    def test_mobility_annotations(self):
        g = chain_graph("C", [ms(1), ms(2)])
        dot = graph_to_dot(g, mobility={1: 0, 2: 3})
        assert "mobility 3" in dot
        assert "peripheries=2" in dot

    def test_critical_path_bold(self):
        g = hough_transform()
        dot = graph_to_dot(g, highlight_critical_path=True)
        assert "penwidth=2.5" in dot

    def test_save(self, tmp_path):
        path = tmp_path / "g.dot"
        save_dot(chain_graph("C", [ms(1)]), str(path))
        assert path.read_text().startswith("digraph")

"""Tests for trace records, the Gantt renderer and the trace validator."""

import pytest

from repro.core.policies.classic import LRUPolicy
from repro.core.replacement_module import PolicyAdvisor
from repro.exceptions import TraceInvariantError
from repro.graphs.builders import chain_graph
from repro.graphs.task import ConfigId
from repro.sim.gantt import render_gantt, render_timeline_events
from repro.sim.simtime import ms
from repro.sim.simulator import run_simulation
from repro.sim.trace import ExecRecord, ReconfigRecord, Trace
from repro.sim.validation import validate_trace
from repro.hw.model import DeviceModel


def run_chain():
    g = chain_graph("G", [ms(10), ms(10)])
    result = run_simulation(
        [g, g], PolicyAdvisor(LRUPolicy()), device=DeviceModel.homogeneous(4, ms(4))
    )
    return g, result.trace


class TestTraceQueries:
    def test_counters(self):
        g, trace = run_chain()
        assert trace.n_executions == 4
        assert trace.n_reused_executions == 2
        assert trace.n_reconfigurations == 2
        assert trace.reuse_rate() == pytest.approx(0.5)

    def test_per_ru_queries_sorted(self):
        _, trace = run_chain()
        for ru in range(trace.n_rus):
            execs = trace.executions_on_ru(ru)
            assert execs == sorted(execs, key=lambda e: e.start)

    def test_busy_time(self):
        _, trace = run_chain()
        busy = trace.busy_time_per_ru()
        assert sum(busy.values()) == 4 * ms(10)

    def test_total_reconfiguration_time(self):
        _, trace = run_chain()
        assert trace.total_reconfiguration_time() == 2 * ms(4)

    def test_empty_trace_metrics(self):
        trace = Trace(n_rus=2, reconfig_latency=ms(4))
        assert trace.makespan == 0
        assert trace.reuse_rate() == 0.0

    def test_summary_keys(self):
        _, trace = run_chain()
        summary = trace.summary()
        assert summary["executions"] == 4
        assert summary["reused"] == 2


class TestGantt:
    def test_renders_all_rus(self):
        _, trace = run_chain()
        text = render_gantt(trace)
        for ru in range(trace.n_rus):
            assert f"RU{ru}:" in text

    def test_contains_reconfig_marks(self):
        _, trace = run_chain()
        assert "#" in render_gantt(trace)

    def test_scales_to_max_width(self):
        _, trace = run_chain()
        text = render_gantt(trace, cell_us=1, max_width=40)
        ru_lines = [l for l in text.splitlines() if l.startswith("RU")]
        assert ru_lines
        assert max(len(line) for line in ru_lines) <= 40 + 10  # label + bars

    def test_empty_trace(self):
        assert "empty" in render_gantt(Trace(n_rus=1, reconfig_latency=0))

    def test_invalid_cell(self):
        with pytest.raises(ValueError):
            render_gantt(Trace(n_rus=1, reconfig_latency=0), cell_us=0)

    def test_timeline_events_chronological(self):
        _, trace = run_chain()
        lines = render_timeline_events(trace).splitlines()
        times = [int(line.split("us")[0]) for line in lines]
        assert times == sorted(times)

    def test_timeline_limit(self):
        _, trace = run_chain()
        assert len(render_timeline_events(trace, limit=3).splitlines()) == 3


class TestValidator:
    def test_valid_trace_passes(self):
        g, trace = run_chain()
        validate_trace(trace, [g, g])

    def _base(self):
        g = chain_graph("G", [ms(10)])
        cfg = ConfigId("G", 1)
        return g, cfg

    def test_detects_overlapping_reconfigs(self):
        g, cfg = self._base()
        trace = Trace(n_rus=2, reconfig_latency=ms(4))
        trace.reconfigs = [
            ReconfigRecord(ru=0, config=cfg, app_index=0, start=0, end=ms(4)),
            ReconfigRecord(ru=1, config=cfg, app_index=0, start=ms(2), end=ms(6)),
        ]
        with pytest.raises(TraceInvariantError, match="I1"):
            validate_trace(trace, [g])

    def test_detects_missing_load(self):
        g, cfg = self._base()
        trace = Trace(n_rus=1, reconfig_latency=ms(4))
        trace.executions = [
            ExecRecord(ru=0, config=cfg, app_index=0, start=0, end=ms(10), reused=False)
        ]
        with pytest.raises(TraceInvariantError, match="I3"):
            validate_trace(trace, [g])

    def test_detects_dependency_violation(self):
        g = chain_graph("G", [ms(10), ms(10)])
        c1, c2 = ConfigId("G", 1), ConfigId("G", 2)
        trace = Trace(n_rus=2, reconfig_latency=ms(4))
        trace.reconfigs = [
            ReconfigRecord(ru=0, config=c1, app_index=0, start=0, end=ms(4)),
            ReconfigRecord(ru=1, config=c2, app_index=0, start=ms(4), end=ms(8)),
        ]
        trace.executions = [
            ExecRecord(ru=0, config=c1, app_index=0, start=ms(4), end=ms(14), reused=False),
            # child starts before parent ends:
            ExecRecord(ru=1, config=c2, app_index=0, start=ms(8), end=ms(18), reused=False),
        ]
        with pytest.raises(TraceInvariantError, match="I4"):
            validate_trace(trace, [g])

    def test_detects_missing_execution(self):
        g, cfg = self._base()
        trace = Trace(n_rus=1, reconfig_latency=ms(4))
        with pytest.raises(TraceInvariantError, match="I6"):
            validate_trace(trace, [g])

    def test_detects_barrier_violation(self):
        a = chain_graph("A", [ms(10)])
        b = chain_graph("B", [ms(10)])
        ca, cb = ConfigId("A", 1), ConfigId("B", 1)
        trace = Trace(n_rus=2, reconfig_latency=ms(4))
        trace.reconfigs = [
            ReconfigRecord(ru=0, config=ca, app_index=0, start=0, end=ms(4)),
            ReconfigRecord(ru=1, config=cb, app_index=1, start=ms(4), end=ms(8)),
        ]
        trace.executions = [
            ExecRecord(ru=0, config=ca, app_index=0, start=ms(4), end=ms(14), reused=False),
            # app 1 starts before app 0 ends:
            ExecRecord(ru=1, config=cb, app_index=1, start=ms(8), end=ms(18), reused=False),
        ]
        with pytest.raises(TraceInvariantError, match="I5"):
            validate_trace(trace, [a, b])

"""The repro.hw device model: slots, latency models, controllers.

Covers model semantics and validation, the controller pool's
deterministic arbitration, slot-compatibility filtering, per-configuration
latencies in traces, device-keyed artifacts, the fixed-vs-summed
no-reuse baseline regression, the aggregate-view ``TypeError`` satellites, per-controller Gantt lanes, the
device-parameterised scenarios, ``Session.device_sweep`` and the CLI
device flags.
"""

import json

import pytest

from repro.core.policy_spec import local_lfd_spec, lru_spec
from repro.core.replacement_module import PolicyAdvisor
from repro.core.policies.classic import LRUPolicy
from repro.exceptions import DeviceError, SimulationError, WorkloadError
from repro.graphs.builders import TaskGraphBuilder, chain_graph
from repro.graphs.task import ConfigId
from repro.hw import (
    BitstreamLatency,
    DeviceModel,
    FixedLatency,
    PerConfigLatency,
    RUSlot,
    available_device_presets,
    make_device,
    parse_latency_model,
)
from repro.metrics.utilization import app_latency_stats, utilization
from repro.session import Session
from repro.sim.gantt import render_gantt, render_timeline_events
from repro.sim.manager import ExecutionManager
from repro.sim.simulator import ideal_floorplan, run_simulation
from repro.sim.tracing import AggregateTrace
from repro.sim.validation import validate_trace
from repro.workloads.scenarios import make_scenario, scenario_info
from repro.artifacts.keys import mobility_key


def _advisor():
    return PolicyAdvisor(LRUPolicy())


# ----------------------------------------------------------------------
# Latency models
# ----------------------------------------------------------------------
class TestLatencyModels:
    CFG = ConfigId("G", 1)

    def test_fixed(self):
        model = FixedLatency(4000)
        assert model.latency_us(self.CFG, 512) == 4000
        assert model.latency_us(self.CFG, 9999) == 4000
        assert model.fixed_us == 4000 and model.nominal_us == 4000

    def test_bitstream_proportional(self):
        model = BitstreamLatency(us_per_kb=8, base_us=100)
        assert model.latency_us(self.CFG, 512) == 100 + 8 * 512
        assert model.fixed_us is None
        assert model.nominal_us == 100 + 8 * 512

    def test_per_config_table(self):
        model = PerConfigLatency.from_table({self.CFG: 1234}, default_us=4000)
        assert model.latency_us(self.CFG, 512) == 1234
        assert model.latency_us(ConfigId("G", 2), 512) == 4000
        assert model.fixed_us is None  # overrides present -> varies

    def test_validation(self):
        with pytest.raises(DeviceError):
            FixedLatency(-1)
        with pytest.raises(DeviceError):
            BitstreamLatency(us_per_kb=-2)

    @pytest.mark.parametrize(
        "spec,expected",
        [
            ("fixed:4000", FixedLatency(4000)),
            ("per-kb:8", BitstreamLatency(us_per_kb=8)),
            ("per-kb:8+500", BitstreamLatency(us_per_kb=8, base_us=500)),
        ],
    )
    def test_parse(self, spec, expected):
        assert parse_latency_model(spec) == expected

    @pytest.mark.parametrize("bad", ["", "fixed", "per-kb:", "weird:1", "fixed:x"])
    def test_parse_rejects(self, bad):
        with pytest.raises(DeviceError, match="latency model"):
            parse_latency_model(bad)


# ----------------------------------------------------------------------
# The model itself
# ----------------------------------------------------------------------
class TestDeviceModel:
    def test_homogeneous_is_paper_path(self):
        model = DeviceModel.homogeneous(4, 4000)
        assert model.n_rus == 4
        assert model.reconfig_latency == 4000
        assert model.is_paper_path()
        assert model.has_uniform_slots

    def test_capacity_or_controllers_leave_paper_path(self):
        assert not DeviceModel.homogeneous(4, 4000, n_controllers=2).is_paper_path()
        capped = DeviceModel(slots=(RUSlot(capacity_kb=512),))
        assert not capped.is_paper_path()
        proportional = DeviceModel(
            slots=(RUSlot(),), latency_model=BitstreamLatency(8)
        )
        assert not proportional.is_paper_path()

    def test_slot_compatibility(self):
        model = DeviceModel(
            slots=(RUSlot(kind="big", capacity_kb=768), RUSlot(kind="little", capacity_kb=256))
        )
        assert model.compatible_slot_indices(700) == (0,)
        assert model.compatible_slot_indices(200) == (0, 1)
        assert model.compatible_slot_indices(1000) == ()

    def test_resize_heterogeneous_raises(self):
        model = make_device("big-little-4")
        with pytest.raises(DeviceError, match="resize heterogeneous"):
            model.with_n_rus(6)
        assert DeviceModel.homogeneous(4, 4000).with_n_rus(6).n_rus == 6
        # Same-size "resize" is a no-op even on heterogeneous floorplans.
        assert model.with_n_rus(4) is model

    def test_zero_latency_keeps_floorplan(self):
        model = make_device("big-little-4").zero_latency()
        assert model.fixed_latency_us == 0
        assert not model.has_uniform_slots

    def test_validation(self):
        with pytest.raises(DeviceError):
            DeviceModel(slots=())
        with pytest.raises(DeviceError):
            DeviceModel.homogeneous(4, 4000, n_controllers=0)
        with pytest.raises(DeviceError):
            RUSlot(capacity_kb=0)

    def test_fingerprint_is_canonical_json(self):
        fp = make_device("big-little-4").fingerprint()
        assert json.dumps(fp, sort_keys=True)  # serialisable
        assert fp == make_device("big-little-4").fingerprint()

    def test_presets_registry(self):
        assert {"paper-4ru", "paper-2ctrl", "big-little-4", "sized-4ru"} <= set(
            available_device_presets()
        )
        with pytest.raises(DeviceError, match="unknown device preset"):
            make_device("nope")


# ----------------------------------------------------------------------
# Engine: controllers
# ----------------------------------------------------------------------
def _fork(name="F", n_branches=3):
    builder = TaskGraphBuilder(name).add_task(1, 10_000)
    for i in range(2, 2 + n_branches):
        builder.add_task(i, 5_000).add_edge(1, i)
    return builder.build()


class TestControllerPool:
    def test_two_controllers_load_in_parallel(self):
        # 1 -> {2,3}: with one controller the three loads serialize
        # (0-4, 4-8, 8-12); with two, loads 1+2 run in parallel.
        graph = _fork(n_branches=2)
        single = ExecutionManager(
            graphs=[graph], advisor=_advisor(), device=DeviceModel.homogeneous(4, 4000)
        ).run()
        dual = ExecutionManager(
            graphs=[graph],
            advisor=_advisor(),
            device=DeviceModel.homogeneous(4, 4000, n_controllers=2),
        ).run()
        assert [(r.start, r.end) for r in sorted(single.reconfigs, key=lambda r: r.start)] == [
            (0, 4000), (4000, 8000), (8000, 12000)
        ]
        assert [(r.start, r.end) for r in sorted(dual.reconfigs, key=lambda r: r.start)] == [
            (0, 4000), (0, 4000), (4000, 8000)
        ]
        validate_trace(dual, [graph])

    def test_arbitration_lowest_free_controller(self):
        graph = _fork(n_branches=3)
        trace = ExecutionManager(
            graphs=[graph],
            advisor=_advisor(),
            device=DeviceModel.homogeneous(4, 4000, n_controllers=2),
        ).run()
        recs = sorted(trace.reconfigs, key=lambda r: (r.start, r.controller))
        # First two loads at t=0 take controllers 0 and 1; the next load
        # takes the lowest controller that freed (0 again).
        assert [(r.start, r.controller) for r in recs] == [
            (0, 0), (0, 1), (4000, 0), (4000, 1)
        ]
        assert trace.n_controllers == 2

    def test_controller_count_in_validation(self):
        graph = _fork()
        trace = ExecutionManager(
            graphs=[graph],
            advisor=_advisor(),
            device=DeviceModel.homogeneous(4, 4000, n_controllers=3),
        ).run()
        validate_trace(trace, [graph])

    def test_multi_controller_never_slower_on_paper_eval(self):
        workload = make_scenario("paper-eval", length=40)
        results = {}
        for n in (1, 2):
            device = DeviceModel.homogeneous(4, 16_000, n_controllers=n)
            spec = lru_spec()
            results[n] = run_simulation(
                workload.apps,
                advisor=spec.make_advisor(),
                semantics=spec.make_semantics(),
                ideal_makespan_us=0,
                trace="aggregate",
                device=device,
            ).makespan_us
        assert results[2] <= results[1]


# ----------------------------------------------------------------------
# Engine: slots and per-configuration latencies
# ----------------------------------------------------------------------
class TestSlotsAndLatencies:
    def test_config_fitting_nowhere_fails_at_construction(self):
        graph = TaskGraphBuilder("BIG").add_task(1, 10_000, bitstream_kb=2048).build()
        with pytest.raises(SimulationError, match="no slot of device"):
            ExecutionManager(
                graphs=[graph],
                advisor=_advisor(),
                device=DeviceModel(slots=(RUSlot(capacity_kb=512),)),
            )

    def test_big_config_only_loads_into_big_slots(self):
        big = TaskGraphBuilder("APP").add_task(1, 10_000, bitstream_kb=700).add_task(
            2, 10_000, bitstream_kb=100
        ).add_edge(1, 2).build()
        device = DeviceModel(
            slots=(RUSlot(kind="little", capacity_kb=256), RUSlot(kind="big", capacity_kb=768)),
        )
        trace = ExecutionManager(graphs=[big], advisor=_advisor(), device=device).run()
        by_node = {r.config.node_id: r.ru for r in trace.reconfigs}
        assert by_node[1] == 1  # the 700 KiB bitstream skipped the little slot
        assert by_node[2] == 0  # the 100 KiB bitstream took the first free slot
        validate_trace(trace, [big])

    def test_per_config_latency_lands_in_events(self):
        graph = (
            TaskGraphBuilder("S")
            .add_task(1, 10_000, bitstream_kb=100)
            .add_task(2, 10_000, bitstream_kb=400)
            .add_edge(1, 2)
            .build()
        )
        device = DeviceModel(
            slots=(RUSlot(), RUSlot()), latency_model=BitstreamLatency(us_per_kb=10)
        )
        trace = ExecutionManager(graphs=[graph], advisor=_advisor(), device=device).run()
        latencies = {r.config.node_id: r.latency for r in trace.reconfigs}
        assert latencies == {1: 1000, 2: 4000}
        validate_trace(trace, [graph])

    def test_sized_ideal_uses_zero_latency_same_floorplan(self):
        workload = make_scenario("big-little", length=10)
        session = Session(workload=workload)
        result = session.run(lru_spec())
        # The ideal ran on the same constrained floorplan: overhead must
        # still be the makespan delta, and non-negative.
        assert result.overhead_us >= 0
        assert result.ideal_makespan_us > 0


# ----------------------------------------------------------------------
# Satellite: remaining_overhead_pct via summed per-event latencies
# ----------------------------------------------------------------------
class TestNoReuseBaseline:
    def test_fixed_latency_value_identical_to_legacy_formula(self):
        workload = make_scenario("paper-eval", length=25)
        result = Session(workload=workload).run(lru_spec())
        trace = result.trace
        assert trace.no_reuse_baseline_us == trace.n_executions * trace.reconfig_latency
        legacy = 100.0 * result.overhead_us / (
            trace.n_executions * trace.reconfig_latency
        )
        assert result.remaining_overhead_pct() == pytest.approx(legacy, abs=0)

    def test_per_config_baseline_sums_actual_costs(self):
        workload = make_scenario("sized-bitstreams", length=25)
        result = Session(workload=workload).run(lru_spec())
        trace = result.trace
        # Workload has 192 KiB and 640 KiB bitstreams at 8 us/KiB: the
        # naive n_executions * nominal product is wrong, the summed
        # baseline equals the per-execution costs exactly.
        per_exec = {
            nid: kb * 8
            for g in workload.distinct_graphs()
            for nid, kb in (
                (n, g.task(n).bitstream_kb) for n in g.node_ids
            )
        }
        expected = sum(
            per_exec[e.config.node_id] for e in trace.executions
        )
        assert trace.no_reuse_baseline_us == expected
        assert trace.no_reuse_baseline_us != trace.n_executions * trace.reconfig_latency
        assert result.remaining_overhead_pct() == pytest.approx(
            100.0 * result.overhead_us / expected
        )

    def test_aggregate_view_carries_the_same_baseline(self):
        workload = make_scenario("sized-bitstreams", length=25)
        session = Session(workload=workload)
        full = session.run(lru_spec(), trace="full")
        agg = session.run(lru_spec(), trace="aggregate")
        assert isinstance(agg.trace, AggregateTrace)
        assert agg.trace.no_reuse_baseline_us == full.trace.no_reuse_baseline_us
        assert agg.remaining_overhead_pct() == full.remaining_overhead_pct()


# ----------------------------------------------------------------------
# Satellite: aggregate views fail loudly in record-level helpers
# ----------------------------------------------------------------------
class TestAggregateTypeErrors:
    @pytest.fixture(scope="class")
    def aggregate(self):
        workload = make_scenario("quick", length=10)
        return Session(workload=workload).run(lru_spec(), trace="aggregate").trace

    @pytest.mark.parametrize(
        "helper",
        [
            lambda t: utilization(t),
            lambda t: app_latency_stats(t, []),
            lambda t: render_gantt(t),
            lambda t: render_timeline_events(t),
        ],
        ids=["utilization", "app_latency_stats", "render_gantt", "render_timeline_events"],
    )
    def test_clear_type_error(self, aggregate, helper):
        with pytest.raises(TypeError, match="AggregateTrace.*trace='full'"):
            helper(aggregate)


# ----------------------------------------------------------------------
# Satellite: per-controller Gantt lanes
# ----------------------------------------------------------------------
class TestGanttControllerLanes:
    def test_single_controller_has_no_lanes(self):
        trace = ExecutionManager(
            graphs=[_fork()],
            advisor=_advisor(),
            device=DeviceModel.homogeneous(4, 4000),
        ).run()
        assert "C0:" not in render_gantt(trace)

    def test_multi_controller_lanes_rendered(self):
        trace = ExecutionManager(
            graphs=[_fork()],
            advisor=_advisor(),
            device=DeviceModel.homogeneous(4, 4000, n_controllers=2),
        ).run()
        text = render_gantt(trace)
        assert "C0:" in text and "C1:" in text
        assert "loads per controller (2)" in text


# ----------------------------------------------------------------------
# Artifact keys
# ----------------------------------------------------------------------
class TestDeviceKeys:
    def test_mobility_key_covers_the_device_fingerprint(self):
        paper = DeviceModel.homogeneous(4, 4000)
        # The display name is not part of the identity; size and latency are.
        named = DeviceModel.homogeneous(4, 4000, name="paper-4ru")
        assert mobility_key("c", paper) == mobility_key("c", named)
        assert mobility_key("c", paper) != mobility_key(
            "c", DeviceModel.homogeneous(5, 4000)
        )
        assert mobility_key("c", paper) != mobility_key(
            "c", DeviceModel.homogeneous(4, 2000)
        )
        assert ideal_floorplan(paper) is None

    def test_heterogeneous_devices_get_distinct_keys(self):
        hetero = make_device("big-little-4")
        dual = DeviceModel.homogeneous(4, 4000, n_controllers=2)
        keys = {
            mobility_key("c", DeviceModel.homogeneous(4, 4000)),
            mobility_key("c", hetero),
            mobility_key("c", dual),
        }
        assert len(keys) == 3

    def test_ideal_key_ignores_latency_model_but_not_floorplan(self):
        sized = make_device("sized-4ru")  # uniform slots, proportional latency
        hetero = make_device("big-little-4")
        # Latency cannot shape a zero-latency ideal: uniform-slot
        # devices share the paper-path entries, a mixed-capacity
        # floorplan keys its own.
        assert ideal_floorplan(sized) is None
        assert ideal_floorplan(hetero) == (
            ("big", 768), ("big", 768), ("little", 256), ("little", 256)
        )


# ----------------------------------------------------------------------
# Scenarios, session, CLI
# ----------------------------------------------------------------------
class TestDeviceScenariosAndSession:
    def test_workload_device_consistency_enforced(self):
        from repro.workloads.sequence import Workload

        graph = chain_graph("G", [10_000])
        with pytest.raises(WorkloadError, match="device model has"):
            Workload(
                apps=(graph,),
                n_rus=4,
                reconfig_latency=4000,
                device=DeviceModel.homogeneous(2, 4000),
            )

    @pytest.mark.parametrize(
        "name", ["multi-controller", "big-little", "sized-bitstreams"]
    )
    def test_scenarios_run_end_to_end(self, name):
        session = Session(workload=name, length=15)
        result = session.run(local_lfd_spec(1, skip_events=True))
        assert result.trace.n_executions == sum(
            len(g) for g in session.workload.apps
        )

    def test_multi_controller_events_are_controller_attributed(self):
        session = Session(workload="multi-controller", length=15, controllers=2)
        trace = session.run(lru_spec()).trace
        assert trace.n_controllers == 2
        assert {r.controller for r in trace.reconfigs} == {0, 1}

    def test_device_sweep(self):
        session = Session(workload=make_scenario("quick", length=12))
        records = session.device_sweep(
            [lru_spec()],
            devices=[
                DeviceModel.homogeneous(4, 4000),
                DeviceModel.homogeneous(4, 4000, n_controllers=2),
                make_device("sized-4ru"),
            ],
        )
        assert [r.device_label for r in records] == [
            "4 RUs @ fixed 4000us",
            "4 RUs @ fixed 4000us, 2 controllers",
            "sized-4ru",
        ]
        # Controllers cannot hurt; the sized device differs from fixed.
        assert records[1].record.makespan_ms <= records[0].record.makespan_ms

    def test_ideal_shared_across_latency_and_controller_variants(self):
        # Only a mixed-capacity floorplan can shape a zero-latency ideal:
        # devices differing in controllers or latency model share one
        # cached computation per graph.
        session = Session(workload=make_scenario("quick", length=10))
        session.device_sweep(
            [lru_spec()],
            devices=[
                DeviceModel.homogeneous(4, 4000),
                DeviceModel.homogeneous(4, 4000, n_controllers=2),
                make_device("sized-4ru"),
            ],
        )
        n_graphs = len(session.workload.distinct_graphs())
        assert session.cache.ideal_stats.computations == n_graphs

    def test_design_time_methods_use_the_session_device(self):
        """``ideal_makespan_us``/``mobility_tables`` resolve the device the
        way ``run`` does, instead of a homogeneous stand-in."""
        from repro.core.mobility import MobilityCalculator

        session = Session(workload=make_scenario("big-little", length=60))
        assert session.run(lru_spec()).ideal_makespan_us == 4_806_000
        assert session.ideal_makespan_us() == 4_806_000
        assert session.mobility_tables() == MobilityCalculator(
            device=session.device
        ).compute_tables(session.workload.distinct_graphs())
        with pytest.raises(DeviceError):
            session.ideal_makespan_us(0)

    def test_sweep_cell_rejects_contradictory_n_rus(self):
        from repro.exceptions import ExperimentError
        from repro.session import SweepCell

        hetero = make_device("big-little-4")
        with pytest.raises(ExperimentError, match="contradicts"):
            SweepCell(lru_spec(), n_rus=8, device=hetero)
        with pytest.raises(ExperimentError, match="contradicts"):
            SweepCell(lru_spec(), reconfig_latency=1, device=hetero)
        cell = SweepCell(lru_spec(), n_rus=4, device=hetero)
        assert cell.device is hetero and cell.n_rus == 4
        # The scalar pair alone describes the homogeneous device.
        pair = SweepCell(lru_spec(), 5, 2000)
        assert pair.device == DeviceModel.homogeneous(5, 2000)
        assert pair.label == f"{lru_spec().label} @ 5 RUs"

    def test_sweep_over_ru_counts_rejects_heterogeneous_device(self):
        session = Session(
            device=make_device("big-little-4"),
            workload=make_scenario("big-little", length=8),
        )
        with pytest.raises(DeviceError, match="device_sweep"):
            session.sweep([lru_spec()], ru_counts=(4, 6))

    def test_scenario_info_exposes_defaults(self):
        info = scenario_info("multi-controller")
        assert ("controllers", 2) in info.defaults
        assert "controllers=2" in info.signature()


class TestLegacyEventCompat:
    def test_pre_refactor_jsonl_events_parse_with_defaults(self):
        from repro.sim.tracing import event_from_dict

        event = event_from_dict(
            {"event": "ReconfigStart", "time": 0, "ru": 0,
             "config": ["HOUGH", 1], "app_index": 0, "end": 4000}
        )
        assert event.controller == 0 and event.latency == 4000
        end = event_from_dict(
            {"event": "ReconfigEnd", "time": 4000, "ru": 0,
             "config": ["HOUGH", 1], "app_index": 0}
        )
        assert end.controller == 0 and end.latency == 0
        exec_start = event_from_dict(
            {"event": "ExecStart", "time": 4000, "ru": 0,
             "config": ["HOUGH", 1], "app_index": 0, "end": 20000,
             "reused": False}
        )
        assert exec_start.load_us == 0
        run_start = event_from_dict(
            {"event": "RunStart", "time": 0, "n_rus": 4,
             "reconfig_latency": 4000, "n_apps": 1}
        )
        assert run_start.n_controllers == 1


class TestCLIDeviceFlags:
    def test_run_multi_controller(self, capsys):
        from repro.cli import main

        assert main(
            ["run", "--scenario", "multi-controller", "--controllers", "2",
             "--length", "15"]
        ) == 0
        out = capsys.readouterr().out
        assert "2 controller(s)" in out

    def test_run_heterogeneous_scenario_with_matching_rus(self, capsys):
        # Regression: --rus equal to the heterogeneous device's size must
        # not crash the result-printing path with a resize error.
        from repro.cli import main

        assert main(
            ["run", "--scenario", "big-little", "--length", "10", "--rus", "4"]
        ) == 0
        assert "big" in capsys.readouterr().out

    def test_run_device_preset_and_latency_model(self, capsys):
        from repro.cli import main

        assert main(
            ["run", "--scenario", "quick", "--length", "10",
             "--device", "paper-2ctrl", "--latency-model", "per-kb:8"]
        ) == 0
        out = capsys.readouterr().out
        assert "8us/KiB" in out and "2 controller(s)" in out

    def test_device_flags_rejected_outside_run(self, capsys):
        from repro.cli import main

        assert main(["fig2", "--controllers", "2"]) == 2
        assert "only supported by the 'run'/'submit' commands" in capsys.readouterr().err

    def test_scenarios_lists_factory_defaults(self, capsys):
        from repro.cli import main

        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "factory kwargs" in out
        assert "length=500" in out and "controllers=2" in out

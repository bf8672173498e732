"""The compiled fast path is byte-identical to the straightforward engine.

Three layers of pinning, per the repo's equivalence convention
(DESIGN.md, docs/performance.md):

1. **Decision-context equivalence** — on every replacement decision, the
   incrementally-maintained Dynamic-List window, the lazy oracle view,
   the window membership set, the busy set and the live candidate RUs
   are compared against a literal re-derivation from manager
   state (a reimplementation of the pre-compiled-engine ``_future_refs``
   full rescan), across every registered scenario.
2. **Event-stream equivalence** — for every scenario × every registry
   policy, a run whose compiled workload went through the artifact-store
   JSON codec emits exactly the same event stream as a run that compiled
   on the fly; and the scalar sink fast path (single built-in sink)
   produces byte-identical traces/summaries to the object path (any
   extra sink attached).
3. **JSONL byte-identity** — the streamed event log of a compiled-path
   run is byte-for-byte the file the fresh-compile run writes, and it
   round-trips losslessly through ``trace_from_jsonl``.
"""

import json

import pytest

from repro.artifacts import compiled_key, decode_compiled, encode_compiled
from repro.core.policies.registry import available_policies, make_policy
from repro.core.replacement_module import PolicyAdvisor
from repro.sim.manager import ExecutionManager
from repro.sim.semantics import ManagerSemantics
from repro.sim.tracing import TraceSink, trace_from_jsonl
from repro.workloads.compiled import CompiledWorkload
from repro.workloads.scenarios import (
    available_scenarios,
    make_scenario,
    scenario_info,
)
from repro.hw.model import DeviceModel

SMALL = {"length": 16}


def _small_workload(name):
    info = scenario_info(name)
    kwargs = {k: v for k, v in SMALL.items() if k in info.parameters}
    return make_scenario(name, **kwargs)


def _hardware(workload):
    if workload.device is not None:
        return {"device": workload.device}
    return {"n_rus": workload.n_rus, "reconfig_latency": workload.reconfig_latency}


class RecordingSink(TraceSink):
    def __init__(self):
        self.events = []

    def on_event(self, event):
        self.events.append(event)


# ----------------------------------------------------------------------
# 1. Decision-context equivalence vs the literal rescan
# ----------------------------------------------------------------------
def _reference_future_refs(mgr, lookahead):
    """Reimplementation of the pre-compiled engine's ``_future_refs``:
    walk the remaining reference string from the dispatch pointer,
    window-limited (with arrival gating) unless ``lookahead`` is None."""
    refs = []
    app_idx = mgr._dispatch_app
    pos = mgr._dispatch_pos + 1  # skip the head itself
    limit = (
        len(mgr.apps)
        if lookahead is None
        else min(len(mgr.apps), mgr._current_app + lookahead + 1)
    )
    while app_idx < limit:
        app = mgr.apps[app_idx]
        if lookahead is not None and app.arrival_time > mgr.clock:
            break
        configs = app.capp.rec_configs
        while pos < len(configs):
            refs.append(configs[pos])
            pos += 1
        app_idx += 1
        pos = 0
    return tuple(refs)


def _reference_candidates(mgr, kb):
    from repro.sim.ru import RUState

    out = []
    for ru in mgr.rus:
        if ru.state is RUState.LOADED and ru.pending is None and (
            mgr._uniform_slots or ru.fits(kb)
        ):
            out.append((ru.index, ru.config, ru.last_use, ru.load_end))
    return out


def _reference_busy(mgr):
    from repro.sim.ru import RUState

    return frozenset(
        ru.config
        for ru in mgr.rus
        if ru.config is not None
        and ru.state in (RUState.EXECUTING, RUState.RECONFIGURING)
    )


class AssertingAdvisor(PolicyAdvisor):
    """PolicyAdvisor that cross-checks every context against the rescan."""

    manager = None  # attached after construction
    decisions = 0

    def decide(self, ctx):
        mgr = self.manager
        lookahead = mgr.semantics.lookahead_apps

        window = _reference_future_refs(mgr, lookahead)
        assert tuple(ctx.future_refs) == window
        assert len(ctx.future_refs) == len(window)
        assert frozenset(iter(ctx.dl_configs)) == frozenset(window)
        for config in mgr.compiled.config_ids:
            assert (config in ctx.dl_configs) == (config in frozenset(window))

        if mgr.semantics.provide_oracle:
            assert tuple(ctx.oracle_refs) == _reference_future_refs(mgr, None)
        else:
            assert ctx.oracle_refs is None

        assert frozenset(ctx.busy_configs) == _reference_busy(mgr)

        head_capp = mgr.apps[mgr._dispatch_app].capp
        kb = head_capp.rec_bitstreams[mgr._dispatch_pos]
        assert [
            (v.index, v.config, v.last_use, v.load_end) for v in ctx.candidates
        ] == _reference_candidates(mgr, kb)

        table = mgr.mobility_tables.get(ctx.incoming.graph_name, {})
        assert ctx.mobility == int(table.get(ctx.incoming.node_id, 0))
        assert ctx.skipped_events == mgr.skipped_events[ctx.incoming.app_index]
        assert ctx.now == mgr.clock

        type(self).decisions += 1
        return super().decide(ctx)


@pytest.mark.parametrize("scenario_name", available_scenarios())
@pytest.mark.parametrize(
    "policy_name,window,oracle", [("lru", 1, False), ("local-lfd", 2, False), ("lfd", 1, True)]
)
def test_incremental_window_matches_literal_rescan(
    scenario_name, policy_name, window, oracle
):
    workload = _small_workload(scenario_name)
    skip = policy_name == "local-lfd"
    mobility = None
    if skip:
        from repro.core.mobility import MobilityCalculator

        mobility = MobilityCalculator(
            device=DeviceModel.homogeneous(workload.n_rus, workload.reconfig_latency),
        ).compute_tables(workload.distinct_graphs())
    AssertingAdvisor.decisions = 0
    advisor = AssertingAdvisor(make_policy(policy_name), skip_events=skip)
    manager = ExecutionManager(
        graphs=workload.apps,
        advisor=advisor,
        semantics=ManagerSemantics(lookahead_apps=window, provide_oracle=oracle),
        mobility_tables=mobility,
        trace="aggregate",
        **_hardware(workload),
    )
    advisor.manager = manager
    trace = manager.run()
    assert trace.n_executions == workload.n_tasks
    assert AssertingAdvisor.decisions > 0  # the cross-check actually ran


def test_incremental_window_matches_under_staggered_arrivals():
    """Arrival gating: the window end must track the clock exactly."""
    workload = _small_workload("quick")
    arrivals = [i * 30_000 for i in range(len(workload.apps))]
    AssertingAdvisor.decisions = 0
    advisor = AssertingAdvisor(make_policy("lru"))
    manager = ExecutionManager(
        graphs=workload.apps,
        advisor=advisor,
        semantics=ManagerSemantics(lookahead_apps=3),
        arrival_times=arrivals,
        trace="aggregate",
        device=DeviceModel.homogeneous(workload.n_rus, workload.reconfig_latency),
    )
    advisor.manager = manager
    manager.run()
    assert AssertingAdvisor.decisions > 0


# ----------------------------------------------------------------------
# 2. Event-stream equivalence: store-round-tripped compiled vs fresh
# ----------------------------------------------------------------------
def _events(workload, policy_name, compiled):
    skip = policy_name == "local-lfd"
    mobility = None
    if skip:
        from repro.core.mobility import MobilityCalculator

        mobility = MobilityCalculator(
            device=DeviceModel.homogeneous(workload.n_rus, workload.reconfig_latency),
        ).compute_tables(workload.distinct_graphs())
    sink = RecordingSink()
    ExecutionManager(
        graphs=workload.apps,
        advisor=PolicyAdvisor(make_policy(policy_name), skip_events=skip),
        semantics=ManagerSemantics(
            lookahead_apps=1, provide_oracle=(policy_name == "lfd")
        ),
        mobility_tables=mobility,
        trace="aggregate",
        extra_sinks=(sink,),
        compiled=compiled,
        **_hardware(workload),
    ).run()
    return sink.events


def _store_round_trip(compiled):
    key = compiled_key("test")
    entry = json.loads(json.dumps(encode_compiled(key, compiled)))
    return decode_compiled(key, entry)


@pytest.mark.parametrize("scenario_name", available_scenarios())
@pytest.mark.parametrize("policy_name", available_policies())
def test_precompiled_stream_identical_to_fresh(scenario_name, policy_name):
    workload = _small_workload(scenario_name)
    compiled = _store_round_trip(CompiledWorkload.compile(workload.apps))
    fresh = _events(workload, policy_name, compiled=None)
    precompiled = _events(workload, policy_name, compiled=compiled)
    assert fresh == precompiled


@pytest.mark.parametrize("trace_mode", ["full", "aggregate"])
@pytest.mark.parametrize(
    "scenario_name", ["quick", "multi-controller", "big-little", "sized-bitstreams"]
)
def test_scalar_fast_path_matches_object_path(scenario_name, trace_mode):
    """Single built-in sink (scalar hooks) vs extra-sink (object) runs."""
    workload = _small_workload(scenario_name)

    def run(extra):
        return ExecutionManager(
            graphs=workload.apps,
            advisor=PolicyAdvisor(make_policy("local-lfd")),
            semantics=ManagerSemantics(lookahead_apps=1),
            trace=trace_mode,
            extra_sinks=extra,
            **_hardware(workload),
        ).run()

    scalar = run(())
    object_path = run((RecordingSink(),))
    assert json.dumps(scalar.summary()) == json.dumps(object_path.summary())
    if trace_mode == "full":
        assert scalar.executions == object_path.executions
        assert scalar.reconfigs == object_path.reconfigs
        assert scalar.reuses == object_path.reuses
        assert scalar.evictions == object_path.evictions
        assert scalar.skips == object_path.skips
        assert scalar.app_completion_times == object_path.app_completion_times
        assert scalar.no_reuse_baseline_us == object_path.no_reuse_baseline_us


# ----------------------------------------------------------------------
# 3. JSONL byte-identity and lossless round-trip
# ----------------------------------------------------------------------
def test_jsonl_stream_byte_identical_and_lossless(tmp_path):
    workload = _small_workload("quick")
    compiled = _store_round_trip(CompiledWorkload.compile(workload.apps))

    def run(path, co):
        ExecutionManager(
            graphs=workload.apps,
            advisor=PolicyAdvisor(make_policy("local-lfd")),
            semantics=ManagerSemantics(lookahead_apps=1),
            trace=path,
            compiled=co,
            device=DeviceModel.homogeneous(workload.n_rus, workload.reconfig_latency),
        ).run()

    fresh_path = tmp_path / "fresh.jsonl"
    precompiled_path = tmp_path / "precompiled.jsonl"
    run(fresh_path, None)
    run(precompiled_path, compiled)
    assert fresh_path.read_bytes() == precompiled_path.read_bytes()

    # Lossless: replaying the stream rebuilds the exact full trace.
    full = ExecutionManager(
        graphs=workload.apps,
        advisor=PolicyAdvisor(make_policy("local-lfd")),
        semantics=ManagerSemantics(lookahead_apps=1),
        trace="full",
        compiled=compiled,
        device=DeviceModel.homogeneous(workload.n_rus, workload.reconfig_latency),
    ).run()
    replayed = trace_from_jsonl(precompiled_path)
    assert replayed.executions == full.executions
    assert replayed.reconfigs == full.reconfigs
    assert json.dumps(replayed.summary()) == json.dumps(full.summary())

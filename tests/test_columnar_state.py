"""The columnar engine core: dict-shadow equivalence and slot coverage.

The struct-of-arrays refactor replaced the engine's per-application
``remaining_preds`` dicts and per-RU attribute traffic with preallocated
integer columns owned by :class:`~repro.sim.columns.EngineState`.  Two
pinning layers:

1. **Dict-shadow equivalence** — a manager subclass maintains the
   pre-refactor object/dict bookkeeping (per-app ``{node_id: remaining
   predecessor count}`` dicts, per-app unfinished counters) alongside
   every completion and asserts the columns agree after each one, across
   every registered scenario × policy and hypothesis-random workloads.
2. **Slot coverage** — every hot-loop class (engine state, events,
   trace records, RU machinery, task instances, decision carriers) is
   ``__slots__``-only: no per-instance ``__dict__``, unknown attribute
   assignment raises.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies.registry import available_policies, make_policy
from repro.core.replacement_module import PolicyAdvisor
from repro.graphs.random_graphs import random_benchmark_like_suite
from repro.graphs.task import TaskInstance
from repro.sim.columns import NO_INDEX, EngineState
from repro.sim.events import EventKind, EventQueue
from repro.sim.interface import Decision, DecisionContext
from repro.sim.manager import ExecutionManager
from repro.sim.ru import RU, RUState, RUView
from repro.sim.semantics import ManagerSemantics
from repro.sim.trace import ExecRecord, ReconfigRecord
from repro.sim.tracing import ExecStart, Reuse, TraceSink
from repro.workloads.compiled import CompiledWorkload
from repro.workloads.scenarios import (
    available_scenarios,
    make_scenario,
    scenario_info,
)
from repro.workloads.sequence import random_sequence
from repro.hw.model import DeviceModel

SMALL = {"length": 14}


def _small_workload(name):
    info = scenario_info(name)
    kwargs = {k: v for k, v in SMALL.items() if k in info.parameters}
    return make_scenario(name, **kwargs)


def _hardware(workload):
    if workload.device is not None:
        return {"device": workload.device}
    return {"device": DeviceModel.homogeneous(workload.n_rus, workload.reconfig_latency)}


# ----------------------------------------------------------------------
# 1. Dict-shadow equivalence
# ----------------------------------------------------------------------
class _ShadowManager(ExecutionManager):
    """Runs the pre-refactor dict bookkeeping next to the columns.

    On every task completion the shadow decrements a plain
    ``{node_id: count}`` dict for the finished node's successors — the
    algorithm the columnar ``remaining`` column replaced — and then
    checks every app's columns against the dicts.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.shadow_remaining = [
            {nid: capp.pred_counts[nid] for nid in capp.rec_order}
            for capp in self._app_capps
        ]
        self.shadow_unfinished = [capp.n_tasks for capp in self._app_capps]
        self.checks = 0

    def _handle_end_of_execution(self, ru_index, instance):
        da = instance.app_index
        capp = self._app_capps[da]
        # ru_flat is overwritten as soon as the freed RU is re-claimed by
        # the dispatch super() triggers — resolve the node first.
        node_id = capp.rec_order[self._ru_flat[ru_index] - self.compiled.app_offsets[da]]
        super()._handle_end_of_execution(ru_index, instance)
        for succ in capp.successors[node_id]:
            self.shadow_remaining[da][succ] -= 1
        self.shadow_unfinished[da] -= 1
        self._compare()

    def _compare(self):
        offsets = self.compiled.app_offsets
        for a, capp in enumerate(self._app_capps):
            assert self._unfinished[a] == self.shadow_unfinished[a]
            base = offsets[a]
            shadow = self.shadow_remaining[a]
            for pos, nid in enumerate(capp.rec_order):
                assert self._remaining[base + pos] == shadow[nid], (
                    f"app {a} node {nid}: column "
                    f"{self._remaining[base + pos]} != dict {shadow[nid]}"
                )
        self.checks += 1


def _shadow_run(graphs, policy_name, **hardware):
    advisor = PolicyAdvisor(
        make_policy(policy_name), skip_events=(policy_name == "local-lfd")
    )
    mgr = _ShadowManager(
        graphs=graphs,
        advisor=advisor,
        semantics=ManagerSemantics(
            lookahead_apps=1, provide_oracle=(policy_name == "lfd")
        ),
        trace="aggregate",
        **hardware,
    )
    mgr.run()
    return mgr


@pytest.mark.parametrize("scenario_name", available_scenarios())
@pytest.mark.parametrize("policy_name", available_policies())
def test_columns_match_dict_shadow_all_scenarios(scenario_name, policy_name):
    workload = _small_workload(scenario_name)
    mgr = _shadow_run(workload.apps, policy_name, **_hardware(workload))
    total_tasks = sum(len(g) for g in workload.apps)
    assert mgr.checks == total_tasks  # one comparison per completed task
    assert all(n == 0 for n in mgr.shadow_unfinished)
    assert all(r == 0 for r in mgr.state.remaining)
    assert mgr.state.apps_left == 0


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_rus=st.integers(min_value=3, max_value=6),
    latency=st.sampled_from([0, 1000, 4000]),
    length=st.integers(min_value=1, max_value=12),
    policy=st.sampled_from(["lru", "fifo", "lfu", "local-lfd", "mru"]),
)
def test_property_columns_match_dict_shadow(seed, n_rus, latency, length, policy):
    """Hypothesis: random catalogs and sequences keep columns == dicts."""
    catalog = random_benchmark_like_suite(3, seed=seed, size_range=(2, 3))
    graphs = random_sequence(catalog, length, seed=seed + 1)
    mgr = _shadow_run(
        graphs, policy, device=DeviceModel.homogeneous(n_rus, latency)
    )
    assert mgr.checks == sum(len(g) for g in graphs)
    assert all(r == 0 for r in mgr.state.remaining)


def test_engine_state_initial_columns():
    workload = _small_workload("quick")
    compiled = CompiledWorkload.compile(workload.apps)
    state = EngineState(compiled, n_rus=4)
    assert state.remaining == list(compiled.pred_template_flat)
    assert state.unfinished == [len(g) for g in workload.apps]
    assert state.skipped == [0] * len(workload.apps)
    assert state.loc == [NO_INDEX] * compiled.n_configs
    assert state.ru_cid == [NO_INDEX] * 4
    assert state.ru_app == [NO_INDEX] * 4
    assert state.ru_flat == [NO_INDEX] * 4
    assert state.apps_left == len(workload.apps)


# ----------------------------------------------------------------------
# 2. Slot coverage: no __dict__ anywhere on the hot path
# ----------------------------------------------------------------------
def _engine_state():
    workload = _small_workload("quick")
    return EngineState(CompiledWorkload.compile(workload.apps), n_rus=4)


_CONFIG = ("g", 1)

HOT_INSTANCES = [
    ("TaskInstance", lambda: TaskInstance(0, _CONFIG, 100)),
    ("EngineState", _engine_state),
    ("EventQueue", lambda: EventQueue()),
    ("RU", lambda: RU(0)),
    (
        "RUView",
        lambda: RUView(
            index=0, config=_CONFIG, state=RUState.LOADED, last_use=0, load_end=0
        ),
    ),
    ("Decision", lambda: Decision.load(0)),
    (
        "DecisionContext",
        lambda: DecisionContext(
            now=0,
            incoming=TaskInstance(0, _CONFIG, 100),
            candidates=(),
            future_refs=(),
            oracle_refs=None,
            dl_configs=frozenset(),
            busy_configs=frozenset(),
            mobility=0,
            skipped_events=0,
        ),
    ),
    ("ExecStart", lambda: ExecStart(0, 0, _CONFIG, 0, 10, False)),
    ("Reuse", lambda: Reuse(0, 0, _CONFIG, 0)),
    ("ExecRecord", lambda: ExecRecord(0, _CONFIG, 0, 0, 10, False)),
    ("ReconfigRecord", lambda: ReconfigRecord(0, _CONFIG, 0, 0, 10)),
]


@pytest.mark.parametrize(
    "factory", [f for _, f in HOT_INSTANCES], ids=[n for n, _ in HOT_INSTANCES]
)
def test_hot_loop_classes_are_slot_only(factory):
    instance = factory()
    assert not hasattr(instance, "__dict__"), type(instance).__name__
    with pytest.raises(AttributeError):
        instance.definitely_not_a_slot = 1


class _EventAudit(TraceSink):
    """Asserts every emitted event instance is dict-free."""

    def __init__(self):
        self.n = 0

    def on_event(self, event):
        assert not hasattr(event, "__dict__"), type(event).__name__
        self.n += 1


def test_full_run_emits_only_slotted_events():
    workload = _small_workload("quick")
    audit = _EventAudit()
    advisor = PolicyAdvisor(make_policy("lru"))
    ExecutionManager(
        graphs=workload.apps,
        advisor=advisor,
        semantics=ManagerSemantics(lookahead_apps=1),
        trace="aggregate",
        extra_sinks=(audit,),
        **_hardware(workload),
    ).run()
    assert audit.n > 0


def test_event_queue_tuples_and_kinds():
    # The queue itself is slot-only and stores plain tuples.
    q = EventQueue()
    q.push(5, EventKind.APP_ARRIVAL, None)
    assert not hasattr(q, "__dict__")
    assert isinstance(q.pop(), tuple)

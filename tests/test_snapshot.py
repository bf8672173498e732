"""In-place engine snapshots: ``ExecutionManager.snapshot`` / ``restore``.

A snapshot taken at any between-event cut, restored and run on, must
reproduce the uninterrupted run's full trace and makespan exactly — on
random workloads, homogeneous, multi-controller and mixed-slot devices,
stateless and stateful policies, and skip events — also after a pickle
round trip into a freshly constructed manager, which is what a
checkpoint is.  A drift guard pins that every attribute ``arm()``
assigns is captured or declared run-invariant, and that the checkpoint
module writes no manager attribute of its own.
"""

from __future__ import annotations

import ast
import inspect
import pickle
import textwrap

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.mobility import MobilityCalculator
from repro.core.policies.classic import LRUPolicy, RandomPolicy
from repro.core.policies.extended import ClockPolicy, LFUPolicy
from repro.core.policies.lfd import LocalLFDPolicy
from repro.core.replacement_module import PolicyAdvisor
from repro.exceptions import DispatchDeadlockError, SimulationError
from repro.graphs.random_graphs import random_layered_graph
from repro.hw.model import DeviceModel
from repro.hw.presets import make_device
from repro.resilience import checkpoint as checkpoint_module
from repro.sim.manager import SNAPSHOT_RUN_INVARIANT, ExecutionManager
from repro.sim.simtime import ms
from repro.sim.tracing import TraceSink
from repro.workloads.sequence import random_sequence

POLICIES = {
    "lru": LRUPolicy,
    "local-lfd": LocalLFDPolicy,
    "lfu": LFUPolicy,  # bookkeeping hooks: the advisor is copied
    "clock": ClockPolicy,
    "random": lambda: RandomPolicy(seed=3),  # state behind reset() only
}


class _Counter(TraceSink):
    """An extra sink with run state of its own."""

    def __init__(self) -> None:
        self.n = 0

    def on_event(self, event) -> None:
        self.n += 1


def _trace_bytes(trace) -> str:
    """Canonical text of every record list a full trace holds."""
    return repr(
        (
            trace.reconfigs,
            trace.reuses,
            trace.evictions,
            trace.skips,
            trace.executions,
            sorted(trace.app_completion_times.items()),
            trace.no_reuse_baseline_us,
            trace.makespan,
        )
    )


@st.composite
def _runs(draw):
    """A random workload, device, policy and skip switch (the test
    computes mobility tables when the advisor skips events)."""
    n_graphs = draw(st.integers(min_value=1, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    catalog = [
        random_layered_graph(
            f"G{i}", draw(st.integers(min_value=2, max_value=7)), seed=seed + i,
            low_us=1000, high_us=20000,
        )
        for i in range(n_graphs)
    ]
    apps = random_sequence(catalog, draw(st.integers(min_value=1, max_value=6)), seed=seed)
    kind = draw(st.sampled_from(["homogeneous", "two-controllers", "mixed-slots"]))
    if kind == "mixed-slots":
        device = make_device("big-little-4")
    else:
        device = DeviceModel.homogeneous(
            draw(st.integers(min_value=3, max_value=6)),
            draw(st.sampled_from([ms(1), ms(4), ms(8)])),
            n_controllers=2 if kind == "two-controllers" else 1,
        )
    policy = draw(st.sampled_from(sorted(POLICIES)))
    skip = draw(st.booleans())
    return apps, device, policy, skip


def _manager(apps, device, policy, skip, tables):
    return ExecutionManager(
        graphs=apps,
        advisor=PolicyAdvisor(POLICIES[policy](), skip_events=skip),
        mobility_tables=tables,
        trace="full",
        device=device,
    )


class TestSnapshotRoundTrip:
    @given(_runs(), st.data())
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_resume_from_any_cut_reproduces_the_run(self, run, data):
        apps, device, policy, skip = run
        try:
            tables = (
                MobilityCalculator(device=device).compute_tables(apps)
                if skip else None
            )
            manager = _manager(apps, device, policy, skip, tables)
        except SimulationError:
            return  # a graph wider than the device: nothing to run
        start = manager.snapshot()
        cuts = []
        manager.set_cut_hook(lambda mgr: cuts.append(mgr.snapshot()))
        reference = _trace_bytes(manager.run())
        manager.set_cut_hook(None)
        assert cuts, "every run handles at least one event"

        # The post-arm snapshot replays the whole run, prologue included.
        manager.restore(start)
        assert _trace_bytes(manager.run()) == reference
        # Any cut, in any order, any number of times.
        picks = data.draw(
            st.lists(st.integers(min_value=0, max_value=len(cuts) - 1), min_size=1, max_size=4)
        )
        for k in picks + [len(cuts) - 1, 0]:
            manager.restore(cuts[k])
            assert _trace_bytes(manager.run()) == reference, k
        # Pickled whole (a checkpoint's engine state), a cut restores into
        # a freshly constructed manager.
        fresh = _manager(apps, device, policy, skip, tables)
        fresh.restore(pickle.loads(pickle.dumps(cuts[picks[0]])))
        assert _trace_bytes(fresh.run()) == reference

    def test_snapshot_survives_a_diverging_run(self):
        """Restoring after a run that took another path (a forced delay)
        still reproduces the original suffix: the snapshot is a copy, not
        a view of the live containers."""
        graph = random_layered_graph("D", 6, seed=11)
        manager = ExecutionManager(
            graphs=[graph],
            advisor=PolicyAdvisor(LocalLFDPolicy()),
            trace="aggregate",
            device=DeviceModel.homogeneous(3, ms(4)),
        )
        cuts = []
        manager.set_cut_hook(lambda mgr: cuts.append(mgr.snapshot()))
        trace = manager.run()
        manager.set_cut_hook(None)
        reference = (trace.summary(), trace.busy_time_per_ru())
        last = graph.reconfiguration_order()[-1]
        manager.restore(cuts[0], forced_delays={(0, last): 2})
        assert manager.run().summary() != reference[0]
        manager.restore(cuts[0])
        trace = manager.run()
        assert (trace.summary(), trace.busy_time_per_ru()) == reference

    def test_stateful_advisor_is_copied_stateless_is_shared(self):
        graph = random_layered_graph("A", 5, seed=2)
        device = DeviceModel.homogeneous(3, ms(4))
        plain = ExecutionManager(
            graphs=[graph], advisor=PolicyAdvisor(LocalLFDPolicy()), device=device
        )
        stateful = ExecutionManager(
            graphs=[graph], advisor=PolicyAdvisor(LFUPolicy()), device=device
        )
        seeded = ExecutionManager(
            graphs=[graph], advisor=PolicyAdvisor(RandomPolicy(seed=1)), device=device
        )
        assert not plain._advisor_keeps_state
        assert stateful._advisor_keeps_state and seeded._advisor_keeps_state
        snap = plain.snapshot()
        plain.restore(snap)
        before = stateful.advisor
        stateful.restore(stateful.snapshot())
        assert stateful.advisor is not before

    def test_extra_stateful_sink_is_captured_and_restored(self):
        def build():
            counter = _Counter()
            manager = ExecutionManager(
                graphs=[random_layered_graph("S", 5, seed=1)],
                advisor=PolicyAdvisor(LRUPolicy()),
                extra_sinks=[counter],
                device=DeviceModel.homogeneous(3, ms(4)),
            )
            return counter, manager

        counter, manager = build()
        cuts = []
        manager.set_cut_hook(lambda mgr: cuts.append((counter.n, mgr.snapshot())))
        reference = _trace_bytes(manager.run())
        manager.set_cut_hook(None)
        total = counter.n
        seen, cut = cuts[len(cuts) // 2]
        assert 0 < seen < total
        manager.restore(cut)
        assert counter.n == seen
        assert _trace_bytes(manager.run()) == reference
        assert counter.n == total
        # Into a fresh manager, through a pickle: the new counter resumes.
        fresh_counter, fresh = build()
        fresh.restore(pickle.loads(pickle.dumps(cut)))
        assert fresh_counter.n == seen
        assert _trace_bytes(fresh.run()) == reference
        assert fresh_counter.n == total

    def test_deadlock_is_its_own_error(self):
        graph = random_layered_graph("L", 4, seed=5)
        manager = ExecutionManager(
            graphs=[graph],
            advisor=PolicyAdvisor(LRUPolicy()),
            forced_delays={(0, graph.reconfiguration_order()[1]): 10**6},
            trace="aggregate",
            device=DeviceModel.homogeneous(3, ms(4)),
        )
        with pytest.raises(DispatchDeadlockError, match="dispatch deadlock"):
            manager.run()


# ----------------------------------------------------------------------
# Drift guard
# ----------------------------------------------------------------------
def _method_tree(name):
    source = textwrap.dedent(inspect.getsource(getattr(ExecutionManager, name)))
    return ast.parse(source)


def _self_targets(tree):
    """Attributes of ``self`` assigned anywhere in ``tree`` (``self.x =``,
    tuple targets included; ``self.x.y =`` mutates ``x``, not ``self``)."""
    names = set()

    def collect(target):
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                collect(element)
        elif (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            names.add(target.attr)

    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                collect(target)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            collect(node.target)
    return names


def _self_reads(tree):
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    }


class TestSnapshotDriftGuard:
    def test_every_armed_attribute_is_captured_or_run_invariant(self):
        armed = _self_targets(_method_tree("arm"))
        assert len(armed) > 25  # the parse found arm()'s assignments
        captured = _self_reads(_method_tree("snapshot"))
        missing = armed - captured - SNAPSHOT_RUN_INVARIANT
        assert not missing, (
            f"arm() sets {sorted(missing)} but snapshot() neither captures "
            "them nor lists them in SNAPSHOT_RUN_INVARIANT"
        )

    def test_restore_writes_back_what_snapshot_captures(self):
        armed = _self_targets(_method_tree("arm"))
        captured = (armed & _self_reads(_method_tree("snapshot"))) - SNAPSHOT_RUN_INVARIANT
        restored = _self_reads(_method_tree("restore"))
        assert captured - restored == set()

    def test_invariant_list_names_real_attributes(self):
        armed = _self_targets(_method_tree("arm"))
        assert SNAPSHOT_RUN_INVARIANT <= armed


# ----------------------------------------------------------------------
# Checkpoint guard
# ----------------------------------------------------------------------
#: Methods that mutate a container in place.
_MUTATORS = frozenset({
    "add", "append", "clear", "discard", "extend", "insert", "pop",
    "popitem", "remove", "setdefault", "sort", "update",
})


def _manager_rooted(node, names=("manager", "mgr")):
    """Whether ``node`` is ``manager.x``, ``manager.x[i]``, ``manager.x.y``..."""
    seen_attribute = False
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        seen_attribute = seen_attribute or isinstance(node, ast.Attribute)
        node = node.value
    return seen_attribute and isinstance(node, ast.Name) and node.id in names


def _manager_writes(tree):
    """Every statement in ``tree`` that writes a manager attribute."""
    writes = []

    def check_target(target, node):
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                check_target(element, node)
        elif isinstance(target, ast.Starred):
            check_target(target.value, node)
        elif _manager_rooted(target):
            writes.append(ast.unparse(node))

    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                check_target(target, node)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            check_target(node.target, node)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                check_target(target, node)
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATORS
                and _manager_rooted(func.value)
            ) or (
                isinstance(func, ast.Name)
                and func.id in ("setattr", "delattr")
                and node.args
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id in ("manager", "mgr")
            ):
                writes.append(ast.unparse(node))
    return writes


class TestCheckpointHasNoFieldList:
    """``restore()`` is the only writer of run state: the checkpoint
    module pickles ``snapshot()`` and hands it back, so a second field
    list cannot grow back there."""

    def test_checkpoint_module_writes_no_manager_attribute(self):
        tree = ast.parse(inspect.getsource(checkpoint_module))
        assert _manager_writes(tree) == []

    def test_the_guard_sees_each_kind_of_write(self):
        source = textwrap.dedent(
            """
            def restore(manager, snap):
                manager.clock = snap[0]
                manager._head_da, manager._head_dp = snap[1]
                manager.state.remaining[:] = snap[2]
                manager._parked.update(snap[3])
                manager._busy_cfgs.clear()
                manager._events_done += 1
                setattr(manager, "_started", True)
                manager.restore(snap)
                manager.set_cut_hook(None)
                other.x = manager.clock
            """
        )
        assert len(set(_manager_writes(ast.parse(source)))) == 7

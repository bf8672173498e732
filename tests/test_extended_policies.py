"""Tests for the stateful cache-literature policies (LFU, LRU-K, CLOCK)."""

import pytest

from repro.core.policies.extended import ClockPolicy, LFUPolicy, LRUKPolicy
from repro.core.policies.registry import make_policy
from repro.core.replacement_module import PolicyAdvisor
from repro.graphs.builders import chain_graph
from repro.graphs.task import ConfigId, TaskInstance
from repro.sim.interface import DecisionContext
from repro.sim.ru import RUState, RUView
from repro.sim.simtime import ms
from repro.sim.simulator import run_simulation
from repro.sim.validation import validate_trace
from repro.hw.model import DeviceModel


def view(index, node, last_use=0):
    return RUView(
        index=index,
        config=ConfigId("G", node),
        state=RUState.LOADED,
        last_use=last_use,
        load_end=0,
    )


def ctx(candidates):
    return DecisionContext(
        now=0,
        incoming=TaskInstance(app_index=0, config=ConfigId("X", 99), exec_time=1),
        candidates=tuple(candidates),
        future_refs=(),
        oracle_refs=None,
        dl_configs=frozenset(),
        busy_configs=frozenset(),
        mobility=0,
        skipped_events=0,
    )


class TestLFU:
    def test_evicts_least_frequent(self):
        policy = LFUPolicy()
        for _ in range(3):
            policy.on_execution_end(0, ConfigId("G", 0), 10)
        policy.on_execution_end(1, ConfigId("G", 1), 10)
        assert policy.select_victim(ctx([view(0, 0), view(1, 1)])) == 1

    def test_frequency_tie_breaks_by_recency(self):
        policy = LFUPolicy()
        policy.on_execution_end(0, ConfigId("G", 0), 50)
        policy.on_execution_end(1, ConfigId("G", 1), 10)
        # Same frequency (1 each): evict the older-used one.
        choice = policy.select_victim(
            ctx([view(0, 0, last_use=50), view(1, 1, last_use=10)])
        )
        assert choice == 1

    def test_unknown_config_counts_as_zero(self):
        policy = LFUPolicy()
        policy.on_execution_end(0, ConfigId("G", 0), 10)
        assert policy.select_victim(ctx([view(0, 0), view(1, 1)])) == 1

    def test_reset_clears_counts(self):
        policy = LFUPolicy()
        policy.on_execution_end(0, ConfigId("G", 0), 10)
        policy.reset()
        assert policy._uses == {}


class TestLRUK:
    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            LRUKPolicy(k=0)

    def test_once_used_evicted_before_twice_used(self):
        policy = LRUKPolicy(k=2)
        # config 0 used twice, config 1 used once (no 2nd recency).
        policy.on_execution_end(0, ConfigId("G", 0), 10)
        policy.on_execution_end(0, ConfigId("G", 0), 20)
        policy.on_execution_end(1, ConfigId("G", 1), 30)
        assert policy.select_victim(ctx([view(0, 0), view(1, 1)])) == 1

    def test_kth_recency_ordering(self):
        policy = LRUKPolicy(k=2)
        for t in (10, 20):
            policy.on_execution_end(0, ConfigId("G", 0), t)
        for t in (30, 40):
            policy.on_execution_end(1, ConfigId("G", 1), t)
        # 2nd-most-recent: config0 -> 10, config1 -> 30: evict config0.
        assert policy.select_victim(ctx([view(0, 0), view(1, 1)])) == 0

    def test_name_includes_k(self):
        assert LRUKPolicy(k=3).name == "LRU-3"

    def test_reset(self):
        policy = LRUKPolicy()
        policy.on_execution_end(0, ConfigId("G", 0), 10)
        policy.reset()
        assert policy._history == {}


class TestClock:
    def test_second_chance_cycle(self):
        policy = ClockPolicy()
        # Both referenced: first sweep clears, second sweep evicts RU0.
        policy.on_execution_end(0, ConfigId("G", 0), 1)
        policy.on_execution_end(1, ConfigId("G", 1), 1)
        assert policy.select_victim(ctx([view(0, 0), view(1, 1)])) == 0

    def test_unreferenced_evicted_first(self):
        policy = ClockPolicy()
        policy.on_execution_end(0, ConfigId("G", 0), 1)  # RU0 referenced
        assert policy.select_victim(ctx([view(0, 0), view(1, 1)])) == 1

    def test_hand_advances(self):
        policy = ClockPolicy()
        first = policy.select_victim(ctx([view(0, 0), view(1, 1)]))
        second = policy.select_victim(ctx([view(0, 0), view(1, 1)]))
        assert first == 0 and second == 1  # hand moved past RU0

    def test_reset(self):
        policy = ClockPolicy()
        policy.on_execution_end(0, ConfigId("G", 0), 1)
        policy.select_victim(ctx([view(0, 0), view(1, 1)]))
        policy.reset()
        assert policy._hand == 0 and policy._referenced == {}


class TestInSimulation:
    """Stateful policies must run cleanly end-to-end via the advisor."""

    @pytest.mark.parametrize("name", ["lfu", "lru-2", "clock"])
    def test_full_simulation_valid(self, name):
        g = chain_graph("G", [ms(5)] * 6)
        h = chain_graph("H", [ms(5)] * 5)
        apps = [g, h, g, h, g]
        result = run_simulation(
            apps,
            PolicyAdvisor(make_policy(name)),
            device=DeviceModel.homogeneous(3, ms(4)),
        )
        validate_trace(result.trace, apps)
        assert result.trace.n_executions == sum(len(a) for a in apps)

    def test_registry_has_extended_policies(self):
        from repro.core.policies.registry import available_policies

        assert {"lfu", "lru-2", "clock"} <= set(available_policies())

    def test_notifications_forwarded_through_advisor(self):
        class Spy(LFUPolicy):
            pass

        spy = Spy()
        g = chain_graph("G", [ms(5), ms(5)])
        run_simulation(
            [g, g], PolicyAdvisor(spy), device=DeviceModel.homogeneous(4, ms(4))
        )
        # Four executions -> four use notifications recorded.
        assert sum(spy._uses.values()) == 4

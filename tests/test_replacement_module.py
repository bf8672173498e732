"""Tests for the run-time replacement module (skip events, Fig. 8)."""

import pytest

from repro.core.mobility import MobilityCalculator, PurelyRuntimeMobilityAdvisor
from repro.core.policies.classic import LRUPolicy
from repro.core.policies.lfd import LocalLFDPolicy
from repro.core.replacement_module import PolicyAdvisor, make_advisor
from repro.exceptions import PolicyError
from repro.graphs.task import ConfigId, TaskInstance
from repro.hw.model import DeviceModel
from repro.sim.interface import Decision, DecisionContext
from repro.sim.ru import RUState, RUView
from repro.sim.simulator import run_simulation
from repro.workloads.scenarios import quick_workload


def view(index, name="G", node=0, last_use=0):
    return RUView(
        index=index,
        config=ConfigId(name, node),
        state=RUState.LOADED,
        last_use=last_use,
        load_end=0,
    )


def ctx(candidates, future=(), busy=(), mobility=0, skipped=0):
    return DecisionContext(
        now=0,
        incoming=TaskInstance(app_index=0, config=ConfigId("X", 99), exec_time=1),
        candidates=tuple(candidates),
        future_refs=tuple(future),
        oracle_refs=None,
        dl_configs=frozenset(future),
        busy_configs=frozenset(busy),
        mobility=mobility,
        skipped_events=skipped,
    )


class TestAsapMode:
    def test_never_skips_without_flag(self):
        advisor = PolicyAdvisor(LocalLFDPolicy(), skip_events=False)
        reusable = view(0, node=0)
        decision = advisor.decide(
            ctx([reusable], future=[reusable.config], mobility=5)
        )
        assert not decision.skip
        assert decision.victim_index == 0


class TestSkipRule:
    def test_skips_reusable_victim_with_mobility(self):
        # Fig. 8 step 4: reusable(victim) && mobility > skipped -> skip.
        advisor = PolicyAdvisor(LocalLFDPolicy(), skip_events=True)
        reusable = view(0, node=0)
        decision = advisor.decide(
            ctx([reusable], future=[reusable.config], mobility=1, skipped=0)
        )
        assert decision.skip

    def test_no_skip_when_mobility_exhausted(self):
        advisor = PolicyAdvisor(LocalLFDPolicy(), skip_events=True)
        reusable = view(0, node=0)
        decision = advisor.decide(
            ctx([reusable], future=[reusable.config], mobility=1, skipped=1)
        )
        assert not decision.skip
        assert decision.victim_index == 0

    def test_no_skip_when_victim_not_reusable(self):
        advisor = PolicyAdvisor(LocalLFDPolicy(), skip_events=True)
        decision = advisor.decide(ctx([view(0, node=0)], future=[], mobility=9))
        assert not decision.skip

    def test_zero_mobility_never_skips(self):
        advisor = PolicyAdvisor(LocalLFDPolicy(), skip_events=True)
        reusable = view(0, node=0)
        decision = advisor.decide(
            ctx([reusable], future=[reusable.config], mobility=0)
        )
        assert not decision.skip

    def test_skip_checks_selected_victim_not_any_candidate(self):
        # Victim chosen by Local LFD is the *farthest*; if that one is not
        # reusable there is no skip, even though another candidate is.
        advisor = PolicyAdvisor(LocalLFDPolicy(), skip_events=True)
        reusable = view(0, name="R", node=0)
        nonreusable = view(1, name="N", node=1)
        decision = advisor.decide(
            ctx([reusable, nonreusable], future=[reusable.config], mobility=3)
        )
        assert not decision.skip
        assert decision.victim_index == 1  # the non-reusable, farthest one


class TestProspectMode:
    def test_prospect_requires_nonreusable_busy_config(self):
        advisor = PolicyAdvisor(LocalLFDPolicy(), skip_events=True, skip_mode="prospect")
        reusable = view(0, node=0)
        base = dict(future=[reusable.config], mobility=2)
        # No busy RUs at all: no prospect of a better victim -> load.
        assert not advisor.decide(ctx([reusable], **base)).skip
        # Busy RU holds a config needed in DL: still no prospect.
        busy_needed = ConfigId("G", 7)
        no_prospect = ctx(
            [reusable], future=[reusable.config, busy_needed], busy=[busy_needed], mobility=2
        )
        assert not advisor.decide(no_prospect).skip
        # Busy RU holds a config NOT in DL: skip.
        stranger = ConfigId("Z", 1)
        prospect = ctx([reusable], future=[reusable.config], busy=[stranger], mobility=2)
        assert advisor.decide(prospect).skip

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            PolicyAdvisor(LocalLFDPolicy(), skip_mode="yolo")


class TestFactoryAndDescribe:
    def test_make_advisor(self):
        advisor = make_advisor(LRUPolicy(), skip_events=True)
        assert advisor.skip_events
        assert "Skip Events" in advisor.describe()

    def test_describe_plain(self):
        assert PolicyAdvisor(LRUPolicy()).describe() == "LRU"

    def test_reset_propagates_to_policy(self):
        class Spy(LRUPolicy):
            def __init__(self):
                self.resets = 0

            def reset(self):
                self.resets += 1

        spy = Spy()
        PolicyAdvisor(spy).reset()
        assert spy.resets == 1


class _RogueVictim(LRUPolicy):
    """Names an RU that is never a candidate."""

    def select_victim(self, ctx):
        return 99


class TestNonCandidateVictim:
    """A policy naming a non-candidate RU gets the same PolicyError with
    and without skip events (it used to leak a bare StopIteration from
    the skip rule)."""

    MESSAGE = r"advisor chose RU99, not a candidate \(candidates: \[0\]\)"

    @pytest.mark.parametrize("skip_events", [False, True])
    def test_decide(self, skip_events):
        advisor = PolicyAdvisor(_RogueVictim(), skip_events=skip_events)
        reusable = view(0)
        context = ctx([reusable], future=[reusable.config], mobility=3)
        if skip_events:
            with pytest.raises(PolicyError, match=self.MESSAGE):
                advisor.decide(context)
        else:
            assert advisor.decide(context).victim_index == 99

    def test_cacheless_comparator(self):
        advisor = PurelyRuntimeMobilityAdvisor(
            _RogueVictim(), {}, device=DeviceModel.homogeneous(4, 4000)
        )
        with pytest.raises(PolicyError, match=self.MESSAGE):
            advisor.decide(ctx([view(0)], mobility=3))

    def test_skip_naming_a_non_candidate(self):
        class RogueSkip(PolicyAdvisor):
            def decide(self, ctx):
                return Decision.skip_event(99)

        workload = quick_workload(length=12)
        with pytest.raises(PolicyError, match="advisor chose RU99, not a candidate"):
            run_simulation(
                workload.apps,
                advisor=RogueSkip(LRUPolicy()),
                device=workload.device,
            )

    @pytest.mark.parametrize("skip_events", [False, True])
    def test_run(self, skip_events):
        workload = quick_workload(length=12)
        tables = MobilityCalculator(device=workload.device).compute_tables(
            workload.distinct_graphs()
        )
        with pytest.raises(PolicyError, match="advisor chose RU99, not a candidate"):
            run_simulation(
                workload.apps,
                advisor=PolicyAdvisor(_RogueVictim(), skip_events=skip_events),
                mobility_tables=tables,
                device=workload.device,
            )

"""Replacement candidates are the live RU objects.

The manager hands its own :class:`~repro.sim.ru.RU` objects to the
replacement module as ``DecisionContext.candidates``, and applies the RU
state transitions inline in its hot loop.  Pinned here, on the uniform
paper device and on the mixed ``big-little`` floorplan:

* every :class:`~repro.sim.ru.RUView` field reads the same on the live RU
  as on its immutable ``view()``;
* candidates are in RU-index order, LOADED and unclaimed, and exactly the
  RUs whose slot fits the incoming bitstream (a no-op filter on uniform
  floorplans);
* an RU forced into an illegal state mid-run still raises
  :class:`SimulationError` from each inlined transition.
"""

import dataclasses

import pytest

from repro.core.policies.registry import make_policy
from repro.core.replacement_module import PolicyAdvisor
from repro.exceptions import SimulationError
from repro.sim.manager import ExecutionManager
from repro.sim.ru import RU, RUState, RUView
from repro.sim.tracing import Eviction, ExecStart, ReconfigEnd, ReconfigStart, TraceSink
from repro.workloads.scenarios import make_scenario

SCENARIOS = ["quick", "big-little"]
VIEW_FIELDS = [field.name for field in dataclasses.fields(RUView)]


def _manager(scenario, advisor, extra_sinks=()):
    workload = make_scenario(scenario, length=30)
    return ExecutionManager(
        graphs=workload.apps,
        advisor=advisor,
        extra_sinks=extra_sinks,
        device=workload.device,
    )


class _CheckingAdvisor(PolicyAdvisor):
    """Checks every candidate list against the manager's RUs."""

    def __init__(self, policy):
        super().__init__(policy)
        self.manager = None
        self.decisions = 0
        self.unfit = 0

    def decide(self, ctx):
        mgr = self.manager
        head = mgr.apps[mgr._dispatch_app].capp
        kb = head.rec_bitstreams[mgr._dispatch_pos]
        candidates = list(ctx.candidates)
        for ru in candidates:
            assert isinstance(ru, RU) and ru is mgr.rus[ru.index]
            view = ru.view()
            for name in VIEW_FIELDS:
                assert getattr(ru, name) == getattr(view, name), name
            assert ru.state is RUState.LOADED and ru.pending is None
            assert ru.fits(kb)
        indices = [ru.index for ru in candidates]
        assert indices == sorted(set(indices))
        unclaimed = [
            ru for ru in mgr.rus if ru.state is RUState.LOADED and ru.pending is None
        ]
        assert candidates == [ru for ru in unclaimed if ru.fits(kb)]
        self.unfit += len(unclaimed) - len(candidates)
        self.decisions += 1
        return super().decide(ctx)


@pytest.mark.parametrize("policy", ["lru", "local-lfd"])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_candidates_are_live_loaded_unclaimed_fitting_rus(scenario, policy):
    advisor = _CheckingAdvisor(make_policy(policy))
    manager = _manager(scenario, advisor)
    advisor.manager = manager
    manager.run()
    assert advisor.decisions > 0
    if manager.device.has_uniform_slots:
        assert advisor.unfit == 0
    else:
        # The fit filter really dropped loaded, unclaimed RUs.
        assert advisor.unfit > 0


def test_ru_offers_every_view_field():
    ru = RU(3)
    assert {name: getattr(ru, name) for name in VIEW_FIELDS} == dataclasses.asdict(
        ru.view()
    )


class _Corrupter(TraceSink):
    """On the first event of ``kind``, applies ``corrupt`` to its RU."""

    def __init__(self, kind, corrupt):
        self.kind = kind
        self.corrupt = corrupt
        self.manager = None
        self.done = False

    def on_event(self, event):
        if not self.done and isinstance(event, self.kind):
            self.done = True
            self.corrupt(self.manager.rus[event.ru])


def _set_state(state):
    def corrupt(ru):
        ru.state = state

    return corrupt


def _drop_pending(ru):
    ru.pending = None


ILLEGAL = {
    # A victim that turns out to be executing: begin_load refuses it.
    "begin_load": (
        Eviction,
        _set_state(RUState.EXECUTING),
        "cannot load while executing",
    ),
    # A load whose RU is no longer reconfiguring when it completes.
    "finish_load": (
        ReconfigStart,
        _set_state(RUState.LOADED),
        "finish_load in state loaded",
    ),
    # A loaded RU whose claim vanished before its execution starts.
    "start_execution": (ReconfigEnd, _drop_pending, "cannot start execution"),
    # An execution whose RU left EXECUTING before the task ends.
    "finish_execution": (
        ExecStart,
        _set_state(RUState.LOADED),
        "finish_execution in state loaded",
    ),
}


@pytest.mark.parametrize("transition", sorted(ILLEGAL))
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_inlined_transitions_keep_their_checks(scenario, transition):
    kind, corrupt, message = ILLEGAL[transition]
    sink = _Corrupter(kind, corrupt)
    manager = _manager(scenario, PolicyAdvisor(make_policy("lru")), (sink,))
    sink.manager = manager
    with pytest.raises(SimulationError, match=message):
        manager.run()
    assert sink.done

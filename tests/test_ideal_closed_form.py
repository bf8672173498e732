"""Differential tests: closed-form zero-latency ideal vs whole-run simulation.

:func:`repro.sim.simulator.ideal_makespan` folds one stand-alone
zero-latency run per distinct graph over the sequence and its arrivals.
The oracle here is the deliberately naive definition it replaces: simulate
the *whole* workload once more at zero latency, with the measured run's
arrivals and semantics, and read the makespan.  The two must agree on
every device class the closed form claims, raise the same
:class:`SimulationError` on infeasible inputs, and on mixed-capacity
floorplans — where the decomposition does not hold — fall back to the
simulation with a warning instead of a wrong value.
"""

import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.sim.simulator as simulator
from repro.exceptions import SimulationError
from repro.graphs.random_graphs import random_layered_graph
from repro.graphs.serialization import graph_from_dict, graph_to_dict
from repro.graphs.task import TaskSpec
from repro.graphs.task_graph import TaskGraph
from repro.hw.latency import BitstreamLatency, FixedLatency
from repro.hw.model import DeviceModel, RUSlot
from repro.session import ArtifactCache
from repro.sim.interface import Decision, ReplacementAdvisor
from repro.sim.manager import ExecutionManager
from repro.sim.semantics import CrossAppPrefetch, ManagerSemantics
from repro.sim.simulator import ideal_makespan
from repro.workloads.arrival import (
    bursty_arrivals,
    periodic_arrivals,
    poisson_arrivals,
)

SIZES_KB = (100, 200, 300, 500)


class _EvictFirst(ReplacementAdvisor):
    def decide(self, ctx):
        return Decision.load(ctx.candidates[0].index)


def simulated_ideal(graphs, arrival_times=None,
                    semantics=ManagerSemantics(), *, device):
    """The oracle: the whole workload simulated again at zero latency."""
    device = device.zero_latency()
    manager = ExecutionManager(
        graphs=graphs,
        advisor=_EvictFirst(),
        semantics=semantics,
        arrival_times=arrival_times,
        trace="aggregate",
        device=device,
    )
    return manager.run().makespan


def _outcome(fn, *args, **kwargs):
    try:
        return ("value", fn(*args, **kwargs))
    except SimulationError as exc:
        return ("error", str(exc))


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def catalogs(draw, sized: bool):
    graphs = []
    for i in range(draw(st.integers(min_value=1, max_value=4))):
        graph = random_layered_graph(
            f"G{i}",
            draw(st.integers(min_value=1, max_value=7)),
            seed=draw(st.integers(min_value=0, max_value=2**31 - 1)),
            max_width=draw(st.integers(min_value=1, max_value=3)),
            low_us=1000,
            high_us=20000,
        )
        if sized:
            payload = graph_to_dict(graph)
            for task in payload["tasks"]:
                task["bitstream_kb"] = draw(st.sampled_from(SIZES_KB))
            graph = graph_from_dict(payload)
        graphs.append(graph)
    return graphs


@st.composite
def latency_models(draw):
    if draw(st.booleans()):
        return FixedLatency(draw(st.sampled_from([0, 1000, 4000])))
    return BitstreamLatency(us_per_kb=draw(st.sampled_from([5, 20])))


@st.composite
def floorplans(draw, kind: str):
    n = draw(st.integers(min_value=1, max_value=5))
    if kind == "homogeneous":
        slots = [RUSlot() for _ in range(n)]
    elif kind == "uniform-capacity":
        capacity = draw(st.sampled_from([300, 600]))
        slots = [RUSlot(kind="std", capacity_kb=capacity) for _ in range(n)]
    else:
        capacities = draw(
            st.lists(st.sampled_from([200, 300, 600, None]), min_size=2, max_size=5)
            .filter(lambda caps: len(set(caps)) > 1)
        )
        slots = [RUSlot(kind=f"c{c}", capacity_kb=c) for c in capacities]
    return DeviceModel(
        slots=tuple(slots),
        latency_model=draw(latency_models()),
        n_controllers=draw(st.integers(min_value=1, max_value=3)),
    )


@st.composite
def arrival_patterns(draw, n_apps: int):
    kind = draw(st.sampled_from(["saturated", "periodic", "poisson", "bursty"]))
    seed = draw(st.integers(min_value=0, max_value=1000))
    if kind == "saturated":
        return None
    if kind == "periodic":
        return periodic_arrivals(n_apps, draw(st.integers(0, 60_000)))
    if kind == "poisson":
        return poisson_arrivals(n_apps, draw(st.integers(1000, 60_000)), seed=seed)
    return bursty_arrivals(n_apps, draw(st.integers(1, 4)), 40_000, 500, seed=seed)


semantics_strategy = st.builds(
    ManagerSemantics,
    cross_app_prefetch=st.sampled_from(list(CrossAppPrefetch)),
    stall_on_loaded_future=st.booleans(),
    lookahead_apps=st.integers(min_value=0, max_value=4),
    provide_oracle=st.booleans(),
)


@st.composite
def cases(draw, floorplan: str):
    catalog = draw(catalogs(sized=floorplan != "homogeneous"))
    apps = draw(st.lists(st.sampled_from(catalog), min_size=1, max_size=8))
    device = draw(floorplans(floorplan))
    arrivals = draw(arrival_patterns(len(apps)))
    return apps, device, arrivals, draw(semantics_strategy)


DIFFERENTIAL = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# Differential properties
# ----------------------------------------------------------------------
@DIFFERENTIAL
@given(case=cases("homogeneous"))
def test_closed_form_matches_simulation_on_homogeneous_devices(case):
    apps, device, arrivals, semantics = case
    expected = _outcome(simulated_ideal, apps, arrival_times=arrivals,
                        semantics=semantics, device=device)
    got = _outcome(ideal_makespan, apps, arrival_times=arrivals,
                   semantics=semantics, device=device)
    assert got == expected
    if expected[0] == "value":
        cached = ArtifactCache().ideal_makespan_us(
            "content", apps, device, arrival_times=arrivals,
            semantics=semantics,
        )
        assert cached == expected[1]


@DIFFERENTIAL
@given(case=cases("uniform-capacity"))
def test_closed_form_matches_simulation_on_uniform_capacity_slots(case):
    apps, device, arrivals, semantics = case
    expected = _outcome(simulated_ideal, apps, arrival_times=arrivals,
                        semantics=semantics, device=device)
    got = _outcome(ideal_makespan, apps, arrival_times=arrivals,
                   semantics=semantics, device=device)
    assert got == expected


@DIFFERENTIAL
@given(case=cases("mixed-capacity"))
def test_mixed_capacity_floorplans_fall_back_to_simulation(case):
    apps, device, arrivals, semantics = case
    expected = _outcome(simulated_ideal, apps, arrival_times=arrivals,
                        semantics=semantics, device=device)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got = _outcome(ideal_makespan, apps, arrival_times=arrivals,
                       semantics=semantics, device=device)
        if expected[0] == "value":
            cached = ArtifactCache().ideal_makespan_us(
                "content", apps, device, arrival_times=arrivals,
                semantics=semantics,
            )
            assert cached == expected[1]
    assert got == expected


# ----------------------------------------------------------------------
# The mixed-capacity counterexample and the fallback warning
# ----------------------------------------------------------------------
def _counterexample():
    """Smallest divergence found: a one-task application leaves its
    small configuration in the big slot, so the next application's small
    task is placed in the little slot and its big task runs alongside —
    stand-alone, first-candidate placement puts the small task in the big
    slot and serialises the two."""
    device = DeviceModel(
        slots=(RUSlot("big", 300), RUSlot("little", 100)),
        latency_model=FixedLatency(4000),
    )
    first = TaskGraph("G1", [TaskSpec(1, 3000, bitstream_kb=100)], [])
    second = TaskGraph(
        "G0",
        [TaskSpec(1, 3000, bitstream_kb=100), TaskSpec(2, 3000, bitstream_kb=300)],
        [],
    )
    return [first, second], device


def test_counterexample_diverges_from_the_per_graph_fold():
    apps, device = _counterexample()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        # One application alone: the whole-run simulation is the
        # stand-alone run the fold would use.
        per_graph_fold = sum(ideal_makespan([g], device=device) for g in apps)
    assert per_graph_fold == 9000
    assert simulated_ideal(apps, device=device) == 6000


def test_fallback_warns_once_and_matches_simulation(monkeypatch):
    monkeypatch.setattr(simulator, "_warned_mixed_capacity", False)
    apps, device = _counterexample()
    with pytest.warns(RuntimeWarning, match="mixed-capacity floorplans"):
        assert ideal_makespan(apps, device=device) == 6000
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a second warning would fail here
        assert ideal_makespan(apps, device=device) == 6000


def test_closed_form_does_not_warn_on_uniform_devices(monkeypatch):
    monkeypatch.setattr(simulator, "_warned_mixed_capacity", False)
    apps, _ = _counterexample()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ideal_makespan(apps, device=DeviceModel.homogeneous(2)) == 6000
        uniform = DeviceModel(slots=(RUSlot("a", 300), RUSlot("b", 300)))
        assert ideal_makespan(apps, device=uniform) == 6000


def test_infeasible_inputs_raise_like_a_simulated_run():
    apps, _ = _counterexample()
    little = DeviceModel(slots=(RUSlot("little", 100), RUSlot("little", 100)))
    cases_ = [
        # G0 runs two tasks side by side
        ((apps,), {"device": DeviceModel.homogeneous(1)}),
        ((apps,), {"device": little}),  # the 300 KiB task fits no slot
        ((apps,), {"device": DeviceModel.homogeneous(2), "arrival_times": [0]}),
        (([],), {"device": DeviceModel.homogeneous(2)}),
    ]
    for args, kwargs in cases_:
        expected = _outcome(simulated_ideal, *args, **kwargs)
        assert expected[0] == "error"
        assert _outcome(ideal_makespan, *args, **kwargs) == expected

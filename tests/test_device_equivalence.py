"""Homogeneous DeviceModel fast path == checked path, event-for-event.

The seed's behaviour lives in the homogeneous single-controller
:class:`~repro.hw.model.DeviceModel` fast path (the golden values pin
it).  This suite pins its equivalence with a *capacity-annotated* uniform
model — slots large enough for every bitstream, exercising the
compatibility-filtering code path — at the strictest level available,
the full emitted event stream, across **every registered scenario** and
**every registry policy**, plus hypothesis-generated random
workloads/devices.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies.registry import available_policies, make_policy
from repro.core.replacement_module import PolicyAdvisor
from repro.graphs.random_graphs import random_benchmark_like_suite
from repro.hw.latency import FixedLatency
from repro.hw.model import DeviceModel, RUSlot
from repro.sim.manager import ExecutionManager
from repro.sim.semantics import ManagerSemantics
from repro.sim.tracing import TraceSink
from repro.workloads.scenarios import available_scenarios, make_scenario, scenario_info
from repro.workloads.sequence import random_sequence

#: Scenario factory kwargs that shrink runs to test size (only forwarded
#: when the factory has the knob).
SMALL = {"length": 20}


class RecordingSink(TraceSink):
    """Collects the verbatim event stream of one run."""

    def __init__(self):
        self.events = []

    def on_event(self, event):
        self.events.append(event)


def _events(graphs, policy_name, *, skip_events, mobility, **hardware):
    advisor = PolicyAdvisor(make_policy(policy_name), skip_events=skip_events)
    sink = RecordingSink()
    ExecutionManager(
        graphs=graphs,
        advisor=advisor,
        semantics=ManagerSemantics(
            lookahead_apps=1, provide_oracle=(policy_name == "lfd")
        ),
        mobility_tables=mobility,
        trace="aggregate",
        extra_sinks=(sink,),
        **hardware,
    ).run()
    return sink.events


def _small_workload(name):
    info = scenario_info(name)
    kwargs = {k: v for k, v in SMALL.items() if k in info.parameters}
    return make_scenario(name, **kwargs)


@pytest.mark.parametrize("scenario_name", available_scenarios())
@pytest.mark.parametrize("policy_name", available_policies())
def test_homogeneous_model_matches_scalar_path(scenario_name, policy_name):
    """Every scenario x every policy: identical event streams.

    Device-parameterised scenarios contribute their *workload* here (run
    on the homogeneous device both ways); their heterogeneous devices
    have no uniform counterpart to compare against by construction.
    """
    workload = _small_workload(scenario_name)
    n_rus, latency = workload.n_rus, workload.reconfig_latency
    # Exercise the skip-event path (with real mobility tables) once per
    # scenario so Skip events participate in the equivalence too.
    skip = policy_name == "local-lfd"
    mobility = None
    if skip:
        from repro.core.mobility import MobilityCalculator

        mobility = MobilityCalculator(
            device=DeviceModel.homogeneous(n_rus, latency)
        ).compute_tables(workload.distinct_graphs())

    model = _events(
        workload.apps,
        policy_name,
        skip_events=skip,
        mobility=mobility,
        device=DeviceModel.homogeneous(n_rus, latency),
    )

    # A capacity-annotated uniform floorplan (every slot fits every
    # bitstream) must take the compatibility-checking path to the same
    # schedule: filtering that excludes nothing is behaviour-free.
    roomy = DeviceModel(
        slots=tuple(RUSlot(kind="std", capacity_kb=4096) for _ in range(n_rus)),
        latency_model=FixedLatency(latency),
    )
    assert not roomy.is_paper_path()  # really the checked path
    annotated = _events(
        workload.apps, policy_name, skip_events=skip, mobility=mobility, device=roomy
    )
    assert model == annotated


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_rus=st.integers(min_value=3, max_value=6),
    latency=st.sampled_from([0, 1000, 4000, 9999]),
    length=st.integers(min_value=1, max_value=12),
    policy=st.sampled_from(["lru", "fifo", "lfu", "local-lfd"]),
)
def test_property_random_workloads_match(seed, n_rus, latency, length, policy):
    """Hypothesis: random catalogs, sequences and devices agree too."""
    catalog = random_benchmark_like_suite(3, seed=seed, size_range=(2, 3))
    graphs = random_sequence(catalog, length, seed=seed + 1)
    model = _events(
        graphs,
        policy,
        skip_events=False,
        mobility=None,
        device=DeviceModel.homogeneous(n_rus, latency),
    )
    roomy = DeviceModel(
        slots=tuple(RUSlot(kind="std", capacity_kb=4096) for _ in range(n_rus)),
        latency_model=FixedLatency(latency),
    )
    annotated = _events(
        graphs, policy, skip_events=False, mobility=None, device=roomy
    )
    assert model == annotated

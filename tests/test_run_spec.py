"""``RunSpec``: the one description of a run for ``repro run``,
``repro submit`` and the daemon.

Property tests pin the document contract: ``from_dict`` inverts
``as_dict``, any malformed document raises only :class:`SpecError`, and
the daemon answers every such document with a 400, never a 500.
"""

import http.client
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies.registry import available_policies
from repro.hw import available_device_presets, make_device, parse_latency_model
from repro.run_spec import RunSpec, SpecError
from repro.server import ServerThread
from repro.workloads.scenarios import make_scenario

POLICIES = available_policies()
PRESETS = available_device_presets()
SCENARIOS = ("quick", "multi-controller", "round-robin")
LATENCIES = ("fixed:4000", "fixed:0", "per-kb:8", "per-kb:8+500")


@st.composite
def documents(draw):
    """A valid run or sweep document, optional fields present or not."""
    kind = draw(st.sampled_from(["run", "sweep"]))
    scenario = draw(st.sampled_from(SCENARIOS))
    doc = {"kind": kind, "scenario": scenario}
    kwargs = {"length": draw(st.integers(1, 50))}
    if scenario != "round-robin" and draw(st.booleans()):
        kwargs["seed"] = draw(st.integers(0, 10**6))
    doc["scenario_kwargs"] = kwargs
    optional = {
        "device": st.sampled_from(PRESETS),
        "controllers": st.integers(1, 4),
        "latency_model": st.sampled_from(LATENCIES),
        "policy": st.sampled_from(POLICIES),
        "window": st.integers(0, 5),
        "oracle": st.booleans(),
        "skip_events": st.booleans(),
        "max_attempts": st.integers(1, 5),
        "deadline_s": st.floats(0.001, 1e6) | st.integers(1, 10**6),
    }
    if kind == "run":
        optional["n_rus"] = st.integers(1, 10)
        optional["events"] = st.booleans()
    else:
        doc["rus"] = draw(st.lists(st.integers(1, 10), min_size=1, max_size=3))
        optional["policies"] = st.lists(
            st.sampled_from(POLICIES), min_size=1, max_size=3
        )
    for key in draw(st.sets(st.sampled_from(sorted(optional)))):
        doc[key] = draw(optional[key])
    return doc


#: Values that are wrong for a field whatever the rest of the document.
BAD_VALUES = {
    "kind": ["walk", 5, None, ["run"]],
    "scenario": ["no-such", 5, None, ["quick"]],
    "scenario_kwargs": [[], "length=5", None, {"nope": 1}, {"length": [1]},
                        {"length": {"a": 1}}],
    "device": ["no-such", 5, None, [PRESETS[0]]],
    "controllers": [0, -1, "2", 1.5, True, None, [2]],
    "latency_model": ["fixed:", "per-kb:x", "fixed:-1", "slow:4", 4000, None],
    "n_rus": [0, -3, "4", 4.0, True, None, [4]],
    "policy": ["no-such", 5, None, ["lru"], {"lru": 1}],
    "policies": [[], [[1]], ["no-such"], "lru", [None], {"lru": 1}],
    "window": [-1, "1", 1.5, True, None, [1]],
    "oracle": [1, "true", None, [True]],
    "skip_events": [0, "false", None, [False]],
    "rus": [[], [0], ["4"], [[4]], 4, [True], None],
    "events": [1, "yes", None, [True]],
    "max_attempts": [0, -1, "1", 1.0, True, None],
    "deadline_s": [math.nan, math.inf, -math.inf, -1, 0, "5", True, None, [5], 10**400],
}


def _with_bad_value(doc, key, value):
    """``doc`` with ``key`` set to ``value`` (a sweep for the sweep axes)."""
    doc = dict(doc)
    if key in ("policies", "rus") and doc["kind"] == "run":
        doc["kind"] = "sweep"
        doc.pop("n_rus", None)
        doc.pop("events", None)
        doc.setdefault("rus", [4])
    doc[key] = value
    return doc


#: Every bad value, each in a minimal otherwise valid document.
EVERY_BAD_VALUE = [
    _with_bad_value({"kind": "run", "scenario": "quick"}, key, value)
    for key, values in sorted(BAD_VALUES.items())
    for value in values
]


@st.composite
def malformed(draw):
    """A valid document with one offence: a bad value, an unknown or
    misplaced field, a missing scenario, or not an object at all."""
    doc = draw(documents())
    offence = draw(st.sampled_from(["value", "unknown", "misplaced", "missing", "shape"]))
    if offence == "value":
        key = draw(st.sampled_from(sorted(BAD_VALUES)))
        doc = _with_bad_value(doc, key, draw(st.sampled_from(BAD_VALUES[key])))
    elif offence == "unknown":
        doc[draw(st.sampled_from(["bogus", "Kind", "n_controllers", ""]))] = 1
    elif offence == "misplaced":
        if doc["kind"] == "run":
            doc[draw(st.sampled_from(["rus", "policies"]))] = [4]
        else:
            key = draw(st.sampled_from(["n_rus", "events"]))
            doc[key] = 4 if key == "n_rus" else True
    elif offence == "missing":
        del doc["scenario"]
    else:
        return draw(st.sampled_from([[doc], "quick", 4, None, [1, 2]]))
    return doc


class TestDocument:
    @settings(max_examples=200, deadline=None)
    @given(documents())
    def test_from_dict_inverts_as_dict(self, doc):
        spec = RunSpec.from_dict(doc)
        assert RunSpec.from_dict(spec.as_dict()) == spec
        assert json.loads(json.dumps(spec.as_dict())) == spec.as_dict()

    @settings(max_examples=400, deadline=None)
    @given(malformed())
    def test_malformed_documents_raise_only_spec_error(self, doc):
        with pytest.raises(SpecError) as err:
            RunSpec.from_dict(doc)
        assert "\n" not in str(err.value)

    @pytest.mark.parametrize("doc", EVERY_BAD_VALUE, ids=repr)
    def test_every_bad_value_is_a_spec_error(self, doc):
        with pytest.raises(SpecError):
            RunSpec.from_dict(doc)

    def test_window_zero_is_local_lfd_0(self):
        spec = RunSpec.from_dict({"scenario": "quick", "window": 0})
        assert [s.label for s in spec.policy_specs()] == ["Local LFD (0)"]


class TestDeviceRules:
    def test_controllers_go_to_a_scenario_that_takes_them(self):
        spec = RunSpec(scenario="multi-controller", controllers=3,
                       scenario_kwargs=(("length", 10),))
        workload = spec.workload()
        assert workload.device.n_controllers == 3
        assert spec.device(workload) == workload.device

    def test_controllers_override_the_device_otherwise(self):
        spec = RunSpec(scenario="quick", controllers=2, scenario_kwargs=(("length", 10),))
        assert spec.workload_key == ("quick", (("length", 10),))
        assert spec.device(spec.workload()).n_controllers == 2

    def test_preset_latency_and_n_rus(self):
        spec = RunSpec(scenario="quick", preset="paper-2ctrl",
                       latency_model="per-kb:8", n_rus=6)
        device = spec.device(make_scenario("quick", length=5))
        assert device == make_device("paper-2ctrl").with_latency_model(
            parse_latency_model("per-kb:8")
        ).with_n_rus(6)


@pytest.fixture(scope="module")
def server():
    with ServerThread(workers=1, quota_rate=0) as srv:
        yield srv


def _post(server, doc):
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        conn.request(
            "POST", "/jobs", body=json.dumps(doc),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


@settings(max_examples=60, deadline=None)
@given(doc=malformed())
def test_daemon_answers_malformed_documents_with_400(server, doc):
    status, body = _post(server, doc)
    assert status == 400, body
    assert server.server.jobs == {}


def test_daemon_answers_every_bad_value_with_400(server):
    for doc in EVERY_BAD_VALUE:
        status, body = _post(server, doc)
        assert status == 400, (doc, body)
    assert server.server.jobs == {}

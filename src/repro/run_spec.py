"""One simulated run as a value: :class:`RunSpec`.

``repro run``, ``repro submit`` and the ``repro serve`` daemon describe a
run the same way: a scenario and its keyword arguments, a device (preset,
controller count, latency model, RU count), the policy lines and, for a
sweep, the RU axis.  A daemon job additionally carries three delivery
fields (``events``, ``max_attempts``, ``deadline_s``) that say how the job
reports and retries, not what it simulates.

The JSON document of a daemon job is ``RunSpec.as_dict()``.
:meth:`RunSpec.from_dict` is its one validator: it either returns a
spec or raises a one-line :class:`SpecError` naming the offending field,
which the daemon answers with a 400 and ``repro submit`` with exit 2.
"""

from __future__ import annotations

import reprlib
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.policies.registry import available_policies
from repro.core.policy_spec import PolicySpec, named_policy_spec
from repro.exceptions import ReproError
from repro.hw import DeviceModel, make_device, parse_latency_model
from repro.workloads.scenarios import make_scenario, scenario_info
from repro.workloads.sequence import Workload


class SpecError(ReproError):
    """A run spec document is malformed (the daemon answers 400)."""


def _at_least(minimum: int):
    return lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= minimum


def _positive_finite(v: object) -> bool:
    """> 0 and a finite float (so not NaN, infinite or too large)."""
    number = isinstance(v, (int, float)) and not isinstance(v, bool)
    return number and 0 < v < sys.float_info.max


#: The document's scalar fields: key -> (default, check, what it must be).
#: ``device`` is the preset name (:attr:`RunSpec.preset`).
_SCALARS = {
    "kind": ("run", lambda v: v in ("run", "sweep"), "'run' or 'sweep'"),
    "device": (None, lambda v: isinstance(v, str), "a string"),
    "controllers": (None, _at_least(1), "an integer >= 1"),
    "latency_model": (None, lambda v: isinstance(v, str), "a string"),
    "n_rus": (None, _at_least(1), "an integer >= 1"),
    "window": (1, _at_least(0), "an integer >= 0"),
    "oracle": (False, lambda v: isinstance(v, bool), "true or false"),
    "skip_events": (False, lambda v: isinstance(v, bool), "true or false"),
    "events": (False, lambda v: isinstance(v, bool), "true or false"),
    "max_attempts": (1, _at_least(1), "an integer >= 1"),
    "deadline_s": (None, _positive_finite, "a finite number > 0"),
}

#: Every field of the document, delivery fields included.
_FIELDS = (*_SCALARS, "scenario", "scenario_kwargs", "policy", "policies", "rus")


def _field(doc: Dict[str, object], key: str) -> object:
    """``doc[key]`` (its default when absent), checked."""
    default, ok, expected = _SCALARS[key]
    value = doc.get(key, default)
    if key in doc and not ok(value):
        raise SpecError(f"field {key!r} must be {expected}, got {reprlib.repr(value)}")
    return value


def _policy_name(name: object, key: str) -> str:
    policies = available_policies()
    if not isinstance(name, str) or name not in policies:
        raise SpecError(
            f"field {key!r}: unknown policy {reprlib.repr(name)}; "
            f"available: {', '.join(policies)}"
        )
    return name


@dataclass(frozen=True)
class RunSpec:
    """One run (``kind="run"``) or one policy x RU sweep (``kind="sweep"``).

    ``controllers`` goes to the scenario factory when it takes a
    ``controllers`` knob and otherwise overrides the device, so
    ``--controllers`` means the same on every entry point.
    """

    scenario: str
    kind: str = "run"
    scenario_kwargs: Tuple[Tuple[str, object], ...] = ()
    #: Device preset name (``repro run --device``); ``None`` keeps the
    #: scenario's own device.
    preset: Optional[str] = None
    controllers: Optional[int] = None
    #: ``repro run --latency-model`` syntax (``fixed:<us>``, ``per-kb:...``).
    latency_model: Optional[str] = None
    n_rus: Optional[int] = None  # run only; sweeps take ``rus``
    policy: str = "local-lfd"
    policies: Tuple[str, ...] = ()  # sweep axis
    window: int = 1
    oracle: bool = False
    skip_events: bool = False
    rus: Tuple[int, ...] = ()  # sweep axis
    # Delivery (daemon jobs only): broadcast the trace live, attempts
    # before ``dead``, wall-clock budget from submission.
    events: bool = False
    max_attempts: int = 1
    deadline_s: Optional[float] = None

    # -- what is simulated -----------------------------------------------
    @property
    def n_cells(self) -> int:
        return 1 if self.kind == "run" else len(self.rus) * len(self.policies)

    def policy_specs(self) -> List[PolicySpec]:
        """The policy lines this spec runs (one for ``run``)."""
        names = self.policies if self.kind == "sweep" else (self.policy,)
        return [
            named_policy_spec(
                name, window=self.window, oracle=self.oracle, skip_events=self.skip_events
            )
            for name in names
        ]

    def _controllers_to_scenario(self) -> bool:
        return (
            self.controllers is not None
            and "controllers" in scenario_info(self.scenario).parameters
        )

    @property
    def workload_key(self) -> Tuple[str, Tuple[Tuple[str, object], ...]]:
        """The scenario call this spec simulates: name and sorted kwargs."""
        kwargs = dict(self.scenario_kwargs)
        if self._controllers_to_scenario():
            kwargs["controllers"] = self.controllers
        return self.scenario, tuple(sorted(kwargs.items()))

    def workload(self) -> Workload:
        scenario, kwargs = self.workload_key
        return make_scenario(scenario, **dict(kwargs))

    def device(self, workload: Workload) -> DeviceModel:
        """The hardware: the preset (default: ``workload.device``) with this
        spec's controller, latency and RU-count overrides."""
        device = make_device(self.preset) if self.preset else workload.device
        if self.controllers is not None and not self._controllers_to_scenario():
            device = device.with_controllers(self.controllers)
        if self.latency_model is not None:
            device = device.with_latency_model(parse_latency_model(self.latency_model))
        if self.n_rus is not None:
            device = device.with_n_rus(self.n_rus)
        return device

    # -- the JSON document -------------------------------------------------
    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "scenario": self.scenario,
            "scenario_kwargs": dict(self.scenario_kwargs),
            "policy": self.policy,
        }
        for key in _SCALARS:
            value = self.preset if key == "device" else getattr(self, key)
            if value is not None:
                out[key] = value
        if self.kind == "sweep":
            out["rus"] = list(self.rus)
            out["policies"] = list(self.policies)
        return out

    @classmethod
    def from_dict(cls, doc: object) -> "RunSpec":
        """Validate a JSON document into a spec, or raise :class:`SpecError`.

        Checks field types and ranges, the scenario, policy and device
        registries, the latency-model syntax, scenario keyword names and
        the sweep axes.  Only a scenario factory rejecting a value
        surfaces later, when the workload is built.
        """
        if not isinstance(doc, dict):
            raise SpecError(f"job spec must be a JSON object, got {type(doc).__name__}")
        unknown = sorted(set(doc) - set(_FIELDS))
        if unknown:
            raise SpecError(
                f"unknown job spec field(s): {', '.join(map(repr, unknown))}; "
                f"valid fields: {', '.join(sorted(_FIELDS))}"
            )
        values = {key: _field(doc, key) for key in _SCALARS}
        for key, parse in (("device", make_device), ("latency_model", parse_latency_model)):
            if values[key] is not None:
                try:
                    parse(values[key])
                except ReproError as exc:
                    raise SpecError(f"field {key!r}: {exc}") from None
        scenario = doc.get("scenario")
        if not isinstance(scenario, str):
            raise SpecError("field 'scenario' is required and must be a string")
        try:
            parameters = scenario_info(scenario).parameters
        except ReproError as exc:
            raise SpecError(str(exc)) from None
        kwargs = doc.get("scenario_kwargs", {})
        if not isinstance(kwargs, dict):
            raise SpecError(
                f"field 'scenario_kwargs' must be an object, got {reprlib.repr(kwargs)}"
            )
        for key, value in kwargs.items():
            if key not in parameters:
                raise SpecError(
                    f"scenario {scenario!r} does not accept parameter {key!r}; "
                    f"valid parameters: {', '.join(parameters) or '(none)'}"
                )
            if not isinstance(value, (str, int, float, bool)):
                raise SpecError(
                    f"scenario parameter {key!r} must be a JSON scalar, "
                    f"got {type(value).__name__}"
                )
        if values["controllers"] is not None and "controllers" in kwargs:
            raise SpecError("give 'controllers' once: as a field or a scenario parameter")
        policy = _policy_name(doc.get("policy", "local-lfd"), "policy")
        rus, policies = [], []
        if values["kind"] == "sweep":
            if values["events"]:
                raise SpecError("'events' streaming is only valid for 'run' jobs")
            if values["n_rus"] is not None:
                raise SpecError("'n_rus' is for 'run' jobs; sweeps take 'rus'")
            rus = doc.get("rus")
            if not isinstance(rus, list) or not rus:
                raise SpecError("sweep jobs require 'rus': a non-empty list of integers")
            for value in rus:
                if not _at_least(1)(value):
                    raise SpecError(
                        f"'rus' values must be integers >= 1, got {reprlib.repr(value)}"
                    )
            raw_policies = doc.get("policies", [policy])
            if not isinstance(raw_policies, list) or not raw_policies:
                raise SpecError("'policies' must be a non-empty list of policy names")
            policies = [_policy_name(name, "policies") for name in raw_policies]
        else:
            for key in ("rus", "policies"):
                if key in doc:
                    raise SpecError(f"{key!r} is only valid for 'sweep' jobs")
        if values["deadline_s"] is not None:
            values["deadline_s"] = float(values["deadline_s"])
        return cls(
            scenario=scenario,
            scenario_kwargs=tuple(sorted(kwargs.items())),
            preset=values.pop("device"),
            policy=policy,
            policies=tuple(policies),
            rus=tuple(rus),
            **values,
        )

"""Job model for ``repro serve``: spec schema, lifecycle, events, quotas.

A **job spec** is the JSON document a client POSTs to ``/jobs``.  Two
kinds exist:

* ``"run"`` — one policy on one device sizing; the result is the
  simulation summary.  With ``"events": true`` the run's full trace is
  additionally broadcast live on ``/jobs/{id}/events`` using the exact
  :class:`~repro.sim.tracing.JsonlTraceWriter` wire format.
* ``"sweep"`` — a (policy × RU-count) grid; the result is one flat
  record per cell, with live progress counters from
  :meth:`~repro.session.SessionHooks.on_sweep_progress`.

Validation is eager and total: :func:`parse_job_spec` either returns a
fully-typed :class:`JobSpec` or raises :class:`JobSpecError` naming the
offending field — the daemon maps that straight to a 400 so malformed
jobs never reach a worker.

A **job** then tracks the lifecycle ``queued → running → done`` (or
``failed`` / ``cancelled``): timestamps, progress, result payload and —
for event-streaming runs — an :class:`EventChannel` that buffers every
encoded event line for replay, so late or reconnecting subscribers see
the complete stream from any offset.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.policies.registry import available_policies
from repro.core.policy_spec import PolicySpec, named_policy_spec
from repro.exceptions import ReproError, WorkloadError
from repro.workloads.scenarios import scenario_info


class JobSpecError(ReproError):
    """A submitted job spec is malformed (maps to HTTP 400)."""


class JobCancelled(ReproError):
    """Raised inside a simulation to abort a cancelled job."""


class JobState:
    """Lifecycle states (plain strings — they appear in JSON verbatim).

    ``DEAD`` is the retry-exhaustion terminal: a job submitted with
    ``max_attempts > 1`` whose every attempt failed (or whose
    ``deadline_s`` expired mid-retry).  ``FAILED`` remains the terminal
    for single-attempt jobs, so pre-resilience clients observe exactly
    the states they always did.
    """

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    DEAD = "dead"

    TERMINAL = frozenset({DONE, FAILED, CANCELLED, DEAD})


#: Scalar JSON types accepted as scenario factory arguments.
_SCALAR = (str, int, float, bool)


@dataclass(frozen=True)
class JobSpec:
    """One validated job submission (hashable fields only — no objects)."""

    kind: str  # "run" | "sweep"
    scenario: str
    scenario_kwargs: Tuple[Tuple[str, object], ...] = ()
    policy: str = "local-lfd"
    window: int = 1
    oracle: bool = False
    skip_events: bool = False
    n_rus: Optional[int] = None  # run-only device override
    rus: Tuple[int, ...] = ()  # sweep axis
    policies: Tuple[str, ...] = ()  # sweep axis
    events: bool = False  # run-only: broadcast the trace live
    #: Execution attempts before the job is declared ``dead`` (1 = the
    #: historical fail-fast behaviour; failures terminate as ``failed``).
    max_attempts: int = 1
    #: Wall-clock budget from submission; an attempt failing past it is
    #: not retried even with attempts left.
    deadline_s: Optional[float] = None

    @property
    def n_cells(self) -> int:
        if self.kind == "run":
            return 1
        return len(self.rus) * len(self.policies)

    def policy_specs(self) -> List[PolicySpec]:
        """The policy lines this job runs (one for ``run`` jobs)."""
        names = self.policies if self.kind == "sweep" else (self.policy,)
        return [
            named_policy_spec(
                name,
                window=self.window,
                oracle=self.oracle,
                skip_events=self.skip_events,
            )
            for name in names
        ]

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "kind": self.kind,
            "scenario": self.scenario,
            "scenario_kwargs": dict(self.scenario_kwargs),
            "policy": self.policy,
            "window": self.window,
            "oracle": self.oracle,
            "skip_events": self.skip_events,
            "events": self.events,
            "max_attempts": self.max_attempts,
        }
        if self.deadline_s is not None:
            out["deadline_s"] = self.deadline_s
        if self.n_rus is not None:
            out["n_rus"] = self.n_rus
        if self.kind == "sweep":
            out["rus"] = list(self.rus)
            out["policies"] = list(self.policies)
        return out


def _expect(payload: Dict[str, object], key: str, types, default):
    value = payload.get(key, default)
    if value is default and key not in payload:
        return default
    if not isinstance(value, types) or (
        types is int and isinstance(value, bool)
    ):
        raise JobSpecError(
            f"field {key!r} must be {getattr(types, '__name__', types)}, "
            f"got {type(value).__name__}"
        )
    return value


def _expect_int(payload: Dict[str, object], key: str, default, minimum: int = 1):
    value = payload.get(key, default)
    if value is default and key not in payload:
        return default
    if isinstance(value, bool) or not isinstance(value, int):
        raise JobSpecError(f"field {key!r} must be an integer")
    if value < minimum:
        raise JobSpecError(f"field {key!r} must be >= {minimum}, got {value}")
    return value


def parse_job_spec(payload: object) -> JobSpec:
    """Validate a raw JSON document into a :class:`JobSpec` (or raise).

    Every check a 400 can catch happens here: field types, the scenario
    and policy registries, scenario keyword names, sweep-axis shapes.
    Only *construction-time* failures (e.g. a scenario factory rejecting
    a value) surface later, as a failed job.
    """
    if not isinstance(payload, dict):
        raise JobSpecError(f"job spec must be a JSON object, got {type(payload).__name__}")
    known = {
        "kind", "scenario", "scenario_kwargs", "policy", "window", "oracle",
        "skip_events", "n_rus", "rus", "policies", "events",
        "max_attempts", "deadline_s",
    }
    unknown = sorted(set(payload) - known)
    if unknown:
        raise JobSpecError(
            f"unknown job spec field(s): {', '.join(map(repr, unknown))}; "
            f"valid fields: {', '.join(sorted(known))}"
        )

    kind = _expect(payload, "kind", str, "run")
    if kind not in ("run", "sweep"):
        raise JobSpecError(f"field 'kind' must be 'run' or 'sweep', got {kind!r}")

    scenario = payload.get("scenario")
    if not isinstance(scenario, str):
        raise JobSpecError("field 'scenario' is required and must be a string")
    try:
        info = scenario_info(scenario)
    except WorkloadError as exc:
        raise JobSpecError(str(exc)) from None

    raw_kwargs = _expect(payload, "scenario_kwargs", dict, {})
    for key, value in raw_kwargs.items():
        if key not in info.parameters:
            raise JobSpecError(
                f"scenario {scenario!r} does not accept parameter {key!r}; "
                f"valid parameters: {', '.join(info.parameters) or '(none)'}"
            )
        if not isinstance(value, _SCALAR):
            raise JobSpecError(
                f"scenario parameter {key!r} must be a JSON scalar, "
                f"got {type(value).__name__}"
            )
    scenario_kwargs = tuple(sorted(raw_kwargs.items()))

    policy = _expect(payload, "policy", str, "local-lfd")
    valid_policies = set(available_policies())

    def check_policy(name: str) -> str:
        if name not in valid_policies:
            raise JobSpecError(
                f"unknown policy {name!r}; available: "
                f"{', '.join(sorted(valid_policies))}"
            )
        return name

    check_policy(policy)
    window = _expect_int(payload, "window", 1)
    oracle = _expect(payload, "oracle", bool, False)
    skip = _expect(payload, "skip_events", bool, False)
    events = _expect(payload, "events", bool, False)
    n_rus = _expect_int(payload, "n_rus", None)
    max_attempts = _expect_int(payload, "max_attempts", 1)
    deadline_s = payload.get("deadline_s")
    if deadline_s is not None:
        if isinstance(deadline_s, bool) or not isinstance(deadline_s, (int, float)):
            raise JobSpecError("field 'deadline_s' must be a number")
        if deadline_s <= 0:
            raise JobSpecError(f"field 'deadline_s' must be > 0, got {deadline_s}")
        deadline_s = float(deadline_s)

    rus: Tuple[int, ...] = ()
    policies: Tuple[str, ...] = ()
    if kind == "sweep":
        if events:
            raise JobSpecError("'events' streaming is only valid for 'run' jobs")
        if n_rus is not None:
            raise JobSpecError("'n_rus' is for 'run' jobs; sweeps take 'rus'")
        raw_rus = payload.get("rus")
        if not isinstance(raw_rus, list) or not raw_rus:
            raise JobSpecError("sweep jobs require 'rus': a non-empty list of integers")
        for value in raw_rus:
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise JobSpecError(f"'rus' values must be integers >= 1, got {value!r}")
        rus = tuple(raw_rus)
        raw_policies = payload.get("policies", [policy])
        if not isinstance(raw_policies, list) or not raw_policies:
            raise JobSpecError("'policies' must be a non-empty list of policy names")
        policies = tuple(check_policy(p) for p in raw_policies)
    else:
        for key in ("rus", "policies"):
            if key in payload:
                raise JobSpecError(f"{key!r} is only valid for 'sweep' jobs")

    return JobSpec(
        kind=kind,
        scenario=scenario,
        scenario_kwargs=scenario_kwargs,
        policy=policy,
        window=window,
        oracle=oracle,
        skip_events=skip,
        n_rus=n_rus,
        rus=rus,
        policies=policies,
        events=events,
        max_attempts=max_attempts,
        deadline_s=deadline_s,
    )


# ----------------------------------------------------------------------
# Live event broadcast
# ----------------------------------------------------------------------
class EventChannel:
    """Replayable broadcast buffer of encoded JSONL event lines.

    The producer is the job's dispatch *thread*, which appends the line
    batches its simulation process sends; consumers are asyncio tasks
    streaming ``/jobs/{id}/events`` responses.  Lines are
    retained for the job's lifetime, so any number of subscribers can
    attach at any time — including reconnecting ones, which resume from
    a line offset and observe the exact same byte sequence.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self.lines: List[str] = []
        self.closed = False
        self._loop = loop
        self._change = asyncio.Event()

    # -- producer side (dispatch thread) --------------------------------
    def extend(self, lines: Iterable[str]) -> None:
        self.lines.extend(lines)
        self._loop.call_soon_threadsafe(self._wake)

    def finish(self) -> None:
        self.closed = True
        self._loop.call_soon_threadsafe(self._wake)

    def _wake(self) -> None:
        waiters, self._change = self._change, asyncio.Event()
        waiters.set()

    # -- consumer side (event loop) -------------------------------------
    async def wait_beyond(self, n: int) -> None:
        """Block until more than ``n`` lines exist or the channel closed."""
        while len(self.lines) <= n and not self.closed:
            change = self._change
            if len(self.lines) > n or self.closed:
                break
            await change.wait()


class ChannelWriter:
    """File-like adapter feeding complete lines into a channel's ``append``.

    Handed to :class:`~repro.sim.tracing.JsonlTraceWriter` as its output
    stream (on the simulation process, whose channel forwards the lines
    to the job's :class:`EventChannel`), so the network event stream is
    produced by the *same codec* as a local JSONL file — byte-identical
    lines by construction.
    """

    def __init__(self, channel) -> None:
        self._channel = channel
        self._pending = ""

    def write(self, text: str) -> int:
        self._pending += text
        while True:
            line, sep, rest = self._pending.partition("\n")
            if not sep:
                break
            self._channel.append(line + "\n")
            self._pending = rest
        return len(text)

    def flush(self) -> None:
        pass


# ----------------------------------------------------------------------
# The job object
# ----------------------------------------------------------------------
class Job:
    """One submitted job: spec, lifecycle state and (optional) event feed.

    Mutated by exactly one dispatch thread at a time; read by the event
    loop.  All mutated fields are plain attribute writes (atomic under
    the GIL) and terminal-state transitions additionally set an asyncio
    event via ``call_soon_threadsafe`` so long-polling status requests
    wake immediately.  :meth:`cancel` sets ``cancel_event`` and, while an
    attempt runs on a simulation process, calls ``on_cancel`` to raise
    that process's cancel flag.
    """

    def __init__(
        self,
        job_id: str,
        spec: JobSpec,
        client: str,
        loop: asyncio.AbstractEventLoop,
    ) -> None:
        self.id = job_id
        self.spec = spec
        self.client = client
        self.state = JobState.QUEUED
        self.submitted = time.time()
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        self.progress_done = 0
        self.progress_total = spec.n_cells
        self.result: Optional[Dict[str, object]] = None
        self.error: Optional[str] = None
        #: Execution attempts started so far (retry bookkeeping).
        self.attempts = 0
        #: Failure chain: one ``{"attempt", "error", "time"}`` entry per
        #: failed attempt, preserved through retries and into ``dead``.
        self.failures: List[Dict[str, object]] = []
        self.cancel_event = threading.Event()
        #: Set by the dispatch thread for the life of an attempt on a
        #: simulation process; signals that process.
        self.on_cancel: Optional[Callable[[], None]] = None
        self.channel: Optional[EventChannel] = (
            EventChannel(loop) if spec.events else None
        )
        self._loop = loop
        self._done = asyncio.Event()

    def cancel(self) -> None:
        """Request cancellation (any thread); the running attempt, if
        any, aborts within 256 events or at its next cell boundary."""
        self.cancel_event.set()
        on_cancel = self.on_cancel
        if on_cancel is not None:
            on_cancel()

    # -- dispatch-thread side -------------------------------------------
    def finish(self, state: str, error: Optional[str] = None) -> None:
        """Terminal transition (dispatch thread); wakes loop-side waiters."""
        self.state = state
        self.error = error
        self.finished = time.time()
        if self.channel is not None:
            self.channel.finish()
        self._loop.call_soon_threadsafe(self._done.set)

    # -- loop side -------------------------------------------------------
    async def wait_terminal(self, timeout: float) -> bool:
        """Wait up to ``timeout`` seconds for a terminal state."""
        if self.state in JobState.TERMINAL:
            return True
        try:
            await asyncio.wait_for(self._done.wait(), timeout)
            return True
        except asyncio.TimeoutError:
            return self.state in JobState.TERMINAL

    def status_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "id": self.id,
            "state": self.state,
            "kind": self.spec.kind,
            "scenario": self.spec.scenario,
            "progress": {"done": self.progress_done, "total": self.progress_total},
            "submitted": self.submitted,
            "started": self.started,
            "finished": self.finished,
            "events": self.spec.events,
            "cancel_requested": self.cancel_event.is_set(),
        }
        if self.error is not None:
            out["error"] = self.error
        if self.spec.max_attempts > 1 or self.attempts > 1 or self.failures:
            out["attempts"] = self.attempts
            out["max_attempts"] = self.spec.max_attempts
            out["failures"] = list(self.failures)
        if self.channel is not None:
            out["event_lines"] = len(self.channel.lines)
        return out


# ----------------------------------------------------------------------
# Per-client quotas
# ----------------------------------------------------------------------
class TokenBucket:
    """Classic token bucket: ``rate`` tokens/second, ``burst`` capacity.

    ``rate <= 0`` disables the quota (always allows).  One bucket per
    client identity; a submit that finds the bucket empty is rejected
    with 429 and the seconds until one token refills (``Retry-After``).
    """

    def __init__(self, rate: float, burst: int) -> None:
        self.rate = float(rate)
        self.capacity = float(max(1, burst))
        self.tokens = self.capacity
        self._stamp = time.monotonic()

    def try_acquire(self, now: Optional[float] = None) -> Tuple[bool, float]:
        """``(allowed, retry_after_seconds)`` for one job submission."""
        if self.rate <= 0:
            return True, 0.0
        if now is None:
            now = time.monotonic()
        elapsed = max(0.0, now - self._stamp)
        self._stamp = now
        self.tokens = min(self.capacity, self.tokens + elapsed * self.rate)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True, 0.0
        return False, (1.0 - self.tokens) / self.rate

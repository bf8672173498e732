"""Job model for ``repro serve``: lifecycle, events, quotas.

A job carries the :class:`~repro.run_spec.RunSpec` a client POSTed to
``/jobs``.  Two kinds exist:

* ``"run"`` — one policy on one device; the result is the simulation
  summary.  With ``"events": true`` the run's full trace is
  additionally broadcast live on ``/jobs/{id}/events`` using the exact
  :class:`~repro.sim.tracing.JsonlTraceWriter` wire format.
* ``"sweep"`` — a (policy × RU-count) grid; the result is one flat
  record per cell, with live progress counters from
  :meth:`~repro.session.SessionHooks.on_sweep_progress`.

:meth:`RunSpec.from_dict <repro.run_spec.RunSpec.from_dict>` validates
the document before the job exists; the daemon answers its
:class:`~repro.run_spec.SpecError` with a 400, so malformed jobs never
reach a worker.

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
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.exceptions import ReproError
from repro.run_spec import RunSpec


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
        spec: RunSpec,
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

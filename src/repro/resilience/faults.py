"""Deterministic fault injection: seeded, named fault points.

Chaos testing is only useful when a failure found once can be found
again.  :class:`FaultPlan` makes every injected fault reproducible: each
*fault point* is a dotted name baked into production code
(``faults.should_fire("store.write.torn")``) whose firing pattern is
fixed by the plan — either an explicit list of occurrence indices, an
every-Nth cadence, or a probability drawn from a per-point
``random.Random`` seeded from ``(seed, point)``.  Re-running a test with
the same plan injects the exact same faults at the exact same call
sites, in any interleaving of threads.

Fault-point catalog (see docs/resilience.md):

==========================  ==============================================
point                       effect at the call site
==========================  ==============================================
``store.write.torn``        :meth:`ArtifactStore.put` persists a torn
                            (truncated) entry instead of the real bytes
``queue.claim.lost``        a won lease is dropped right after the claim
``worker.cell.slow``        the worker sleeps before executing a cell
``worker.cell.sigkill``     the worker SIGKILLs itself mid-cell
``daemon.job.fail``         the daemon's job attempt raises
``daemon.stream.drop``      the event stream closes mid-flight
``client.conn.drop``        the client drops its connection pre-request
==========================  ==============================================

A plan with no spec for a point never fires there, so production paths
pay one ``None`` check when no plan is attached.
"""

from __future__ import annotations

import hashlib
import random
import threading
from typing import Dict, Iterable, Mapping, Optional, Union

from repro.exceptions import ReproError
from repro.sim.tracing import TraceSink

#: A firing rule: probability in [0, 1) as float, every-Nth as int, or an
#: explicit collection of 1-based occurrence indices.
FaultSpec = Union[float, int, Iterable[int]]


class FaultError(ReproError):
    """Raised by fault points whose effect is an injected exception."""


class CrashSink(TraceSink):
    """Trace sink that kills a run after ``after`` trace events.

    The chaos utility behind the checkpoint/resume tests and the
    docs/resilience.md example: attach it via
    ``run_simulation(extra_sinks=[CrashSink(50)])`` and the run raises
    :class:`FaultError` at its 50th trace event — standing in for the
    process dying mid-simulation.

    Instances are picklable, so they travel inside checkpoints like any
    other sink.  The *armed* switch is class-level state, deliberately
    **not** part of the pickle: a restored checkpoint carries the dead
    run's event counter, but whether the fault fires again is the new
    process's disposition — exactly like a real crash, where the restart
    doesn't inherit the killer.  Call :meth:`disarm` before resuming to
    model "the fault was transient"; leave it armed to model a
    deterministic crasher.
    """

    armed = True

    def __init__(self, after: int) -> None:
        if int(after) < 1:
            raise ReproError(f"CrashSink: after must be >= 1, got {after}")
        self.after = int(after)
        self.n = 0

    def on_event(self, event) -> None:
        self.n += 1
        if type(self).armed and self.n >= self.after:
            raise FaultError(f"injected crash at trace event {self.n}")

    @classmethod
    def arm(cls) -> None:
        cls.armed = True

    @classmethod
    def disarm(cls) -> None:
        cls.armed = False


class FaultPlan:
    """Seeded, named fault points with deterministic firing.

    Parameters
    ----------
    seed:
        Root seed; each point's probability stream is seeded from
        ``(seed, point)`` so adding a point never shifts another's draws.
    points:
        ``{point: spec}`` where spec is a probability (float in
        ``[0, 1)``), an every-Nth cadence (int ``N >= 1``), or an
        iterable of 1-based occurrence indices (``[2, 5]`` fires on the
        2nd and 5th call only).

    The plan is thread-safe (daemon dispatch threads and the asyncio loop
    consult one shared plan) and picklable (worker subprocesses receive
    their plan through ``multiprocessing``).
    """

    def __init__(
        self, seed: int = 0, points: Optional[Mapping[str, FaultSpec]] = None
    ) -> None:
        self.seed = int(seed)
        self._specs: Dict[str, FaultSpec] = {}
        self._calls: Dict[str, int] = {}
        self._fired: Dict[str, int] = {}
        self._rngs: Dict[str, random.Random] = {}
        self._lock = threading.Lock()
        for point, spec in (points or {}).items():
            self._specs[point] = self._validate(point, spec)

    @staticmethod
    def _validate(point: str, spec: FaultSpec) -> FaultSpec:
        if isinstance(spec, bool):
            raise ReproError(f"fault point {point!r}: use 1 (every call), not bool")
        if isinstance(spec, float):
            if not 0.0 <= spec < 1.0:
                raise ReproError(
                    f"fault point {point!r}: probability must be in [0, 1), got {spec}"
                )
            return spec
        if isinstance(spec, int):
            if spec < 1:
                raise ReproError(
                    f"fault point {point!r}: cadence must be >= 1, got {spec}"
                )
            return spec
        occurrences = frozenset(int(i) for i in spec)
        if any(i < 1 for i in occurrences):
            raise ReproError(
                f"fault point {point!r}: occurrence indices are 1-based"
            )
        return occurrences

    # ------------------------------------------------------------------
    def should_fire(self, point: str) -> bool:
        """One occurrence of ``point``; True when the plan injects here."""
        with self._lock:
            spec = self._specs.get(point)
            if spec is None:
                return False
            count = self._calls.get(point, 0) + 1
            self._calls[point] = count
            if isinstance(spec, float):
                rng = self._rngs.get(point)
                if rng is None:
                    # Per-point stream seeded from (seed, point) via a
                    # stable hash — process-independent, unlike hash().
                    digest = hashlib.sha256(
                        f"{self.seed}:{point}".encode("utf-8")
                    ).digest()
                    rng = self._rngs[point] = random.Random(
                        int.from_bytes(digest[:8], "big")
                    )
                fire = rng.random() < spec
            elif isinstance(spec, int):
                fire = count % spec == 0
            else:
                fire = count in spec
            if fire:
                self._fired[point] = self._fired.get(point, 0) + 1
            return fire

    def fired(self, point: str) -> int:
        """How many times ``point`` actually fired so far."""
        with self._lock:
            return self._fired.get(point, 0)

    def calls(self, point: str) -> int:
        """How many times ``point`` was consulted so far."""
        with self._lock:
            return self._calls.get(point, 0)

    def reset(self) -> None:
        """Zero all counters and rewind the probability streams."""
        with self._lock:
            self._calls.clear()
            self._fired.clear()
            self._rngs.clear()

    # ------------------------------------------------------------------
    def __getstate__(self):
        return {
            "seed": self.seed,
            "specs": {
                k: (sorted(v) if isinstance(v, frozenset) else v)
                for k, v in self._specs.items()
            },
            "calls": dict(self._calls),
            "fired": dict(self._fired),
        }

    def __setstate__(self, state) -> None:
        self.__init__(state["seed"], state["specs"])
        self._calls.update(state["calls"])
        self._fired.update(state["fired"])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan(seed={self.seed}, points={sorted(self._specs)})"

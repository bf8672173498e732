"""Crash-safety primitives shared by every layer of the stack.

The subsystems here exist so that any single failure — a killed worker,
a torn store write, a dropped connection, a crashed daemon — costs time,
never results:

* :mod:`repro.resilience.retry` — the unified :class:`RetryPolicy`
  (exponential backoff, deterministic jitter, deadline) used by the
  client, the work-stealing queue's store I/O and ``repro worker``;
* :mod:`repro.resilience.faults` — the seeded :class:`FaultPlan`
  fault-injection harness wired into the store, queue, daemon and
  client, so chaos tests are reproducible;
* :mod:`repro.resilience.checkpoint` — capture/restore of a running
  :class:`~repro.sim.manager.ExecutionManager` through the ``checkpoint``
  artifact kind (``run_simulation(checkpoint_every=)``, ``repro run
  --checkpoint``).

See docs/resilience.md for the format and semantics reference.
"""

from repro.resilience.checkpoint import (
    CheckpointError,
    capture_checkpoint,
    restore_checkpoint,
    run_checkpoint_key,
)
from repro.resilience.faults import CrashSink, FaultError, FaultPlan
from repro.resilience.retry import RetryPolicy, RetrySchedule

__all__ = [
    "CheckpointError",
    "CrashSink",
    "FaultError",
    "FaultPlan",
    "RetryPolicy",
    "RetrySchedule",
    "capture_checkpoint",
    "restore_checkpoint",
    "run_checkpoint_key",
]

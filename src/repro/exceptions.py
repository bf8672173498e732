"""Exception hierarchy for the :mod:`repro` library.

All library-raised errors derive from :class:`ReproError` so callers can
catch one base type.  Sub-types mirror the major subsystems: graph model
errors, simulator errors and configuration/experiment errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class GraphError(ReproError):
    """Invalid task-graph construction or query (cycles, bad ids, ...)."""


class CycleError(GraphError):
    """The supplied edge set contains a directed cycle."""

    def __init__(self, cycle_hint: str = "") -> None:
        msg = "task graph contains a cycle"
        if cycle_hint:
            msg = f"{msg}: {cycle_hint}"
        super().__init__(msg)


class UnknownTaskError(GraphError, KeyError):
    """A referenced node id does not exist in the graph."""

    def __init__(self, node_id: object, graph_name: str = "") -> None:
        where = f" in graph {graph_name!r}" if graph_name else ""
        super().__init__(f"unknown task id {node_id!r}{where}")


class DuplicateTaskError(GraphError):
    """A node id was added twice to the same graph."""


class SimulationError(ReproError):
    """Inconsistent simulator state (indicates a bug or invalid input)."""


class DispatchDeadlockError(SimulationError):
    """The event queue drained with applications unfinished.

    The one simulation failure that is a *result* rather than a bug: a
    design-time probe whose forced delay starves its task of every load
    opportunity ends this way, and the mobility search reads it as an
    infeasible delay.
    """


class TraceInvariantError(SimulationError):
    """A produced execution trace violates a structural invariant."""


class PolicyError(ReproError):
    """A replacement policy returned an invalid decision."""


class LookaheadWindowError(PolicyError, ValueError):
    """A negative Dynamic-List lookahead window was requested."""


class WorkloadError(ReproError):
    """Invalid workload specification (empty sequence, bad weights...)."""


class DeviceError(ReproError):
    """Invalid device description (non-positive RU count, ...)."""


class ExperimentError(ReproError):
    """An experiment harness was configured inconsistently."""

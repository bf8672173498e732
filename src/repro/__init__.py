"""repro — reproduction of "A Replacement Technique to Maximize Task Reuse
in Reconfigurable Systems" (Clemente et al., 2011).

Quickstart (the declarative API)::

    from repro import DeviceModel, Session, local_lfd_spec, lru_spec, ms

    session = Session(DeviceModel.homogeneous(4, ms(4)), "quick")
    result = session.run(local_lfd_spec(1, skip_events=True))
    print(result.summary())

    sweep = session.sweep(
        [lru_spec(), local_lfd_spec(1, skip_events=True)],
        ru_counts=(4, 6, 8, 10),
        parallel=2,
    )
    print(sweep.render_table("reuse_pct", "% reuse"))

The session computes the design-time artifacts (mobility tables,
zero-latency ideal makespans) once per ``(workload, n_rus)`` and shares
them across every policy spec — the paper's hybrid design-time/run-time
split, made structural.  The hardware is always a
:class:`~repro.hw.model.DeviceModel`; :func:`run_simulation` is the
low-level engine entry point underneath the session.

See DESIGN.md for the system inventory and the S1-S6 resolved semantics,
and EXPERIMENTS.md for the paper-vs-measured record of every artifact.
"""

from repro.exceptions import (
    CycleError,
    DeviceError,
    DispatchDeadlockError,
    DuplicateTaskError,
    ExperimentError,
    GraphError,
    LookaheadWindowError,
    PolicyError,
    ReproError,
    SimulationError,
    TraceInvariantError,
    UnknownTaskError,
    WorkloadError,
)
from repro.graphs import (
    ConfigId,
    TaskGraph,
    TaskGraphBuilder,
    TaskInstance,
    TaskSpec,
    benchmark_by_name,
    benchmark_suite,
    chain_graph,
    fork_join_graph,
    hough_transform,
    jpeg_decoder,
    mpeg1_encoder,
)
from repro.sim import (
    AggregateTrace,
    CrossAppPrefetch,
    ExecutionManager,
    FullTrace,
    JsonlTraceWriter,
    ManagerSemantics,
    PAPER_SEMANTICS,
    TraceEvent,
    TraceSink,
    read_trace_events,
    replay_events,
    trace_from_jsonl,
    SimulationResult,
    Trace,
    ideal_makespan,
    ms,
    render_gantt,
    run_simulation,
    validate_trace,
)
from repro.artifacts import ArtifactStore, default_store_root
from repro.hw import (
    BitstreamLatency,
    DeviceModel,
    FixedLatency,
    LatencyModel,
    PAPER_DEVICE_MODEL,
    PerConfigLatency,
    RUSlot,
    available_device_presets,
    make_device,
    parse_latency_model,
)
from repro.backends import (
    ExecutorBackend,
    ExperimentPlan,
    InlineBackend,
    ProcessPoolBackend,
    WorkStealingBackend,
    build_plan,
    resolve_backend,
    run_worker,
)
from repro.session import (
    ArtifactCache,
    DeviceCellRecord,
    GridCellRecord,
    Session,
    SessionHooks,
    SweepCell,
    workload_content_key,
)
from repro.workloads import (
    Workload,
    available_scenarios,
    make_scenario,
    scenario,
)
from repro.core import (
    DynamicList,
    PolicySpec,
    fig9a_specs,
    fig9b_specs,
    fig9c_specs,
    lfd_spec,
    local_lfd_spec,
    lru_spec,
    FIFOPolicy,
    LFDPolicy,
    LRUPolicy,
    LocalLFDPolicy,
    MRUPolicy,
    MobilityCalculator,
    PolicyAdvisor,
    PurelyRuntimeMobilityAdvisor,
    RandomPolicy,
    ReplacementPolicy,
    make_advisor,
    make_policy,
)

__version__ = "1.1.0"

__all__ = [
    # exceptions
    "CycleError",
    "DeviceError",
    "DispatchDeadlockError",
    "DuplicateTaskError",
    "ExperimentError",
    "GraphError",
    "LookaheadWindowError",
    "PolicyError",
    "ReproError",
    "SimulationError",
    "TraceInvariantError",
    "UnknownTaskError",
    "WorkloadError",
    # graphs
    "ConfigId",
    "TaskGraph",
    "TaskGraphBuilder",
    "TaskInstance",
    "TaskSpec",
    "benchmark_by_name",
    "benchmark_suite",
    "chain_graph",
    "fork_join_graph",
    "hough_transform",
    "jpeg_decoder",
    "mpeg1_encoder",
    # sim
    "AggregateTrace",
    "CrossAppPrefetch",
    "ExecutionManager",
    "FullTrace",
    "JsonlTraceWriter",
    "ManagerSemantics",
    "PAPER_SEMANTICS",
    "SimulationResult",
    "Trace",
    "TraceEvent",
    "TraceSink",
    "ideal_makespan",
    "ms",
    "read_trace_events",
    "render_gantt",
    "replay_events",
    "run_simulation",
    "trace_from_jsonl",
    "validate_trace",
    # session (the declarative engine)
    "ArtifactCache",
    "ArtifactStore",
    "default_store_root",
    "DeviceCellRecord",
    "GridCellRecord",
    "Session",
    "SessionHooks",
    "SweepCell",
    "workload_content_key",
    # backends (pluggable sweep execution)
    "ExecutorBackend",
    "ExperimentPlan",
    "InlineBackend",
    "ProcessPoolBackend",
    "WorkStealingBackend",
    "build_plan",
    "resolve_backend",
    "run_worker",
    # hw (the first-class hardware model)
    "BitstreamLatency",
    "DeviceModel",
    "FixedLatency",
    "LatencyModel",
    "PAPER_DEVICE_MODEL",
    "PerConfigLatency",
    "RUSlot",
    "available_device_presets",
    "make_device",
    "parse_latency_model",
    # workloads
    "Workload",
    "available_scenarios",
    "make_scenario",
    "scenario",
    # core
    "PolicySpec",
    "fig9a_specs",
    "fig9b_specs",
    "fig9c_specs",
    "lfd_spec",
    "local_lfd_spec",
    "lru_spec",
    "DynamicList",
    "FIFOPolicy",
    "LFDPolicy",
    "LRUPolicy",
    "LocalLFDPolicy",
    "MRUPolicy",
    "MobilityCalculator",
    "PolicyAdvisor",
    "PurelyRuntimeMobilityAdvisor",
    "RandomPolicy",
    "ReplacementPolicy",
    "make_advisor",
    "make_policy",
    "__version__",
]

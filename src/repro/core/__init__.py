"""The paper's contribution: replacement policies, the run-time replacement
module with skip events, and the design-time mobility calculation."""

from repro.graphs.multimedia import DEFAULT_RECONFIG_LATENCY_US
from repro.core.policy_spec import (
    PolicySpec,
    fig9a_specs,
    fig9b_specs,
    fig9c_specs,
    lfd_spec,
    local_lfd_spec,
    lru_spec,
)
from repro.core.policies import (
    ClockPolicy,
    FIFOPolicy,
    LFDPolicy,
    LFUPolicy,
    LRUKPolicy,
    LRUPolicy,
    LocalLFDPolicy,
    MRUPolicy,
    RandomPolicy,
    ReplacementPolicy,
    available_policies,
    forward_distance,
    local_lfd_name,
    make_policy,
    register_policy,
)
from repro.core.optimal import OptimalResult, ScriptedAdvisor, exhaustive_best_reuse
from repro.core.replacement_module import PolicyAdvisor, make_advisor
from repro.core.mobility import (
    MobilityCalculator,
    MobilityResult,
    PurelyRuntimeMobilityAdvisor,
)
from repro.core.dynamic_list import DynamicList, replay_fig1

__all__ = [
    "DEFAULT_RECONFIG_LATENCY_US",
    "PolicySpec",
    "fig9a_specs",
    "fig9b_specs",
    "fig9c_specs",
    "lfd_spec",
    "local_lfd_spec",
    "lru_spec",
    "ClockPolicy",
    "FIFOPolicy",
    "LFDPolicy",
    "LFUPolicy",
    "LRUKPolicy",
    "LRUPolicy",
    "LocalLFDPolicy",
    "MRUPolicy",
    "RandomPolicy",
    "ReplacementPolicy",
    "available_policies",
    "forward_distance",
    "local_lfd_name",
    "make_policy",
    "register_policy",
    "PolicyAdvisor",
    "make_advisor",
    "OptimalResult",
    "ScriptedAdvisor",
    "exhaustive_best_reuse",
    "MobilityCalculator",
    "MobilityResult",
    "PurelyRuntimeMobilityAdvisor",
    "DynamicList",
    "replay_fig1",
]

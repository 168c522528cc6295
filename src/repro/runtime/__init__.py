"""Declarative scenario runtime: specs, policies, registry, runner.

The package splits every experiment into three replaceable parts:

* a **spec** (:class:`ScenarioSpec`) — pure data naming the testbed,
  the policies and the knobs;
* a **policy** (:class:`SelectionPolicy`) — the strategy under test,
  resolved by name through the registry;
* a **runner** (:class:`ScenarioRunner`) — the one engine owning trial
  loops, batched fast paths, RNG discipline and process-pool sharding.

See DESIGN.md §8 for the architecture and the registration contract.
"""

from .checkpoint import CheckpointStore, default_checkpoint_path, journal_header
from .faults import (
    DeadlineExceededError,
    FaultInjectionError,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    RetryExhaustedError,
    RetryPolicy,
    RunAbortedError,
    RunCancelledError,
    RunHealth,
)
from .manifest import RunManifest, git_revision
from .policy import PolicyContext, PolicyOutcome, SelectionPolicy
from .registry import (
    ScenarioEntry,
    available_policies,
    available_scenarios,
    build_policy,
    get_scenario,
    load_builtin,
    register_policy,
    register_scenario,
    scenario_spec,
)
from .runner import (
    RunOutcome,
    ScenarioRunner,
    TrialBlock,
    TrialPlan,
    TrialRecord,
    TrialRecords,
)
from .spec import PolicySpec, ScenarioSpec, TestbedSpec

__all__ = [
    "CheckpointStore",
    "default_checkpoint_path",
    "journal_header",
    "DeadlineExceededError",
    "FaultInjectionError",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "RetryExhaustedError",
    "RetryPolicy",
    "RunAbortedError",
    "RunCancelledError",
    "RunHealth",
    "RunManifest",
    "git_revision",
    "PolicyContext",
    "PolicyOutcome",
    "SelectionPolicy",
    "ScenarioEntry",
    "available_policies",
    "available_scenarios",
    "build_policy",
    "get_scenario",
    "load_builtin",
    "register_policy",
    "register_scenario",
    "scenario_spec",
    "RunOutcome",
    "ScenarioRunner",
    "TrialBlock",
    "TrialPlan",
    "TrialRecords",
    "TrialRecord",
    "PolicySpec",
    "ScenarioSpec",
    "TestbedSpec",
]

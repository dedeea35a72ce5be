"""Build a scenario: the one way to construct any protocol stack.

:func:`build` turns a :class:`~repro.api.scenario.Scenario` into the fully
wired deployment its protocol names in :data:`~repro.api.scenario.PROTOCOLS`
-- a :class:`~repro.core.deployment.ThreeTierDeployment` subclass -- after
refusing what that protocol cannot run.  Every consumer (experiments,
examples, CLI, tests) gets the same run surface: ``issue`` / ``run`` /
``run_request`` / ``apply_faults`` / ``check_spec`` / ``stats`` /
``standard_request``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Optional, Sequence

from repro.api.scenario import PARAMS, PROTOCOLS, Scenario, ScenarioError
from repro.api.workloads import ShardContext, bind_workload
from repro.core.deployment import ThreeTierDeployment
from repro.core.timing import DatabaseTiming, ProtocolTiming
from repro.core.types import reset_request_counter
from repro.runtime.base import RUNTIME_SIM


def _refuse_unsupported(scenario: Scenario, deployment: type[ThreeTierDeployment]) -> None:
    """Reject a scenario the protocol cannot run, or cannot honour.

    A parameter whose row names other consuming protocols, or a fault kind
    in the class's ``unsupported_faults``, is refused rather than silently
    mis-describing the run.
    """
    name = scenario.protocol
    if scenario.num_app_servers < deployment.min_app_servers:
        raise ScenarioError(
            f"protocol {name!r} needs at least {deployment.min_app_servers} "
            f"application server(s), got {scenario.num_app_servers}")
    for row in PARAMS:
        if (row.protocols and name not in row.protocols
                and getattr(scenario, row.field) != row.default):
            raise ScenarioError(
                f"protocol {name!r} does not support "
                f"{row.field!r}; remove it from the scenario")
    for fault in scenario.faults:
        if fault.kind in deployment.unsupported_faults:
            raise ScenarioError(
                f"protocol {name!r} does not support "
                f"{deployment.unsupported_faults[fault.kind]}; remove the "
                f"{fault.kind} fault from the scenario")


def build(scenario: Scenario, *,
          workload: Any = None,
          initial_data: Optional[dict[str, Any]] = None,
          only: Sequence[str] = ()) -> ThreeTierDeployment:
    """Build (and start) the system a scenario describes.

    The keyword overrides exist for programmatic callers that need objects a
    DSN cannot carry -- a workload instance (anything with
    ``business_logic(request)`` and ``initial_data()``) or initial data;
    anything omitted comes from the scenario itself.  ``only`` names the
    processes this OS process hosts in a distributed ``runtime=asyncio`` run.
    The scenario's fault schedule is applied before returning.  Request
    numbering restarts at 1, so a run's request ids depend on its scenario
    alone, not on what ran before it in this process.
    """
    deployment = PROTOCOLS[scenario.protocol]
    _refuse_unsupported(scenario, deployment)
    reset_request_counter()
    if only and scenario.runtime == RUNTIME_SIM:
        raise ScenarioError("only= needs runtime=asyncio: a simulated run hosts "
                            "every process in one OS process")
    shard_context = ShardContext(sharding=scenario.sharding,
                                 cross_shard_fraction=scenario.xshard,
                                 seed=scenario.seed)
    binding = bind_workload(workload if workload is not None else scenario.workload,
                            context=shard_context)
    if initial_data is not None:
        binding = replace(binding, initial_data=initial_data)
    system = deployment(
        scenario, binding, db_timing=DatabaseTiming(),
        protocol_timing=ProtocolTiming(client_backoff=scenario.client_backoff),
        only=tuple(only))
    system.apply_faults(scenario.faults)
    return system

"""Unified scenario API: one protocol-agnostic facade for every run.

This package is the single entry point for building and running any scenario
of the reproduction -- the e-Transaction protocol and the three comparison
protocols alike::

    from repro import api

    # declaratively ...
    scenario = api.Scenario(protocol="etx", num_app_servers=3, workload="bank")

    # ... or from a DSN string (round-trips via scenario.to_dsn()):
    scenario = api.Scenario.from_dsn("etx://a3.d1.c1?fd=heartbeat&seed=7")

    result = api.run_scenario(scenario)
    print(result.summary())          # throughput, percentiles, messages, spec

    # ... or from a DSN with a traffic shape (8 clients, open loop):
    result = api.run_scenario("etx://a3.d1.c8?rate=50&arrival=poisson")

    # fan a scenario grid out over worker processes (deterministic):
    sweep = api.Sweep.over("etx://d1", protocol=["etx", "2pc"], clients=[1, 8])
    print(api.run_sweep(sweep, workers=4).to_table())

    # or keep your hands on the wheel:
    system = api.build(scenario)     # a RunningSystem facade
    issued = system.run_request(system.standard_request())
    assert system.check_spec().ok

New protocols plug in with :func:`register_protocol`; their DSN scheme and
smoke coverage (tests parametrize over :func:`registered_protocols`) come for
free.  New workloads plug in with :func:`register_workload`.
"""

from repro.api.drivers import (
    ProtocolDriver,
    RunningSystem,
    build,
    get_protocol,
    register_protocol,
    registered_protocols,
)
from repro.api.runner import ScenarioResult, load_generator_for, run_scenario
from repro.api.sweep import Sweep, SweepResult, map_jobs, run_sweep
from repro.api.scenario import (
    FaultSpec,
    Scenario,
    ScenarioError,
    default_app_servers,
    faults_from_text,
    faults_to_text,
    known_schemes,
    load_fault_sidecar,
    register_scheme,
    schedule_to_specs,
)
from repro.api.workloads import (
    ShardContext,
    WorkloadBinding,
    bind_workload,
    register_workload,
    registered_workloads,
)

__all__ = [
    "Scenario",
    "FaultSpec",
    "ScenarioError",
    "schedule_to_specs",
    "faults_to_text",
    "faults_from_text",
    "load_fault_sidecar",
    "known_schemes",
    "register_scheme",
    "default_app_servers",
    "ProtocolDriver",
    "RunningSystem",
    "register_protocol",
    "registered_protocols",
    "get_protocol",
    "build",
    "ScenarioResult",
    "run_scenario",
    "load_generator_for",
    "Sweep",
    "SweepResult",
    "run_sweep",
    "map_jobs",
    "ShardContext",
    "WorkloadBinding",
    "bind_workload",
    "register_workload",
    "registered_workloads",
]

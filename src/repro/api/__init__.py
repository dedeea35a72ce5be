"""Unified scenario API: one protocol-agnostic entry point for every run.

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

    # or attach an observer between the steps run_scenario takes:
    system = api.build(scenario)     # the protocol's ThreeTierDeployment
    deliveries = []
    system.trace.subscribe("client_deliver", deliveries.append)
    result = api.drive(system, requests=4)   # load, settle, spec check
    system.close()

    # or keep your hands on the wheel:
    system = api.build(scenario)     # restarts request numbering at 1
    issued = system.run_request(system.standard_request())
    assert system.check_spec().ok

:class:`RunJob` is the picklable unit of work (scenario, requests per client,
horizon, settle) that :func:`map_jobs` hands to worker processes.

A protocol is one :data:`PROTOCOLS` entry, its scheme mapped to the
:class:`~repro.core.deployment.ThreeTierDeployment` subclass that builds its
middle tier; tests parametrize their smoke runs over it.  A named workload
is one :data:`WORKLOADS` entry.
"""

from repro.api.drivers import build
from repro.api.runner import (RunJob, ScenarioResult, drive, load_generator_for,
                              run_scenario)
from repro.api.sweep import Sweep, SweepResult, map_jobs, run_sweep
from repro.api.scenario import (
    PROTOCOLS,
    FaultSpec,
    Scenario,
    ScenarioError,
    faults_from_text,
    faults_to_text,
    known_schemes,
    load_fault_sidecar,
)
from repro.api.workloads import WORKLOADS, ShardContext, WorkloadBinding, bind_workload

__all__ = [
    "Scenario",
    "FaultSpec",
    "ScenarioError",
    "faults_to_text",
    "faults_from_text",
    "load_fault_sidecar",
    "known_schemes",
    "PROTOCOLS",
    "build",
    "ScenarioResult",
    "RunJob",
    "drive",
    "run_scenario",
    "load_generator_for",
    "Sweep",
    "SweepResult",
    "run_sweep",
    "map_jobs",
    "ShardContext",
    "WorkloadBinding",
    "bind_workload",
    "WORKLOADS",
]

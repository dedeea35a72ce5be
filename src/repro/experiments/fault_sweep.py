"""Experiment E6 -- correctness under randomised failures.

Section 5 argues that the termination-related assumptions are only needed for
liveness: violating them can block the protocol but never violates agreement
or validity.  The fault sweep quantifies that claim operationally: it expands
one scenario per random fault schedule (respecting the stated assumptions)
and executes the grid through the sweep executor -- optionally over worker
processes -- reporting how many runs delivered, how many aborted intermediate
results were needed, and whether any run violated any property.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro import api
from repro.api import sweep as sweep_api
from repro.experiments.catalog import FAILOVER_DSN


@dataclass
class RandomFaultPlan:
    """Parameters for generating random, assumption-respecting faults.

    The generated faults keep the paper's correctness assumptions:

    * at most a minority of application servers is ever crashed (and crashed
      application servers stay down -- the paper's crash-stop model for the
      middle tier),
    * database servers may crash at any time but always recover within
      ``db_downtime_max`` ("all database servers are good"),
    * the client may optionally crash (the spec then only requires at-most-once).
    """

    app_servers: Sequence[str]
    db_servers: Sequence[str]
    client: Optional[str] = None
    horizon: float = 2_000.0
    max_app_crashes: Optional[int] = None
    db_crash_probability: float = 0.5
    db_downtime_min: float = 20.0
    db_downtime_max: float = 150.0
    client_crash_probability: float = 0.0
    false_suspicion_probability: float = 0.3
    false_suspicion_duration: float = 40.0

    def generate(self, seed: int) -> tuple[api.FaultSpec, ...]:
        """Deterministic random faults for ``seed``, in stable time order."""
        rng = random.Random(seed)
        faults = []
        majority_bound = (len(self.app_servers) - 1) // 2
        budget = self.max_app_crashes if self.max_app_crashes is not None else majority_bound
        budget = min(budget, majority_bound)
        crashable = list(self.app_servers)
        rng.shuffle(crashable)
        for name in crashable[:budget]:
            if rng.random() < 0.7:
                faults.append(api.FaultSpec("crash", rng.uniform(0.0, self.horizon * 0.6),
                                            name))
        for name in self.db_servers:
            if rng.random() < self.db_crash_probability:
                start = rng.uniform(0.0, self.horizon * 0.5)
                downtime = rng.uniform(self.db_downtime_min, self.db_downtime_max)
                faults.append(api.FaultSpec("crash_for", start, name, downtime=downtime))
        if self.client is not None and rng.random() < self.client_crash_probability:
            faults.append(api.FaultSpec("crash", rng.uniform(0.0, self.horizon * 0.5),
                                        self.client))
        if len(self.app_servers) >= 2 and rng.random() < self.false_suspicion_probability:
            observer, target = rng.sample(list(self.app_servers), 2)
            faults.append(api.FaultSpec(
                "false_suspicion", rng.uniform(0.0, self.horizon * 0.4), target,
                observer=observer, duration=self.false_suspicion_duration))
        return tuple(sorted(faults, key=lambda fault: fault.time))


@dataclass
class FaultSweepResult:
    """Aggregate outcome of the random fault sweep."""

    runs: int = 0
    delivered: int = 0
    total_aborted_results: int = 0
    violations: list[str] = field(default_factory=list)
    client_crash_runs: int = 0

    @property
    def all_safe(self) -> bool:
        """No property violations anywhere in the sweep."""
        return not self.violations

    def summary(self) -> str:
        """One-paragraph summary."""
        return (f"{self.runs} runs, {self.delivered} delivered, "
                f"{self.total_aborted_results} aborted intermediate results, "
                f"{len(self.violations)} property violations")


@dataclass(frozen=True)
class _FaultedRow:
    seed: int
    delivered: bool
    aborted_results: int
    client_crashed: bool
    violations: tuple[str, ...]


def _execute_faulted(job: api.RunJob) -> _FaultedRow:
    scenario = job.scenario
    client_crashed = any(
        fault.kind in ("crash", "crash_for")
        and fault.target in scenario.client_names
        for fault in scenario.faults)
    result = api.run_scenario(scenario, requests=job.requests,
                              horizon_per_request=job.horizon,
                              settle=job.settle,
                              check_termination=not client_crashed)
    return _FaultedRow(
        seed=scenario.seed,
        delivered=result.delivered > 0,
        aborted_results=result.statistics.aborted_results,
        client_crashed=client_crashed,
        violations=tuple(f"seed={scenario.seed}: {violation}"
                         for violation in result.spec.violations),
    )


def run(num_runs: int = 20, seed: int = 0, num_db_servers: int = 1,
        allow_client_crash: bool = False, horizon: float = 300_000.0,
        workers: Optional[int] = 1) -> FaultSweepResult:
    """Run ``num_runs`` randomly faulted executions and check every property.

    Each run is one scenario whose fault schedule is baked in as DSN fault
    specs, so the whole sweep is a reproducible grid; ``workers > 1`` fans the
    grid out over processes with identical results.
    """
    jobs = []
    for index in range(num_runs):
        run_seed = seed * 10_000 + index
        scenario = api.Scenario.from_dsn(FAILOVER_DSN).with_(
            seed=run_seed, num_db_servers=num_db_servers)
        plan = RandomFaultPlan(
            app_servers=scenario.app_server_names,
            db_servers=scenario.db_server_names,
            client="c1" if allow_client_crash else None,
            horizon=1_500.0,
            client_crash_probability=0.4 if allow_client_crash else 0.0,
        )
        scenario = scenario.with_(faults=plan.generate(run_seed))
        jobs.append(api.RunJob(scenario, requests=1, horizon=horizon, settle=20_000.0))

    result = FaultSweepResult()
    for row in sweep_api.map_jobs(_execute_faulted, jobs, workers=workers):
        result.runs += 1
        result.client_crash_runs += int(row.client_crashed)
        result.delivered += int(row.delivered)
        result.total_aborted_results += row.aborted_results
        result.violations.extend(row.violations)
    return result

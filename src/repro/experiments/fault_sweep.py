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

from dataclasses import dataclass, field
from typing import Optional

from repro import api
from repro.api import sweep as sweep_api
from repro.core.types import reset_request_counter
from repro.experiments import calibration
from repro.failure import injection
from repro.failure.injection import FaultSchedule, RandomFaultPlan


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


def fault_specs(schedule: FaultSchedule) -> tuple[api.FaultSpec, ...]:
    """A :class:`FaultSchedule`'s actions as DSN-expressible fault specs.

    Every fault kind (including partitions and heals) now has a DSN form;
    this is :func:`repro.api.schedule_to_specs`, kept under its historical
    name for the experiment harnesses.
    """
    return api.schedule_to_specs(schedule)


@dataclass(frozen=True)
class _FaultedJob:
    """Picklable unit: one randomly faulted scenario."""

    scenario: api.Scenario
    horizon: float


@dataclass(frozen=True)
class _FaultedRow:
    seed: int
    delivered: bool
    aborted_results: int
    client_crashed: bool
    violations: tuple[str, ...]


def _execute_faulted(job: _FaultedJob) -> _FaultedRow:
    scenario = job.scenario
    client_crashed = any(
        fault.kind in (injection.CRASH, injection.CRASH_FOR)
        and fault.target in scenario.client_names
        for fault in scenario.faults)
    reset_request_counter()
    result = api.run_scenario(scenario, requests=1,
                              horizon_per_request=job.horizon,
                              settle=20_000.0,
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
        scenario = calibration.paper_scenario(
            "etx", seed=run_seed, num_app_servers=3,
            num_db_servers=num_db_servers, detection_delay=10.0)
        plan = RandomFaultPlan(
            app_servers=scenario.app_server_names,
            db_servers=scenario.db_server_names,
            client="c1" if allow_client_crash else None,
            horizon=1_500.0,
            client_crash_probability=0.4 if allow_client_crash else 0.0,
        )
        scenario = scenario.with_(faults=fault_specs(plan.generate(run_seed)))
        jobs.append(_FaultedJob(scenario=scenario, horizon=horizon))

    result = FaultSweepResult()
    for row in sweep_api.map_jobs(_execute_faulted, jobs, workers=workers):
        result.runs += 1
        result.client_crash_runs += int(row.client_crashed)
        result.delivered += int(row.delivered)
        result.total_aborted_results += row.aborted_results
        result.violations.extend(row.violations)
    return result

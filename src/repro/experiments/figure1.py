"""Experiment E3 -- reproduce Figure 1 (executions of the e-Transaction protocol).

Figure 1 shows four executions of the asynchronous-replication protocol:

(a) failure-free run with commit,
(b) failure-free run with abort (a database refuses the result),
(c) fail-over with commit  -- the primary crashes *after* writing the decision,
    a backup finishes the commitment and answers the client,
(d) fail-over with abort   -- the primary crashes *before* writing the
    decision, a backup aborts the result on its behalf (the client then retries
    a fresh result, which commits).

``run()`` reproduces each execution with an explicit fault schedule and checks
the structural facts the figure conveys (who answered the client, whether the
first result aborted, whether the databases stayed consistent).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro import api
from repro.core import Request, ThreeTierDeployment
from repro.experiments import calibration
from repro.metrics.steps import CommunicationProfile, StreamingProfile


@dataclass
class ScenarioResult:
    """Outcome of one Figure 1 scenario."""

    name: str
    delivered: bool
    attempts: int
    aborted_results: list[int]
    answered_by: set[str]
    committed_balance: Optional[int]
    spec_ok: bool
    profile: CommunicationProfile
    latency: Optional[float] = None
    notes: str = ""

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (f"{self.name}: delivered={self.delivered} attempts={self.attempts} "
                f"aborted={self.aborted_results} answered_by={sorted(self.answered_by)} "
                f"spec_ok={self.spec_ok}")


@dataclass
class Figure1Report:
    """All four scenarios."""

    scenarios: dict[str, ScenarioResult] = field(default_factory=dict)

    def all_spec_ok(self) -> bool:
        """Whether every scenario satisfied the e-Transaction specification."""
        return all(result.spec_ok for result in self.scenarios.values())

    def to_text(self) -> str:
        """Per-scenario summaries."""
        return "\n".join(result.summary() for result in self.scenarios.values())


def _build(seed: int) -> tuple[ThreeTierDeployment, Request]:
    scenario = calibration.paper_scenario("etx", seed=seed, num_app_servers=3,
                                          detection_delay=10.0)
    system = api.build(scenario)
    return system, system.standard_request()


def _scenario(name: str, deployment: ThreeTierDeployment, request: Request,
              horizon: float = 1_000_000.0) -> ScenarioResult:
    streaming = StreamingProfile(deployment.trace, f"figure1-{name}")
    issued = deployment.run_request(request, horizon=horizon)
    deployment.run(until=deployment.sim.now + 5_000.0)
    answered_by = {event.process for event in deployment.trace.select("as_result_sent")}
    balance = deployment.db_servers["d1"].committed_value("account:0")
    report = deployment.check_spec(check_termination=False)
    return ScenarioResult(
        name=name,
        delivered=issued.delivered,
        attempts=issued.attempts,
        aborted_results=list(issued.aborted_results),
        answered_by=answered_by,
        committed_balance=balance,
        spec_ok=report.ok,
        profile=streaming.detach(),
        latency=issued.latency,
    )


def run(seed: int = 0) -> Figure1Report:
    """Reproduce the four executions of Figure 1."""
    report = Figure1Report()

    # (a) failure-free run with commit.
    deployment, request = _build(seed)
    report.scenarios["a"] = _scenario("a", deployment, request)

    # (b) failure-free run with abort: the database refuses to vote yes for the
    # first intermediate result (here because another transaction holds the
    # account's lock), the protocol aborts it and the client's retry commits
    # once the lock is free again.
    deployment_b, request_b = _build(seed)
    blocker_store = deployment_b.db_servers["d1"].store
    blocker_store.begin("interactive-session")
    blocker_store.write("interactive-session", "account:0", 0)
    deployment_b.sim.schedule(350.0, lambda: blocker_store.abort("interactive-session"),
                              name="release-blocking-lock")
    result_b = _scenario("b", deployment_b, request_b)
    result_b.notes = ("the database votes no for the first intermediate result "
                      "(lock held by another session); the retry commits")
    report.scenarios["b"] = result_b

    # (c) fail-over with commit: crash the primary just after it wrote the
    # decision into regD (~243 ms into the run with the calibrated timing).
    deployment_c, request_c = _build(seed)
    deployment_c.apply_faults((api.FaultSpec("crash", 244.0, "a1"),))
    report.scenarios["c"] = _scenario("c", deployment_c, request_c)

    # (d) fail-over with abort: crash the primary mid-computation, long before
    # any decision exists; a backup aborts the orphaned result.
    deployment_d, request_d = _build(seed)
    deployment_d.apply_faults((api.FaultSpec("crash", 60.0, "a1"),))
    report.scenarios["d"] = _scenario("d", deployment_d, request_d)

    return report

"""Ablation experiments (E5, E7, E8) around the paper's design discussion.

* :func:`asynchrony_sweep` (E5) -- Section 5, "on the asynchrony of the
  replication scheme": with a patient client and reliable suspicions the
  protocol behaves like primary-backup (one active primary, no wasted work);
  with an impatient client or false suspicions several servers may try to
  terminate the same result concurrently.  The sweep varies the client
  back-off and injected false suspicions and measures duplicate claims and
  aborted intermediate results.
* :func:`log_cost_sweep` (E7) -- Appendix 3, the forced-log argument: the AR
  protocol wins because it replaces two forced disk writes with two in-memory
  replicated register writes.  Sweeping the forced-write latency shows where
  the two protocols cross over.
* :func:`scaling_sweep` (E8) -- replication degree: latency and message count
  of the AR protocol with 1, 3, 5, 7 application servers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro import api
from repro.experiments import calibration
from repro.metrics.steps import StreamingProfile
from repro.workload.generator import ClosedLoop


# --------------------------------------------------------------------- E5


@dataclass
class AsynchronyPoint:
    """One configuration of the asynchrony sweep."""

    label: str
    client_backoff: float
    false_suspicion: bool
    delivered: bool
    attempts: int
    aborted_results: int
    distinct_claimers: int
    duplicate_result_messages: int
    spec_ok: bool


def asynchrony_sweep(seed: int = 0) -> list[AsynchronyPoint]:
    """Vary client patience and failure-detector reliability (E5)."""
    scenarios = [
        ("patient client, reliable FD", 2_000.0, False),
        ("impatient client, reliable FD", 40.0, False),
        ("patient client, false suspicion", 2_000.0, True),
        ("impatient client, false suspicion", 40.0, True),
    ]
    points = []
    for label, backoff, false_suspicion in scenarios:
        faults = (api.FaultSpec("false_suspicion", 15.0, "a1",
                                observer="a2", duration=200.0),) \
            if false_suspicion else ()
        scenario = calibration.paper_scenario(
            "etx", seed=seed, num_app_servers=3, detection_delay=10.0,
            client_backoff=backoff, faults=faults)
        deployment = api.build(scenario)
        issued = deployment.run_request(deployment.standard_request())
        deployment.run(until=deployment.sim.now + 10_000.0)
        claimers = {event.process for event in deployment.trace.select("as_claim")}
        result_messages = deployment.trace.count("as_result_sent")
        report = deployment.check_spec(check_termination=False)
        points.append(AsynchronyPoint(
            label=label,
            client_backoff=backoff,
            false_suspicion=false_suspicion,
            delivered=issued.delivered,
            attempts=issued.attempts,
            aborted_results=len(issued.aborted_results),
            distinct_claimers=len(claimers),
            duplicate_result_messages=max(0, result_messages - issued.attempts),
            spec_ok=report.ok,
        ))
    return points


# --------------------------------------------------------------------- E7


@dataclass
class LogCostPoint:
    """AR vs 2PC totals at one forced-log latency."""

    forced_write_latency: float
    ar_total: float
    twopc_total: float

    @property
    def ar_wins(self) -> bool:
        """Whether the asynchronous-replication protocol is faster at this point."""
        return self.ar_total < self.twopc_total


def log_cost_sweep(latencies: Optional[list[float]] = None, seed: int = 0,
                   requests: int = 2) -> list[LogCostPoint]:
    """Sweep the forced-log latency and compare AR vs 2PC totals (E7).

    The coordinator's forced log writes are what the AR protocol eliminates;
    the database's own forced writes are kept at the calibrated 12.5 ms so the
    comparison isolates the transaction-manager log.
    """
    if latencies is None:
        latencies = [0.0, 2.0, 5.0, 12.5, 25.0]
    points = []
    for log_latency in latencies:
        ar = api.build(calibration.paper_scenario("etx", seed=seed))
        ar_stats = ClosedLoop().run(ar, requests)
        twopc = api.build(calibration.paper_scenario(
            "2pc", seed=seed, coordinator_log_latency=log_latency))
        twopc_stats = ClosedLoop().run(twopc, requests)
        points.append(LogCostPoint(
            forced_write_latency=log_latency,
            ar_total=ar_stats.mean_latency,
            twopc_total=twopc_stats.mean_latency,
        ))
    return points


# --------------------------------------------------------------------- E8


@dataclass
class ScalingPoint:
    """AR latency and traffic at one replication degree."""

    num_app_servers: int
    mean_latency: float
    total_messages: int
    consensus_messages: int
    delivered: bool


def scaling_sweep(degrees: Optional[list[int]] = None, seed: int = 0,
                  requests: int = 2) -> list[ScalingPoint]:
    """Latency and message count of the AR protocol versus replication degree (E8)."""
    if degrees is None:
        degrees = [1, 3, 5, 7]
    points = []
    for degree in degrees:
        deployment = api.build(calibration.paper_scenario(
            "etx", seed=seed, num_app_servers=degree))
        streaming = StreamingProfile(deployment.trace, f"ar-{degree}")
        stats = ClosedLoop().run(deployment, requests)
        profile = streaming.detach()
        points.append(ScalingPoint(
            num_app_servers=degree,
            mean_latency=stats.mean_latency,
            total_messages=profile.total_messages,
            consensus_messages=profile.consensus_messages,
            delivered=stats.count == requests,
        ))
    return points

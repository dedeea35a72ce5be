"""Run a scenario end-to-end and bundle the result.

Every run is the same three steps: :func:`~repro.api.build` the scenario's
stack, :func:`drive` it, then ``close`` it.  :func:`drive` runs the workload
with the traffic shape the scenario asks for (closed loop by default, open
loop when ``rate`` is set), lets the run settle, checks the specification and
packages throughput, latency percentiles, per-client statistics, message
counts and the verdict into a :class:`ScenarioResult`.
:func:`run_scenario` does all three in one call (``python -m repro run
<dsn>``); a caller that must watch the run attaches its observer between
``build`` and ``drive``.  :class:`RunJob` is the picklable unit of work the
sweep and the campaigns hand to worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Union

from repro.api.drivers import build
from repro.api.scenario import Scenario
from repro.core.deployment import ThreeTierDeployment
from repro.core.spec import SpecReport
from repro.workload.generator import ClosedLoop, LoadGenerator, OpenLoop, RunStatistics


def load_generator_for(scenario: Scenario,
                       horizon_per_request: float = 1_000_000.0,
                       max_events: int = 5_000_000) -> LoadGenerator:
    """The load generator a scenario's ``rate``/``arrival`` ask for."""
    if scenario.rate > 0:
        return OpenLoop(rate=scenario.rate, arrival=scenario.arrival,
                        horizon_per_request=horizon_per_request,
                        max_events=max_events)
    return ClosedLoop(horizon_per_request=horizon_per_request, max_events=max_events)


@dataclass
class ScenarioResult:
    """Everything one scenario run produced."""

    scenario: Scenario
    dsn: str
    requested: int
    statistics: RunStatistics
    message_counts: dict[str, int]
    total_messages: int
    spec: SpecReport

    @property
    def delivered(self) -> int:
        """Number of requests whose committed result reached the client."""
        return self.statistics.count

    @property
    def ok(self) -> bool:
        """Every request delivered and every checked property holds."""
        return self.delivered == self.requested and self.spec.ok

    def summary(self) -> str:
        """A compact multi-line report (what the CLI prints)."""
        stats = self.statistics
        scenario = self.scenario
        if scenario.rate > 0:
            load = (f"open loop @ {scenario.rate:g}/s {scenario.arrival}"
                    f" over {scenario.num_clients} client(s)")
        else:
            load = f"closed loop over {scenario.num_clients} client(s)"
        lines = [
            f"scenario   {self.dsn}",
            f"protocol   {scenario.protocol}   workload {scenario.workload}"
            f"   seed {scenario.seed}",
            f"load       {load}",
            f"requests   {self.delivered}/{self.requested} delivered"
            f"   attempts mean {stats.mean_attempts:.1f}"
            f"   throughput {stats.throughput:.1f} req/s",
            f"latency    mean {stats.mean_latency:.1f} ms"
            f"   p50 {stats.p50:.1f}   p95 {stats.p95:.1f}"
            f"   p99 {stats.p99:.1f}   max {stats.max_latency:.1f}",
            f"messages   {self.total_messages} sent"
            f" ({self._top_message_types()})",
            f"spec       {self.spec.summary()}",
        ]
        if len(stats.by_client) > 1:
            per_client = "   ".join(
                f"{name} {leaf.count} req p50 {leaf.p50:.1f}"
                for name, leaf in stats.by_client.items())
            lines.insert(5, f"clients    {per_client}")
        if len(stats.by_database) > 1 or any(
                db.in_doubt for db in stats.by_database.values()):
            per_db = "   ".join(
                f"{name} {db.commits}c/{db.aborts}a"
                + (f"/{db.in_doubt}?" if db.in_doubt else "")
                for name, db in stats.by_database.items())
            lines.insert(5, f"databases  {per_db}")
        return "\n".join(lines)

    def _top_message_types(self) -> str:
        """The four most-sent message types."""
        ranked = sorted(self.message_counts.items(),
                        key=lambda item: (-item[1], item[0]))
        head = ", ".join(f"{name}={count}" for name, count in ranked[:4])
        return head + (", ..." if len(ranked) > 4 else "")


@dataclass(frozen=True)
class RunJob:
    """Picklable unit of work: one scenario, its requests per client, and
    the horizon per request and settle time of :func:`drive`."""

    scenario: Scenario
    requests: int
    horizon: float = 1_000_000.0
    settle: float = 5_000.0


def drive(system: ThreeTierDeployment, requests: int, *,
          horizon_per_request: float = 1_000_000.0,
          settle: float = 5_000.0,
          check_termination: Optional[bool] = None,
          max_events: int = 5_000_000) -> ScenarioResult:
    """Run a built system's workload, let it settle, judge it, report.

    ``requests`` workload requests are issued *per client*: a closed loop
    drives every client concurrently with that many back-to-back requests,
    an open loop (``scenario.rate > 0``) injects
    ``requests * num_clients`` arrivals at the configured rate, round-robined
    over the clients.  After the last delivery the simulation runs ``settle``
    further milliseconds so cleanup traffic (fail-over, decides,
    acknowledgements) lands in the trace before the specification is checked.
    ``check_termination`` defaults to *auto*: termination properties are only
    enforced when every request was delivered and no client was deliberately
    crashed.  The system stays open, so the caller can still read its trace.
    """
    scenario = system.scenario
    generator = load_generator_for(scenario, horizon_per_request=horizon_per_request,
                                   max_events=max_events)
    statistics = generator.run(system, requests)
    if settle > 0:
        system.run(until=system.sim.now + settle)
    if check_termination is None:
        check_termination = statistics.undelivered == 0 and not scenario.faults_a_client
    spec = system.check_spec(check_termination=check_termination)
    return ScenarioResult(
        scenario=scenario,
        dsn=scenario.to_dsn(),
        requested=requests * scenario.num_clients,
        statistics=statistics,
        message_counts=dict(system.stats.by_type_sent),
        total_messages=system.stats.sent,
        spec=spec,
    )


def run_scenario(scenario: Union[Scenario, str], requests: int = 1,
                 settle: float = 5_000.0, **build_overrides: Any) -> ScenarioResult:
    """Build ``scenario`` (a :class:`Scenario` or DSN string), drive it, close it.

    ``requests`` and ``settle`` are :func:`drive`'s; extra keyword arguments
    are forwarded to :func:`repro.api.build` (a workload object, initial
    data, the local processes of a distributed run).
    """
    if isinstance(scenario, str):
        scenario = Scenario.from_dsn(scenario)
    system = build(scenario, **build_overrides)
    try:
        return drive(system, requests, settle=settle)
    finally:
        # Real-runtime backends hold OS resources (sockets, an event loop);
        # the sim backend's close() is a no-op, so this is safe everywhere.
        system.close()

"""Load generators: traffic shapes and run statistics.

The paper measures a closed loop -- one client issuing identical transactions
back to back -- and that is the :class:`ClosedLoop` generator with one client.
The traffic engine generalises it to every client of a deployment at once:

* :class:`ClosedLoop` drives *every* client concurrently in virtual time; each
  client issues its next request as soon as the previous one delivered.
  Offered load adapts to the system's speed.
* :class:`OpenLoop` injects requests at a target arrival rate (Poisson or
  uniform arrivals) independent of completions, round-robined over the
  clients.  Offered load is fixed; queueing shows up as response time.

Both shapes return a :class:`RunStatistics` with throughput, interpolated
percentiles and per-client breakdowns.  They stream: a planned request is
referenced only until it is issued, its statistics are folded in when it
delivers, and from then on neither the generator nor the client holds its
handle: a finished request leaves only its numbers behind.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.core.types import Request
from repro.metrics.percentiles import percentile as _interpolated_percentile

ARRIVAL_POISSON = "poisson"
ARRIVAL_UNIFORM = "uniform"

ARRIVAL_PROCESSES = (ARRIVAL_POISSON, ARRIVAL_UNIFORM)


@dataclass
class DatabaseStatistics:
    """Per-database (shard) outcome counters of one run.

    ``commits``/``aborts`` count distinct transactions the database decided
    (one that aborted and later committed counts as a commit);
    ``in_doubt`` is the number of transactions still prepared-but-undecided
    when the measurement ended.  On a partitioned tier these make shard
    imbalance visible without reading traces.
    """

    commits: int = 0
    aborts: int = 0
    in_doubt: int = 0


@dataclass
class RunStatistics:
    """Latency and throughput statistics of one load-generation run.

    ``latencies`` are client-observed response times in virtual milliseconds
    (for an open loop they include the time a request queued at its client);
    ``service_latencies`` exclude that queueing -- they are what the protocol
    itself cost, the right input for latency-component breakdowns.  For a
    closed loop the two coincide.  ``elapsed`` is the virtual time the
    measurement covered; ``by_client`` holds one leaf :class:`RunStatistics`
    per client.
    """

    latencies: list[float] = field(default_factory=list)
    service_latencies: list[float] = field(default_factory=list)
    attempts: list[int] = field(default_factory=list)
    undelivered: int = 0
    aborted_results: int = 0
    elapsed: float = 0.0
    by_client: dict[str, "RunStatistics"] = field(default_factory=dict)
    by_database: dict[str, DatabaseStatistics] = field(default_factory=dict)

    @property
    def count(self) -> int:
        """Number of delivered requests."""
        return len(self.latencies)

    @property
    def mean_latency(self) -> float:
        """Mean client-observed latency."""
        return sum(self.latencies) / len(self.latencies) if self.latencies else 0.0

    @property
    def max_latency(self) -> float:
        """Worst client-observed latency."""
        return max(self.latencies) if self.latencies else 0.0

    @property
    def mean_service_latency(self) -> float:
        """Mean protocol-only latency (no client-side queueing)."""
        if not self.service_latencies:
            return self.mean_latency
        return sum(self.service_latencies) / len(self.service_latencies)

    @property
    def mean_attempts(self) -> float:
        """Mean number of intermediate results per request."""
        return sum(self.attempts) / len(self.attempts) if self.attempts else 0.0

    @property
    def throughput(self) -> float:
        """Delivered requests per *second* of virtual time."""
        if self.elapsed <= 0.0:
            return 0.0
        return self.count / (self.elapsed / 1000.0)

    def percentile(self, fraction: float) -> float:
        """Linear-interpolation latency percentile (``fraction`` in [0, 1])."""
        return _interpolated_percentile(self.latencies, fraction)

    @property
    def p50(self) -> float:
        """Median latency."""
        return self.percentile(0.50)

    @property
    def p95(self) -> float:
        """95th-percentile latency."""
        return self.percentile(0.95)

    @property
    def p99(self) -> float:
        """99th-percentile latency."""
        return self.percentile(0.99)

    def merge(self, client: str, other: "RunStatistics") -> None:
        """Fold one client's leaf statistics into this aggregate."""
        self.latencies.extend(other.latencies)
        self.service_latencies.extend(other.service_latencies)
        self.attempts.extend(other.attempts)
        self.undelivered += other.undelivered
        self.aborted_results += other.aborted_results
        self.by_client[client] = other


class LoadGenerator:
    """Base class of the traffic shapes.

    A generator drives a deployment (the
    :class:`~repro.core.deployment.ThreeTierDeployment` that
    :func:`repro.api.build` returns) and collects a :class:`RunStatistics`.

    Parameters
    ----------
    horizon_per_request:
        Virtual-time budget per planned request; the run stops at
        ``start + horizon_per_request * total_requests`` even if some
        requests never delivered.
    max_events:
        Simulator-callback budget of the run (the livelock guard); soak runs
        with hundreds of thousands of requests need more than the default.
    """

    def __init__(self, horizon_per_request: float = 1_000_000.0,
                 max_events: int = 5_000_000):
        self.horizon_per_request = horizon_per_request
        self.max_events = max_events

    def _plan(self, deployment: Any, requests: int) -> dict[str, deque[Request]]:
        """``requests`` of the deployment's ``standard_request`` per client,
        one queue each, created client by client.  The shapes pop each
        request off its queue when they issue it, so a request is referenced
        here only until then."""
        if requests < 0:
            raise ValueError(f"negative request count: {requests}")
        factory = deployment.standard_request
        return {name: deque(factory() for _ in range(requests))
                for name in deployment.clients}

    def run(self, deployment: Any, requests: int) -> RunStatistics:
        """Drive every client of ``deployment`` with ``requests`` requests
        each in this traffic shape and collect statistics."""
        raise NotImplementedError

    def _latency_of(self, issued: Any) -> Optional[float]:
        """Which latency a delivered request contributes (shape-specific)."""
        return issued.latency


class _Tally:
    """The statistics of one run, folded in as each request delivers.

    A delivered request leaves its latencies, attempts and aborted-result
    count in its client's leaf and is forgotten.  Only the handles still in
    flight are kept, for :meth:`collect`.  A client serves one request at a
    time, so every leaf list is in issue order.
    """

    __slots__ = ("latency_of", "planned", "leaves", "in_flight", "done")

    def __init__(self, plan: dict[str, deque[Request]],
                 latency_of: Callable[[Any], Optional[float]]):
        self.latency_of = latency_of
        self.planned = {name: len(queue) for name, queue in plan.items()}
        self.leaves = {name: RunStatistics() for name in plan}
        self.in_flight: dict[Any, str] = {}
        #: Requests delivered, plus planned ones lost to a crashed client.
        self.done = 0

    @property
    def total(self) -> int:
        """Requests planned over every client."""
        return sum(self.planned.values())

    def track(self, client: str, issued: Any,
              then: Optional[Callable[[str], None]] = None) -> None:
        """Fold ``issued`` into ``client``'s leaf when it delivers, then call
        ``then(client)``."""
        self.in_flight[issued] = client

        def delivered(_result: Any) -> None:
            del self.in_flight[issued]
            leaf = self.leaves[client]
            leaf.aborted_results += len(issued.aborted_results)
            latency = self.latency_of(issued)
            if latency is not None:
                leaf.latencies.append(latency)
                if issued.latency is not None:
                    leaf.service_latencies.append(issued.latency)
                leaf.attempts.append(issued.attempts)
            self.done += 1
            if then is not None:
                then(client)

        issued.future.on_resolve(delivered)

    def collect(self, deployment: Any, start: float) -> RunStatistics:
        """Aggregate per-client and overall statistics after the run."""
        stats = RunStatistics(elapsed=deployment.sim.now - start)
        for issued, client in self.in_flight.items():
            self.leaves[client].aborted_results += len(issued.aborted_results)
        for client, leaf in self.leaves.items():
            leaf.elapsed = stats.elapsed
            # Whatever did not deliver counts as undelivered offered load:
            # requests still in flight, and planned ones never issued (the
            # client crashed mid-run, or the run hit its horizon).
            leaf.undelivered = self.planned[client] - len(leaf.latencies)
            stats.merge(client, leaf)
        # Distinct transactions per database, as the deployment's spec
        # monitor has seen them decided since build time (no trace scan).
        for name, server in deployment.db_servers.items():
            commits, aborts = deployment.spec_monitor.outcome_counts(name)
            stats.by_database[name] = DatabaseStatistics(
                commits=commits, aborts=aborts, in_doubt=len(server.in_doubt()))
        return stats


class ClosedLoop(LoadGenerator):
    """Every client issues its next request when the previous delivered:
    the paper's back-to-back measurement loop."""

    def run(self, deployment: Any, requests: int) -> RunStatistics:
        sim = deployment.sim
        queues = self._plan(deployment, requests)
        tally = _Tally(queues, self._latency_of)
        total = tally.total
        start = sim.now

        def issue_next(client: str) -> None:
            queue = queues[client]
            if not queue:
                return
            if not deployment.clients[client].up:
                # Lost offered load (the client crashed): account it as
                # "done" so the run terminates; the tally reports it as
                # undelivered because the requests were never issued.
                tally.done += len(queue)
                queue.clear()
                return
            tally.track(client, deployment.issue(queue.popleft(), client), then=issue_next)

        for client in queues:
            issue_next(client)
        if total:
            sim.run_until(lambda: tally.done >= total,
                          until=start + self.horizon_per_request * total,
                          max_events=self.max_events)
        return tally.collect(deployment, start)


class OpenLoop(LoadGenerator):
    """Inject requests at a fixed arrival rate, independent of completions.

    Parameters
    ----------
    rate:
        Target arrival rate in requests per *second* of virtual time.
    arrival:
        ``"poisson"`` (exponential inter-arrivals) or ``"uniform"``
        (evenly spaced).  Arrival draws come from the simulator's
        deterministic ``load.arrivals`` stream, so a given deployment seed
        always produces the same arrival process.

    Arrivals are assigned to the clients round-robin.  After the last
    arrival the run goes on (up to the horizon) so in-flight requests can
    finish.  A client
    processes its requests one at a time, so when arrivals outpace service
    the surplus queues at the client and the measured response time
    (arrival to delivery, :attr:`IssuedRequest.sojourn`) grows -- exactly the
    open-loop behaviour a closed loop cannot show.
    """

    def __init__(self, rate: float, arrival: str = ARRIVAL_POISSON,
                 horizon_per_request: float = 1_000_000.0,
                 max_events: int = 5_000_000):
        super().__init__(horizon_per_request=horizon_per_request, max_events=max_events)
        if rate <= 0:
            raise ValueError(f"open-loop rate must be positive, got {rate}")
        if arrival not in ARRIVAL_PROCESSES:
            raise ValueError(f"unknown arrival process {arrival!r}; "
                             f"expected one of {ARRIVAL_PROCESSES}")
        self.rate = rate
        self.arrival = arrival

    def run(self, deployment: Any, requests: int) -> RunStatistics:
        sim = deployment.sim
        plan = self._plan(deployment, requests)
        tally = _Tally(plan, self._latency_of)
        total = tally.total
        start = sim.now

        def arrive(arrival: tuple[str, Request]) -> None:
            client, request = arrival
            if not deployment.clients[client].up:
                # Lost offered load (the client is down): count it as done
                # so the run terminates; the tally reports it as undelivered.
                tally.done += 1
                return
            tally.track(client, deployment.issue(request, client))

        # One global arrival process, dealt over the clients round-robin in
        # a fixed order so the schedule is deterministic.  Each arrival event
        # holds its request until it fires; the plan's queues end up empty.
        rng = sim.rng("load.arrivals")
        mean = 1000.0 / self.rate  # virtual milliseconds between arrivals
        clock = 0.0
        for _ in range(max(map(len, plan.values()), default=0)):
            for client, queue in plan.items():
                if queue:
                    clock += mean if self.arrival == ARRIVAL_UNIFORM \
                        else rng.expovariate(1.0 / mean)
                    sim.schedule_call(clock, arrive, (client, queue.popleft()),
                                      name="arrival")
        if total:
            sim.run_until(lambda: tally.done >= total,
                          until=start + self.horizon_per_request * total,
                          max_events=self.max_events)
        return tally.collect(deployment, start)

    def _latency_of(self, issued: Any) -> Optional[float]:
        # Open-loop response time includes the queueing delay at the client.
        return issued.sojourn

"""Load generators: request streams, traffic shapes and run statistics.

The paper measures a closed loop -- one client issuing identical transactions
back to back -- and that is the :class:`ClosedLoop` generator with one client.
The traffic engine generalises it to every client of a deployment at once:

* :class:`ClosedLoop` drives *every* client concurrently in virtual time; each
  client issues its next request as soon as the previous one delivered (plus
  an optional think time).  Offered load adapts to the system's speed.
* :class:`OpenLoop` injects requests at a target arrival rate (Poisson or
  uniform arrivals) independent of completions, round-robined over the
  clients.  Offered load is fixed; queueing shows up as response time.

Both shapes return a :class:`RunStatistics` with throughput, interpolated
percentiles and per-client breakdowns.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence, Union

from repro.core.types import Request
from repro.metrics.percentiles import percentile as _interpolated_percentile

ARRIVAL_POISSON = "poisson"
ARRIVAL_UNIFORM = "uniform"

ARRIVAL_PROCESSES = (ARRIVAL_POISSON, ARRIVAL_UNIFORM)


@dataclass
class RequestStream:
    """A reproducible stream of requests drawn from a workload."""

    factory: Callable[[random.Random], Request]
    seed: int = 0
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)

    def take(self, count: int) -> list[Request]:
        """The next ``count`` requests of the stream."""
        return [self.factory(self._rng) for _ in range(count)]

    def __iter__(self):
        while True:
            yield self.factory(self._rng)


@dataclass
class DatabaseStatistics:
    """Per-database (shard) outcome counters of one run.

    ``commits``/``aborts`` count ``Decide`` outcomes applied at the database;
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
    per driven client.
    """

    latencies: list[float] = field(default_factory=list)
    service_latencies: list[float] = field(default_factory=list)
    attempts: list[int] = field(default_factory=list)
    undelivered: int = 0
    aborted_results: int = 0
    elapsed: float = 0.0
    by_client: dict[str, "RunStatistics"] = field(default_factory=dict)
    by_database: dict[str, DatabaseStatistics] = field(default_factory=dict)
    #: Admission-control counters of the application tier: ``shed_messages``
    #: (messages refused at a full mailbox) and ``mailbox_peak`` (highest
    #: backlog any one server reached).  Zeros when no bound is configured.
    saturation: dict[str, int] = field(default_factory=dict)

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

    A generator drives a deployment (a
    :class:`~repro.core.deployment.ThreeTierDeployment`, bare or behind its
    :class:`~repro.api.drivers.RunningSystem` facade) and collects a
    :class:`RunStatistics`.

    Parameters
    ----------
    clients:
        Which clients to drive: ``None`` for every client of the deployment,
        an ``int`` for the first N, or an explicit sequence of names.
    horizon_per_request:
        Virtual-time budget per planned request; the run stops at
        ``start + horizon_per_request * total_requests`` even if some
        requests never delivered.
    max_events:
        Simulator-callback budget of the run (the livelock guard); soak runs
        with hundreds of thousands of requests need more than the default.
    """

    def __init__(self, clients: Union[None, int, Sequence[str]] = None,
                 horizon_per_request: float = 1_000_000.0,
                 max_events: int = 5_000_000):
        self.clients = clients
        self.horizon_per_request = horizon_per_request
        self.max_events = max_events

    # ------------------------------------------------------------------ plan

    def _client_names(self, deployment: Any) -> list[str]:
        names = list(deployment.clients)
        if self.clients is None:
            return names
        if isinstance(self.clients, int):
            if not 1 <= self.clients <= len(names):
                raise ValueError(f"deployment has {len(names)} client(s), "
                                 f"cannot drive {self.clients}")
            return names[:self.clients]
        unknown = [name for name in self.clients if name not in deployment.clients]
        if unknown:
            raise ValueError(f"unknown client(s) {unknown} "
                             f"(deployment has {names})")
        return list(self.clients)

    def _plan(self, deployment: Any, requests: Union[int, Sequence[Request]],
              request_factory: Optional[Callable[[], Request]] = None
              ) -> dict[str, list[Request]]:
        """Assign concrete requests to clients.

        An ``int`` means that many requests *per client*, created by
        ``request_factory`` (default: the deployment's ``standard_request``).
        An explicit sequence is dealt round-robin over the driven clients.
        """
        names = self._client_names(deployment)
        if isinstance(requests, int):
            if requests < 0:
                raise ValueError(f"negative request count: {requests}")
            factory = request_factory
            if factory is None:
                factory = getattr(deployment, "standard_request", None)
            if factory is None and requests > 0:
                raise ValueError("an int request count needs a request_factory "
                                 "(or a deployment with standard_request)")
            return {name: [factory() for _ in range(requests)] for name in names}
        plan: dict[str, list[Request]] = {name: [] for name in names}
        for index, request in enumerate(requests):
            plan[names[index % len(names)]].append(request)
        return plan

    # ------------------------------------------------------------------- run

    def run(self, deployment: Any, requests: Union[int, Sequence[Request]],
            request_factory: Optional[Callable[[], Request]] = None) -> RunStatistics:
        """Drive ``deployment`` with this traffic shape and collect statistics."""
        raise NotImplementedError

    def _collect(self, deployment: Any, start: float,
                 issued_by_client: dict[str, list[Any]],
                 planned_by_client: dict[str, int]) -> RunStatistics:
        """Aggregate per-client and overall statistics after the run."""
        stats = RunStatistics(elapsed=deployment.sim.now - start)
        for client, issued_list in issued_by_client.items():
            leaf = RunStatistics(elapsed=stats.elapsed)
            for issued in issued_list:
                leaf.aborted_results += len(issued.aborted_results)
                latency = self._latency_of(issued)
                if issued.delivered and latency is not None:
                    leaf.latencies.append(latency)
                    if issued.latency is not None:
                        leaf.service_latencies.append(issued.latency)
                    leaf.attempts.append(issued.attempts)
                else:
                    leaf.undelivered += 1
            # Planned requests that were never issued (e.g. the client
            # crashed mid-run) still count as undelivered offered load.
            leaf.undelivered += planned_by_client[client] - len(issued_list)
            stats.merge(client, leaf)
        # Distinct transactions per database, as counted since build time by
        # the deployment's DatabaseOutcomeStream (no trace scan).
        for name, server in deployment.db_servers.items():
            stats.by_database[name] = DatabaseStatistics(
                commits=deployment.db_outcomes.commits(name),
                aborts=deployment.db_outcomes.aborts(name),
                in_doubt=len(server.in_doubt()))
        stats.saturation = deployment.saturation_stats()
        return stats

    def _latency_of(self, issued: Any) -> Optional[float]:
        """Which latency a delivered request contributes (shape-specific)."""
        return issued.latency


class ClosedLoop(LoadGenerator):
    """Every driven client issues its next request when the previous delivered.

    ``think_time`` inserts a virtual-time pause between a delivery and the
    next issue (the classic interactive-user model); ``0`` reproduces the
    paper's back-to-back measurement loop.
    """

    def __init__(self, clients: Union[None, int, Sequence[str]] = None,
                 think_time: float = 0.0,
                 horizon_per_request: float = 1_000_000.0,
                 max_events: int = 5_000_000):
        super().__init__(clients=clients, horizon_per_request=horizon_per_request,
                         max_events=max_events)
        if think_time < 0:
            raise ValueError(f"negative think time: {think_time}")
        self.think_time = think_time

    def run(self, deployment: Any, requests: Union[int, Sequence[Request]],
            request_factory: Optional[Callable[[], Request]] = None) -> RunStatistics:
        sim = deployment.sim
        plan = self._plan(deployment, requests, request_factory)
        queues = {name: list(reqs) for name, reqs in plan.items()}
        planned = {name: len(reqs) for name, reqs in plan.items()}
        total = sum(planned.values())
        issued_by_client: dict[str, list[Any]] = {name: [] for name in plan}
        done = [0]
        start = sim.now

        def issue_next(client: str) -> None:
            queue = queues[client]
            if not queue:
                return
            if not deployment.clients[client].up:
                # Lost offered load (the client crashed): account it as
                # "done" so the run terminates; _collect reports it as
                # undelivered because the requests were never issued.
                done[0] += len(queue)
                queue.clear()
                return
            request = queue.pop(0)
            issued = deployment.issue(request, client)
            issued_by_client[client].append(issued)

            def on_delivered(_result: Any) -> None:
                done[0] += 1
                if self.think_time > 0:
                    sim.schedule(self.think_time, lambda: issue_next(client),
                                 name=f"{client}:think")
                else:
                    issue_next(client)

            issued.future.on_resolve(on_delivered)

        for client in plan:
            issue_next(client)
        if total:
            sim.run_until(lambda: done[0] >= total,
                          until=start + self.horizon_per_request * total,
                          max_events=self.max_events)
        return self._collect(deployment, start, issued_by_client, planned)


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
    drain:
        Whether to keep running (up to the horizon) after the last arrival so
        in-flight requests can finish; ``False`` cuts the measurement at the
        last arrival.

    Arrivals are assigned to the driven clients round-robin.  A client
    processes its requests one at a time, so when arrivals outpace service
    the surplus queues at the client and the measured response time
    (arrival to delivery, :attr:`IssuedRequest.sojourn`) grows -- exactly the
    open-loop behaviour a closed loop cannot show.
    """

    def __init__(self, rate: float, arrival: str = ARRIVAL_POISSON,
                 clients: Union[None, int, Sequence[str]] = None,
                 drain: bool = True,
                 horizon_per_request: float = 1_000_000.0,
                 max_events: int = 5_000_000):
        super().__init__(clients=clients, horizon_per_request=horizon_per_request,
                         max_events=max_events)
        if rate <= 0:
            raise ValueError(f"open-loop rate must be positive, got {rate}")
        if arrival not in ARRIVAL_PROCESSES:
            raise ValueError(f"unknown arrival process {arrival!r}; "
                             f"expected one of {ARRIVAL_PROCESSES}")
        self.rate = rate
        self.arrival = arrival
        self.drain = drain

    def _interarrivals(self, rng: random.Random, count: int) -> list[float]:
        mean = 1000.0 / self.rate  # virtual milliseconds between arrivals
        if self.arrival == ARRIVAL_UNIFORM:
            return [mean] * count
        return [rng.expovariate(1.0 / mean) for _ in range(count)]

    def run(self, deployment: Any, requests: Union[int, Sequence[Request]],
            request_factory: Optional[Callable[[], Request]] = None) -> RunStatistics:
        sim = deployment.sim
        plan = self._plan(deployment, requests, request_factory)
        planned = {name: len(reqs) for name, reqs in plan.items()}
        total = sum(planned.values())
        issued_by_client: dict[str, list[Any]] = {name: [] for name in plan}
        done = [0]
        start = sim.now

        # One global arrival process, dealt over the clients round-robin in
        # a fixed order so the schedule is deterministic.
        arrivals: list[tuple[str, Request]] = []
        for index in range(max(planned.values(), default=0)):
            for client, queue in plan.items():
                if index < len(queue):
                    arrivals.append((client, queue[index]))
        rng = sim.rng("load.arrivals")
        clock = 0.0

        def inject(client: str, request: Request) -> None:
            if not deployment.clients[client].up:
                # Lost offered load (the client is down): count it as done
                # so the run terminates; _collect reports it as undelivered.
                done[0] += 1
                return
            issued = deployment.issue(request, client)
            issued_by_client[client].append(issued)
            issued.future.on_resolve(lambda _result: done.__setitem__(0, done[0] + 1))

        for delay, (client, request) in zip(self._interarrivals(rng, total), arrivals):
            clock += delay
            sim.schedule(clock, lambda c=client, r=request: inject(c, r),
                         name=f"{client}:arrival")
        if total:
            deadline = (start + self.horizon_per_request * total) if self.drain \
                else start + clock
            sim.run_until(lambda: done[0] >= total, until=deadline,
                          max_events=self.max_events)
        return self._collect(deployment, start, issued_by_client, planned)

    def _latency_of(self, issued: Any) -> Optional[float]:
        # Open-loop response time includes the queueing delay at the client.
        return issued.sojourn

"""Deployment builder: assemble a complete three-tier system in one call.

The paper's comparison holds the client and database tiers fixed and swaps
only the middle tier, and so does this module: :class:`ThreeTierDeployment`
wires everything the four protocols share -- kernel, trace retention, the
streaming observers, the three-tier network, database servers, clients and
the run surface -- from a single :class:`DeploymentConfig`, and each protocol
subclasses it with its own application servers.  :class:`EtxDeployment` is
the e-Transaction middle tier (consensus hosts and wo-registers, failure
detectors, online resharding); the comparison protocols live in
:mod:`repro.baselines`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional

from repro.consensus.synod import ConsensusHost
from repro.core.appserver import ApplicationServer, RegisterPair
from repro.core.client import Client, IssuedRequest
from repro.core.dataserver import DatabaseServer
from repro.core.reshard import RESHARD_COORDINATOR, ReshardCoordinator
from repro.core.sharding import (
    KNOWN_PLACEMENTS,
    PLACEMENT_REPLICATE,
    ShardDirectory,
    Sharding,
    validate_participants,
)
from repro.core.spec import SpecMonitor, SpecReport
from repro.core.timing import DatabaseTiming, ProtocolTiming
from repro.core.types import Request
from repro.failure.detectors import (
    EventuallyPerfectFailureDetector,
    FailureDetector,
    HeartbeatFailureDetector,
    PerfectFailureDetector,
)
from repro.failure.injection import FaultSchedule
from repro.metrics.latency import LatencyComponentStream
from repro.metrics.stream import DatabaseOutcomeStream
from repro.net.latency import FixedLatency, PerLinkLatency, three_tier_latency
from repro.registers.consensus_backed import ConsensusRegisterArray
from repro.registers.local import LocalRegisterArray, LocalRegisterStore
from repro.runtime.base import RuntimeSpec, create_kernel, create_network
from repro.sim.process import Process
from repro.sim.tracing import parse_retention

REGISTER_CONSENSUS = "consensus"
REGISTER_LOCAL = "local"

FD_ORACLE = "oracle"
FD_HEARTBEAT = "heartbeat"


def default_business_logic(request: Request) -> Callable[[Any], Any]:
    """Fallback business logic: store the request parameters under one key.

    Real experiments use the workloads in :mod:`repro.workload`; this default
    keeps the deployment usable out of the box for protocol-level tests.
    """

    def logic(view: Any) -> Any:
        previous = view.read(request.operation, 0)
        view.write(request.operation, {"count": (previous["count"] + 1)
                                       if isinstance(previous, dict) else 1,
                                       "params": dict(request.params)})
        return {"operation": request.operation, "applied": True}

    return logic


@dataclass
class DeploymentConfig:
    """Knobs of a three-tier deployment, whichever protocol runs its middle tier.

    The register, failure-detector, reshard and mailbox knobs are consumed
    by the e-Transaction middle tier only, ``coordinator_log_latency`` by the
    2PC coordinator only.
    """

    # 0 = the middle-tier size the deployment class runs by default (3 for
    # etx, 2 for primary-backup, 1 otherwise); resolved when it is built.
    num_app_servers: int = 0
    num_db_servers: int = 1
    num_clients: int = 1
    register_mode: str = REGISTER_CONSENSUS
    seed: int = 0
    loss_probability: float = 0.0
    detection_delay: float = 5.0
    failure_detector: str = FD_ORACLE
    heartbeat_interval: float = 5.0
    heartbeat_timeout: float = 20.0
    client_app_latency: float = 2.5
    app_app_latency: float = 2.25
    app_db_latency: float = 0.5
    db_timing: DatabaseTiming = field(default_factory=DatabaseTiming)
    protocol_timing: ProtocolTiming = field(default_factory=ProtocolTiming)
    coordinator_log_latency: float = 12.5
    initial_data: dict[str, Any] = field(default_factory=dict)
    business_logic: Callable[[Request], Callable[[Any], Any]] = default_business_logic
    placement: str = PLACEMENT_REPLICATE
    trace_retention: str = "full"
    # Which kernel/transport pair executes the deployment: the discrete-event
    # simulator (default) or an asyncio event loop with real TCP sockets.
    runtime: RuntimeSpec = field(default_factory=RuntimeSpec)
    # Online reconfiguration: when enabled, the deployment gets a live
    # ShardDirectory, a reconfiguration coordinator, and (optionally) standby
    # database servers that start empty and receive keys when the tier grows.
    # Off by default so static deployments keep byte-identical process/thread
    # structure (and therefore byte-identical traces).
    enable_reshard: bool = False
    num_standby_db_servers: int = 0
    # Admission control: bound on each application server's mailbox (0 =
    # unbounded, the historical behaviour).  A server at its bound sheds the
    # incoming message with a traced ``overload`` event.
    mailbox_limit: int = 0

    def __post_init__(self) -> None:
        if self.num_app_servers < 0 or self.num_db_servers < 1 or self.num_clients < 1:
            raise ValueError("a deployment needs at least one process per tier")
        if self.register_mode not in (REGISTER_CONSENSUS, REGISTER_LOCAL):
            raise ValueError(f"unknown register mode {self.register_mode!r}")
        if self.failure_detector not in (FD_ORACLE, FD_HEARTBEAT):
            raise ValueError(f"unknown failure detector mode {self.failure_detector!r}")
        if self.placement not in KNOWN_PLACEMENTS:
            raise ValueError(f"unknown placement {self.placement!r}; known: "
                             f"{', '.join(KNOWN_PLACEMENTS)}")
        if self.num_standby_db_servers < 0:
            raise ValueError("num_standby_db_servers must be >= 0")
        if self.mailbox_limit < 0:
            raise ValueError("mailbox_limit must be >= 0 (0 = unbounded)")
        if self.num_standby_db_servers and not self.enable_reshard:
            raise ValueError("standby database servers need enable_reshard")
        if self.enable_reshard and self.placement == PLACEMENT_REPLICATE:
            raise ValueError("online resharding needs a partitioned placement "
                             "(hash or mod)")
        if self.enable_reshard and self.runtime.kind != "sim":
            raise ValueError("online resharding is only supported on the "
                             "simulated runtime")
        parse_retention(self.trace_retention)  # fail fast on bad policies

    @property
    def sharding(self) -> Sharding:
        """Key-placement map of the database tier under this config (epoch 0)."""
        return Sharding(tuple(self.db_server_names), self.placement)

    @property
    def client_names(self) -> list[str]:
        return [f"c{i + 1}" for i in range(self.num_clients)]

    @property
    def app_server_names(self) -> list[str]:
        return [f"a{i + 1}" for i in range(self.num_app_servers)]

    @property
    def db_server_names(self) -> list[str]:
        return [f"d{i + 1}" for i in range(self.num_db_servers)]

    @property
    def all_db_server_names(self) -> list[str]:
        """Running shards plus reshard standbys, in growth order."""
        return [f"d{i + 1}" for i in
                range(self.num_db_servers + self.num_standby_db_servers)]


class ThreeTierDeployment:
    """A fully wired client / application-server / database system.

    Owns everything the protocols have in common; a subclass provides the
    middle tier by overriding :meth:`_build_app_servers` (and whatever else
    of the build differs for it).
    """

    #: Middle-tier size when the config leaves ``num_app_servers`` at 0, and
    #: the smallest one the protocol can run with.
    default_app_servers = 1
    min_app_servers = 1
    db_server_class: type[DatabaseServer] = DatabaseServer
    # Online reconfiguration is e-Transaction machinery: only EtxDeployment
    # ever sets these, the shared code below just honours them.
    directory: Optional[ShardDirectory] = None
    reshard_coordinator: Optional[ReshardCoordinator] = None

    def __init__(self, config: Optional[DeploymentConfig] = None, **overrides: Any):
        if config is None:
            config = DeploymentConfig(**overrides)
        elif overrides:
            config = replace(config, **overrides)
        if config.num_app_servers == 0:
            config = replace(config, num_app_servers=self.default_app_servers)
        if config.num_app_servers < self.min_app_servers:
            raise ValueError(f"{type(self).__name__} needs at least "
                             f"{self.min_app_servers} application server(s), "
                             f"got {config.num_app_servers}")
        self.config = config
        self.sharding = config.sharding
        self.sim = create_kernel(config.runtime, seed=config.seed)
        self.sim.trace.set_retention(config.trace_retention)
        # Streaming observers subscribe before any process runs, so they see
        # the complete event stream regardless of the retention policy.
        self.spec_monitor = SpecMonitor.attach(
            self.sim.trace, config.all_db_server_names, config.client_names)
        self.db_outcomes = DatabaseOutcomeStream(
            self.sim.trace, config.all_db_server_names)
        self.latency_components = LatencyComponentStream(self.sim.trace)
        self.network = create_network(
            config.runtime, self.sim, latency=self._build_latency(),
            loss_probability=config.loss_probability,
            process_names=self._process_names())
        self.db_servers: dict[str, DatabaseServer] = {}
        self.app_servers: dict[str, Process] = {}
        self.clients: dict[str, Client] = {}
        self._build_processes()
        # Detectors come last: they hook (or spawn threads on) the registered
        # processes, and must do so before anything starts.
        self.failure_detector = self._build_failure_detector()
        self._start_all()

    # ------------------------------------------------------------------- build

    def _process_names(self) -> list[str]:
        """Every process of the run, in TCP port-assignment order."""
        config = self.config
        return (config.app_server_names + config.all_db_server_names
                + config.client_names)

    def _build_latency(self) -> PerLinkLatency:
        config = self.config
        return three_tier_latency(config.client_names, config.app_server_names,
                                  config.all_db_server_names,
                                  client_app_latency=config.client_app_latency,
                                  app_app_latency=config.app_app_latency,
                                  app_db_latency=config.app_db_latency)

    def _build_processes(self) -> None:
        """Create and register every process; registration order fixes the
        per-source message-id namespace, so it is the same for all protocols:
        databases, application servers, clients."""
        config = self.config
        app_names = config.app_server_names
        active = set(config.db_server_names)
        placement = self.directory if self.directory is not None else self.sharding
        for name in config.all_db_server_names:
            # Standby shards start empty; they receive keys through migration.
            initial = (self.sharding.shard_data(name, config.initial_data)
                       if name in active else {})
            server = self.db_server_class(
                self.sim, name, app_names,
                business_logic=config.business_logic, timing=config.db_timing,
                initial_data=initial, owns_key=placement.owner_predicate(name),
                directory=self.directory)
            self.network.register(server)
            self.db_servers[name] = server
        self._build_app_servers()
        for name in config.client_names:
            client = Client(self.sim, name, app_names, timing=config.protocol_timing,
                            default_primary=app_names[0])
            self.network.register(client)
            self.clients[name] = client

    def _build_app_servers(self) -> None:
        """Create, register and file under ``app_servers`` the middle tier."""
        raise NotImplementedError

    def _build_failure_detector(self) -> FailureDetector:
        """The detector of the run (what ``apply_faults`` hands to schedules)."""
        return PerfectFailureDetector(self.network)

    def _start_all(self) -> None:
        # In a distributed asyncio run (``serve --only``) every process object
        # exists (the protocols need the full membership lists), but only the
        # locally hosted ones spawn threads -- the rest are TCP peers.
        for group in (self.db_servers, self.app_servers, self.clients):
            for process in group.values():
                if self.network.hosts(process.name):
                    process.start()

    # --------------------------------------------------------------- shortcuts

    @property
    def client(self) -> Client:
        """The first (often only) client."""
        return self.clients[self.config.client_names[0]]

    @property
    def trace(self):
        """The shared trace recorder of this run."""
        return self.sim.trace

    def apply_faults(self, schedule: FaultSchedule) -> None:
        """Schedule a fault-injection plan against this deployment.

        In a distributed run each OS process injects only the faults it can
        act on locally (crashes/recoveries of its own processes, suspicions
        of its own observers); partitions apply everywhere, since each host
        drops its own outbound cross-group traffic.
        """
        if self.config.runtime.distributed:
            schedule = schedule.restricted_to(set(self.config.runtime.only))
        reshard = (self.reshard_coordinator.request
                   if self.reshard_coordinator is not None else None)
        schedule.apply(self.sim, self.network, self.failure_detector,
                       reshard=reshard)

    def saturation_stats(self) -> dict[str, int]:
        """Admission-control counters of the application tier.

        ``shed_messages`` counts messages refused at a full mailbox across all
        application servers; ``mailbox_peak`` is the highest backlog any one
        of them reached.  Both are zero when no bound is configured.
        """
        return {
            "shed_messages": sum(s.shed_messages for s in self.app_servers.values()),
            "mailbox_peak": max((s.mailbox_peak for s in self.app_servers.values()),
                                default=0),
        }

    def close(self) -> None:
        """Release runtime resources (TCP sockets, event loop); idempotent."""
        self.network.close()
        self.sim.close()

    # --------------------------------------------------------------- execution

    def issue(self, request: Request, client: Optional[str] = None) -> IssuedRequest:
        """Issue a request from the named (or first) client."""
        validate_participants(request, self.config.all_db_server_names)
        target = self.clients[client] if client is not None else self.client
        return target.issue(request)

    def run(self, until: Optional[float] = None) -> float:
        """Run the simulation (until the event queue drains or ``until``)."""
        return self.sim.run(until=until)

    def run_request(self, request: Request, client: Optional[str] = None,
                    horizon: float = 1_000_000.0) -> IssuedRequest:
        """Issue ``request`` and run until its result is delivered (or the horizon)."""
        issued = self.issue(request, client)
        self.sim.run_until(lambda: issued.delivered, until=horizon)
        return issued

    def check_spec(self, check_termination: bool = True) -> SpecReport:
        """Check the e-Transaction properties of the run so far.

        Answered by the online :class:`~repro.core.spec.SpecMonitor`, which
        has been folding the event stream in since the deployment was built
        -- byte-identical to replaying the full trace through the post-hoc
        checker, but independent of trace retention and O(transactions)
        instead of O(events squared).  The
        comparison protocols are *not expected* to satisfy every property
        under faults -- that is the paper's argument; the report quantifies
        which ones break and when.

        A distributed run observes only the trace slice of its locally
        hosted processes; the safety properties quantify over events (votes,
        commits, computations) that happened in peer OS processes, so
        checking them here would report phantom violations.  Such a run
        returns an explicitly empty verdict: nothing checked, nothing
        claimed.  Spec-check distributed runs by hosting every process in
        one OS process (the default) or by merging the peers' traces.
        """
        if self.config.runtime.distributed:
            return SpecReport(checked_properties=[])
        return self.spec_monitor.report(check_termination=check_termination)


class EtxDeployment(ThreeTierDeployment):
    """Three-tier deployment running the e-Transaction protocol."""

    default_app_servers = 3

    # ------------------------------------------------------------------- build

    def _process_names(self) -> list[str]:
        names = super()._process_names()
        return names + [RESHARD_COORDINATOR] if self.config.enable_reshard else names

    def _build_latency(self) -> PerLinkLatency:
        config = self.config
        latency = super()._build_latency()
        if config.enable_reshard:
            # The coordinator lives in the cluster next to the app tier, so
            # its migration traffic crosses the app<->db hop.
            for db_name in config.all_db_server_names:
                latency.set_link(RESHARD_COORDINATOR, db_name,
                                 FixedLatency(config.app_db_latency))
                latency.set_link(db_name, RESHARD_COORDINATOR,
                                 FixedLatency(config.app_db_latency))
        return latency

    def _build_processes(self) -> None:
        # The shared directory and coordinator exist only when the scenario
        # asked for resharding, so static runs keep byte-identical process
        # registration and thread structure.
        if self.config.enable_reshard:
            self.directory = ShardDirectory(self.sharding)
        super()._build_processes()
        if self.directory is not None:
            self.reshard_coordinator = ReshardCoordinator(
                self.sim, self.directory, self.config.all_db_server_names,
                retry_interval=self.config.protocol_timing.execute_retry)
            self.network.register(self.reshard_coordinator)

    def _build_app_servers(self) -> None:
        config = self.config
        app_names = config.app_server_names
        db_names = config.all_db_server_names
        if config.register_mode == REGISTER_LOCAL:
            latency = config.protocol_timing.fast_write_latency
            stores = {name: LocalRegisterStore(self.sim, name, operation_latency=latency)
                      for name in ("regA", "regD")}
        for name in app_names:
            # Registers and detector are wired once the process (and, for the
            # consensus-backed registers, its consensus host) exists.
            process = ApplicationServer(
                self.sim, name, app_names, db_names,
                registers=RegisterPair(None, None),  # type: ignore[arg-type]
                failure_detector=None,  # type: ignore[arg-type]
                timing=config.protocol_timing,
                directory=self.directory)
            self.network.register(process)
            if config.register_mode == REGISTER_CONSENSUS:
                host = ConsensusHost(process, app_names, fast_path_owner=app_names[0])
                process.consensus_host = host
                process.registers = RegisterPair(ConsensusRegisterArray(host, "regA"),
                                                 ConsensusRegisterArray(host, "regD"))
            else:
                process.registers = RegisterPair(
                    LocalRegisterArray(stores["regA"], owner=name),
                    LocalRegisterArray(stores["regD"], owner=name))
            process.mailbox_limit = config.mailbox_limit
            self.app_servers[name] = process

    def _build_failure_detector(self) -> FailureDetector:
        config = self.config
        # The oracle (eventually perfect) detector always exists: it is what the
        # fault-injection schedules use to inject false suspicions.
        oracle = detector = EventuallyPerfectFailureDetector(
            self.network, detection_delay=config.detection_delay)
        if config.failure_detector == FD_HEARTBEAT:
            # A genuinely message-based detector: heartbeats between the
            # application servers, adaptive time-outs on missed ones.
            detector = HeartbeatFailureDetector(
                self.network, config.app_server_names,
                heartbeat_interval=config.heartbeat_interval,
                initial_timeout=config.heartbeat_timeout,
                install_on=[name for name in config.app_server_names
                            if self.network.hosts(name)])
        for server in self.app_servers.values():
            server.failure_detector = detector
        return oracle

    def _start_all(self) -> None:
        super()._start_all()
        if self.reshard_coordinator is not None:
            self.reshard_coordinator.start()
            # Anchor the epoch ledger: the spec checkers learn each epoch's
            # shard universe from ``reshard`` events, including the initial one.
            self.trace.record("reshard", self.reshard_coordinator.name,
                              stage="init", epoch=0,
                              shards=list(self.sharding.shards))

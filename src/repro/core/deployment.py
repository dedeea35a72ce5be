"""Deployment builder: assemble a complete three-tier system from a scenario.

The paper's comparison holds the client and database tiers fixed and swaps
only the middle tier, and so does this module: :class:`ThreeTierDeployment`
wires everything the four protocols share -- kernel, trace retention, the
spec monitor, the three-tier network, database servers, clients and
the run surface -- from one :class:`~repro.api.scenario.Scenario`, and each
protocol subclasses it with its own application servers.
:class:`EtxDeployment` is the e-Transaction middle tier (consensus hosts and
wo-registers, failure detectors, online resharding); the comparison
protocols live in :mod:`repro.baselines`.  :func:`repro.api.build` is the one
way to build any of them.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from repro.consensus.synod import ConsensusHost
from repro.core.appserver import ApplicationServer, RegisterPair
from repro.core.client import Client, IssuedRequest
from repro.core.dataserver import DatabaseServer
from repro.core.reshard import RESHARD_COORDINATOR, ReshardCoordinator
from repro.core.sharding import ShardDirectory, validate_participants
from repro.core.spec import SpecMonitor, SpecReport
from repro.core.timing import DatabaseTiming, ProtocolTiming
from repro.core.types import Request
from repro.failure.detectors import (
    EventuallyPerfectFailureDetector,
    FailureDetector,
    HeartbeatFailureDetector,
    PerfectFailureDetector,
)
from repro.failure.injection import schedule_faults
from repro.net.latency import APP_DB_LATENCY, FixedLatency, PerLinkLatency, three_tier_latency
from repro.registers.consensus_backed import ConsensusRegisterArray
from repro.registers.local import LocalRegisterArray, LocalRegisterStore
from repro.runtime.base import create_kernel, create_network
from repro.sim.process import Process

if TYPE_CHECKING:  # repro.api imports this module
    from repro.api.scenario import FaultSpec, Scenario
    from repro.api.workloads import WorkloadBinding

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


class ThreeTierDeployment:
    """A fully wired client / application-server / database system.

    Owns everything the protocols have in common; a subclass provides the
    middle tier by overriding :meth:`_build_app_servers` (and whatever else
    of the build differs for it).  Every value comes from ``scenario``;
    ``workload`` is its bound workload (business logic, initial data,
    standard request), ``only`` the processes this OS process hosts in a
    distributed run (empty: all of them).
    """

    #: DSN scheme aliases of the protocol, its middle-tier size when a
    #: scenario leaves ``num_app_servers`` at 0, the smallest one it runs
    #: with, and the fault kinds it cannot inject (kind -> what it needs).
    aliases: tuple[str, ...] = ()
    default_app_servers = 1
    min_app_servers = 1
    unsupported_faults: dict[str, str] = {}
    db_server_class: type[DatabaseServer] = DatabaseServer
    # Online reconfiguration is e-Transaction machinery: only EtxDeployment
    # ever sets these, the shared code below just honours them.
    directory: Optional[ShardDirectory] = None
    reshard_coordinator: Optional[ReshardCoordinator] = None

    def __init__(self, scenario: Scenario, workload: WorkloadBinding, *,
                 db_timing: DatabaseTiming, protocol_timing: ProtocolTiming,
                 only: tuple[str, ...] = ()):
        self.scenario = scenario
        self.workload = workload
        self.db_timing = db_timing
        self.protocol_timing = protocol_timing
        self.runtime = replace(scenario.runtime_spec, only=only)
        self.sharding = scenario.sharding
        self.sim = create_kernel(self.runtime, seed=scenario.seed)
        self.sim.trace.set_retention(scenario.trace)
        # The spec monitor subscribes before any process runs, so it sees the
        # complete event stream regardless of the retention policy.
        self.spec_monitor = SpecMonitor.attach(
            self.sim.trace, scenario.all_db_server_names, scenario.client_names)
        self.network = create_network(
            self.runtime, self.sim, latency=self._build_latency(),
            loss_probability=scenario.loss_probability,
            process_names=scenario.process_names)
        self.db_servers: dict[str, DatabaseServer] = {}
        self.app_servers: dict[str, Process] = {}
        self.clients: dict[str, Client] = {}
        self._build_processes()
        # Detectors come last: they hook (or spawn threads on) the registered
        # processes, and must do so before anything starts.
        self.failure_detector = self._build_failure_detector()
        self._start_all()

    # ------------------------------------------------------------------- build

    def _build_latency(self) -> PerLinkLatency:
        scenario = self.scenario
        return three_tier_latency(scenario.client_names, scenario.app_server_names,
                                  scenario.all_db_server_names)

    def _build_processes(self) -> None:
        """Create and register every process; registration order fixes the
        per-source message-id namespace, so it is the same for all protocols:
        databases, application servers, clients."""
        scenario, workload = self.scenario, self.workload
        app_names = scenario.app_server_names
        active = set(scenario.db_server_names)
        placement = self.directory if self.directory is not None else self.sharding
        for name in scenario.all_db_server_names:
            # Standby shards start empty; they receive keys through migration.
            initial = (self.sharding.shard_data(name, workload.initial_data)
                       if name in active else {})
            server = self.db_server_class(
                self.sim, name, app_names,
                business_logic=workload.business_logic, timing=self.db_timing,
                initial_data=initial, owns_key=placement.owner_predicate(name),
                directory=self.directory)
            self.network.register(server)
            self.db_servers[name] = server
        self._build_app_servers()
        for name in scenario.client_names:
            client = Client(self.sim, name, app_names, timing=self.protocol_timing)
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
        return self.clients[self.scenario.client_names[0]]

    @property
    def trace(self):
        """The shared trace recorder of this run."""
        return self.sim.trace

    @property
    def stats(self):
        """Network traffic statistics of the run."""
        return self.network.stats

    def standard_request(self) -> Request:
        """A fresh instance of the workload's standard request."""
        return self.workload.make_request()

    def apply_faults(self, faults: Sequence["FaultSpec"]) -> None:
        """Schedule the given faults against this deployment.

        In a distributed run each OS process injects only the faults it can
        act on locally (crashes/recoveries of its own processes, suspicions
        of its own observers); partitions and heals apply everywhere, since
        each host drops its own outbound cross-group traffic.
        """
        if self.runtime.distributed:
            local = set(self.runtime.only)
            faults = [fault for fault in faults
                      if fault.kind in ("partition", "heal")
                      or (fault.observer if fault.kind == "false_suspicion"
                          else fault.target) in local]
        reshard = (self.reshard_coordinator.request
                   if self.reshard_coordinator is not None else None)
        schedule_faults(faults, self.sim, self.network, self.failure_detector,
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
        validate_participants(request, self.scenario.all_db_server_names)
        target = self.clients[client] if client is not None else self.client
        return target.issue(request)

    def run(self, until: Optional[float] = None) -> float:
        """Run the simulation (until the event queue drains or ``until``)."""
        return self.sim.run(until=until)

    def run_request(self, request: Request) -> IssuedRequest:
        """Issue ``request`` from the first client and run until its result
        is delivered (or a million virtual ms have passed)."""
        issued = self.issue(request)
        self.sim.run_until(lambda: issued.delivered, until=1_000_000.0)
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
        if self.runtime.distributed:
            return SpecReport(checked_properties=[])
        return self.spec_monitor.report(check_termination=check_termination)


class EtxDeployment(ThreeTierDeployment):
    """Three-tier deployment running the e-Transaction protocol."""

    aliases = ("ar",)
    default_app_servers = 3

    # ------------------------------------------------------------------- build

    def _build_latency(self) -> PerLinkLatency:
        scenario = self.scenario
        latency = super()._build_latency()
        if scenario.reshards:
            # The coordinator lives in the cluster next to the app tier, so
            # its migration traffic crosses the app<->db hop.
            for db_name in scenario.all_db_server_names:
                latency.set_link(RESHARD_COORDINATOR, db_name, FixedLatency(APP_DB_LATENCY))
                latency.set_link(db_name, RESHARD_COORDINATOR, FixedLatency(APP_DB_LATENCY))
        return latency

    def _build_processes(self) -> None:
        # The shared directory and coordinator exist only when the scenario
        # asked for resharding, so static runs keep byte-identical process
        # registration and thread structure.
        if self.scenario.reshards:
            self.directory = ShardDirectory(self.sharding)
        super()._build_processes()
        if self.directory is not None:
            self.reshard_coordinator = ReshardCoordinator(
                self.sim, self.directory, self.scenario.all_db_server_names,
                retry_interval=self.protocol_timing.execute_retry)
            self.network.register(self.reshard_coordinator)

    def _build_app_servers(self) -> None:
        scenario = self.scenario
        app_names = scenario.app_server_names
        db_names = scenario.all_db_server_names
        if scenario.register_mode == REGISTER_LOCAL:
            latency = self.protocol_timing.fast_write_latency
            stores = {name: LocalRegisterStore(self.sim, name, operation_latency=latency)
                      for name in ("regA", "regD")}
        for name in app_names:
            # Registers and detector are wired once the process (and, for the
            # consensus-backed registers, its consensus host) exists.
            process = ApplicationServer(
                self.sim, name, app_names, db_names,
                registers=RegisterPair(None, None),  # type: ignore[arg-type]
                failure_detector=None,  # type: ignore[arg-type]
                timing=self.protocol_timing,
                directory=self.directory)
            self.network.register(process)
            if scenario.register_mode == REGISTER_CONSENSUS:
                host = ConsensusHost(process, app_names, fast_path_owner=app_names[0])
                process.consensus_host = host
                process.registers = RegisterPair(ConsensusRegisterArray(host, "regA"),
                                                 ConsensusRegisterArray(host, "regD"))
            else:
                process.registers = RegisterPair(
                    LocalRegisterArray(stores["regA"], owner=name),
                    LocalRegisterArray(stores["regD"], owner=name))
            process.mailbox_limit = scenario.mailbox
            self.app_servers[name] = process

    def _build_failure_detector(self) -> FailureDetector:
        scenario = self.scenario
        # The oracle (eventually perfect) detector always exists: it is what the
        # fault-injection schedules use to inject false suspicions.
        oracle = detector = EventuallyPerfectFailureDetector(
            self.network, detection_delay=scenario.detection_delay)
        if scenario.failure_detector == FD_HEARTBEAT:
            # A genuinely message-based detector: heartbeats between the
            # application servers, adaptive time-outs on missed ones.
            detector = HeartbeatFailureDetector(
                self.network, scenario.app_server_names,
                heartbeat_interval=scenario.heartbeat_interval,
                initial_timeout=scenario.heartbeat_timeout,
                install_on=[name for name in scenario.app_server_names
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

"""Repetitions, probes and metric arithmetic of the end-to-end benchmark.

A workload is measured as one discarded warm-up repetition plus a fixed
number of measured repetitions, all in one process.  Every repetition builds
a fresh system from a DSN through the public API, drives it with the load
generator the DSN asks for, and is sized by a fixed request count -- never by
time -- so everything counted on the virtual clock repeats bit for bit.

Host time is made repeatable in two steps.  The *probe*, a kernel event that
fires every ``probe_vms`` virtual milliseconds, records the CPU time the
slice since the previous probe took and immediately runs the yardstick
(:mod:`yardstick`); ``work / yardstick`` of a slice is free of the box's speed
drift because numerator and denominator are milliseconds apart.  And because
all repetitions run the same seed, slice *i* is the same work in each of them
on the simulator, so the cost of a repetition is the sum over slices of the
*smallest* ratio any repetition saw -- which drops the stalls a shared box
injects at random (see :func:`host_cost`).
"""

from __future__ import annotations

import contextlib
import cProfile
import gc
import json
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

import yardstick
from repro.api import Scenario, build, load_generator_for
from repro.core import messages as msg
from repro.core.types import COMMIT, Decision, Request, Result, reset_request_counter
from repro.metrics.percentiles import percentile
from repro.net.message import Message

HERE = Path(__file__).resolve().parent

#: Virtual ms the system keeps running after the last delivery so clean-up
#: traffic (decides, acknowledgements, fail-over) lands before the spec check.
SETTLE_VMS = 5_000.0

#: Fresh-interpreter set-up measurements per run (``setup_s`` is their median).
SETUP_CHILDREN = 12

#: Yardstick iterations around each externally timed section; long enough
#: (about 10 ms) that one reading is a fair sample of the box's speed.
BRACKET_ITERATIONS = 16 * yardstick.ITERATIONS

#: ``host.rep_spread`` above which a run warns, on the simulator and under a
#: wall clock (where CPU per request scatters by +-8 % per repetition even on
#: a quiet box: wake-ups from idle and system calls do not track the yardstick).
REP_SPREAD_WARN = {False: 1.15, True: 1.35}
YARDSTICK_SPREAD_WARN = 2.5


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a DSN (without its seed) and how to size it."""

    name: str
    dsn: str
    per_client: int       # requests each client issues per repetition
    repetition_s: int     # nominal CPU seconds one repetition measures
    probe_vms: float      # virtual ms between probes
    limit_vms: float      # latency limit: 4x this workload's fault-free latency
    seed: int             # default seed (reproduces the README's reference values)


_FAILOVER_FAULTS = ("crash_for@20000:d1:1500,false_suspicion@40000:a2:a1:300,"
                    "crash_for@60000:a2:3000,partition@80000:a1|a2~a3~d1~d2,"
                    "heal@81000,crash@110000:a1")

#: Why each workload was chosen is recorded in ``BENCHMARK.json`` (one line) and
#: in the README (with the layers it stresses).
WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="soak_etx",
        dsn=("etx://a3.d8.c64?rate=24&arrival=poisson&workload=bank"
             "&placement=hash&xshard=0.1&trace=off"),
        per_client=100, repetition_s=5, probe_vms=250.0, limit_vms=1000.0, seed=11),
    Workload(
        name="paper_2pc_traced",
        dsn="2pc://a1.d1.c4?workload=bank&timing=paper&trace=full",
        per_client=2500, repetition_s=5, probe_vms=4000.0, limit_vms=4000.0, seed=3),
    Workload(
        name="failover_hb",
        dsn=("etx://a3.d2.c16?rate=4&arrival=uniform&fd=heartbeat&workload=bank"
             "&placement=hash&xshard=0.2&trace=ring:4096&faults=" + _FAILOVER_FAULTS),
        per_client=40, repetition_s=5, probe_vms=200.0, limit_vms=1000.0, seed=5),
    Workload(
        name="tcp_closed",
        dsn="etx://a3.d1.c2?runtime=asyncio&pace=0.05&trace=off",
        per_client=175, repetition_s=2, probe_vms=100.0, limit_vms=1000.0, seed=7),
)}


def dsn_for(workload: Workload, seed: int) -> str:
    """The DSN a repetition runs: the only thing the program ever sees."""
    return f"{workload.dsn}&seed={seed}"


def scenario_for(workload: Workload, seed: int) -> Scenario:
    """The parsed scenario of one repetition."""
    return Scenario.from_dsn(dsn_for(workload, seed))


# ---------------------------------------------------------------- probes


class Probe:
    """Self-rescheduling kernel event that slices host time by the yardstick."""

    def __init__(self, system: Any, interval_vms: float):
        self._system = system
        self._sim = system.sim
        self._interval = interval_vms
        self._handle: Any = None
        self._mark = 0.0
        self.slices: list[tuple[float, float]] = []   # (work CPU s, yardstick CPU s)
        self.fired = 0
        self.in_flight_peak = 0
        self.stored_peak = 0
        self.mailbox_peak = 0

    def start(self) -> None:
        self._handle = self._sim.schedule(self._interval, self._fire, name="bench:probe")
        self._mark = time.process_time()

    def _close_slice(self) -> None:
        work = time.process_time() - self._mark
        self.slices.append((work, yardstick.run()))
        system = self._system
        self.in_flight_peak = max(self.in_flight_peak, system.spec_monitor.in_flight)
        self.stored_peak = max(self.stored_peak, len(system.trace))
        self.mailbox_peak = max(self.mailbox_peak, sum(
            process.mailbox_size for process in system.network.processes.values()))

    def _fire(self) -> None:
        self._close_slice()
        self.fired += 1
        self.start()

    def finish(self) -> None:
        """Close the last, partial slice and disarm."""
        self._close_slice()
        self._handle.cancel()


class ServiceGapTracker:
    """Longest virtual interval in which requests were owed and none delivered.

    Fed from the trace bus: the clock starts when a request arrives at an
    idle service (or at the previous delivery, when others are still
    outstanding) and stops at the next delivery.
    """

    def __init__(self, trace: Any):
        self._outstanding = 0
        self._owed_since: Optional[float] = None
        self.longest = 0.0
        trace.subscribe("client_issue", self._on_issue)
        trace.subscribe("client_deliver", self._on_deliver)

    def _on_issue(self, event: Any) -> None:
        self._outstanding += 1
        if self._owed_since is None:
            self._owed_since = event.time

    def _on_deliver(self, event: Any) -> None:
        if self._owed_since is not None:
            self.longest = max(self.longest, event.time - self._owed_since)
        self._outstanding -= 1
        self._owed_since = event.time if self._outstanding > 0 else None


# ------------------------------------------------------------ repetitions


@dataclass
class Repetition:
    """Everything one repetition measured."""

    requested: int
    latencies: list[float]
    violations: list[str]
    events: int                     # kernel events, probe events subtracted
    sent: int
    by_type: dict[str, int]
    dropped: int
    forced_writes: int
    attempts: int
    retries: int
    longest_gap_vms: float
    cpu_s: float                    # raw CPU of run + settle, yardsticks excluded
    wall_s: float
    check_cost: float               # check_spec, in yardstick iterations
    slices: list[tuple[float, float]] = field(default_factory=list)
    in_flight_peak: int = 0
    stored_peak: int = 0
    mailbox_peak: int = 0

    @property
    def delivered(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        """Undelivered requests plus one per spec violation, capped at requested."""
        return min(self.requested, self.requested - self.delivered + len(self.violations))

    @property
    def cost(self) -> float:
        """Host cost of run + settle in yardstick iterations."""
        return yardstick.ITERATIONS * sum(work / yard for work, yard in self.slices)

    def fingerprint(self) -> dict[str, Any]:
        """What must be identical between repetitions of one seed."""
        return {"events_processed": self.events, "stats.sent": self.sent,
                "by_type_sent": sorted(self.by_type.items()),
                "latencies": self.latencies}


def bracketed(action: Any) -> tuple[Any, float, float]:
    """Run ``action()`` between two long yardstick runs.

    Returns its result, the CPU seconds it took in this process, and the CPU
    seconds one yardstick iteration took right around it.
    """
    before = yardstick.run(BRACKET_ITERATIONS)
    started = time.process_time()
    result = action()
    cpu = time.process_time() - started
    after = yardstick.run(BRACKET_ITERATIONS)
    return result, cpu, (before + after) / (2 * BRACKET_ITERATIONS)


def run_repetition(workload: Workload, seed: int, scale: float = 1.0,
                   probed: bool = True,
                   profiler: Optional[cProfile.Profile] = None) -> Repetition:
    """Build the workload's system from its DSN, drive it, check it, close it."""
    scenario = scenario_for(workload, seed)
    per_client = max(1, round(workload.per_client * scale))
    reset_request_counter()
    system = build(scenario)
    try:
        sim = system.sim
        gaps = ServiceGapTracker(system.trace)
        generator = load_generator_for(scenario, max_events=50_000_000)
        probe = Probe(system, workload.probe_vms) if probed else None
        profiling = profiler if profiler is not None else contextlib.nullcontext()
        gc.collect()
        wall_started = time.perf_counter()
        cpu_started = time.process_time()
        if probe is not None:
            probe.start()
        with profiling:
            statistics_ = generator.run(system, per_client)
            system.run(until=sim.now + SETTLE_VMS)
        if probe is not None:
            probe.finish()
        cpu = time.process_time() - cpu_started
        wall = time.perf_counter() - wall_started
        if probe is not None:
            cpu -= sum(yard for _work, yard in probe.slices)

        def check() -> Any:
            with profiling:
                return system.check_spec(check_termination=statistics_.undelivered == 0)

        report, check_cpu, per_iteration = bracketed(check)
        stats = system.stats
        repetition = Repetition(
            requested=per_client * scenario.num_clients,
            latencies=list(statistics_.latencies),
            violations=[str(violation) for violation in report.violations],
            events=sim.events_processed - (probe.fired if probe else 0),
            sent=stats.sent,
            by_type=dict(stats.by_type_sent),
            dropped=(stats.dropped_loss + stats.dropped_partition
                     + stats.dropped_dest_down),
            forced_writes=sum(server.store.storage.stats.forced_writes
                              for server in system.db_servers.values()),
            attempts=sum(statistics_.attempts),
            retries=statistics_.aborted_results,
            longest_gap_vms=gaps.longest,
            cpu_s=cpu, wall_s=wall, check_cost=check_cpu / per_iteration,
        )
        if probe is not None:
            repetition.slices = probe.slices
            repetition.in_flight_peak = probe.in_flight_peak
            repetition.stored_peak = probe.stored_peak
            repetition.mailbox_peak = probe.mailbox_peak
        return repetition
    finally:
        system.close()


def canary_mismatch(reference: Repetition, other: Repetition) -> Optional[str]:
    """Name of the first fingerprint field on which two same-seed repetitions differ."""
    mine, theirs = reference.fingerprint(), other.fingerprint()
    for name, value in mine.items():
        if theirs[name] != value:
            return name
    return None


@dataclass
class Measurement:
    """One run of one workload: its repetitions, set-ups and failed checks."""

    workload: Workload
    scenario: Scenario
    warm_up: Repetition
    measured: list[Repetition]
    setups: list["SetupSample"]
    traced: Optional[Repetition]
    profile: Optional[cProfile.Profile]
    problems: list[str]

    @property
    def realtime(self) -> bool:
        """Wall-clock runtime: nothing repeats exactly."""
        return self.scenario.runtime != "sim"

    @property
    def observed(self) -> list[Repetition]:
        """Repetitions the virtual-time metrics are read from.

        On the simulator they are all identical, so one is enough (and keeps
        percentiles equal to a single run's); on a wall clock they are pooled.
        """
        return self.measured if self.realtime else self.measured[:1]


def measured_repetitions(workload: Workload, seconds: int) -> int:
    """How many measured repetitions a ``--seconds`` budget buys (1 to 8).

    The budget is in CPU seconds measured, so the wall-clock workload, whose
    process idles on paced timers most of the time and whose cost scatters
    twice as much per repetition, gets more repetitions out of it.
    """
    return max(1, min(8, seconds // workload.repetition_s))


def measure(workload: Workload, seed: int, measured_count: int, trace: bool,
            scale: float = 1.0) -> Measurement:
    """Warm up, run the measured (and the profiled) repetitions, check them.

    The set-up children are spread over the gaps between repetitions, so they
    sample the box's speed over the whole run and never overlap with one.
    """
    gaps = 1 + measured_count + (1 if trace else 0)
    children = max(1, round(SETUP_CHILDREN * min(1.0, scale)))
    setups: list[SetupSample] = []

    def after_repetition() -> None:
        gc.collect()
        for _ in range(-(-children // gaps)):
            if len(setups) < children:
                setups.append(measure_setup(workload, seed))

    warm_up = run_repetition(workload, seed, scale)
    after_repetition()
    measured = []
    for _ in range(measured_count):
        measured.append(run_repetition(workload, seed, scale))
        after_repetition()
    traced = profile = None
    if trace:
        profile = cProfile.Profile()
        traced = run_repetition(workload, seed, scale, probed=False, profiler=profile)
        after_repetition()

    problems = []
    labelled = [(f"measured repetition {index + 1}", repetition)
                for index, repetition in enumerate(measured)]
    if traced is not None:
        labelled.append(("profiled, unprobed repetition", traced))
    run = Measurement(workload, scenario_for(workload, seed), warm_up, measured, setups,
                      traced, profile, problems)
    for label, repetition in labelled:
        if repetition.delivered != repetition.requested:
            problems.append(f"{label}: delivered {repetition.delivered}"
                            f" of {repetition.requested}")
        problems.extend(f"{label}: spec violation: {violation}"
                        for violation in repetition.violations)
        # Determinism canary: on the simulator every repetition must agree with
        # the warm-up event for event -- probed or not, which also proves that
        # the probes perturb nothing.
        differing = None if run.realtime else canary_mismatch(warm_up, repetition)
        if differing is not None:
            problems.append(f"determinism canary: {label} differs from the warm-up"
                            f" in {differing}")
    return run


# ------------------------------------------------------------------ set-up


@dataclass
class SetupSample:
    """One fresh-interpreter set-up, in yardstick iterations per phase."""

    total: float
    import_: float
    parse: float
    build: float


def measure_setup(workload: Workload, seed: int) -> SetupSample:
    """Interpreter start -> import -> ``from_dsn`` -> ``build()`` in a fresh child.

    The child reports CPU seconds per phase; a long yardstick run in this
    process right before and right after converts them to yardstick units.
    """
    def spawn() -> dict[str, float]:
        completed = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), dsn_for(workload, seed)],
            check=True, capture_output=True, text=True, timeout=120)
        return json.loads(completed.stdout.splitlines()[-1])

    phases, _own_cpu, per_iteration = bracketed(spawn)
    return SetupSample(total=phases["total_s"] / per_iteration,
                       import_=phases["import_s"] / per_iteration,
                       parse=phases["parse_s"] / per_iteration,
                       build=phases["build_s"] / per_iteration)


def measure_codec() -> float:
    """Yardstick iterations per ``Message.to_wire`` -> ``from_wire`` round trip."""
    request = Request("transfer", {"source": "acct-{1}-3", "target": "acct-{2}-5",
                                   "amount": 7}, request_id="req-1",
                      participants=("d1", "d2"), keys=("acct-{1}-3", "acct-{2}-5"))
    decision = Decision(Result({"balance": 93}, "req-1", "a1"), COMMIT)
    key = ("c1", 1)
    messages = [
        msg.request_message(request, 1), msg.execute_message(key, request),
        msg.execute_result_message(key, {"balance": 93}),
        msg.prepare_message(key, ("d1", "d2")), msg.vote_message(key, "yes"),
        msg.decide_message(key, COMMIT, ("d1", "d2")), msg.ack_decide_message(key),
        msg.result_message(1, decision),
    ]
    for message in messages:
        message.sender, message.destination = "a1", "d1"
    rounds = 250

    def round_trips() -> None:
        for _ in range(rounds):
            for message in messages:
                Message.from_wire(message.to_wire())

    round_trips()   # warm the codec's caches
    _none, cpu, per_iteration = bracketed(round_trips)
    return cpu / per_iteration / (rounds * len(messages))


# ----------------------------------------------------------------- metrics


def nominal_ms(yardstick_iterations: float) -> float:
    """Yardstick units -> milliseconds on a box that runs the yardstick at nominal speed."""
    return yardstick_iterations * yardstick.YARDSTICK_NOMINAL_NS * 1e-6


def host_cost(repetitions: list[Repetition], realtime: bool) -> float:
    """Host cost of one repetition in yardstick iterations, from all of them.

    On the simulator the probes fire at the same virtual instants in every
    repetition, so slice *i* is identical work each time and the smallest
    ``work / yardstick`` any repetition saw for it is the one least disturbed
    by the box; a cold slice of the warm-up simply never is the smallest.
    On this box that halves the run-to-run scatter of the median of the
    per-repetition sums.  Under a wall clock slices do not line up, and the
    mean over all repetitions is the steadiest estimate.
    """
    if realtime:
        return statistics.mean(rep.cost for rep in repetitions)
    ratios = [[work / yard for work, yard in rep.slices] for rep in repetitions]
    return yardstick.ITERATIONS * sum(min(column) for column in zip(*ratios))


class Summary:
    """The metrics of one :class:`Measurement`."""

    def __init__(self, run: Measurement):
        self.run = run
        self.observed = run.observed
        self.latencies = [latency for rep in self.observed for latency in rep.latencies]
        self.delivered = len(self.latencies)
        self.attempted = sum(rep.requested for rep in self.observed)
        self.failed = sum(rep.failed for rep in self.observed)
        self.within_limit = sum(
            1 for latency in self.latencies if latency <= run.workload.limit_vms)

    def _per_request(self, field_name: str) -> float:
        return sum(getattr(rep, field_name) for rep in self.observed) / self.delivered

    def _setup_ms(self, phase: str) -> float:
        return nominal_ms(statistics.median(
            getattr(sample, phase) for sample in self.run.setups))

    def end_to_end(self, peak_rss_mb: float) -> dict[str, float]:
        """The gated metrics."""
        run = self.run
        cost = host_cost([run.warm_up] + run.measured, run.realtime)
        return {
            "setup_s": self._setup_ms("total") / 1000.0,
            "norm_cpu_ms_per_req": nominal_ms(cost) / run.measured[0].delivered,
            "peak_rss_mb": peak_rss_mb,
            "lat_p50_vms": percentile(self.latencies, 0.50),
            "lat_p90_vms": percentile(self.latencies, 0.90),
            "events_per_req": self._per_request("events"),
            "msgs_per_req": self._per_request("sent"),
            "within_limit_share": self.within_limit / self.attempted,
        }

    def host(self) -> dict[str, float]:
        """Raw, ungated figures that tell a bad box from a regression."""
        measured = self.run.measured
        yards = [yard for rep in measured for _work, yard in rep.slices]
        costs = [rep.cost for rep in measured]
        delivered = sum(rep.delivered for rep in measured)
        wall = sum(rep.wall_s for rep in measured)
        result = {
            "host.cpu_ms_per_req_raw": 1000.0 * sum(rep.cpu_s for rep in measured) / delivered,
            "host.wall_req_per_s": delivered / wall,
            "host.events_per_s": sum(rep.events for rep in measured) / wall,
            "host.yardstick_ns_per_iter": (
                1e9 * statistics.median(yards) / yardstick.ITERATIONS),
            "host.yardstick_p90_over_p10": percentile(yards, 0.90) / percentile(yards, 0.10),
            "host.rep_spread": max(costs) / min(costs),
        }
        if self.run.traced is not None:
            result["host.trace_overhead"] = self.run.traced.cpu_s / statistics.median(
                rep.cpu_s for rep in measured)
        return result

    def counters(self) -> dict[str, float]:
        """Per-layer metrics that need no profiler: public counters, outside timings."""
        observed = self.observed
        pace = self.run.scenario.pace
        by_type = {name: sum(rep.by_type.get(name, 0) for rep in observed) / self.delivered
                   for name in ("Consensus", "Heartbeat")}
        return {
            "net.consensus_msgs_per_req": by_type["Consensus"],
            "net.heartbeat_msgs_per_req": by_type["Heartbeat"],
            "net.dropped_per_req": self._per_request("dropped"),
            "storage.forced_writes_per_req": self._per_request("forced_writes"),
            "core.client.attempts_per_req": self._per_request("attempts"),
            "core.client.retries_per_req": self._per_request("retries"),
            "core.client.lat_p99_vms": percentile(self.latencies, 0.99),
            "core.client.unavail_vms": max(rep.longest_gap_vms for rep in observed),
            "core.client.over_limit_share": 1.0 - self.within_limit / self.attempted,
            "core.spec.in_flight_peak": max(rep.in_flight_peak for rep in observed),
            "sim.tracing.stored_peak": max(rep.stored_peak for rep in observed),
            "sim.process.mailbox_peak": max(rep.mailbox_peak for rep in observed),
            "runtime.lat_p50_ms": percentile(self.latencies, 0.50) * pace,
            "runtime.lat_p90_ms": percentile(self.latencies, 0.90) * pace,
            "api.import_ms": self._setup_ms("import_"),
            "api.parse_us": 1000.0 * self._setup_ms("parse"),
            "api.build_ms": self._setup_ms("build"),
            "core.spec.check_ms": nominal_ms(statistics.median(
                rep.check_cost for rep in self.run.measured)),
            "net.codec_us_per_msg": 1000.0 * nominal_ms(measure_codec()),
        }


def noise_warnings(host: dict[str, float], realtime: bool) -> list[str]:
    """Why this run's host-time figures deserve less trust than usual."""
    warnings = []
    limit = REP_SPREAD_WARN[realtime]
    if host["host.rep_spread"] > limit:
        warnings.append(f"host.rep_spread {host['host.rep_spread']:.3f} > {limit}: "
                        "repetition costs disagree, the box is noisy")
    if host["host.yardstick_p90_over_p10"] > YARDSTICK_SPREAD_WARN:
        warnings.append(f"host.yardstick_p90_over_p10 {host['host.yardstick_p90_over_p10']:.2f}"
                        f" > {YARDSTICK_SPREAD_WARN}: host speed swung widely during the run")
    return warnings

"""Experiment E10 -- soak run: sustained open-loop load with flat memory.

Built, watched and judged like any other run (:func:`repro.api.drive`), the
soak keeps

* the **stored trace** bounded (``trace=ring:N`` keeps a flight-recorder
  suffix, ``off`` stores nothing),
* the **online spec monitor** at O(in-flight) heavy state, retiring
  transactions as they terminally resolve, while still producing the full
  e-Transaction verdict at the end,
* the metrics (throughput, percentiles, per-database outcomes, latency
  components) streaming off the same bus.

The experiment samples the observability state at checkpoints during the run
(stored-trace size, spec-monitor in-flight transactions) so flat memory is a
measured fact in the report, not a claim.  It also counts what the run
retains for good: the GC-tracked objects alive after the run minus those alive
after the build, per delivered request (``retained_objects_per_req``) -- every
fact the protocol, the databases and the monitor keep for the whole run, as
the objects the cyclic garbage collector must keep walking.
"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass, field
from typing import Union

from repro.api.drivers import build
from repro.api.runner import ScenarioResult, drive
from repro.api.scenario import Scenario
from repro.sim.tracing import RETENTION_RING, parse_retention

# Eight shards absorb ~42 committed transactions per virtual second (each
# database's execute stage costs ~190 ms of simulated engine time), so an
# offered load of 32/s soaks the stack at ~76% utilisation without the
# unbounded queueing an over-saturated open loop would build up.
DEFAULT_SOAK_DSN = ("etx://a3.d8.c64?rate=32&arrival=poisson&seed=11"
                    "&workload=bank&placement=hash&xshard=0.1&trace=off")

#: Observability samples taken during a run, evenly spaced over its expected
#: duration (one more follows the drain).
CHECKPOINTS = 20


@dataclass
class SoakSample:
    """One observability checkpoint taken during the run."""

    time: float                 # virtual ms since the run started
    events_processed: int       # simulator callbacks so far
    trace_stored: int           # events currently held by the recorder
    spec_in_flight: int         # transactions the monitor has not retired
    spec_retired: int           # transactions whose state machines were freed
    mailbox_backlog: int        # buffered messages across every process


@dataclass
class SoakReport:
    """Everything one soak run measured."""

    run: ScenarioResult
    wall_seconds: float
    events_processed: int
    events_per_second: float    # simulator callbacks per wall second
    trace_stored_final: int = 0
    retained_objects: int = 0   # GC-tracked objects alive after the run minus after build
    samples: list[SoakSample] = field(default_factory=list)

    @property
    def retained_objects_per_req(self) -> float:
        """GC-tracked objects the run left alive per delivered request."""
        delivered = self.run.delivered
        return self.retained_objects / delivered if delivered else 0.0

    @property
    def trace_bounded(self) -> bool:
        """Whether the stored trace stayed within its retention bound."""
        mode, capacity = parse_retention(self.run.scenario.trace)
        if mode == "off":
            bound = 0
        elif mode == RETENTION_RING:
            bound = capacity
        else:
            return False  # full retention grows with the run, by design
        return all(sample.trace_stored <= bound for sample in self.samples) \
            and self.trace_stored_final <= bound

    @property
    def spec_memory_flat(self) -> bool:
        """Whether the monitor's in-flight table stayed flat (no leak).

        "Flat" = the largest in-flight population seen at any checkpoint in
        the second half of the run is no bigger than twice the largest seen
        in the first half (plus a small allowance for ramp-up) -- a growing
        table would trend with the request count instead.
        """
        if len(self.samples) < 4:
            return True
        half = len(self.samples) // 2
        first = max(s.spec_in_flight for s in self.samples[:half])
        second = max(s.spec_in_flight for s in self.samples[half:])
        return second <= 2 * max(first, 8)

    @property
    def ok(self) -> bool:
        """Spec-clean, everything delivered, memory demonstrably bounded."""
        return self.run.spec.ok and self.run.statistics.undelivered == 0 \
            and self.trace_bounded and self.spec_memory_flat

    def to_json(self) -> dict:
        """Machine-readable BENCH payload (written to benchmarks/out)."""
        stats, spec = self.run.statistics, self.run.spec
        return {
            "dsn": self.run.dsn,
            "requested": self.run.requested,
            "delivered": self.run.delivered,
            "undelivered": stats.undelivered,
            "throughput_per_s": round(stats.throughput, 1),
            "p50_ms": round(stats.p50, 2),
            "p95_ms": round(stats.p95, 2),
            "p99_ms": round(stats.p99, 2),
            "elapsed_virtual_s": round(stats.elapsed / 1000.0, 1),
            "wall_seconds": round(self.wall_seconds, 3),
            "events_processed": self.events_processed,
            "events_per_second": round(self.events_per_second),
            "spec_ok": spec.ok,
            "checked_properties": list(spec.checked_properties),
            "trace_retention": self.run.scenario.trace,
            "trace_stored_final": self.trace_stored_final,
            "retained_objects_per_req": round(self.retained_objects_per_req, 2),
            "trace_bounded": self.trace_bounded,
            "spec_memory_flat": self.spec_memory_flat,
            "max_spec_in_flight": max((s.spec_in_flight for s in self.samples),
                                      default=0),
            "max_trace_stored": max((s.trace_stored for s in self.samples),
                                    default=0),
            "max_mailbox_backlog": max((s.mailbox_backlog for s in self.samples),
                                       default=0),
            "samples": [
                {"t_virtual_ms": round(s.time, 1),
                 "events": s.events_processed,
                 "trace_stored": s.trace_stored,
                 "spec_in_flight": s.spec_in_flight,
                 "spec_retired": s.spec_retired,
                 "mailbox_backlog": s.mailbox_backlog}
                for s in self.samples
            ],
        }

    def summary(self) -> str:
        """Compact multi-line report (what the CLI prints)."""
        stats = self.run.statistics
        lines = [
            f"soak       {self.run.dsn}",
            f"requests   {self.run.delivered}/{self.run.requested} delivered"
            f"   throughput {stats.throughput:.1f} req/s of virtual time",
            f"latency    p50 {stats.p50:.1f}   p95 {stats.p95:.1f}"
            f"   p99 {stats.p99:.1f} ms",
            f"engine     {self.events_processed} events in"
            f" {self.wall_seconds:.1f}s wall"
            f" ({self.events_per_second:,.0f} events/s)",
            f"memory     trace[{self.run.scenario.trace}] stored"
            f" {self.trace_stored_final}"
            f" (bounded: {self.trace_bounded})   spec in-flight max "
            f"{max((s.spec_in_flight for s in self.samples), default=0)}"
            f" (flat: {self.spec_memory_flat})   mailbox backlog max "
            f"{max((s.mailbox_backlog for s in self.samples), default=0)}"
            f"   retained {self.retained_objects_per_req:.2f} objects/req",
            f"spec       {self.run.spec.summary()}",
        ]
        return "\n".join(lines)


def tracked_objects() -> int:
    """The GC-tracked objects alive once collecting frees nothing more.

    One ``gc.collect()`` may leave objects that only a later pass frees, so a
    single pass reads when the collector last ran as much as what is kept;
    collecting until the count stops falling reads what is kept.
    """
    count = None
    while True:
        gc.collect()
        alive = len(gc.get_objects())
        if count is not None and alive >= count:
            return alive
        count = alive


def run(dsn: Union[str, Scenario] = DEFAULT_SOAK_DSN,
        requests: int = 100_000) -> SoakReport:
    """Soak one scenario with ``requests`` total open-loop arrivals, sampled
    at :data:`CHECKPOINTS` evenly spaced points of the expected duration.

    ``requests`` is the total offered load, dealt round-robin over the
    scenario's clients; the scenario must be an open loop (``rate > 0``) --
    a closed loop adapts its offered load to the system and cannot soak it.
    """
    scenario = Scenario.from_dsn(dsn) if isinstance(dsn, str) else dsn
    if scenario.rate <= 0:
        raise ValueError("a soak run needs an open-loop scenario (rate > 0)")
    per_client = math.ceil(requests / scenario.num_clients)
    total = per_client * scenario.num_clients

    system = build(scenario)
    built_objects = tracked_objects()
    sim = system.sim
    monitor = system.spec_monitor
    trace = system.trace

    samples: list[SoakSample] = []
    start_virtual = sim.now
    expected_duration = total / scenario.rate * 1000.0  # virtual ms
    interval = expected_duration / CHECKPOINTS

    processes = system.network.processes

    def sample() -> None:
        samples.append(SoakSample(
            time=sim.now - start_virtual,
            events_processed=sim.events_processed,
            trace_stored=len(trace),
            spec_in_flight=monitor.in_flight,
            spec_retired=monitor.retired,
            mailbox_backlog=sum(p.mailbox_size for p in processes.values()),
        ))

    for checkpoint in range(1, CHECKPOINTS + 1):
        sim.schedule(checkpoint * interval, sample, name="soak:sample")

    wall_start = time.perf_counter()
    result = drive(system, per_client, max_events=max(5_000_000, 200 * total))
    wall = time.perf_counter() - wall_start
    sample()  # final checkpoint after the drain
    retained = tracked_objects() - built_objects
    return SoakReport(
        run=result,
        wall_seconds=wall,
        events_processed=sim.events_processed,
        events_per_second=sim.events_processed / wall if wall > 0 else 0.0,
        trace_stored_final=len(trace),
        retained_objects=retained,
        samples=samples,
    )

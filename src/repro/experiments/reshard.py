"""Experiment E11 -- elastic resharding under live traffic.

The tentpole question: can the data tier grow online -- ``d=4`` to ``d=8``
while an open-loop workload keeps arriving -- without the client tier
noticing?  Two measurements answer it:

* **Throughput flatness.**  The same scenario runs twice with the same seed:
  once with a ``reshard@T:d4->d8`` fault and once without.  Both runs stream
  their delivery instants off the trace bus into fixed-width windows; the
  report carries the window series and the overall throughput ratio.  The
  migration window itself is taken from the coordinator's ``reshard``
  begin/commit trace events, so "the dip" is attributable, not anecdotal.

* **Window-targeted faults.**  A fault campaign aims crash / transient-crash /
  partition atoms (the :mod:`repro.campaign.adversarial` assumption envelope)
  at the *reconfiguration window* recorded by a probe run -- the instants the
  :class:`~repro.campaign.windows.FaultWindowObserver` tags with the
  ``resharding`` phase.  Unlike :func:`repro.campaign.runner.run_campaign`,
  the reshard fault itself is part of every evaluated schedule: the campaign
  perturbs the migration, it does not replace it.  e-Transactions must come
  out spec-clean on every run.
"""

from __future__ import annotations

import random
import time
import zlib
from dataclasses import dataclass, field
from typing import Optional, Union

from repro import api
from repro.api.scenario import Scenario
from repro.api.sweep import map_jobs
from repro.campaign.adversarial import AdversarialFaultPlan, FaultAtom, atoms_to_specs
from repro.campaign.runner import evaluate_schedule, probe_windows
from repro.campaign.windows import PHASE_RESHARDING

# Three application servers absorb ~7.5 committed bank transactions per
# virtual second with the default engine timing, so 6/s offers ~80%
# utilisation -- loaded enough that a stalled migration would show up as a
# throughput hole, sustainable enough that the flat run has no backlog of
# its own.  The reshard fires mid-stream with live traffic on both sides.
DEFAULT_RESHARD_DSN = ("etx://a3.d4.c8?rate=6&arrival=poisson&seed=7"
                       "&workload=bank&placement=hash"
                       "&faults=reshard@5000:d4->d8")


@dataclass
class ThroughputWindow:
    """Delivered-request counts of one fixed-width window, both runs."""

    start: float                # virtual ms
    resharded: int
    flat: int


@dataclass
class ReshardReport:
    """Everything the online-growth measurement produced."""

    run: api.ScenarioResult     # the scenario with its reshard
    flat: api.ScenarioResult    # its fault-free twin
    window_ms: float
    windows: list[ThroughputWindow] = field(default_factory=list)
    reshard_begin: float = 0.0  # coordinator trace instants (virtual ms)
    reshard_commit: float = 0.0
    final_epoch: int = 0
    final_shards: list[str] = field(default_factory=list)
    deferred_requests: int = 0  # claims parked while their keys migrated
    epoch_retries: int = 0      # claims re-routed against a newer epoch
    wall_seconds: float = 0.0
    campaign: Optional["ReshardCampaignReport"] = None

    @property
    def throughput_ratio(self) -> float:
        """Resharded throughput over the fault-free twin's."""
        flat = self.flat.statistics.throughput
        return self.run.statistics.throughput / flat if flat > 0 else 0.0

    @property
    def spec_ok(self) -> bool:
        """Both runs kept every checked property."""
        return self.run.spec.ok and self.flat.spec.ok

    @property
    def ok(self) -> bool:
        """Grew online, delivered everything, spec-clean, throughput flat."""
        grown = self.final_epoch >= 1 and self.reshard_commit > self.reshard_begin
        flat = self.throughput_ratio >= 0.85
        campaign_ok = self.campaign is None or self.campaign.clean
        return (self.spec_ok and self.run.statistics.undelivered == 0 and grown
                and flat and campaign_ok)

    def to_json(self) -> dict:
        """Machine-readable BENCH payload (written to benchmarks/out)."""
        stats, flat = self.run.statistics, self.flat.statistics
        payload = {
            "dsn": self.run.dsn,
            "flat_dsn": self.flat.dsn,
            "requested": self.run.requested,
            "delivered": self.run.delivered,
            "undelivered": stats.undelivered,
            "throughput_per_s": round(stats.throughput, 2),
            "flat_throughput_per_s": round(flat.throughput, 2),
            "throughput_ratio": round(self.throughput_ratio, 3),
            "p95_ms": round(stats.p95, 2),
            "flat_p95_ms": round(flat.p95, 2),
            "reshard_begin_ms": round(self.reshard_begin, 1),
            "reshard_commit_ms": round(self.reshard_commit, 1),
            "reshard_window_ms": round(self.reshard_commit - self.reshard_begin, 1),
            "final_epoch": self.final_epoch,
            "final_shards": list(self.final_shards),
            "deferred_requests": self.deferred_requests,
            "epoch_retries": self.epoch_retries,
            "saturation": dict(stats.saturation),
            "spec_ok": self.spec_ok,
            "wall_seconds": round(self.wall_seconds, 3),
            "window_ms": self.window_ms,
            "windows": [{"t_ms": round(w.start, 1), "resharded": w.resharded,
                         "flat": w.flat} for w in self.windows],
        }
        if self.campaign is not None:
            payload["campaign"] = self.campaign.to_json()
        return payload

    def summary(self) -> str:
        """Compact multi-line report (what the CLI prints)."""
        stats, flat = self.run.statistics, self.flat.statistics
        lines = [
            f"reshard    {self.run.dsn}",
            f"growth     d={len(self.final_shards)} at epoch {self.final_epoch}"
            f"   window {self.reshard_begin:.0f}..{self.reshard_commit:.0f} ms"
            f" ({self.reshard_commit - self.reshard_begin:.0f} ms)",
            f"requests   {self.run.delivered}/{self.run.requested} delivered"
            f"   deferred {self.deferred_requests}"
            f"   epoch retries {self.epoch_retries}",
            f"throughput {stats.throughput:.2f} req/s vs flat "
            f"{flat.throughput:.2f} req/s"
            f"   ratio {self.throughput_ratio:.2f}"
            f"   p95 {stats.p95:.0f} ms vs {flat.p95:.0f} ms",
            f"spec       {self.run.spec.summary()}",
        ]
        if not self.flat.spec.ok:
            lines.append(f"flat spec  {self.flat.spec.summary()}")
        if stats.saturation.get("shed_messages"):
            lines.append(f"saturation {stats.saturation['shed_messages']} "
                         f"message(s) shed   peak backlog "
                         f"{stats.saturation['mailbox_peak']}")
        if self.campaign is not None:
            lines.append("")
            lines.append(self.campaign.summary())
        return "\n".join(lines)


def _delivery_times(system) -> list[float]:
    """Subscribe delivery instants off the trace bus; returns the live list."""
    times: list[float] = []
    system.trace.subscribe("client_deliver",
                           lambda event: times.append(event.time))
    return times


def run(dsn: Union[str, Scenario] = DEFAULT_RESHARD_DSN,
        requests: int = 15, window_ms: float = 2_000.0,
        settle: float = 5_000.0) -> ReshardReport:
    """Measure online growth: the scenario's reshard vs its fault-free twin.

    ``requests`` arrivals are offered per client (the scenario must be an
    open loop so the offered load is independent of what the system does).
    The flat twin is the same scenario with the reshard faults removed --
    same seed, same arrival process, same workload stream.
    """
    scenario = Scenario.from_dsn(dsn) if isinstance(dsn, str) else dsn
    reshards = [f for f in scenario.faults if f.kind == "reshard"]
    if not reshards:
        raise ValueError("the scenario needs a reshard@T:dX->dY fault "
                         "(that is the experiment)")
    if scenario.rate <= 0:
        raise ValueError("online growth needs an open-loop scenario "
                         "(rate > 0): a closed loop adapts its offered load "
                         "to the migration instead of stressing it")
    flat = scenario.with_(faults=tuple(f for f in scenario.faults
                                       if f.kind != "reshard"))

    wall_start = time.perf_counter()

    def one(which: Scenario):
        system = api.build(which)
        deliveries = _delivery_times(system)
        return system, api.drive(system, requests, settle=settle), deliveries

    system, result, deliveries = one(scenario)
    _, flat_result, flat_deliveries = one(flat)
    wall = time.perf_counter() - wall_start

    begin = commit = 0.0
    final_epoch = 0
    final_shards = list(scenario.sharding.shards)
    for event in system.trace.select("reshard"):
        if event.get("stage") == "begin":
            begin = event.time
        elif event.get("stage") == "commit":
            commit = event.time
            final_epoch = event.get("epoch")
            final_shards = list(event.get("shards"))

    horizon = max(deliveries + flat_deliveries, default=0.0)
    windows = []
    start = 0.0
    while start < horizon:
        end = start + window_ms
        windows.append(ThroughputWindow(
            start=start,
            resharded=sum(1 for t in deliveries if start <= t < end),
            flat=sum(1 for t in flat_deliveries if start <= t < end)))
        start = end

    return ReshardReport(
        run=result,
        flat=flat_result,
        window_ms=window_ms,
        windows=windows,
        reshard_begin=begin,
        reshard_commit=commit,
        final_epoch=final_epoch,
        final_shards=final_shards,
        deferred_requests=len(system.trace.select("epoch_defer")),
        epoch_retries=len(system.trace.select("epoch_retry")),
        wall_seconds=wall,
    )


# --------------------------------------------------- reconfiguration campaign


@dataclass
class ReshardCampaignReport:
    """Outcome of the reconfiguration-window fault campaign."""

    dsn: str
    seed: int
    runs: int = 0
    windows: int = 0            # resharding-phase anchors from the probe run
    violating: list[tuple[str, tuple[str, ...]]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """No schedule aimed at the migration window broke the spec."""
        return not self.violating

    def to_json(self) -> dict:
        return {
            "dsn": self.dsn,
            "seed": self.seed,
            "runs": self.runs,
            "windows": self.windows,
            "clean": self.clean,
            "violating": [{"dsn": dsn, "violations": list(violations)}
                          for dsn, violations in self.violating],
        }

    def summary(self) -> str:
        lines = [
            f"campaign   {self.runs} fault schedules aimed at "
            f"{self.windows} reconfiguration window(s), master seed {self.seed}",
        ]
        if self.violating:
            lines.append(f"violations {len(self.violating)} schedule(s) broke "
                         "the specification:")
            for dsn, violations in self.violating:
                lines.append(f"  {dsn}")
                for violation in violations:
                    lines.append(f"    {violation}")
        else:
            lines.append("violations none: every migration survived its "
                         "window's faults spec-clean")
        return "\n".join(lines)


def run_campaign(dsn: Union[str, Scenario] = DEFAULT_RESHARD_DSN,
                 runs: int = 200, seed: int = 0, requests: int = 4,
                 horizon: float = 240_000.0, settle: float = 20_000.0,
                 workers: Optional[int] = 1) -> ReshardCampaignReport:
    """Aim ``runs`` window-targeted fault schedules at the migration.

    A probe run (the scenario *with* its reshard, no other faults) records
    the ``resharding``-phase transitions -- the begin/commit instants of each
    epoch change; those anchor an :class:`AdversarialFaultPlan` whose jitter
    is widened to cover the whole migration window, so sampled faults land
    before, inside and just after the reconfiguration.  Every evaluated
    scenario keeps the reshard fault and adds the sampled atoms on top.
    Deterministic for a given ``(scenario, runs, seed)``, including under
    ``workers > 1``.
    """
    scenario = Scenario.from_dsn(dsn) if isinstance(dsn, str) else dsn
    reshard_specs = tuple(f for f in scenario.faults if f.kind == "reshard")
    if not reshard_specs:
        raise ValueError("the scenario needs a reshard@T:dX->dY fault "
                         "(the campaign perturbs it, it cannot invent one)")
    base = scenario.with_(faults=reshard_specs)

    # Epoch 0's init fires at t=0 with no migration in flight; the begin and
    # commit instants of each actual epoch change are the windows that matter.
    anchors = [t for t in probe_windows(base, requests=requests, horizon=horizon,
                                        settle=settle)
               if t.phase == PHASE_RESHARDING and t.time > 0]
    span = (max(t.time for t in anchors) - min(t.time for t in anchors)
            if len(anchors) >= 2 else 0.0)

    plan = AdversarialFaultPlan.for_scenario(
        base.with_(faults=()),
        anchors=anchors,
        # Half the window span of jitter around each begin/commit anchor
        # covers the whole migration (plus shoulders); the standby servers
        # are fair targets too -- a fresh shard crashing mid-install is
        # exactly the case the idempotent MIGRATE replay exists for.
        jitter=max(12.0, span / 2),
        db_servers=tuple(scenario.all_db_server_names),
    )
    report = ReshardCampaignReport(dsn=base.to_dsn(), seed=seed,
                                   windows=len(anchors))
    rng = random.Random(zlib.crc32(f"reshard-campaign:{base.to_dsn()}:{seed}"
                                   .encode()))

    def job_for(atoms: tuple[FaultAtom, ...]) -> api.RunJob:
        faults = tuple(sorted(reshard_specs + atoms_to_specs(atoms),
                              key=lambda s: (s.time, s.kind, s.target)))
        return api.RunJob(base.with_(faults=faults), requests=requests,
                          horizon=horizon, settle=settle)

    jobs = [job_for(plan.sample(rng)) for _ in range(runs)]
    for row in map_jobs(evaluate_schedule, jobs, workers=workers):
        report.runs += 1
        if row.violating:
            report.violating.append((row.dsn, row.violations))
    return report

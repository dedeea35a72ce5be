"""The fault-campaign runner: seeded generations, online spec checks, shrink.

:func:`run_campaign` explores the fault space of one scenario:

1. **Probe** -- run the scenario fault-free with a
   :class:`~repro.campaign.windows.FaultWindowObserver` attached; its
   phase-transition log becomes the injection-window map.
2. **Search** -- seeded generations: generation 0 samples window-targeted
   schedules from the :class:`~repro.campaign.adversarial.AdversarialFaultPlan`,
   later generations mutate the highest-scoring survivors (near-miss
   schedules) and top up with fresh samples.  Every schedule is one scenario
   (faults baked in as DSN specs) evaluated -- in parallel over the PR-2
   ``map_jobs`` pool -- with the online ``SpecMonitor`` verdict forced to
   include the termination properties: a blocked protocol *is* the failure
   mode the paper cares about.
3. **Shrink** -- each distinct violation signature's first counterexample is
   delta-debugged down to a minimal schedule that still violates, then
   packaged as a replayable :class:`~repro.campaign.artifacts.Counterexample`.

Determinism is the contract, exactly as for sweeps: the master seed fixes
every generation byte-for-byte, parallel evaluation equals serial
evaluation, and a saved counterexample replays to the same violations.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from repro import api
from repro.api.scenario import Scenario
from repro.api.sweep import map_jobs
from repro.campaign.adversarial import AdversarialFaultPlan, FaultAtom, atoms_to_specs
from repro.campaign.artifacts import Counterexample
from repro.campaign.shrink import atom_reducers, shrink_sequence
from repro.campaign.windows import FaultWindowObserver, PhaseTransition
from repro.core.spec import _key_of_value
from repro.core.types import VOTE_YES


@dataclass(frozen=True)
class CampaignBudget:
    """How much searching a campaign may do.

    ``max_runs`` caps the *search* evaluations (the probe run and shrinking
    are accounted separately: ``shrink_checks`` caps the oracle re-runs spent
    minimising each counterexample).
    """

    max_runs: int = 200
    population: int = 12
    survivors: int = 3
    offspring_per_survivor: int = 3
    stop_after: int = 2          # distinct violation signatures before stopping
    shrink_checks: int = 60
    certificates: int = 3        # near-miss schedules certified clean
    requests: int = 1
    horizon: float = 120_000.0
    settle: float = 20_000.0

    def __post_init__(self) -> None:
        if self.max_runs < 1 or self.population < 1:
            raise ValueError("campaign budget needs max_runs >= 1 and "
                             "population >= 1")
        if self.stop_after < 1:
            raise ValueError("stop_after must be >= 1 (it is the number of "
                             "distinct violation signatures that ends the "
                             "search early; raise it to keep searching)")
        if self.survivors < 1 or self.offspring_per_survivor < 0:
            raise ValueError("campaign budget needs survivors >= 1 and "
                             "offspring_per_survivor >= 0")


@dataclass(frozen=True)
class EvaluatedRun:
    """Outcome and progress metric of one schedule's evaluation."""

    dsn: str
    delivered: int
    undelivered: int
    in_doubt: int
    in_flight: int               # spec-monitor transactions never resolved
    aborted_results: int
    in_doubt_dwell: float        # summed voted-yes-but-undecided time (ms)
    violations: tuple[str, ...]
    properties: tuple[str, ...]  # sorted violated property names

    @property
    def violating(self) -> bool:
        return bool(self.violations)

    @property
    def score(self) -> float:
        """Progress metric: how close this schedule got to a violation.

        Violations dominate everything; otherwise unresolved protocol state
        (in-doubt databases, unretired monitor transactions, undelivered
        requests) and in-doubt dwell time rank near-misses.
        """
        if self.violations:
            return 1e9 + len(self.violations)
        return (5.0 * self.in_doubt + 3.0 * self.in_flight
                + 2.0 * self.undelivered + 1.0 * self.aborted_results
                + self.in_doubt_dwell / 1_000.0)


def _in_doubt_dwell(system) -> float:
    """Summed time (virtual ms) databases spent voted-yes-but-undecided.

    Needs ``full`` trace retention (the campaign default); under a bounded
    retention the dwell component of the score degrades to 0 and the counters
    carry the ranking.
    """
    trace = system.trace
    if trace.retention != "full":
        return 0.0
    first_vote: dict[tuple, float] = {}
    first_decide: dict[tuple, float] = {}
    for event in trace.select("db_vote", vote=VOTE_YES):
        key = (event.process, _key_of_value(event.get("j")))
        first_vote.setdefault(key, event.time)
    for event in trace.select("db_decide"):
        key = (event.process, _key_of_value(event.get("j")))
        first_decide.setdefault(key, event.time)
    now = system.sim.now
    return sum(first_decide.get(key, now) - voted
               for key, voted in first_vote.items())


def evaluate_schedule(job: api.RunJob) -> EvaluatedRun:
    """Run one faulted scenario and measure it (module-level: picklable).

    Termination checking is deliberately forced on: the schedules a campaign
    explores stay inside the paper's assumption envelope, under which a
    protocol that blocks (undelivered requests, databases stuck in doubt) is
    violating the specification, not merely unlucky.
    """
    system = api.build(job.scenario)
    result = api.drive(system, job.requests, horizon_per_request=job.horizon,
                   settle=job.settle, check_termination=True)
    stats, violations = result.statistics, result.spec.violations
    return EvaluatedRun(
        dsn=result.dsn,
        delivered=stats.count,
        undelivered=stats.undelivered,
        in_doubt=sum(db.in_doubt for db in stats.by_database.values()),
        in_flight=system.spec_monitor.in_flight,
        aborted_results=stats.aborted_results,
        in_doubt_dwell=_in_doubt_dwell(system),
        violations=tuple(str(v) for v in violations),
        properties=tuple(sorted({v.property_name for v in violations})),
    )


def probe_windows(scenario: Scenario, requests: int = 1,
                  horizon: float = 120_000.0,
                  settle: float = 5_000.0) -> tuple[PhaseTransition, ...]:
    """Probe run of the scenario as given; returns the recorded injection
    windows (the campaigns pass their fault-free or reshard-only base)."""
    system = api.build(scenario)
    observer = FaultWindowObserver.attach(system.trace)
    api.drive(system, requests, horizon_per_request=horizon, settle=settle)
    observer.detach()
    return tuple(observer.transitions)


@dataclass(frozen=True)
class GenerationStats:
    """One generation's summary line."""

    index: int
    size: int
    best_score: float
    violating_runs: int


@dataclass
class CampaignReport:
    """Everything one campaign produced."""

    dsn: str
    seed: int
    budget: CampaignBudget
    windows: int
    runs: int = 0
    shrink_runs: int = 0
    generations: list[GenerationStats] = field(default_factory=list)
    counterexamples: list[Counterexample] = field(default_factory=list)
    certificates: list[Counterexample] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """No schedule in the explored budget violated the specification."""
        return not self.counterexamples

    def summary(self) -> str:
        """Human-readable multi-line report (what the CLI prints)."""
        lines = [
            f"campaign    {self.dsn}",
            f"budget      {self.budget.max_runs} runs max, population "
            f"{self.budget.population}, master seed {self.seed}",
            f"windows     {self.windows} injection windows from the probe run",
            f"search      {self.runs} schedules evaluated over "
            f"{len(self.generations)} generation(s), "
            f"{self.shrink_runs} shrink re-runs",
        ]
        for stats in self.generations:
            lines.append(f"  gen {stats.index}: {stats.size} schedules, "
                         f"best score {min(stats.best_score, 1e9):.1f}, "
                         f"{stats.violating_runs} violating")
        if self.counterexamples:
            lines.append(f"violations  {len(self.counterexamples)} distinct "
                         "counterexample(s), shrunk:")
            for example in self.counterexamples:
                lines.append(f"  {example.dsn}")
                for violation in example.violations:
                    lines.append(f"    {violation}")
        else:
            lines.append("violations  none found: the protocol survived the "
                         "campaign budget")
            for example in self.certificates:
                lines.append(f"  certified clean: {example.dsn}")
        return "\n".join(lines)


def _signature(row: EvaluatedRun) -> tuple[str, ...]:
    return row.properties


def run_campaign(scenario: Union[Scenario, str],
                 budget: Optional[CampaignBudget] = None,
                 seed: int = 0, workers: Optional[int] = 1,
                 plan: Optional[AdversarialFaultPlan] = None) -> CampaignReport:
    """Adversarially search ``scenario``'s fault space within ``budget``.

    Returns a :class:`CampaignReport` whose counterexamples are shrunk and
    replay-ready.  Fully deterministic for a given ``(scenario, budget,
    seed)`` -- including under ``workers > 1``.
    """
    if isinstance(scenario, str):
        scenario = Scenario.from_dsn(scenario)
    base = scenario.with_(faults=())
    budget = budget if budget is not None else CampaignBudget()
    windows = probe_windows(base, requests=budget.requests,
                            horizon=budget.horizon, settle=budget.settle)
    if plan is None:
        plan = AdversarialFaultPlan.for_scenario(base, anchors=windows)
    report = CampaignReport(dsn=base.to_dsn(), seed=seed, budget=budget,
                            windows=len(windows))
    rng = random.Random(zlib.crc32(f"campaign:{base.to_dsn()}:{seed}".encode()))

    def job_for(atoms: Sequence[FaultAtom]) -> api.RunJob:
        return api.RunJob(base.with_(faults=atoms_to_specs(atoms)),
                          requests=budget.requests, horizon=budget.horizon,
                          settle=budget.settle)

    by_signature: dict[tuple[str, ...], tuple[tuple[FaultAtom, ...], EvaluatedRun]] = {}
    all_rows: list[tuple[tuple[FaultAtom, ...], EvaluatedRun]] = []
    entries: list[tuple[FaultAtom, ...]] = [plan.sample(rng)
                                            for _ in range(budget.population)]
    generation = 0
    while report.runs < budget.max_runs:
        entries = entries[:budget.max_runs - report.runs]
        rows = map_jobs(evaluate_schedule, [job_for(atoms) for atoms in entries],
                        workers=workers)
        report.runs += len(rows)
        all_rows.extend(zip(entries, rows))
        report.generations.append(GenerationStats(
            index=generation, size=len(rows),
            best_score=max((row.score for row in rows), default=0.0),
            violating_runs=sum(row.violating for row in rows)))
        for atoms, row in zip(entries, rows):
            if row.violating:
                by_signature.setdefault(_signature(row), (atoms, row))
        if len(by_signature) >= budget.stop_after:
            break
        if report.runs >= budget.max_runs:
            break
        ranked = sorted(range(len(rows)), key=lambda i: (-rows[i].score, i))
        children = [plan.mutate(entries[index], rng)
                    for index in ranked[:budget.survivors]
                    for _ in range(budget.offspring_per_survivor)]
        while len(children) < budget.population:
            children.append(plan.sample(rng))
        entries = children[:budget.population]
        generation += 1

    for signature, (atoms, row) in sorted(by_signature.items()):
        shrunk_atoms, shrunk_row, checks = _shrink_counterexample(
            atoms, row, signature, job_for, budget)
        report.shrink_runs += checks
        report.counterexamples.append(Counterexample(
            dsn=job_for(shrunk_atoms).scenario.to_dsn(),
            kind="violation",
            violations=shrunk_row.violations,
            requests=budget.requests,
            horizon=budget.horizon,
            settle=budget.settle,
            provenance={
                "base_dsn": base.to_dsn(),
                "campaign_seed": seed,
                "search_runs": report.runs,
                "original_actions": len(atoms_to_specs(atoms)),
                "shrink_checks": checks,
                "signature": list(signature),
            },
        ))
    if not by_signature:
        report.certificates = _certificates(all_rows, base, report, budget)
    return report


def _shrink_counterexample(atoms, row, signature, job_for, budget):
    """Delta-debug one violating schedule; returns (atoms, row, checks)."""
    target = set(signature)
    cache: dict[tuple[FaultAtom, ...], EvaluatedRun] = {tuple(atoms): row}

    def oracle(candidate: tuple) -> bool:
        candidate = tuple(candidate)
        if candidate not in cache:
            cache[candidate] = evaluate_schedule(job_for(candidate))
        # The shrunk schedule must still violate *everything* the original
        # did: a (T.1, T.2) blocking counterexample must not silently decay
        # into a plain undelivered-request one while shrinking.
        return target <= set(cache[candidate].properties)

    result = shrink_sequence(atoms, oracle, reducers=atom_reducers(),
                             max_checks=budget.shrink_checks)
    shrunk = tuple(result.items)
    shrunk_row = cache.get(shrunk)
    if shrunk_row is None:  # the input was already minimal and never re-run
        shrunk_row = evaluate_schedule(job_for(shrunk))
    return shrunk, shrunk_row, result.checks


def _certificates(all_rows, base, report, budget):
    """Package the nastiest clean schedules as replayable certificates.

    A clean campaign's evidence should be replayable just like a violation:
    the highest-scoring (closest-to-the-edge) schedules the search actually
    evaluated become corpus artifacts asserting *zero* violations.
    """
    ranked = sorted(range(len(all_rows)),
                    key=lambda i: (-all_rows[i][1].score, i))
    certificates: list[Counterexample] = []
    seen: set[str] = set()
    for index in ranked:
        _, row = all_rows[index]
        if row.violating or row.dsn in seen:
            continue
        seen.add(row.dsn)
        certificates.append(Counterexample(
            dsn=row.dsn, kind="certificate", violations=(),
            requests=budget.requests, horizon=budget.horizon,
            settle=budget.settle,
            provenance={"base_dsn": base.to_dsn(),
                        "campaign_seed": report.seed,
                        "search_runs": report.runs}))
        if len(certificates) >= budget.certificates:
            break
    return certificates

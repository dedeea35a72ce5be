"""Every experiment as data, and its claims.

:data:`EXPERIMENTS` is the table of experiments.  An entry lists labelled
scenario DSNs, the columns its table reports (:data:`COLUMNS`: values of the
run's :class:`~repro.api.ScenarioResult`, of the
:class:`~repro.metrics.steps.StreamingProfile` and the
:class:`~repro.metrics.latency.LatencyComponentStream` the executor attaches,
or of the trace) and its :class:`Claim` rows: a measured expression over the
table, the expected (often the paper's) value, a tolerance and a source.
:func:`run` is the one executor (every run is one :func:`repro.api.map_jobs`
job, so a parallel run prints the same bytes as a serial one),
:func:`evaluate` the one claim evaluator and :func:`render` the one report;
``python -m repro experiment [NAME ...]`` prints them.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple, Optional, Sequence

from repro import api
from repro.campaign.adversarial import RandomFaultPlan
from repro.core.deployment import ThreeTierDeployment
from repro.metrics.latency import (COMPONENT_ORDER, LatencyBreakdown, LatencyComponentStream,
                                   breakdown_from_run)
from repro.metrics.steps import CommunicationProfile, StreamingProfile
from repro.metrics.table import render_table

PAPER_FIGURE8: dict[str, dict[str, float]] = {
    "baseline": {"start": 3.4, "end": 3.4, "commit": 18.6, "prepare": 0.0, "SQL": 187.0,
                 "log-start": 0.0, "log-outcome": 0.0, "other": 5.0, "total": 217.4},
    "AR": {"start": 3.5, "end": 3.5, "commit": 18.8, "prepare": 19.0, "SQL": 193.2,
           "log-start": 4.5, "log-outcome": 4.7, "other": 5.1, "total": 252.3},
    "2PC": {"start": 3.5, "end": 3.4, "commit": 17.5, "prepare": 21.2, "SQL": 190.6,
            "log-start": 12.5, "log-outcome": 12.7, "other": 5.1, "total": 266.5},
}
"""Figure 8 of the paper (Appendix 3), milliseconds, HP C180 + Orbix 2.3 +
Oracle 8.0.3.  The simulator's default :class:`~repro.core.timing.DatabaseTiming`
is calibrated to its baseline column."""

PAPER = "workload=bank&timing=paper"
BASELINE_DSN = f"baseline://a1.d1.c1?{PAPER}"
TWOPC_DSN = f"2pc://a1.d1.c1?{PAPER}"
AR_DSN = f"etx://a3.d1.c1?{PAPER}"
FAILOVER_DSN = f"etx://a3.d1.c1?detect=10&{PAPER}"
"""The fail-over deployment of Figure 1, E5 and the fault sweep: the oracle
detector suspects a crashed server 10 ms after its crash."""
RESHARD_DSN = "etx://a3.d4.c8?rate=6&arrival=poisson&seed=7&workload=bank&placement=hash"
"""E11's open loop: 6/s is ~80 % of what three application servers commit, so a
stalled migration shows as a throughput hole and the flat twin has no backlog."""

Rows = dict[str, dict[str, Any]]
"""One experiment's measured table: run label -> column -> value."""


def overhead(total: float, baseline: float) -> float:
    """Relative latency overhead ('cost of reliability', 0.16 for +16 %);
    0 against a baseline that measured nothing."""
    return total / baseline - 1.0 if baseline > 0 else 0.0


def paper_overhead(protocol: str, same_sql: bool = False) -> float:
    """The paper's cost of reliability of ``protocol``, derived from
    :data:`PAPER_FIGURE8`; ``same_sql`` first sets its SQL row to the
    baseline's, as the simulator charges identical SQL work identically."""
    row, base = PAPER_FIGURE8[protocol], PAPER_FIGURE8["baseline"]
    sql_gap = row["SQL"] - base["SQL"] if same_sql else 0.0
    return overhead(row["total"] - sql_gap, base["total"])


class Claim(NamedTuple):
    """One checked statement: ``measure(rows)`` against ``expected``.

    ``sense`` ``"="`` holds within ``tolerance`` either way, ``">="`` /
    ``"<="`` hold at or beyond ``expected`` less / plus the tolerance.  A
    boolean claim expects ``True``."""

    label: str
    measure: Callable[[Rows], Any]
    expected: Any
    source: str
    tolerance: float = 0.0
    sense: str = "="
    fmt: str = "g"
    note: str = ""


class Run(NamedTuple):
    """One labelled scenario; ``setup`` (a module-level function, so a worker
    process can unpickle it) acts on the built system before the load.  The
    table sums the runs labelled ``group/...`` into one row per group."""

    label: str
    dsn: str
    setup: Optional[Callable[[Any], None]] = None


class Experiment(NamedTuple):
    """An experiment as a committed value: its runs, columns and claims."""

    title: str
    runs: tuple[Run, ...]
    columns: tuple[str, ...]
    claims: tuple[Claim, ...]
    requests: int = 1
    listing: bool = False


def _hold_account_lock(system: Any) -> None:
    """Fig. 1(b): another session holds ``account:0``'s lock until 350 ms, so
    the database votes no for the first result and the retry commits."""
    store = system.db_servers["d1"].store
    store.begin("interactive-session")
    store.write("interactive-session", "account:0", 0)
    system.sim.schedule(350.0, lambda: store.abort("interactive-session"),
                        name="release-blocking-lock")


def _random_schedules(group: str, client_crashes: bool) -> tuple[Run, ...]:
    """E6's 200 fault schedules of one kind: seed ``s`` draws the faults of
    :class:`RandomFaultPlan` and seeds the run."""
    base = api.Scenario.from_dsn(FAILOVER_DSN)
    plan = RandomFaultPlan(base.app_server_names, base.db_server_names,
                           client="c1" if client_crashes else None, horizon=1_500.0,
                           client_crash_probability=0.4 if client_crashes else 0.0)
    runs = []
    for seed in range(200):
        faults = "".join(f"&fault={fault.to_token()}" for fault in plan.generate(seed))
        runs.append(Run(f"{group}/seed={seed}", f"{FAILOVER_DSN}&seed={seed}{faults}"))
    return tuple(runs)


def _reshard(system: Any) -> tuple[int, int, float]:
    """Epoch, shard count and migration window (ms) after the run's reshard."""
    stages = {event.get("stage"): event for event in system.trace.select("reshard")}
    if "commit" not in stages:
        return 0, system.scenario.num_db_servers, 0.0
    commit = stages["commit"]
    return commit.get("epoch"), len(commit.get("shards")), commit.time - stages["begin"].time


FIGURE7_TYPES = ("Request", "Execute", "Prepare", "Vote", "Decide", "AckDecide",
                 "CommitOnePhase", "Result", "PBStart", "PBOutcome")


class Measured(NamedTuple):
    """What one run measured: its result, its communication profile, the
    system it ran on and its Figure 8 latency components."""

    result: api.ScenarioResult
    profile: CommunicationProfile
    system: ThreeTierDeployment
    breakdown: LatencyBreakdown


COLUMNS: dict[str, tuple[Callable[[Measured], Any], str]] = {
    **{name: (lambda m, name=name: m.breakdown.component(name), ".1f")
       for name in COMPONENT_ORDER},
    "total": (lambda m: m.breakdown.total, ".1f"),
    **{name: (lambda m, name=name: m.profile.count(name), "d") for name in FIGURE7_TYPES},
    "Consensus": (lambda m: m.profile.consensus_messages, "d"),
    "protocol msgs": (lambda m: len(m.profile.steps), "d"),
    "messages": (lambda m: m.profile.total_messages, "d"),
    "latency": (lambda m: m.result.statistics.mean_latency, ".1f"),
    "delivered": (lambda m: m.result.delivered, "d"),
    "tput/s": (lambda m: m.result.statistics.throughput, ".2f"),
    "attempts": (lambda m: m.result.statistics.mean_attempts, "g"),
    "aborted": (lambda m: m.result.statistics.aborted_results, "d"),
    "answered by": (lambda m: tuple(sorted(
        {step.sender for step in m.profile.steps if step.msg_type == "Result"})), ","),
    "terminators": (lambda m: len(
        {event.process for event in m.system.trace.select("as_terminate")}), "d"),
    "balance": (lambda m: m.system.db_servers["d1"].committed_value("account:0"), "d"),
    "spec": (lambda m: m.result.spec.ok, ""),
    "runs": (lambda m: 1, "d"),
    "violations": (lambda m: len(m.result.spec.violations), "d"),
    "p95": (lambda m: m.result.statistics.p95, ".0f"),
    "epoch": (lambda m: _reshard(m.system)[0], "d"),
    "shards": (lambda m: _reshard(m.system)[1], "d"),
    "window ms": (lambda m: _reshard(m.system)[2], ".0f"),
    "deferred": (lambda m: m.system.trace.count("epoch_defer"), "d"),
    "epoch retries": (lambda m: m.system.trace.count("epoch_retry"), "d"),
}
"""Column name -> (its value for one run, given what the run
:class:`Measured`; the format it prints with)."""


def _overhead_of(protocol: str) -> Callable[[Rows], float]:
    return lambda rows: overhead(rows[protocol]["total"], rows["baseline"]["total"])


def _column(label: str, column: str) -> Callable[[Rows], Any]:
    return lambda rows: rows[label][column]


def _spread(column: str) -> Callable[[Rows], float]:
    return lambda rows: (max(row[column] for row in rows.values())
                         - min(row[column] for row in rows.values()))


def _backup_answers(label: str) -> Callable[[Rows], bool]:
    return lambda rows: bool(set(rows[label]["answered by"]) - {"a1"})


def _total(group: str, column: str) -> Callable[[Rows], int]:
    return lambda rows: sum(row[column] for label, row in rows.items()
                            if label.startswith(f"{group}/"))


def _throughput_ratio(label: str, over: str) -> Callable[[Rows], float]:
    return lambda rows: rows[label]["tput/s"] / rows[over]["tput/s"]


_SQL_NOTE = ("the paper's SQL row differs by protocol (187.0 / 193.2 / 190.6 ms) for "
             "identical SQL work, and the simulator charges 187.0 to all three; with "
             "the paper's SQL set to 187.0 its overheads are 13.2 % and 20.9 %")
_QUIET = ("patient client, reliable FD", "impatient client, reliable FD")
_NOISY = ("patient client, false suspicion", "impatient client, false suspicion")
_FALSE_SUSPICION = "fault=false_suspicion@15:a2:a1:200"
_LOGS = (0, 2, 5, 12.5, 25)
_FAULTS, _CLIENT_CRASHES = "random faults", "random faults, client crashes"

EXPERIMENTS: dict[str, Experiment] = {
    "figure8": Experiment(
        "Figure 8: latency per component, ms (E1/E4)",
        (Run("baseline", BASELINE_DSN), Run("AR", AR_DSN), Run("2PC", TWOPC_DSN)),
        (*COMPONENT_ORDER, "total"),
        (*(Claim(f"{p} total, ms", _column(p, "total"), PAPER_FIGURE8[p]["total"], "Figure 8",
                 round(0.05 * PAPER_FIGURE8[p]["total"], 1), fmt=".1f")
           for p in ("baseline", "AR", "2PC")),
         Claim("baseline < AR < 2PC total", lambda r: (
             r["baseline"]["total"] < r["AR"]["total"] < r["2PC"]["total"]), True, "Figure 8"),
         *(Claim(f"{p} cost of reliability", _overhead_of(p), paper_overhead(p), "Figure 8",
                 0.06, fmt=".1%") for p in ("AR", "2PC")),
         *(Claim(f"{p} cost of reliability, paper SQL 187.0", _overhead_of(p),
                 paper_overhead(p, same_sql=True), "Figure 8", 0.005, fmt=".1%",
                 note=_SQL_NOTE) for p in ("AR", "2PC")),
         Claim("baseline prepare + log-start + log-outcome, ms", lambda r: sum(
             r["baseline"][c] for c in ("prepare", "log-start", "log-outcome")), 0.0,
             "Figure 8", fmt=".1f"),
         *(Claim(f"{p} {c}, ms", _column(p, c), PAPER_FIGURE8[p][c], "Figure 8", 0.5, fmt=".1f")
           for p, c in (("AR", "prepare"), ("AR", "log-start"), ("AR", "log-outcome"),
                        ("2PC", "log-start"), ("2PC", "log-outcome"))),
         Claim("SQL spread over the columns, ms", _spread("SQL"), 0.0, "Figure 8", fmt=".1f")),
        requests=5),
    "figure7": Experiment(
        "Figure 7: messages of one failure-free request (E2)",
        (Run("baseline", BASELINE_DSN), Run("2PC", TWOPC_DSN),
         Run("PB", f"pb://a2.d1.c1?{PAPER}"), Run("AR", AR_DSN)),
        (*FIGURE7_TYPES, "Consensus", "protocol msgs", "messages", "latency"),
        (Claim("baseline Prepare", _column("baseline", "Prepare"), 0, "Figure 7"),
         Claim("baseline CommitOnePhase", _column("baseline", "CommitOnePhase"), 1, "Figure 7"),
         *(Claim(f"{p} {t}", _column(p, t), 1, "Figure 7")
           for p in ("2PC", "PB", "AR") for t in ("Prepare", "Vote")),
         *(Claim(f"PB {t}", _column("PB", t), 1, "Figure 7") for t in ("PBStart", "PBOutcome")),
         Claim("AR PBStart", _column("AR", "PBStart"), 0, "Figure 7"),
         Claim("AR Consensus (two register writes)", _column("AR", "Consensus"), 8, "§4"),
         Claim("Consensus outside AR", lambda r: sum(
             r[p]["Consensus"] for p in ("baseline", "2PC", "PB")), 0, "Figure 7"),
         Claim("2PC messages", _column("2PC", "messages"), 8, "Figure 7"),
         Claim("AR messages", _column("AR", "messages"), 16, "Figure 7"),
         Claim("protocol msgs: baseline < 2PC <= AR <= PB", lambda r: (
             r["baseline"]["protocol msgs"] < r["2PC"]["protocol msgs"]
             <= r["AR"]["protocol msgs"] <= r["PB"]["protocol msgs"]), True, "Figure 7"),
         Claim("latency: baseline < AR < 2PC", lambda r: (
             r["baseline"]["latency"] < r["AR"]["latency"] < r["2PC"]["latency"]), True,
             "Figure 8")),
        listing=True),
    "figure1": Experiment(
        "Figure 1: the four executions of the e-Transaction protocol (E3)",
        (Run("a", FAILOVER_DSN), Run("b", FAILOVER_DSN, _hold_account_lock),
         Run("c", f"{FAILOVER_DSN}&fault=crash@244:a1"),
         Run("d", f"{FAILOVER_DSN}&fault=crash@60:a1")),
        ("delivered", "attempts", "aborted", "answered by", "balance", "spec"),
        (Claim("(a) attempts", _column("a", "attempts"), 1, "Fig. 1(a)"),
         Claim("(a) aborted results", _column("a", "aborted"), 0, "Fig. 1(a)"),
         Claim("(a) the primary answers", lambda r: r["a"]["answered by"] == ("a1",), True,
               "Fig. 1(a)"),
         Claim("(b) aborted results", _column("b", "aborted"), 1, "Fig. 1(b)", sense=">="),
         Claim("(b) attempts", _column("b", "attempts"), 2, "Fig. 1(b)", sense=">="),
         Claim("(c) attempts", _column("c", "attempts"), 1, "Fig. 1(c)"),
         Claim("(c) aborted results", _column("c", "aborted"), 0, "Fig. 1(c)"),
         Claim("(c) a backup answers", _backup_answers("c"), True, "Fig. 1(c)"),
         Claim("(d) aborted results", _column("d", "aborted"), 1, "Fig. 1(d)", sense=">="),
         Claim("(d) a backup answers", _backup_answers("d"), True, "Fig. 1(d)"),
         Claim("runs not debiting the account exactly once", lambda r: sum(
             row["balance"] != 100_000 - 10 for row in r.values()), 0, "§3")),
    ),
    "asynchrony": Experiment(
        "E5: asynchrony of the replication scheme",
        (Run(_QUIET[0], FAILOVER_DSN), Run(_QUIET[1], f"{FAILOVER_DSN}&backoff=40"),
         Run(_NOISY[0], f"{FAILOVER_DSN}&{_FALSE_SUSPICION}"),
         Run(_NOISY[1], f"{FAILOVER_DSN}&backoff=40&{_FALSE_SUSPICION}")),
        ("attempts", "aborted", "terminators", "spec"),
        (*(Claim(f"{label}: terminators", _column(label, "terminators"), 1, "§5")
           for label in _QUIET),
         *(Claim(f"{label}: terminators", _column(label, "terminators"), 2, "§5")
           for label in _NOISY),
         *(Claim(f"{label}: aborted results", _column(label, "aborted"), 0, "§5")
           for label in _QUIET),
         *(Claim(f"{label}: aborted results", _column(label, "aborted"), 1, "§5", sense=">=")
           for label in _NOISY)),
    ),
    "fault_sweep": Experiment(
        "E6: agreement and validity under 200 random fault schedules of each kind",
        (*_random_schedules(_FAULTS, False), *_random_schedules(_CLIENT_CRASHES, True)),
        ("runs", "delivered", "aborted", "violations"),
        (Claim(f"{_FAULTS}: runs delivered", _total(_FAULTS, "delivered"), 200, "§5"),
         *(Claim(f"{group}: aborted results", _total(group, "aborted"), 1, "Fig. 1(d)",
                 sense=">=") for group in (_FAULTS, _CLIENT_CRASHES)),
         *(Claim(f"{group}: violations", _total(group, "violations"), 0, "§5")
           for group in (_FAULTS, _CLIENT_CRASHES))),
    ),
    "log_cost": Experiment(
        "E7: forced-log latency, AR vs 2PC, ms",
        (Run("AR", AR_DSN),
         *(Run(f"2PC log={log:g}", f"{TWOPC_DSN}&log={log:g}") for log in _LOGS)),
        ("latency",),
        (Claim("2PC faster than AR at log=0", lambda r: (
             r["2PC log=0"]["latency"] < r["AR"]["latency"]), True, "Appendix 3"),
         Claim("AR faster than 2PC at log=12.5", lambda r: (
             r["AR"]["latency"] < r["2PC log=12.5"]["latency"]), True, "Appendix 3"),
         Claim("crossover forced-log latency, ms", lambda r: (
             r["AR"]["latency"] - r["2PC log=0"]["latency"]) / 2,
             (PAPER_FIGURE8["AR"]["log-start"] + PAPER_FIGURE8["AR"]["log-outcome"]) / 2,
             "Figure 8", 0.5, fmt=".2f"),
         Claim("2PC latency per ms of forced log", lambda r: (
             r["2PC log=25"]["latency"] - r["2PC log=0"]["latency"]) / 25, 2.0,
             "Appendix 3", 0.05, fmt=".2f")),
    ),
    "scaling": Experiment(
        "E8: replication degree of AR",
        tuple(Run(f"n={n}", f"etx://a{n}.d1.c1?{PAPER}") for n in (1, 3, 5, 7)),
        ("latency", "messages"),
        (Claim("latency spread over n, ms", _spread("latency"), 10.0, "§4", sense="<=", fmt=".1f"),
         Claim("messages grow with n", lambda r: all(
             a["messages"] < b["messages"] for a, b in zip(
                 list(r.values()), list(r.values())[1:])), True, "§4")),
    ),
    "scaleout": Experiment(
        "E9: throughput vs database-tier size at 16 requests/s offered",
        tuple(Run(f"d={d} xshard={x:g}", f"etx://a3.d{d}.c12?workload=bank&placement=hash"
                  f"&xshard={x:g}&rate=16&arrival=uniform")
              for x in (0, 0.25) for d in (1, 2, 4, 8)),
        ("delivered", "tput/s"),
        (*(Claim(f"speed-up of d={d} over d=1 at xshard=0", _throughput_ratio(
            f"d={d} xshard=0", "d=1 xshard=0"), low, "E9", sense=">=", fmt=".2f")
           for d, low in ((2, 1.5), (4, 2.5), (8, 2.5))),
         *(Claim(f"d={d}: xshard=0.25 over xshard=0 throughput", _throughput_ratio(
             f"d={d} xshard=0.25", f"d={d} xshard=0"), 1.05, "E9", sense="<=", fmt=".2f")
           for d in (2, 4, 8))),
        requests=4),
    "reshard": Experiment(
        "E11: growing the data tier d4 -> d8 under open-loop load",
        (Run("d4->d8", f"{RESHARD_DSN}&fault=reshard@5000:d4->d8"), Run("flat", RESHARD_DSN)),
        ("delivered", "tput/s", "p95", "epoch", "shards", "window ms", "deferred",
         "epoch retries"),
        (Claim("throughput with the reshard over the flat twin's",
               _throughput_ratio("d4->d8", "flat"), 0.85, "E11", sense=">=", fmt=".2f"),
         Claim("epoch after the reshard", _column("d4->d8", "epoch"), 1, "E11", sense=">="),
         Claim("shards after the reshard", _column("d4->d8", "shards"), 8, "E11"),
         Claim("migration window > 0 ms", lambda r: r["d4->d8"]["window ms"] > 0, True, "E11"),
         Claim("migration window, ms", _column("d4->d8", "window ms"), 5000, "E11", sense="<=")),
        requests=15),
}

EVERY_RUN_OK = Claim("every run delivered and kept the specification",
                     lambda rows: not any(row["failures"] for row in rows.values()), True, "§3")
"""The claim every experiment checks besides its own.  A run whose scenario
crashes a client owes at-most-once only: it needs the specification, not delivery."""


def _failures(result: api.ScenarioResult) -> list[str]:
    """Why one run fails :data:`EVERY_RUN_OK`: nothing when it holds."""
    failures = [str(violation) for violation in result.spec.violations]
    if result.delivered < result.requested and not result.scenario.faults_a_client:
        failures.insert(0, f"{result.delivered} of {result.requested} requests delivered")
    return failures


def _execute(job: tuple[str, Run, api.Scenario]) -> dict[str, Any]:
    """Build one run, attach a profile and the latency components, drive it
    and return its row."""
    name, entry, scenario = job
    experiment = EXPERIMENTS[name]
    system = api.build(scenario)
    try:
        streaming = StreamingProfile(system.trace, entry.label)
        components = LatencyComponentStream(system.trace)
        if entry.setup is not None:
            entry.setup(system)
        result = api.drive(system, experiment.requests)
        profile = streaming.detach()
        # The components explain *protocol* latency, so they get the service
        # latency: an open loop's client-observed mean also holds queueing at
        # the client, which is load, not protocol cost.
        breakdown = breakdown_from_run(scenario.protocol, components, system.db_timing,
                                       mean_latency=result.statistics.mean_service_latency,
                                       samples=result.statistics.count)
        measured = Measured(result, profile, system, breakdown)
        row = {column: COLUMNS[column][0](measured) for column in experiment.columns}
        row["failures"] = _failures(result)
        if experiment.listing:
            row["listing"] = profile.sequence_diagram()
    finally:
        system.close()
    return row


def run(names: Sequence[str] = tuple(EXPERIMENTS), seed: Optional[int] = None,
        workers: Optional[int] = 1) -> dict[str, Rows]:
    """Measure the named experiments (``seed`` replaces every DSN's seed).

    Every run of every experiment is one job of one :func:`api.map_jobs`
    call; ``workers`` is its worker count, and any count gives the same rows.
    """
    jobs = []
    for name in names:
        for entry in EXPERIMENTS[name].runs:
            scenario = api.Scenario.from_dsn(entry.dsn)
            if seed is not None:
                scenario = scenario.with_(seed=seed)
            jobs.append((name, entry, scenario))
    tables: dict[str, Rows] = {name: {} for name in names}
    for (name, entry, _), row in zip(jobs, api.map_jobs(_execute, jobs, workers=workers)):
        tables[name][entry.label] = row
    return tables


def evaluate(claim: Claim, rows: Rows) -> tuple[Any, bool]:
    """The claim's measured value over ``rows`` and whether it holds."""
    measured = claim.measure(rows)
    if claim.sense == ">=":
        holds = measured >= claim.expected - claim.tolerance
    elif claim.sense == "<=":
        holds = measured <= claim.expected + claim.tolerance
    else:
        holds = abs(measured - claim.expected) <= claim.tolerance
    return measured, bool(holds)


def _cell(value: Any, fmt: str) -> str:
    if fmt == ",":
        return ",".join(value)
    return str(value) if isinstance(value, bool) else format(value, fmt)


def _expected(claim: Claim) -> str:
    text = _cell(claim.expected, claim.fmt)
    if claim.sense != "=":
        text = f"{claim.sense} {text}"
    return f"{text} +/- {_cell(claim.tolerance, claim.fmt)}" if claim.tolerance else text


def render(name: str, rows: Rows) -> tuple[str, list[bool]]:
    """The experiment's table, listing, claim rows and failed runs as text,
    and the verdict of each claim."""
    experiment = EXPERIMENTS[name]
    shown = rows
    if any("/" in label for label in rows):
        shown = {group: {column: _total(group, column)(rows) for column in experiment.columns}
                 for group in dict.fromkeys(label.partition("/")[0] for label in rows)}
    table = [["run", *experiment.columns]] + [
        [label, *(_cell(row[column], COLUMNS[column][1]) for column in experiment.columns)]
        for label, row in shown.items()]
    parts = [f"== {name}: {experiment.title} ==", render_table(table)]
    if experiment.listing:
        parts.append("\n\n".join(row["listing"] for row in rows.values()))
    claim_table = [["claim", "source", "expected", "measured", "verdict"]]
    verdicts = []
    notes: dict[str, list[str]] = {}
    for claim in (*experiment.claims, EVERY_RUN_OK):
        measured, holds = evaluate(claim, rows)
        verdicts.append(holds)
        claim_table.append([claim.label, claim.source, _expected(claim),
                            _cell(measured, claim.fmt), "pass" if holds else "FAIL"])
        if claim.note:
            notes.setdefault(claim.note, []).append(claim.label)
    parts.append(render_table(claim_table))
    parts.extend(f"{'; '.join(labels)}: {note}" for note, labels in notes.items())
    parts.extend(f"{label} failed: {'; '.join(row['failures'])}"
                 for label, row in rows.items() if row["failures"])
    return "\n\n".join(parts), verdicts

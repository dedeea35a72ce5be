"""Every figure, ablation and scale-out experiment as data, and its claims.

:data:`EXPERIMENTS` is the table of experiments.  An entry lists labelled
scenario DSNs, the columns its table reports (:data:`COLUMNS`: values of the
run's :class:`~repro.api.ScenarioResult`, of the
:class:`~repro.metrics.steps.StreamingProfile` the executor attaches, or of
the trace) and its :class:`Claim` rows: a measured expression over the
table, the expected (often the paper's) value, a tolerance and a source.
Three functions act on the table -- :func:`run` (the one executor: every
run through :func:`repro.api.map_jobs`, so a parallel run prints the same
bytes as a serial one), :func:`evaluate` (the one claim evaluator) and
:func:`render` (the experiment's table, listing and claim verdicts through
:func:`~repro.metrics.table.render_table`).  ``python -m repro experiment
[NAME ...]`` prints them and exits non-zero when a claim fails.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple, Optional, Sequence

from repro import api
from repro.metrics.latency import COMPONENT_ORDER
from repro.metrics.steps import StreamingProfile
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
    process can unpickle it) acts on the built system before the load."""

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


FIGURE7_TYPES = ("Request", "Execute", "Prepare", "Vote", "Decide", "AckDecide",
                 "CommitOnePhase", "Result", "PBStart", "PBOutcome")

COLUMNS: dict[str, tuple[Callable[..., Any], str]] = {
    **{name: (lambda result, profile, system, name=name: result.breakdown.component(name),
              ".1f") for name in COMPONENT_ORDER},
    "total": (lambda result, profile, system: result.breakdown.total, ".1f"),
    **{name: (lambda result, profile, system, name=name: profile.count(name), "d")
       for name in FIGURE7_TYPES},
    "Consensus": (lambda result, profile, system: profile.consensus_messages, "d"),
    "protocol msgs": (lambda result, profile, system: len(profile.steps), "d"),
    "messages": (lambda result, profile, system: profile.total_messages, "d"),
    "latency": (lambda result, profile, system: result.statistics.mean_latency, ".1f"),
    "delivered": (lambda result, profile, system: result.delivered, "d"),
    "tput/s": (lambda result, profile, system: result.statistics.throughput, ".2f"),
    "attempts": (lambda result, profile, system: result.statistics.mean_attempts, "g"),
    "aborted": (lambda result, profile, system: result.statistics.aborted_results, "d"),
    "answered by": (lambda result, profile, system: tuple(sorted(
        {step.sender for step in profile.steps if step.msg_type == "Result"})), ","),
    "terminators": (lambda result, profile, system: len(
        {event.process for event in system.trace.select("as_terminate")}), "d"),
    "balance": (lambda result, profile, system:
                system.db_servers["d1"].committed_value("account:0"), "d"),
    "spec": (lambda result, profile, system: result.spec.ok, ""),
}
"""Column name -> (its value for one run, given the run's result, its
communication profile and the system; the format it prints with)."""


def _overhead_of(protocol: str) -> Callable[[Rows], float]:
    return lambda rows: overhead(rows[protocol]["total"], rows["baseline"]["total"])


def _column(label: str, column: str) -> Callable[[Rows], Any]:
    return lambda rows: rows[label][column]


def _spread(column: str) -> Callable[[Rows], float]:
    return lambda rows: (max(row[column] for row in rows.values())
                         - min(row[column] for row in rows.values()))


def _backup_answers(label: str) -> Callable[[Rows], bool]:
    return lambda rows: bool(set(rows[label]["answered by"]) - {"a1"})


def _speedup(d: int) -> Callable[[Rows], float]:
    return lambda rows: rows[f"d={d} xshard=0"]["tput/s"] / rows["d=1 xshard=0"]["tput/s"]


def _cross_shard_ratio(d: int) -> Callable[[Rows], float]:
    return lambda rows: rows[f"d={d} xshard=0.25"]["tput/s"] / rows[f"d={d} xshard=0"]["tput/s"]


_SQL_NOTE = ("the paper's SQL row differs by protocol (187.0 / 193.2 / 190.6 ms) for "
             "identical SQL work, and the simulator charges 187.0 to all three; with "
             "the paper's SQL set to 187.0 its overheads are 13.2 % and 20.9 %")
_QUIET = ("patient client, reliable FD", "impatient client, reliable FD")
_NOISY = ("patient client, false suspicion", "impatient client, false suspicion")
_FALSE_SUSPICION = "fault=false_suspicion@15:a2:a1:200"
_LOGS = (0, 2, 5, 12.5, 25)

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
         *(Claim(f"{p} {c}, ms", _column(p, c), PAPER_FIGURE8[p][c], "Figure 8", 0.5,
                 fmt=".1f")
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
        (Claim("latency spread over n, ms", _spread("latency"), 10.0, "§4", sense="<=",
               fmt=".1f"),
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
        (*(Claim(f"speed-up of d={d} over d=1 at xshard=0", _speedup(d), low, "E9",
                 sense=">=", fmt=".2f") for d, low in ((2, 1.5), (4, 2.5), (8, 2.5))),
         *(Claim(f"d={d}: xshard=0.25 over xshard=0 throughput", _cross_shard_ratio(d),
                 1.05, "E9", sense="<=", fmt=".2f") for d in (2, 4, 8))),
        requests=4),
}

EVERY_RUN_OK = Claim("every run delivered and kept the specification",
                     lambda rows: all(row["ok"] for row in rows.values()), True, "§3")
"""The claim every experiment checks besides its own."""


def _execute(job: tuple[str, str, api.RunJob]) -> dict[str, Any]:
    """Build one run, attach a profile, drive it and return its row."""
    name, label, run_job = job
    experiment = EXPERIMENTS[name]
    setup = next(run.setup for run in experiment.runs if run.label == label)
    system = api.build(run_job.scenario)
    try:
        streaming = StreamingProfile(system.trace, label)
        if setup is not None:
            setup(system)
        result = api.drive(system, run_job.requests, horizon_per_request=run_job.horizon,
                           settle=run_job.settle)
        profile = streaming.detach()
        row = {column: COLUMNS[column][0](result, profile, system)
               for column in experiment.columns}
        row["ok"] = result.ok
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
        experiment = EXPERIMENTS[name]
        for entry in experiment.runs:
            scenario = api.Scenario.from_dsn(entry.dsn)
            if seed is not None:
                scenario = scenario.with_(seed=seed)
            jobs.append((name, entry.label, api.RunJob(scenario, experiment.requests)))
    tables: dict[str, Rows] = {name: {} for name in names}
    for (name, label, _), row in zip(jobs, api.map_jobs(_execute, jobs, workers=workers)):
        tables[name][label] = row
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
    """The experiment's table, listing and claim rows as text, and the
    verdict of each claim."""
    experiment = EXPERIMENTS[name]
    table = [["run", *experiment.columns]] + [
        [label, *(_cell(row[column], COLUMNS[column][1]) for column in experiment.columns)]
        for label, row in rows.items()]
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
    return "\n\n".join(parts), verdicts

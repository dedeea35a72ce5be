"""Executable specification of the e-Transaction problem (Section 3).

:class:`SpecMonitor` is the **online** checker: it subscribes to the trace
event bus, folds every event into per-transaction state machines as it
happens, emits eagerly-certain violations immediately, and retires completed
transactions.  Its :meth:`~SpecMonitor.report` reproduces, byte for byte
(same violations, same order, same checked properties), the verdict of the
post-hoc checker that replays a complete stored trace -- the differential
oracle kept under ``tests/spec_oracle.py`` -- without ever storing a trace
event, so it works under ``ring:N``/``off`` retention and over arbitrarily
long runs.  Memory is O(in-flight transactions) for the heavy per-key
machinery, plus id-sized bookkeeping that grows with the run's transactions
and its decide/execute applications (key references kept so duplicate
violations reproduce exactly) -- bytes per entry, never the stored-trace's
payload-carrying event objects.  :class:`SpecMonitor` lists what it keeps
and in which form.

With a partitioned data tier, every intermediate result has a **participant
set** -- the database servers its transaction touches, recorded by the
computing application server in the ``as_compute`` trace event -- and the
agreement/validity properties quantify over that set rather than over every
database (on an unpartitioned deployment the two coincide):

* **T.1** -- if the client issues a request then, unless it crashes, it
  eventually delivers a result.
* **T.2** -- if any database server votes for a result, it eventually commits
  or aborts that result.
* **A.1** -- no result is delivered by the client unless it is committed by
  every *participant* database server.
* **A.2** -- no database server commits two different results (for the same
  request).
* **A.3** -- no two database servers decide differently on the same result.
* **V.1** -- a delivered result was computed by an application server with,
  as a parameter, a request issued by the client.
* **V.2** -- no database server commits a result unless every *participant*
  has voted yes for that result.
* **S.1** -- participant confinement: no database server outside a result's
  participant set executes or commits that result.  This is what makes the
  participant set *exact*: routing must neither under-approximate (A.1/V.2
  would catch a missing participant) nor over-approximate (S.1 catches a
  spurious one).

Under **online resharding** the shard universe itself changes over a run:
``reshard`` trace events publish each epoch's shard set, computations are
stamped with the epoch they routed against, and S.1 additionally requires
every stamped participant set to be contained in its epoch's universe --
a transaction must never route against shards its epoch does not know.
A.1/V.2/S.1 otherwise apply unchanged across epochs, because they quantify
over the *recorded* participant set of each result, whichever placement
generation produced it.

Termination properties are only meaningful if the run was given enough time
and the correctness assumptions held (majority of application servers up,
databases eventually up); the caller states this with ``check_termination``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.core.types import ABORT, COMMIT, VOTE_YES
from repro.sim.tracing import TraceEvent, TraceRecorder


@dataclass
class PropertyViolation:
    """One violated property instance."""

    property_name: str
    description: str

    def __str__(self) -> str:
        return f"[{self.property_name}] {self.description}"


@dataclass
class SpecReport:
    """Outcome of checking a run against the e-Transaction specification."""

    violations: list[PropertyViolation] = field(default_factory=list)
    checked_properties: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every checked property holds."""
        return not self.violations

    def violated(self, property_name: str) -> list[PropertyViolation]:
        """Violations of one property."""
        return [v for v in self.violations if v.property_name == property_name]

    def summary(self) -> str:
        """Human-readable one-paragraph summary."""
        if not self.checked_properties and not self.violations:
            return "not checked (this process observed only part of the trace)"
        if self.ok:
            return f"all properties hold ({', '.join(self.checked_properties)})"
        lines = [f"{len(self.violations)} violation(s):"]
        lines.extend(f"  {v}" for v in self.violations)
        return "\n".join(lines)


# Violation constructors shared by the online monitor and the post-hoc oracle
# under tests/, so the two can never drift apart in wording.


def _t1_violation(client: str, request_id: Any) -> PropertyViolation:
    return PropertyViolation(
        "T.1", f"client {client} issued {request_id} but never delivered a result")


def _t2_violation(db: str, key: tuple) -> PropertyViolation:
    return PropertyViolation(
        "T.2", f"database {db} voted yes for result {key} but never decided it")


def _a1_violation(client: str, key: tuple, db: str) -> PropertyViolation:
    return PropertyViolation(
        "A.1",
        f"client {client} delivered result {key} but participant "
        f"database {db} did not commit it")


def _a2_violation(db: str, keys: set, request_id: Any) -> PropertyViolation:
    return PropertyViolation(
        "A.2",
        f"database {db} committed {len(keys)} different results "
        f"{sorted(keys)} for request {request_id}")


def _a3_violation(key: tuple, committed_dbs: list, yes_aborted: list) -> PropertyViolation:
    return PropertyViolation(
        "A.3",
        f"result {key}: committed at {committed_dbs} but aborted at "
        f"{yes_aborted} which had voted yes")


def _v1_uncomputed_violation(client: str, result_request: Any) -> PropertyViolation:
    return PropertyViolation(
        "V.1",
        f"client {client} delivered a result for {result_request} that no "
        f"application server computed")


def _v1_unissued_violation(client: str, result_request: Any) -> PropertyViolation:
    return PropertyViolation(
        "V.1",
        f"client {client} delivered a result for {result_request} that it "
        f"never issued")


def _v2_violation(db: str, key: tuple, other: str) -> PropertyViolation:
    return PropertyViolation(
        "V.2",
        f"database {db} committed result {key} but participant "
        f"{other} never voted yes for it")


def _s1_executed_violation(db: str, key: tuple, participants: tuple) -> PropertyViolation:
    return PropertyViolation(
        "S.1",
        f"database {db} executed result {key} outside its "
        f"participant set {list(participants)}")


def _s1_committed_violation(db: str, key: tuple, participants: tuple) -> PropertyViolation:
    return PropertyViolation(
        "S.1",
        f"database {db} committed result {key} outside its "
        f"participant set {list(participants)}")


def _s1_epoch_violation(key: tuple, epoch: Any, participants: tuple,
                        universe: tuple) -> PropertyViolation:
    return PropertyViolation(
        "S.1",
        f"result {key} was computed against epoch {epoch} but its participant "
        f"set {list(participants)} is not contained in that epoch's shard "
        f"universe {list(universe)}")


def _key_of_value(key: Any) -> tuple:
    """Normalise an event's ``j`` payload into a result key tuple."""
    return tuple(key) if isinstance(key, (list, tuple)) else (None, key)


# --------------------------------------------------------------------------
# Online monitor
# --------------------------------------------------------------------------

_NO_OUTCOMES: frozenset = frozenset()


SPEC_CATEGORIES = ("crash", "recover", "client_issue", "client_deliver",
                   "as_compute", "db_vote", "db_decide", "db_execute",
                   "reshard")
"""Trace categories the online monitor consumes."""


class SpecMonitor:
    """Online e-Transaction specification checker fed by the trace event bus.

    Subscribe with :meth:`attach` (or pass an already-built recorder to the
    constructor and call :meth:`attach` yourself).  The monitor keeps

    * per-transaction state machines (the databases a result still awaits a
      decide or a commit from) that are **retired** once the transaction is
      terminally resolved -- delivered and decided everywhere it needs to
      be -- so this part of the state is O(in-flight);
    * compact id-level facts that the final report needs to reproduce the
      post-hoc verdict exactly, for the whole run, each in its smallest
      form:

      - issued, delivered and computed request ids, and each database's
        yes-voted keys: a set of strings or ``(client, j)`` tuples;
      - each result's participant tuple and request id: a dict entry;
      - each database's decide outcomes per key: a dict entry whose value
        is one of a few interned, shared frozensets (``{commit}``,
        ``{abort}``, both).  The keys of that dict are the database's
        decided keys; no second set repeats them;
      - each database's A.2 index, request id -> committed key: one key per
        request, promoted to a set of keys only when a second, different
        key of the same request commits -- the violation itself;
      - each database's commit and execute key sequences and each client's
        deliveries: lists, so duplicate violations replay byte-identically.

      A few bytes per entry versus the hundreds per stored, payload-carrying
      trace event.  :meth:`report` reads these facts where they lie; it
      builds no run-sized copy of them.

    Violations that are already certain mid-run (a second commit for the same
    request, work outside the participant set, a delivery of an uncomputed
    result) are appended to :attr:`live_violations` and passed to the
    ``on_violation`` callback the moment the offending event arrives.  The
    authoritative verdict is :meth:`report`, which evaluates every property
    exactly as the post-hoc oracle would over the full trace.
    """

    def __init__(self, db_server_names: list[str], client_names: list[str],
                 on_violation: Optional[Callable[[PropertyViolation], None]] = None):
        self.db_server_names = list(db_server_names)
        self.client_names = list(client_names)
        self.on_violation = on_violation
        self.live_violations: list[PropertyViolation] = []
        # crash / recover ---------------------------------------------------
        self._last_crash: dict[str, float] = {}
        self._last_recover: dict[str, float] = {}
        # clients -----------------------------------------------------------
        self._issued: dict[str, set] = {c: set() for c in self.client_names}
        self._delivered_ids: dict[str, set] = {c: set() for c in self.client_names}
        self._deliveries: dict[str, list[tuple]] = {c: [] for c in self.client_names}
        # computation -------------------------------------------------------
        self._computed: set = set()
        self._participants: dict[tuple, tuple[str, ...]] = {}
        self._result_request: dict[tuple, Any] = {}
        # databases ---------------------------------------------------------
        self._voted_yes: dict[str, set] = {d: set() for d in self.db_server_names}
        # per-db key -> interned outcome set; its keys are the decided keys.
        self._decide_outcomes: dict[str, dict[tuple, frozenset]] = \
            {d: {} for d in self.db_server_names}
        # The few outcome sets the keys share, interned by value.
        self._outcome_sets: dict[frozenset, frozenset] = {}
        self._commits: dict[str, list[tuple]] = {d: [] for d in self.db_server_names}
        self._executes: dict[str, list[tuple]] = {d: [] for d in self.db_server_names}
        # per-db request-id -> committed key, or the set of them once a second
        # key commits: the eager A.2 check and the report's A.2 index.
        self._a2_index: dict[str, dict[Any, Any]] = {d: {} for d in self.db_server_names}
        # key -> databases that committed it before any computation named its
        # request (only a synthetic trace does that); indexed when one does.
        self._unattributed: dict[tuple, list[str]] = {}
        # online resharding -------------------------------------------------
        # epoch -> shard universe (from ``reshard`` events), and the ordered
        # (key, epoch, participants) stamps of epoch-routed computations.
        self._epoch_universes: dict[Any, tuple[str, ...]] = {}
        self._epoch_stamps: list[tuple[tuple, Any, tuple[str, ...]]] = []
        # in-flight transaction tracking ------------------------------------
        self._pending_decides: dict[tuple, set] = {}
        self._pending_commits: dict[tuple, set] = {}
        self._retired = 0

    # ----------------------------------------------------------- subscription

    @classmethod
    def attach(cls, trace: TraceRecorder, db_server_names: list[str],
               client_names: list[str],
               on_violation: Optional[Callable[[PropertyViolation], None]] = None
               ) -> "SpecMonitor":
        """Create a monitor and subscribe it to ``trace``'s event bus."""
        monitor = cls(db_server_names, client_names, on_violation=on_violation)
        handlers = {
            "crash": monitor._on_crash,
            "recover": monitor._on_recover,
            "client_issue": monitor._on_client_issue,
            "client_deliver": monitor._on_client_deliver,
            "as_compute": monitor._on_as_compute,
            "db_vote": monitor._on_db_vote,
            "db_decide": monitor._on_db_decide,
            "db_execute": monitor._on_db_execute,
            "reshard": monitor._on_reshard,
        }
        for category, handler in handlers.items():
            trace.subscribe(category, handler)
        return monitor

    # -------------------------------------------------------------- telemetry

    @property
    def in_flight(self) -> int:
        """Transactions begun but not yet terminally resolved.

        A transaction may be waiting for decides and for post-delivery
        commits at once, so the two pending tables are counted as a union.
        """
        return len(self._pending_decides.keys() | self._pending_commits.keys())

    @property
    def retired(self) -> int:
        """Transactions whose per-key machinery has been retired."""
        return self._retired

    def outcome_counts(self, db: str) -> tuple[int, int]:
        """Distinct transactions ``db`` decided, as ``(commits, aborts)``.

        A key counts once however often its decision was applied (a lost
        acknowledgement or a recovery makes the protocol re-send it); one
        refused and later, after re-execution, committed counts as a commit.
        """
        commits = aborts = 0
        for outcomes in self._decide_outcomes.get(db, {}).values():
            if COMMIT in outcomes:
                commits += 1
            elif ABORT in outcomes:
                aborts += 1
        return commits, aborts

    # ---------------------------------------------------------- event folding

    def _emit(self, violation: PropertyViolation) -> None:
        self.live_violations.append(violation)
        if self.on_violation is not None:
            self.on_violation(violation)

    def _on_crash(self, event: TraceEvent) -> None:
        self._last_crash[event.process] = event.time

    def _on_recover(self, event: TraceEvent) -> None:
        self._last_recover[event.process] = event.time

    def _crashed_forever(self, process: str) -> bool:
        last_crash = self._last_crash.get(process)
        if last_crash is None:
            return False
        last_recover = self._last_recover.get(process)
        return last_recover is None or last_recover < last_crash

    def _on_client_issue(self, event: TraceEvent) -> None:
        issued = self._issued.get(event.process)
        if issued is not None:
            issued.add(event.data.get("request_id"))

    def _on_client_deliver(self, event: TraceEvent) -> None:
        client = event.process
        if client not in self._delivered_ids:
            return
        self._delivered_ids[client].add(event.data.get("request_id"))
        result_request = event.data.get("result_request_id")
        self._deliveries[client].append((event.data.get("j"), result_request))
        # V.1, eagerly certain: computation always precedes delivery.
        if result_request not in self._computed:
            self._emit(_v1_uncomputed_violation(client, result_request))
        if result_request not in self._issued[client]:
            self._emit(_v1_unissued_violation(client, result_request))
        # Arm A.1: the delivery is only safe once every participant committed.
        key = (client, event.data.get("j"))
        missing = {db for db in self.participants_of(key)
                   if COMMIT not in self._decide_outcomes.get(db, {}).get(key, ())}
        if missing:
            self._pending_commits[key] = missing
        else:
            self._retire(key)

    def _on_reshard(self, event: TraceEvent) -> None:
        if event.data.get("stage") in ("init", "commit"):
            self._epoch_universes[event.data.get("epoch")] = \
                tuple(event.data.get("shards") or ())

    def _on_as_compute(self, event: TraceEvent) -> None:
        self._computed.add(event.data.get("request_id"))
        key = (event.data.get("client"), event.data.get("j"))
        recorded = event.data.get("participants")
        if recorded:
            self._participants[key] = tuple(recorded)
        if key not in self._result_request:
            request_id = self._result_request[key] = event.data.get("request_id")
            if self._unattributed:
                early_commits = self._unattributed.pop(key, ())
                if request_id is not None:
                    for db in early_commits:
                        self._index_commit(db, key, request_id)
        self._pending_decides.setdefault(key, set()).update(self.participants_of(key))
        epoch = event.data.get("epoch")
        if epoch is not None:
            participants = tuple(recorded or ())
            self._epoch_stamps.append((key, epoch, participants))
            # Epoch confinement, eagerly certain: the universe of an epoch is
            # published (reshard init/commit) before anything routes on it.
            universe = self._epoch_universes.get(epoch, ())
            if not set(participants) <= set(universe):
                self._emit(_s1_epoch_violation(key, epoch, participants, universe))

    def _on_db_vote(self, event: TraceEvent) -> None:
        if event.data.get("vote") != VOTE_YES:
            return
        voted = self._voted_yes.get(event.process)
        if voted is not None:
            voted.add(_key_of_value(event.data.get("j")))

    def _on_db_execute(self, event: TraceEvent) -> None:
        db = event.process
        if db not in self._executes:
            return
        key = _key_of_value(event.data.get("j"))
        self._executes[db].append(key)
        participants = self.participants_of(key)
        if key in self._participants and db not in participants:
            self._emit(_s1_executed_violation(db, key, participants))

    def _on_db_decide(self, event: TraceEvent) -> None:
        db = event.process
        decided = self._decide_outcomes.get(db)
        if decided is None:
            return
        key = _key_of_value(event.data.get("j"))
        outcome = event.data.get("outcome")
        outcomes = decided.get(key, _NO_OUTCOMES)
        if outcome not in outcomes:
            grown = outcomes | {outcome}
            decided[key] = self._outcome_sets.setdefault(grown, grown)
        pending = self._pending_decides.get(key)
        if pending is not None:
            pending.discard(db)
            if not pending and key not in self._pending_commits:
                del self._pending_decides[key]
        if outcome != COMMIT:
            return
        self._commits[db].append(key)
        participants = self.participants_of(key)
        # S.1, eagerly certain once the participant set is on record.
        if key in self._participants and db not in participants:
            self._emit(_s1_committed_violation(db, key, participants))
        # A.2, eagerly certain: two different committed results, same request.
        request_id = self._result_request.get(key)
        if request_id is not None:
            committed_keys = self._index_commit(db, key, request_id)
            if committed_keys is not None:
                self._emit(_a2_violation(db, committed_keys, request_id))
        elif key not in self._result_request:
            self._unattributed.setdefault(key, []).append(db)
        # Disarm A.1 for this participant.
        missing = self._pending_commits.get(key)
        if missing is not None:
            missing.discard(db)
            if not missing:
                del self._pending_commits[key]
                self._retire(key)

    def _index_commit(self, db: str, key: tuple, request_id: Any) -> Optional[set]:
        """File ``db``'s commit of ``key`` under its request in the A.2 index.

        Returns the request's committed keys when ``key`` is a new one and
        not the first: the A.2 violation.
        """
        index = self._a2_index[db]
        committed = index.get(request_id)
        if committed is None:
            index[request_id] = key
        elif isinstance(committed, set):
            if key not in committed:
                committed.add(key)
                return committed
        elif committed != key:
            committed = index[request_id] = {committed, key}
            return committed
        return None

    def _retire(self, key: tuple) -> None:
        """Drop the in-flight machinery of a terminally resolved transaction."""
        self._pending_decides.pop(key, None)
        self._retired += 1

    # ----------------------------------------------------------------- report

    def participants_of(self, key) -> tuple[str, ...]:
        """The participant set of result ``key`` (default: every database)."""
        recorded = self._participants.get(tuple(key))
        return recorded if recorded else tuple(self.db_server_names)

    def report(self, check_termination: bool = True) -> SpecReport:
        """The authoritative verdict over everything observed so far.

        Property-by-property identical to what the post-hoc oracle computes
        from a complete stored trace, including violation order.
        """
        report = SpecReport()
        checks = [
            ("A.1", self._report_a1),
            ("A.2", self._report_a2),
            ("A.3", self._report_a3),
            ("V.1", self._report_v1),
            ("V.2", self._report_v2),
            ("S.1", self._report_s1),
        ]
        if check_termination:
            checks = [("T.1", self._report_t1), ("T.2", self._report_t2)] + checks
        for name, check in checks:
            report.checked_properties.append(name)
            report.violations.extend(check())
        return report

    def _report_t1(self) -> list[PropertyViolation]:
        violations = []
        for client in self.client_names:
            if self._crashed_forever(client):
                continue  # "unless it crashes"
            for request_id in self._issued[client] - self._delivered_ids[client]:
                violations.append(_t1_violation(client, request_id))
        return violations

    def _report_t2(self) -> list[PropertyViolation]:
        violations = []
        for db in self.db_server_names:
            # ``difference`` with a dict tests its keys, and iterates exactly
            # as ``voted - decided`` over a set of those keys does.
            for key in self._voted_yes[db].difference(self._decide_outcomes[db]):
                violations.append(_t2_violation(db, key))
        return violations

    def _report_a1(self) -> list[PropertyViolation]:
        violations = []
        for client in self.client_names:
            for j, _result_request in self._deliveries[client]:
                key = (client, j)
                for db in self.participants_of(key):
                    if COMMIT not in self._decide_outcomes.get(db, {}).get(key, ()):
                        violations.append(_a1_violation(client, key, db))
        return violations

    def _report_a2(self) -> list[PropertyViolation]:
        # In the oracle's order: a request is reported where the commit
        # sequence first reaches one of its keys.
        violations = []
        for db in self.db_server_names:
            index = self._a2_index[db]
            reported = set()
            for key in self._commits[db]:
                request_id = self._result_request.get(key)
                keys = index.get(request_id)
                if isinstance(keys, set) and request_id not in reported:
                    reported.add(request_id)
                    violations.append(_a2_violation(db, keys, request_id))
        return violations

    def _report_a3(self) -> list[PropertyViolation]:
        # In the oracle's order: keys by the first database (in server order)
        # that decided them, then in that database's decide order.
        violations = []
        tables = [(db, self._decide_outcomes[db]) for db in self.db_server_names]
        for first, (_db, decided) in enumerate(tables):
            earlier = [table for _other, table in tables[:first]]
            for key in decided:
                if earlier and any(key in table for table in earlier):
                    continue  # already judged with the first database that decided it
                per_db = [(db, table[key]) for db, table in tables[first:] if key in table]
                committed_dbs = [db for db, values in per_db if COMMIT in values]
                if not committed_dbs or len(committed_dbs) == len(per_db):
                    continue  # every database finally agrees
                yes_aborted = [db for db, values in per_db
                               if COMMIT not in values and key in self._voted_yes[db]]
                if yes_aborted:
                    violations.append(_a3_violation(key, committed_dbs, yes_aborted))
        return violations

    def _report_v1(self) -> list[PropertyViolation]:
        violations = []
        for client in self.client_names:
            issued = self._issued[client]
            for _j, result_request in self._deliveries[client]:
                if result_request not in self._computed:
                    violations.append(_v1_uncomputed_violation(client, result_request))
                if result_request not in issued:
                    violations.append(_v1_unissued_violation(client, result_request))
        return violations

    def _report_v2(self) -> list[PropertyViolation]:
        violations = []
        for db in self.db_server_names:
            for key in self._commits[db]:
                for other in self.participants_of(key):
                    if key not in self._voted_yes.get(other, ()):
                        violations.append(_v2_violation(db, key, other))
        return violations

    def _report_s1(self) -> list[PropertyViolation]:
        violations = []
        for db in self.db_server_names:
            for key in self._executes[db]:
                participants = self.participants_of(key)
                if db not in participants:
                    violations.append(_s1_executed_violation(db, key, participants))
            for key in self._commits[db]:
                participants = self.participants_of(key)
                if db not in participants:
                    violations.append(_s1_committed_violation(db, key, participants))
        for key, epoch, participants in self._epoch_stamps:
            universe = self._epoch_universes.get(epoch, ())
            if not set(participants) <= set(universe):
                violations.append(_s1_epoch_violation(key, epoch, participants,
                                                      universe))
        return violations

"""The post-hoc e-Transaction checker: the differential oracle of the online monitor.

:class:`SpecificationChecker` replays a complete stored trace after the run
and states each property of Section 3 as a direct query over it, in the
order and wording :class:`repro.core.spec.SpecMonitor` must reproduce.  It
needs ``full`` trace retention and time proportional to the trace, which is
why runs use the monitor; tests compare the two (``test_spec_monitor_equivalence``)
and feed the oracle synthetic violating traces (``test_core_spec``).
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any, Optional

from repro.core.spec import (
    PropertyViolation,
    SpecMonitor,
    SpecReport,
    _a1_violation,
    _a2_violation,
    _a3_violation,
    _key_of_value,
    _s1_committed_violation,
    _s1_epoch_violation,
    _s1_executed_violation,
    _t1_violation,
    _t2_violation,
    _v1_uncomputed_violation,
    _v1_unissued_violation,
    _v2_violation,
)
from repro.core.types import ABORT, COMMIT, VOTE_YES
from repro.sim.tracing import TraceRecorder


class SpecificationChecker:
    """Checks the e-Transaction properties over a recorded trace (post hoc)."""

    def __init__(self, trace: TraceRecorder, db_server_names: list[str],
                 client_names: list[str]):
        self.trace = trace
        self.db_server_names = list(db_server_names)
        self.client_names = list(client_names)
        self._participants_cache: Optional[dict[tuple, tuple[str, ...]]] = None

    # ------------------------------------------------------------------- check

    def check(self, check_termination: bool = True) -> SpecReport:
        """Run every property check and return the report."""
        report = SpecReport()
        checks = [
            ("A.1", self._check_a1),
            ("A.2", self._check_a2),
            ("A.3", self._check_a3),
            ("V.1", self._check_v1),
            ("V.2", self._check_v2),
            ("S.1", self._check_s1),
        ]
        if check_termination:
            checks = [("T.1", self._check_t1), ("T.2", self._check_t2)] + checks
        for name, check in checks:
            report.checked_properties.append(name)
            report.violations.extend(check())
        return report

    # ------------------------------------------------------------ trace access

    def _crashed_forever(self, process: str) -> bool:
        """Whether ``process`` crashed and never recovered afterwards."""
        crashes = self.trace.select("crash", process)
        if not crashes:
            return False
        recoveries = self.trace.select("recover", process)
        last_crash = crashes[-1].time
        return not any(r.time >= last_crash for r in recoveries)

    def _delivered_request_ids(self, client: str) -> set[str]:
        return {e.get("request_id") for e in self.trace.select("client_deliver", client)}

    def _commits_by_db(self, db: str) -> list:
        return self.trace.select("db_decide", db, outcome=COMMIT)

    def _result_request(self, key) -> Optional[str]:
        """Map a result key ``(client, j)`` to the request it was computed for."""
        for event in self.trace.select("as_compute"):
            if (event.get("client"), event.get("j")) == tuple(key):
                return event.get("request_id")
        return None

    def participants_of(self, key) -> tuple[str, ...]:
        """The participant set of result ``key``.

        Read from the computing server's ``as_compute`` event; results with no
        recorded participant set (older traces, results that never reached the
        compute phase) default to the full database tier.
        """
        if self._participants_cache is None:
            cache: dict[tuple, tuple[str, ...]] = {}
            for event in self.trace.select("as_compute"):
                recorded = event.get("participants")
                if recorded:
                    cache[(event.get("client"), event.get("j"))] = tuple(recorded)
            self._participants_cache = cache
        return self._participants_cache.get(tuple(key), tuple(self.db_server_names))

    # ------------------------------------------------------------- termination

    def _check_t1(self) -> list[PropertyViolation]:
        violations = []
        for client in self.client_names:
            if self._crashed_forever(client):
                continue  # "unless it crashes"
            issued = {e.get("request_id") for e in self.trace.select("client_issue", client)}
            delivered = self._delivered_request_ids(client)
            for request_id in issued - delivered:
                violations.append(_t1_violation(client, request_id))
        return violations

    def _check_t2(self) -> list[PropertyViolation]:
        violations = []
        for db in self.db_server_names:
            voted = {self._key_of(e) for e in self.trace.select("db_vote", db, vote=VOTE_YES)}
            decided = {self._key_of(e) for e in self.trace.select("db_decide", db)}
            for key in voted - decided:
                violations.append(_t2_violation(db, key))
        return violations

    # --------------------------------------------------------------- agreement

    def _check_a1(self) -> list[PropertyViolation]:
        violations = []
        for client in self.client_names:
            for delivery in self.trace.select("client_deliver", client):
                key = (client, delivery.get("j"))
                for db in self.participants_of(key):
                    committed = [e for e in self._commits_by_db(db)
                                 if self._key_of(e) == key]
                    if not committed:
                        violations.append(_a1_violation(client, key, db))
        return violations

    def _check_a2(self) -> list[PropertyViolation]:
        violations = []
        for db in self.db_server_names:
            committed_by_request: dict[str, set] = {}
            for event in self._commits_by_db(db):
                key = self._key_of(event)
                request_id = self._result_request(key)
                if request_id is None:
                    continue
                committed_by_request.setdefault(request_id, set()).add(key)
            for request_id, keys in committed_by_request.items():
                if len(keys) > 1:
                    violations.append(_a2_violation(db, keys, request_id))
        return violations

    def _check_a3(self) -> list[PropertyViolation]:
        violations = []
        outcomes: dict[tuple, dict[str, set]] = {}
        for db in self.db_server_names:
            for event in self.trace.select("db_decide", db):
                key = self._key_of(event)
                outcomes.setdefault(key, {}).setdefault(db, set()).add(event.get("outcome"))
        for key, per_db in outcomes.items():
            final_outcomes = set()
            for db, values in per_db.items():
                # A database may first refuse a commit (abort) and later apply a
                # commit only if it voted yes; what matters is that no two
                # databases *finally* disagree: a commit anywhere must not
                # coexist with an abort-only database that voted yes.
                final_outcomes.add(COMMIT if COMMIT in values else ABORT)
            if final_outcomes == {COMMIT, ABORT}:
                committed_dbs = [db for db, v in per_db.items() if COMMIT in v]
                aborted_only = [db for db, v in per_db.items() if COMMIT not in v]
                yes_aborted = [db for db in aborted_only
                               if self.trace.count("db_vote", db, j=key, vote=VOTE_YES) > 0]
                if yes_aborted:
                    violations.append(_a3_violation(key, committed_dbs, yes_aborted))
        return violations

    # ----------------------------------------------------------------- validity

    def _check_v1(self) -> list[PropertyViolation]:
        violations = []
        for client in self.client_names:
            issued = {e.get("request_id") for e in self.trace.select("client_issue", client)}
            computed = {e.get("request_id") for e in self.trace.select("as_compute")}
            for delivery in self.trace.select("client_deliver", client):
                result_request = delivery.get("result_request_id")
                if result_request not in computed:
                    violations.append(_v1_uncomputed_violation(client, result_request))
                if result_request not in issued:
                    violations.append(_v1_unissued_violation(client, result_request))
        return violations

    def _check_v2(self) -> list[PropertyViolation]:
        violations = []
        for db in self.db_server_names:
            for event in self._commits_by_db(db):
                key = self._key_of(event)
                for other in self.participants_of(key):
                    yes_votes = [e for e in self.trace.select("db_vote", other, vote=VOTE_YES)
                                 if self._key_of(e) == key]
                    if not yes_votes:
                        violations.append(_v2_violation(db, key, other))
        return violations

    # ---------------------------------------------------------------- sharding

    def _check_s1(self) -> list[PropertyViolation]:
        """Participant confinement: work stays inside the participant set.

        Aborts outside the set are tolerated (a cleaner that cannot know the
        participants may conservatively abort everywhere, which is harmless:
        aborting a transaction a database never saw installs a tombstone and
        changes no data), but an *execution* or a *commit* at a non-participant
        means the routing layer leaked work across shard boundaries.
        """
        violations = []
        for db in self.db_server_names:
            for event in self.trace.select("db_execute", db):
                key = self._key_of(event)
                participants = self.participants_of(key)
                if db not in participants:
                    violations.append(_s1_executed_violation(db, key, participants))
            for event in self._commits_by_db(db):
                key = self._key_of(event)
                participants = self.participants_of(key)
                if db not in participants:
                    violations.append(_s1_committed_violation(db, key, participants))
        # Epoch confinement (online resharding): a computation stamped with an
        # epoch must route only against shards that epoch's universe knows.
        universes = self._epoch_universes()
        for event in self.trace.select("as_compute"):
            epoch = event.get("epoch")
            if epoch is None:
                continue
            key = (event.get("client"), event.get("j"))
            participants = tuple(event.get("participants") or ())
            universe = universes.get(epoch, ())
            if not set(participants) <= set(universe):
                violations.append(_s1_epoch_violation(key, epoch, participants,
                                                      universe))
        return violations

    def _epoch_universes(self) -> dict[Any, tuple[str, ...]]:
        """Epoch -> shard universe, from the run's ``reshard`` events."""
        universes: dict[Any, tuple[str, ...]] = {}
        for event in self.trace.select("reshard"):
            if event.get("stage") in ("init", "commit"):
                universes[event.get("epoch")] = tuple(event.get("shards") or ())
        return universes

    # ----------------------------------------------------------------- helpers

    @staticmethod
    def _key_of(event) -> tuple:
        return _key_of_value(event.get("j"))


def check_run(trace: TraceRecorder, db_server_names: list[str],
              client_names: list[str], check_termination: bool = True) -> SpecReport:
    """Check the e-Transaction properties of one run post hoc, in one call.

    Requires ``full`` trace retention; this is the reference the online
    :class:`SpecMonitor` is tested for byte-identical verdicts against.
    """
    checker = SpecificationChecker(trace, db_server_names, client_names)
    return checker.check(check_termination=check_termination)


def replayed_monitor(trace: TraceRecorder, db_server_names: list[str],
                     client_names: list[str]) -> SpecMonitor:
    """A fresh :class:`SpecMonitor` that has seen every event of ``trace``."""
    clock = SimpleNamespace(now=0.0)
    bus = TraceRecorder(clock, retention="off")
    monitor = SpecMonitor.attach(bus, db_server_names, client_names)
    for event in trace:
        clock.now = event.time
        bus.record(event.category, event.process, **event.data)
    return monitor


def monitor_verdict(trace: TraceRecorder, db_server_names: list[str],
                    client_names: list[str], check_termination: bool = True) -> SpecReport:
    """What a fresh :class:`SpecMonitor` reports once ``trace`` is replayed into it."""
    return replayed_monitor(trace, db_server_names, client_names).report(
        check_termination=check_termination)


def verdict(report: SpecReport) -> tuple:
    """A report as comparable plain data: checked properties, then violations in order."""
    return (report.checked_properties,
            [(v.property_name, v.description) for v in report.violations])


class DifferentialChecker:
    """The oracle's verdict on a stored trace, asserted equal to the monitor's."""

    def __init__(self, trace: TraceRecorder, db_server_names: list[str],
                 client_names: list[str]):
        self.trace = trace
        self.db_server_names = list(db_server_names)
        self.client_names = list(client_names)

    def check(self, check_termination: bool = True) -> SpecReport:
        reference = check_run(self.trace, self.db_server_names, self.client_names,
                              check_termination=check_termination)
        online = monitor_verdict(self.trace, self.db_server_names, self.client_names,
                                 check_termination=check_termination)
        assert verdict(online) == verdict(reference), (
            f"online monitor and post-hoc oracle disagree\n"
            f"online:   {verdict(online)}\npost-hoc: {verdict(reference)}")
        return reference

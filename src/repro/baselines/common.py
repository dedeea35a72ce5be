"""Shared building blocks of the comparison middle tiers.

The three baselines (unreliable baseline, presumed-nothing 2PC, primary-backup
replication) run on the same three-tier skeleton as the e-Transaction
protocol -- :class:`repro.core.deployment.ThreeTierDeployment`: the
protocol-agnostic client of Figure 2 and the database servers of
:mod:`repro.core.dataserver`.  Only the middle tier changes between
protocols, which is exactly the point of the comparison; this module holds
what the three comparison middle tiers share among themselves.
"""

from __future__ import annotations

from typing import Any

from repro.core import messages as msg
from repro.core.appserver import participant_round
from repro.core.dataserver import DatabaseServer
from repro.core.sharding import merge_participant_values, request_participants
from repro.core.types import ABORT, COMMIT, VOTE_YES, Decision, Request, Result
from repro.net.message import IDS, Message, declare_message
from repro.sim.process import Process

COMMIT_ONE_PHASE = "CommitOnePhase"
ACK_COMMIT = "AckCommit"
declare_message(COMMIT_ONE_PHASE, j=IDS)
declare_message(ACK_COMMIT, j=IDS)

# The comparison stacks cannot inject the faults that ride on e-Transaction
# machinery: online resharding needs the epoch directory, an injected false
# suspicion the oracle detector.
ETX_ONLY_FAULTS = {"reshard": "online resharding",
                   "false_suspicion": "injected false suspicions"}


def ignore_message(message) -> None:
    """Handler of a message a comparator takes no action on: it is dropped,
    never buffered.  One function, so a fresh and a recovered incarnation
    register the same handler."""


class TransactionManager(Process):
    """The comparators' middle tier: one thread per transaction.

    A ``Request`` handler dispatches each new result key to a thread of its
    own, as the e-Transaction application server does, so transactions from
    different clients overlap here and queue only at the databases.  The
    thread routes the request to the same participant set as that server
    (:attr:`repro.core.types.Request.participants`, empty = every database)
    so partitioned-tier comparisons stay apples-to-apples, runs the
    subclass's :meth:`_transact` to its decision and answers the client.  A
    subclass writes only :meth:`_transact`, from :meth:`_execute`,
    :meth:`_prepare` and :meth:`_decide`: each one participant round with no
    retries and no recovery.

    A client that waits longer than its back-off re-broadcasts the *same*
    result identifier.  A transaction manager that re-executed the duplicate
    would re-run the transaction (and crash the database's prepare), so a
    duplicate of a running transaction is dropped -- the original's answer
    serves it -- and completed decisions are remembered and replayed.  The
    memory is volatile -- each incarnation starts it empty -- so a retry that
    races a server crash still double-executes on the unreliable baseline:
    exactly the at-most-once violation the paper's comparison is about.
    """

    def __init__(self, sim, name: str, db_server_names: list[str]):
        super().__init__(sim, name)
        self.db_server_names = list(db_server_names)

    def on_start(self, recovery: bool) -> None:
        self._completed_decisions: dict[Any, Decision] = {}
        self._inflight: set[Any] = set()
        self.on_message(msg.REQUEST, self._on_request)
        # A database's recovery ``Ready``: the comparators neither retry nor
        # recover a round, so no thread ever waits for one.
        self.on_message(msg.READY, ignore_message)

    def _on_request(self, message) -> None:
        client = message.sender
        j = message["j"]
        key = (client, j)
        decision = self._completed_decisions.get(key)
        if decision is not None:
            self.trace.record("as_result_resent", self.name, client=client, j=j,
                              outcome=decision.outcome)
            self.send(client, msg.result_message(j, decision))
            return
        if key in self._inflight:
            return
        self._inflight.add(key)
        self.spawn(self._serve(key, message["request"]), name="serve")

    def _serve(self, key, request: Request):
        client, j = key
        participants = request_participants(request, self.db_server_names)
        self.trace.record("as_request", self.name, client=client, j=j,
                          request_id=request.request_id)
        decision = yield from self._transact(key, request, participants)
        self._completed_decisions[key] = decision
        self._inflight.discard(key)
        self.trace.record("as_result_sent", self.name, client=client, j=j,
                          outcome=decision.outcome)
        self.send(client, msg.result_message(j, decision))

    def _transact(self, key, request: Request, participants: list[str]):
        """Run one transaction; returns the :class:`Decision` for the client."""
        raise NotImplementedError

    def _execute(self, key, request: Request, participants: list[str]):
        """Run the business logic on every participant; returns the result."""
        replies = yield from participant_round(
            self, participants, lambda: msg.execute_message(key, request),
            msg.EXECUTE_RESULT, key)
        value = merge_participant_values(
            {name: reply["value"] for name, reply in replies.items()}, participants)
        self.trace.record("as_compute", self.name, client=key[0], j=key[1],
                          request_id=request.request_id, result=repr(value),
                          participants=list(participants))
        return Result(value=value, request_id=request.request_id, computed_by=self.name)

    def _prepare(self, key, participants: list[str]):
        replies = yield from participant_round(
            self, participants, lambda: msg.prepare_message(key, tuple(participants)),
            msg.VOTE, key)
        votes = {name: reply["vote"] for name, reply in replies.items()}
        outcome = COMMIT if all(v == VOTE_YES for v in votes.values()) else ABORT
        self.trace.record("as_prepare", self.name, client=key[0], j=key[1],
                          outcome=outcome, votes=dict(votes))
        return outcome

    def _decide(self, key, outcome: str, participants: list[str]):
        yield from participant_round(
            self, participants, lambda: msg.decide_message(key, outcome, tuple(participants)),
            msg.ACK_DECIDE, key)
        self.trace.record("as_terminate", self.name, client=key[0], j=key[1], outcome=outcome)


class OnePhaseDatabaseServer(DatabaseServer):
    """A database server that additionally accepts one-phase commits.

    The unreliable baseline of Figure 7(a) skips the voting phase entirely and
    simply asks the database to commit -- the XA one-phase-commit optimisation.
    """

    def on_start(self, recovery: bool) -> None:
        super().on_start(recovery)
        self.serve(COMMIT_ONE_PHASE, self._serve_one_phase_commit)

    def _serve_one_phase_commit(self, message):
        key = message["j"]
        try:
            io_cost = self.resource.commit_one_phase(key)
            outcome = "commit"
        except Exception:
            io_cost = 0.0
            outcome = "abort"
        if io_cost > 0:
            yield self.sleep(self.timing.commit_cpu + io_cost + self.timing.end)
        if outcome == "commit":
            # A one-phase commit fuses the vote and the decision: record
            # the implicit yes-vote so the spec checker sees a database
            # never commits a result it did not (implicitly) vote for.
            self.trace.record("db_vote", self.name, j=key, vote=VOTE_YES,
                              one_phase=True)
        self.trace.record("db_decide", self.name, j=key, outcome=outcome,
                          requested="commit", one_phase=True)
        self.send(message.sender, Message(ACK_COMMIT, payload={"j": key}))

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
from repro.core.dataserver import DatabaseServer
from repro.core.sharding import merge_participant_values, request_participants
from repro.core.types import ABORT, COMMIT, VOTE_YES, Decision, Request
from repro.net.message import IDS, Message, declare_message

COMMIT_ONE_PHASE = "CommitOnePhase"
ACK_COMMIT = "AckCommit"
declare_message(COMMIT_ONE_PHASE, j=IDS)
declare_message(ACK_COMMIT, j=IDS)

# The comparison stacks cannot inject the faults that ride on e-Transaction
# machinery: online resharding needs the epoch directory, an injected false
# suspicion the oracle detector.
ETX_ONLY_FAULTS = {"reshard": "online resharding",
                   "false_suspicion": "injected false suspicions"}


class RequestDeduplication:
    """At-most-once guard for the serial application-server loops.

    A client that waits longer than its back-off re-broadcasts the *same*
    result identifier -- routine once many clients queue at one server.  A
    transaction manager that re-executed the duplicate would re-run a
    committed transaction (and crash the database's prepare).  The mixin
    remembers completed decisions and replays them for duplicates.  The
    memory is volatile -- each incarnation starts it empty -- so a retry that
    races a server crash still double-executes on the unreliable baseline:
    exactly the at-most-once violation the paper's comparison is about.
    """

    def on_start(self, recovery: bool) -> None:
        self._completed_decisions: dict[Any, Decision] = {}
        super().on_start(recovery)

    def _record_decision(self, key: Any, decision: Any) -> None:
        """Remember the decision sent to the client for ``key``."""
        self._completed_decisions[key] = decision

    def _replay_duplicate(self, key: Any) -> bool:
        """Resend the recorded decision if ``key`` already completed."""
        decision = self._completed_decisions.get(key)
        if decision is None:
            return False
        client, j = key
        self.trace.record("as_result_resent", self.name, client=client, j=j,
                          outcome=decision.outcome)
        self.send(client, msg.result_message(j, decision))
        return True


class ParticipantRouting:
    """Shared participant-set routing for the comparison middle tiers.

    The three baselines fan Execute/Prepare/Decide out to exactly the same
    participant set as the e-Transaction application server
    (:attr:`repro.core.types.Request.participants`, empty = every database),
    so partitioned-tier comparisons between the four protocols stay
    apples-to-apples.  Mix into a :class:`~repro.sim.process.Process` with a
    ``db_server_names`` attribute.  The fan-out loops wait for every
    participant's answer, with no retries and no recovery.
    """

    def participants_of(self, request: Request) -> list[str]:
        """The database servers taking part in this request's transaction."""
        return request_participants(request, self.db_server_names)

    @staticmethod
    def merge_values(values: dict[str, Any], participants: list[str]) -> Any:
        """One business value out of the per-participant answers."""
        return merge_participant_values(values, participants)

    def _execute(self, key, request: Request, participants):
        """Run the business logic on every participant."""
        values = {}
        for db_name in participants:
            self.send(db_name, msg.execute_message(key, request))
        pending = set(participants)
        while pending:
            reply = yield self.receive([(msg.EXECUTE_RESULT, key)])
            if reply.sender in pending:
                values[reply.sender] = reply["value"]
                pending.discard(reply.sender)
        return self.merge_values(values, participants)

    def _prepare(self, key, participants):
        votes = {}
        for db_name in participants:
            self.send(db_name, msg.prepare_message(key, tuple(participants)))
        pending = set(participants)
        while pending:
            reply = yield self.receive([(msg.VOTE, key)])
            if reply.sender in pending:
                votes[reply.sender] = reply["vote"]
                pending.discard(reply.sender)
        outcome = COMMIT if all(v == VOTE_YES for v in votes.values()) else ABORT
        self.trace.record("as_prepare", self.name, client=key[0], j=key[1],
                          outcome=outcome, votes=dict(votes))
        return outcome

    def _decide(self, key, outcome, participants):
        for db_name in participants:
            self.send(db_name, msg.decide_message(key, outcome, tuple(participants)))
        pending = set(participants)
        while pending:
            reply = yield self.receive([(msg.ACK_DECIDE, key)])
            if reply.sender in pending:
                pending.discard(reply.sender)
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

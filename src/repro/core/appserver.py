"""Application-server protocol (the paper's Figures 4, 5 and 6).

Each application server is stateless with respect to requests: everything it
needs to terminate a result lives either in the back-end databases or in the
replicated wo-registers (``regA`` -- who executes result ``j``; ``regD`` --
the decision for result ``j``).  The server runs the paper's two protocol
threads:

* the **computation thread** (Figure 5), here a ``Request`` handler that never
  blocks, so it needs no thread: for each new result it spawns a per-request handler that claims the result by
  writing ``(its identity, participant set)`` into ``regA[j]``, computes the
  result by driving the business logic on the *participant* databases, runs
  the voting phase, writes the decision into ``regD[j]`` and terminates the
  result.  Handlers for distinct results run concurrently -- the paper's
  single-request presentation is the special case of one in-flight result --
  so a partitioned database tier turns into real parallelism instead of a
  queue behind one coroutine;
* the **cleaning thread** (Figure 6): watches the failure detector and, for
  every result initiated by a suspected server, forces a decision by writing
  ``(nil, abort)`` into ``regD[j]`` -- obtaining either its own abort or the
  decision the suspected server already wrote -- and terminates the result on
  its behalf, against the participant set recorded in the ``regA`` claim.

Participant sets.  A request either carries the set of database servers
(shards) it touches (:attr:`repro.core.types.Request.participants`) or, when
that tuple is empty, implicitly addresses every database -- the historical
full fan-out.  Execute, Prepare and Decide are only ever exchanged with the
participants, so a single-shard transaction on a ``d``-shard deployment costs
the same as on a one-database deployment.

Termination (Figure 4's ``terminate()``) keeps re-sending ``Decide`` until
every *participant* database acknowledges, tolerating database crashes and
recoveries, and finally reports the decision to the client.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.core import messages as msg
from repro.core.sharding import merge_participant_values, request_participants
from repro.core.timing import ProtocolTiming
from repro.core.types import (
    ABORT,
    ABORT_DECISION,
    COMMIT,
    Decision,
    Request,
    Result,
    ResultKey,
    VOTE_YES,
)
from repro.failure.detectors import FailureDetector
from repro.registers.base import BOTTOM, WriteOnceRegisterArray
from repro.sim.process import Process
from repro.sim.scheduler import Simulator
from repro.sim.waits import TIMEOUT, SimFuture


class RegisterPair:
    """The two wo-register arrays one application server works with."""

    def __init__(self, reg_a: WriteOnceRegisterArray, reg_d: WriteOnceRegisterArray):
        self.reg_a = reg_a
        self.reg_d = reg_d


def claim_entry(server: str, participants: Sequence[str]) -> tuple[str, tuple[str, ...]]:
    """The value written into ``regA[j]``: claimant plus participant set.

    Recording the participants in the testable claim makes the register entry
    self-describing: any server that later cleans the result (Figure 6) knows
    exactly which databases to terminate with, without re-deriving routing
    from a request it may never have seen.
    """
    return (server, tuple(participants))


def claim_parts(entry: tuple, all_databases: Sequence[str]) -> tuple[str, tuple[str, ...]]:
    """Split a ``regA`` entry into (claimant, participants); none recorded = every database."""
    claimant, participants = entry
    return claimant, tuple(participants) if participants else tuple(all_databases)


class ApplicationServer(Process):
    """One middle-tier application server.

    Parameters
    ----------
    sim, name:
        Simulator and process name.
    app_server_names / db_server_names:
        Full membership of the middle and back-end tiers.
    registers:
        This server's view of the ``regA``/``regD`` wo-register arrays.
    failure_detector:
        The (eventually perfect) failure detector used by the cleaning thread.
    timing:
        Protocol-level retransmission intervals.
    consensus_host:
        Optional consensus endpoint backing the registers; when present it is
        installed as every incarnation starts, and its durable tables live on
        this server's :attr:`disk`.
    directory:
        Optional live :class:`~repro.core.sharding.ShardDirectory` (online
        resharding).  When present, requests that carry their key set are
        routed against the *current epoch* at claim time -- a request built
        against a stale placement gets an ``epoch_retry`` instead of being
        misrouted -- and requests touching mid-migration keys are deferred
        until the reconfiguration window closes over them.
    """

    def __init__(self, sim: Simulator, name: str, app_server_names: list[str],
                 db_server_names: list[str], registers: RegisterPair,
                 failure_detector: FailureDetector,
                 timing: Optional[ProtocolTiming] = None,
                 consensus_host: Any = None,
                 directory: Optional[Any] = None):
        super().__init__(sim, name)
        self.app_server_names = list(app_server_names)
        self.db_server_names = list(db_server_names)
        self.registers = registers
        self.failure_detector = failure_detector
        self.timing = timing if timing is not None else ProtocolTiming()
        self.consensus_host = consensus_host
        self.directory = directory
        # An interning cache of values, not state, so a crash may leave it: one
        # shared regA entry per participant set (every consensus host keeps the
        # entry it learns; a fresh one would cost each two tuples a request).
        self._claims: dict[tuple[str, ...], tuple[str, tuple[str, ...]]] = {}

    # --------------------------------------------------------------- lifecycle

    def on_start(self, recovery: bool) -> None:
        # Volatile: the results this incarnation works on and has terminated.
        self._inflight: set[ResultKey] = set()
        self._terminated: set[ResultKey] = set()
        if self.consensus_host is not None:
            self.consensus_host.install()
        self.on_message(msg.REQUEST, self._on_request)
        if recovery:
            self.failure_detector.reinstall(self.name)
        self.spawn(self._cleaning_thread(), name="as-clean")

    def _claim(self, participants: Sequence[str]) -> tuple[str, tuple[str, ...]]:
        """This server's :func:`claim_entry` for ``participants``, interned."""
        participants = tuple(participants)
        entry = self._claims.get(participants)
        if entry is None:
            entry = self._claims[participants] = claim_entry(self.name, participants)
        return entry

    # Retransmissions (execute/prepare/decide retries) keep producing duplicate
    # replies that can land long after ``terminate()`` finished; no receive
    # will ever consume them, so ``Process.deliver`` drops them as if lost (the
    # fair-lossy channel model).  Without this a long run's mailbox grows with
    # its history.
    _stale_types = frozenset((msg.EXECUTE_RESULT, msg.VOTE, msg.ACK_DECIDE))

    # ----------------------------------------------------------------- routing

    def participants_of(self, request: Request) -> list[str]:
        """The database servers taking part in this request's transaction."""
        return request_participants(request, self.db_server_names)

    # ----------------------------------------------------- computation handler

    def _on_request(self, message: Any) -> None:
        """Figure 5: dispatch client requests to per-result handlers."""
        client = message.sender
        j: int = message["j"]
        request: Request = message["request"]
        key: ResultKey = (client, j)
        if self.trace.wants("as_request"):
            self.trace.record("as_request", self.name, client=client, j=j,
                              request_id=request.request_id)
        if key in self._inflight:
            # A retransmission of a result we are already working on; the
            # in-flight handler will answer the client.
            return
        decided = self.registers.reg_d.read(key)
        if decided is not BOTTOM:
            # Figure 5, lines 3-4: the result is already decided; resend it.
            # A committed one is the result itself, an aborted one (a
            # retransmitted request for a terminated intermediate result)
            # reminds the client to move on.
            self.send(client, msg.result_message(j, decided))
            return
        self._inflight.add(key)
        self.spawn(self._handle_request(key, request, client),
                   name=f"as-handle:{client}:{j}")

    def _handle_request(self, key: ResultKey, request: Request, client: str):
        """One result's life from claim to termination (Figure 5, lines 5-12)."""
        j = key[1]
        directory = self.directory
        retained = False
        epoch: Optional[int] = None
        try:
            if directory is not None and request.keys:
                # Online resharding: route against the live placement.  A key
                # that is mid-migration defers the whole request until the
                # window closes over it; then the participant set is derived
                # fresh under the current epoch, so a request built against a
                # stale placement is re-routed (epoch_retry) instead of
                # tripping ShardOwnershipError at the old owner.  The
                # retain/release bracket pins the keys for the transaction's
                # lifetime: the migration snapshot refuses to copy a pinned
                # key, which is how in-flight traffic drains on its epoch.
                deferred = False
                while directory.moving(request.keys):
                    if not deferred:
                        deferred = True
                        self.trace.record("epoch_defer", self.name, client=client,
                                          j=j, request_id=request.request_id,
                                          epoch=directory.epoch)
                    yield self.sleep(self.timing.execute_retry)
                directory.retain(request.keys)
                retained = True
                epoch = directory.epoch
                participants = list(directory.participants(request.keys))
                if tuple(participants) != tuple(request.participants):
                    self.trace.record("epoch_retry", self.name, client=client,
                                      j=j, request_id=request.request_id,
                                      epoch=epoch,
                                      participants=list(participants))
            else:
                participants = self.participants_of(request)
            phase_start = self.now
            winner = yield self.wait_for(
                self.registers.reg_a.write(key, self._claim(participants)))
            self.trace.record("as_phase", self.name, phase="regA_write", j=j, client=client,
                              duration=self.now - phase_start)
            claimant, claimed_participants = claim_parts(winner, self.db_server_names)
            if claimant != self.name:
                # Another server owns this result (Figure 5, lines 6-7); if it
                # crashes the cleaning thread will take over.
                return
            if self.failure_detector.watches_claims:
                self.failure_detector.claimed(self.name, key)
            participants = list(claimed_participants)
            if self.trace.wants("as_claim"):
                self.trace.record("as_claim", self.name, client=client, j=j,
                                  request_id=request.request_id,
                                  participants=list(participants))
            result = yield from self._compute(key, request, participants, epoch)
            outcome = yield from self._prepare(key, participants)
            proposed = Decision(result=result, outcome=outcome)
            phase_start = self.now
            decision = yield self.wait_for(self.registers.reg_d.write(key, proposed))
            self.trace.record("as_phase", self.name, phase="regD_write", j=j, client=client,
                              duration=self.now - phase_start)
            yield from self._terminate(key, decision, client, participants)
        finally:
            # Runs on every exit, including the crash path (the generator is
            # closed when the process dies), so a crashed server never leaves
            # keys pinned against the migration drain.
            if retained:
                directory.release(request.keys)
            self._inflight.discard(key)

    def _compute(self, key: ResultKey, request: Request, participants: list[str],
                 epoch: Optional[int] = None):
        """The paper's ``compute()``: transient data manipulation on every
        participant database.

        Sends the business logic to each participant and collects their
        answers (re-sending while a database is down).  The merged answer
        forms the result value; a failed computation (e.g. lock conflict)
        still yields a result -- the databases will then refuse to commit it,
        which is how the paper models user-level aborts.
        """
        client, j = key
        phase_start = self.now
        values: dict[str, Any] = {}
        pending = set(participants)
        # Per-shard Ready tracking: only a recovery notification from one
        # of *this* transaction's participants restarts the collection; a
        # non-participant shard recovering is none of our business.
        keys = [(msg.EXECUTE_RESULT, key)] + [(msg.READY, p) for p in participants]
        while pending:
            # Fan out in participant (shard) order, never in set order: send
            # order fixes message ids, so it must not depend on string hashes.
            for db_name in participants:
                if db_name in pending:
                    self.send(db_name, msg.execute_message(key, request))
            remaining = set(pending)
            while remaining:
                reply = yield self.receive(keys, timeout=self.timing.execute_retry)
                if reply is TIMEOUT:
                    break
                if reply.msg_type == msg.READY:
                    # A participant database recovered; start its execution over.
                    break
                if reply.sender in remaining:
                    values[reply.sender] = reply["value"]
                    remaining.discard(reply.sender)
            pending = set(participants) - set(values)
        merged = self._merge_values(values, participants)
        result = Result(value=merged, request_id=request.request_id, computed_by=self.name)
        if epoch is None:
            # Static deployments keep the historical event shape byte-for-byte.
            self.trace.record("as_compute", self.name, client=client, j=j,
                              request_id=request.request_id, result=repr(merged),
                              participants=list(participants))
        else:
            self.trace.record("as_compute", self.name, client=client, j=j,
                              request_id=request.request_id, result=repr(merged),
                              participants=list(participants), epoch=epoch)
        self.trace.record("as_phase", self.name, phase="compute", j=j, client=client,
                          duration=self.now - phase_start)
        return result

    def _merge_values(self, values: dict[str, Any], participants: list[str]) -> Any:
        """Combine the per-participant business values into one result value."""
        return merge_participant_values(values, participants)

    def _prepare(self, key: ResultKey, participants: list[str]):
        """Figure 4's ``prepare()``: collect votes from every participant."""
        client, j = key
        phase_start = self.now
        votes: dict[str, str] = {}
        pending = set(participants)
        keys = [(msg.VOTE, key)] + [(msg.READY, p) for p in participants]
        while pending:
            for db_name in participants:
                if db_name in pending:
                    self.send(db_name, msg.prepare_message(key, tuple(participants)))
            remaining = set(pending)
            while remaining:
                reply = yield self.receive(keys, timeout=self.timing.prepare_retry)
                if reply is TIMEOUT:
                    break
                if reply.sender not in remaining:
                    continue
                if reply.msg_type == msg.READY:
                    # Recovery notification counts as an answer -- and forces abort
                    # (the recovered database cannot have voted yes any more).
                    votes[reply.sender] = "ready"
                else:
                    votes[reply.sender] = reply["vote"]
                remaining.discard(reply.sender)
            pending = set(participants) - set(votes)
        outcome = COMMIT if all(v == VOTE_YES for v in votes.values()) else ABORT
        self.trace.record("as_prepare", self.name, client=client, j=j, outcome=outcome,
                          votes=dict(votes))
        self.trace.record("as_phase", self.name, phase="prepare", j=j, client=client,
                          duration=self.now - phase_start)
        return outcome

    def _terminate(self, key: ResultKey, decision: Decision, client: str,
                   participants: list[str]):
        """Figure 4's ``terminate()``: drive the decision to every participant,
        then report the result to the client."""
        j = key[1]
        phase_start = self.now
        acked: set[str] = set()
        keys = [(msg.ACK_DECIDE, key)] + [(msg.READY, p) for p in participants]
        while acked != set(participants):
            for db_name in participants:
                if db_name not in acked:
                    self.send(db_name, msg.decide_message(key, decision.outcome,
                                                          tuple(participants)))
            remaining = set(participants) - acked
            while remaining:
                reply = yield self.receive(keys, timeout=self.timing.decide_retry)
                if reply is TIMEOUT:
                    break
                if reply.msg_type == msg.READY:
                    # The database lost the decision in a crash; re-send it.
                    break
                if reply.sender in remaining:
                    acked.add(reply.sender)
                    remaining.discard(reply.sender)
        if self.trace.wants("as_terminate"):
            self.trace.record("as_terminate", self.name, client=client, j=j,
                              outcome=decision.outcome)
        self.trace.record("as_phase", self.name, phase="terminate", j=j, client=client,
                          duration=self.now - phase_start)
        self.send(client, msg.result_message(j, decision))
        if self.trace.wants("as_result_sent"):
            self.trace.record("as_result_sent", self.name, client=client, j=j,
                              outcome=decision.outcome)
        # The result is terminated: any retransmitted votes / execute results /
        # acknowledgements still buffered under its key are dead weight now
        # (client requests are keyed by the bare ``j``, so they are untouched),
        # and late arrivals for it are dropped at delivery (``_stale_types``).
        self._terminated.add(key)
        self.discard_buffered(key)
        if self.failure_detector.watches_claims:
            self.failure_detector.terminated(self.name, key)

    # --------------------------------------------------------- cleaning thread

    def _cleaning_thread(self):
        """Figure 6: terminate results initiated by suspected servers.

        Follows ``regA`` as a feed and files every claim it has not terminated
        itself under its claimant: a sweep costs what there is to clean, not
        what was ever decided.  Cursor and index die with the thread; a
        recovered server reads the durable feed from the start, cleans again.
        No clock: it sweeps as it starts, then when its detector starts
        suspecting someone and, while it suspects anybody, when ``regA`` grows.
        A detector that watches claim holders only
        (:attr:`FailureDetector.watches_claims`) needs every claim as it is
        learned, so then ``regA`` wakes it always, and the detector drops a
        claim whose claimant announced its termination.
        """
        cursor = 0
        pending: dict[str, dict[ResultKey, tuple[str, ...]]] = {
            peer: {} for peer in self.app_server_names if peer != self.name}
        follows = self.failure_detector.watches_claims
        if follows:
            self.failure_detector.follow(self.name, pending)
        while True:
            if follows:
                cursor = self._file_claims(pending, cursor, follows)
            suspecting = cleaned = False
            for suspected, claims in pending.items():
                if not self.failure_detector.suspect(self.name, suspected):
                    continue
                suspecting = True
                # Catch up per suspected peer: claims learned while the
                # previous peer's cleaning yielded count.
                cursor = self._file_claims(pending, cursor, follows)
                for key, participants in sorted(claims.items()):  # keys are unique
                    if key not in claims:
                        continue  # its claimant announced it terminated meanwhile
                    client, j = key
                    self.trace.record("as_clean", self.name, suspected=suspected,
                                      client=client, j=j, participants=list(participants))
                    decision = yield self.wait_for(
                        self.registers.reg_d.write(key, ABORT_DECISION))
                    yield from self._terminate(key, decision, client, list(participants))
                    claims.pop(key, None)
                    cleaned = True
                if follows and not claims:
                    self.failure_detector.cleaned(self.name, suspected)
            if not cleaned:  # such a pass never yielded: no edge can have slipped by unseen
                wake = SimFuture()
                self.failure_detector.on_suspicion(self.name, wake.resolve)
                self.registers.reg_a.on_learn(wake.resolve if suspecting or follows else None)
                yield self.wait_for(wake)

    def _file_claims(self, pending: dict[str, dict[ResultKey, tuple[str, ...]]], cursor: int,
                     follows: bool) -> int:
        """File the claims of others learned since ``cursor``; returns the next cursor."""
        entries, cursor = self.registers.reg_a.learned_since(cursor)
        for key, entry in entries:
            claimant, participants = claim_parts(entry, self.db_server_names)
            if claimant != self.name:
                pending[claimant][key] = participants
                if follows:
                    self.failure_detector.learned(self.name, claimant, key)
        return cursor

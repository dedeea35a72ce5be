"""Primary-backup replication of the transaction-processing state (Figure 7c).

This is the comparator the authors adapted in [18]: the primary application
server replicates the request (a *start* notification) and later the outcome
to a single backup with explicit messages, then commits at the databases and
answers the client.  If the primary crashes, the backup -- relying on a
**perfect** failure detector -- finishes the commitment of results whose
outcome it knows and aborts the rest, then answers the client.

The paper's warning is reproduced verbatim by the tests: "a false suspicion
might lead to an inconsistency".  If the backup wrongly suspects a live
primary, it may abort a result at the databases while the primary goes on to
report it as committed to the client -- violating agreement property A.1.
The asynchronous-replication protocol avoids exactly this by funnelling every
decision through the write-once registers.
"""

from __future__ import annotations

from typing import Any

from repro.baselines.common import ETX_ONLY_FAULTS, TransactionManager
from repro.core import messages as msg
from repro.core.appserver import participant_round
from repro.core.deployment import ThreeTierDeployment
from repro.core.sharding import request_participants
from repro.core.types import ABORT, COMMIT, REQUEST_REC, RESULT_REC, Decision, Request
from repro.failure.detectors import FailureDetector
from repro.net.message import IDS, STR, Message, declare_message
from repro.sim.process import Process

PB_START = "PBStart"
PB_START_ACK = "PBStartAck"
PB_OUTCOME = "PBOutcome"
PB_OUTCOME_ACK = "PBOutcomeAck"
declare_message(PB_START, j=IDS, request=REQUEST_REC, client=STR)
declare_message(PB_START_ACK, j=IDS)
declare_message(PB_OUTCOME, j=IDS, outcome=STR, result=RESULT_REC, client=STR)
declare_message(PB_OUTCOME_ACK, j=IDS)


class PrimaryServer(TransactionManager):
    """The primary application server of the primary-backup scheme."""

    def __init__(self, sim, name: str, backup_name: str, db_server_names: list[str]):
        super().__init__(sim, name, db_server_names)
        self.backup_name = backup_name

    def _transact(self, key, request: Request, participants: list[str]):
        client = key[0]
        # Replicate the request to the backup before doing any work.
        self.send(self.backup_name, Message(PB_START, payload={
            "j": key, "request": request, "client": client}))
        yield self.receive([(PB_START_ACK, key)])
        result = yield from self._execute(key, request, participants)
        outcome = yield from self._prepare(key, participants)
        # Replicate the outcome (and the result) to the backup.
        self.send(self.backup_name, Message(PB_OUTCOME, payload={
            "j": key, "outcome": outcome, "result": result, "client": client}))
        yield self.receive([(PB_OUTCOME_ACK, key)])
        yield from self._decide(key, outcome, participants)
        return Decision(result=result if outcome == COMMIT else None, outcome=outcome)


class BackupServer(Process):
    """The backup: mirrors the primary's state and takes over on suspicion.

    Every ``CHECK_INTERVAL`` it asks ``failure_detector`` (the deployment's,
    installed before the backup starts) whether the primary is suspected.
    """

    CHECK_INTERVAL = 25.0
    failure_detector: FailureDetector

    def __init__(self, sim, name: str, primary_name: str, db_server_names: list[str]):
        super().__init__(sim, name)
        self.primary_name = primary_name
        self.db_server_names = list(db_server_names)

    def on_start(self, recovery: bool) -> None:
        # Volatile, like every baseline's memory: (client, j) ->
        # {"request":, "client":, "outcome":, "result":}, and what it took over.
        self._state: dict[Any, dict[str, Any]] = {}
        self._taken_over: set[Any] = set()
        self.on_message(PB_START, self._mirror)
        self.on_message(PB_OUTCOME, self._mirror)
        self.spawn(self._monitor(), name="pb-backup-monitor")

    def _mirror(self, message):
        key = message["j"]
        if message.msg_type == PB_START:
            self._state[key] = {"request": message["request"],
                                "client": message["client"]}
            self.send(message.sender, Message(PB_START_ACK, payload={"j": key}))
        else:
            entry = self._state.setdefault(key, {"client": message["client"]})
            entry["outcome"] = message["outcome"]
            entry["result"] = message["result"]
            self.send(message.sender, Message(PB_OUTCOME_ACK, payload={"j": key}))

    def _monitor(self):
        while True:
            yield self.sleep(self.CHECK_INTERVAL)
            if not self.failure_detector.suspect(self.name, self.primary_name):
                continue
            for key, entry in list(self._state.items()):
                if key in self._taken_over:
                    continue
                self._taken_over.add(key)
                yield from self._take_over(key, entry)

    def _take_over(self, key, entry):
        """Finish (or abort) a result on behalf of the suspected primary."""
        outcome = entry.get("outcome", ABORT)
        result = entry.get("result")
        client = entry["client"]
        # Route the decision to the same participant set the primary used;
        # the request was replicated in the PB_START message.  An entry with
        # no request (outcome replicated without a start) falls back to every
        # database, which is safe: a database that never voted refuses a
        # commit and merely installs an abort tombstone.
        request = entry.get("request")
        participants = list(self.db_server_names) if request is None \
            else request_participants(request, self.db_server_names)
        self.trace.record("pb_takeover", self.name, client=client, j=key[1], outcome=outcome)
        yield from participant_round(
            self, participants, lambda: msg.decide_message(key, outcome, tuple(participants)),
            msg.ACK_DECIDE, key)
        decision = Decision(result=result if outcome == COMMIT else None, outcome=outcome)
        self.trace.record("as_result_sent", self.name, client=client, j=key[1], outcome=outcome)
        self.send(client, msg.result_message(key[1], decision))


class PrimaryBackupDeployment(ThreeTierDeployment):
    """Three-tier deployment running the primary-backup comparator.

    The first application server is the primary, the second is the backup.
    The backup consults the deployment's (correct) perfect failure detector;
    experiments assign ``backup.failure_detector`` an unreliable one to
    reproduce the paper's inconsistency warning.
    """

    aliases = ("primary-backup",)
    default_app_servers = 2
    min_app_servers = 2
    unsupported_faults = ETX_ONLY_FAULTS

    def _build_app_servers(self) -> None:
        primary_name, backup_name = self.scenario.app_server_names[:2]
        db_names = self.scenario.db_server_names
        for server in (PrimaryServer(self.sim, primary_name, backup_name, db_names),
                       BackupServer(self.sim, backup_name, primary_name, db_names)):
            self.network.register(server)
            self.app_servers[server.name] = server

    def _build_failure_detector(self) -> FailureDetector:
        self.backup.failure_detector = super()._build_failure_detector()
        return self.backup.failure_detector

    @property
    def backup(self) -> BackupServer:
        """The backup application server."""
        return self.app_servers[self.scenario.app_server_names[1]]  # type: ignore[return-value]

"""The unreliable baseline protocol (the paper's Figure 7a).

The client talks to a single application server, which runs the business logic
on the database and asks for a one-phase commit.  Nothing is logged and nothing
is replicated: if the application server crashes mid-request, the client never
hears back (no T.1), and if it crashes between the database commit and the
reply, a retry by the end user would execute the request twice (no A.2).
This is the protocol whose latency defines the 0 % row of Figure 8.
"""

from __future__ import annotations

from repro.baselines.common import (
    ACK_COMMIT,
    COMMIT_ONE_PHASE,
    ETX_ONLY_FAULTS,
    OnePhaseDatabaseServer,
    ParticipantRouting,
    RequestDeduplication,
)
from repro.core import messages as msg
from repro.core.deployment import ThreeTierDeployment
from repro.core.types import ABORT, COMMIT, Decision, Request, Result
from repro.net.message import Message
from repro.sim.process import Process
from repro.sim.waits import ANY


class BaselineAppServer(RequestDeduplication, ParticipantRouting, Process):
    """A stateless application server offering no reliability guarantee."""

    def __init__(self, sim, name: str, db_server_names: list[str]):
        super().__init__(sim, name)
        self.db_server_names = list(db_server_names)

    def on_start(self, recovery: bool) -> None:
        super().on_start(recovery)
        self.spawn(self._serve(), name="baseline-serve")

    def _serve(self):
        while True:
            message = yield self.receive([(msg.REQUEST, ANY)])
            client = message.sender
            j = message["j"]
            request: Request = message["request"]
            key = (client, j)
            if self._replay_duplicate(key):
                continue
            participants = self.participants_of(request)
            self.trace.record("as_request", self.name, client=client, j=j,
                              request_id=request.request_id)
            value = yield from self._execute(key, request, participants)
            result = Result(value=value, request_id=request.request_id, computed_by=self.name)
            self.trace.record("as_compute", self.name, client=client, j=j,
                              request_id=request.request_id, result=repr(value),
                              participants=list(participants))
            committed = yield from self._commit(key, participants)
            outcome = COMMIT if committed else ABORT
            decision = Decision(result=result if committed else None, outcome=outcome)
            self._record_decision(key, decision)
            self.trace.record("as_result_sent", self.name, client=client, j=j, outcome=outcome)
            self.send(client, msg.result_message(j, decision))

    def _commit(self, key, participants):
        """One-phase commit on every participant; returns overall success."""
        for db_name in participants:
            self.send(db_name, Message(COMMIT_ONE_PHASE, payload={"j": key}))
        pending = set(participants)
        while pending:
            reply = yield self.receive([(ACK_COMMIT, key)])
            if reply.sender in pending:
                pending.discard(reply.sender)
        return True


class BaselineDeployment(ThreeTierDeployment):
    """Three-tier deployment running the unreliable baseline protocol."""

    unsupported_faults = ETX_ONLY_FAULTS
    db_server_class = OnePhaseDatabaseServer

    def _build_app_servers(self) -> None:
        for name in self.scenario.app_server_names:
            server = BaselineAppServer(self.sim, name, self.scenario.db_server_names)
            self.network.register(server)
            self.app_servers[name] = server

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
    TransactionManager,
)
from repro.core.appserver import participant_round
from repro.core.deployment import ThreeTierDeployment
from repro.core.types import COMMIT, Decision, Request
from repro.net.message import Message


class BaselineAppServer(TransactionManager):
    """A stateless application server offering no reliability guarantee."""

    def _transact(self, key, request: Request, participants: list[str]):
        result = yield from self._execute(key, request, participants)
        # One-phase commit on every participant, reported as a commit.
        yield from participant_round(
            self, participants, lambda: Message(COMMIT_ONE_PHASE, payload={"j": key}),
            ACK_COMMIT, key)
        return Decision(result=result, outcome=COMMIT)


class BaselineDeployment(ThreeTierDeployment):
    """Three-tier deployment running the unreliable baseline protocol."""

    unsupported_faults = ETX_ONLY_FAULTS
    db_server_class = OnePhaseDatabaseServer

    def _build_app_servers(self) -> None:
        for name in self.scenario.app_server_names:
            server = BaselineAppServer(self.sim, name, self.scenario.db_server_names)
            self.network.register(server)
            self.app_servers[name] = server

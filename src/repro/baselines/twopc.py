"""Presumed-nothing two-phase commit (the paper's Figure 7b).

The application server plays transaction manager: it force-writes a *start*
record to its local disk before sending prepare messages, collects votes,
force-writes the *outcome* record, then sends the decision and finally answers
the client.  This gives at-most-once semantics, but

* the two forced log writes cost ~25 ms (the 2PC column of Figure 8), and
* the protocol is *blocking*: if the coordinator crashes after the databases
  voted yes, they stay in doubt -- locks held -- until it comes back, and the
  client never learns the outcome.
"""

from __future__ import annotations

from repro.baselines.common import ETX_ONLY_FAULTS, SerialTransactionManager
from repro.core.deployment import ThreeTierDeployment
from repro.core.types import COMMIT, Decision, Request
from repro.storage.stable import StableStorage
from repro.storage.wal import WriteAheadLog


class TwoPCCoordinator(SerialTransactionManager):
    """Application server acting as a classic 2PC transaction manager."""

    def __init__(self, sim, name: str, db_server_names: list[str],
                 log_latency: float = 12.5):
        super().__init__(sim, name, db_server_names)
        self.disk = StableStorage(f"{name}.tmlog", forced_write_latency=log_latency)
        self.log = WriteAheadLog(self.disk)

    def _transact(self, key, request: Request, participants: list[str]):
        client, j = key
        # Presumed nothing: force a start record before doing anything.
        cost = self.log.append_prepare(key, {"request": request.request_id})
        yield self.sleep(cost)
        self.trace.record("tm_log", self.name, which="start", j=j, client=client,
                          duration=cost)
        result = yield from self._execute(key, request, participants)
        outcome = yield from self._prepare(key, participants)
        # Force the outcome record before telling anyone.
        cost = self.log.append_commit(key) if outcome == COMMIT \
            else self.log.append_abort(key, forced=True)
        yield self.sleep(cost)
        self.trace.record("tm_log", self.name, which="outcome", j=j, client=client,
                          duration=cost)
        yield from self._decide(key, outcome, participants)
        return Decision(result=result if outcome == COMMIT else None, outcome=outcome)


class TwoPCDeployment(ThreeTierDeployment):
    """Three-tier deployment running presumed-nothing 2PC."""

    aliases = ("twopc",)
    unsupported_faults = ETX_ONLY_FAULTS

    def _build_app_servers(self) -> None:
        for name in self.scenario.app_server_names:
            server = TwoPCCoordinator(self.sim, name, self.scenario.db_server_names,
                                      log_latency=self.scenario.coordinator_log_latency)
            self.network.register(server)
            self.app_servers[name] = server

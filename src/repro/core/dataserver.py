"""Database-server protocol (the paper's Figure 3).

A database server is a *pure server*: it reacts to ``Prepare``, ``Decide`` and
``Execute`` messages from application servers, never initiates anything, and
announces its recovery with a ``Ready`` notification to every application
server (Figure 3, lines 1-2).  The actual transactional machinery lives in the
XA resource (:mod:`repro.storage.xa`); this process adds the message handling,
the per-phase timing, and crash/recovery behaviour.

It hosts no thread.  Each message type is served by
:meth:`~repro.sim.process.Process.serve`: one step per message, which sleeps
for the phase's cost and replies, while later messages of that type queue in
arrival order.  A message of any other type is an ``unhandled`` drop.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.core import messages as msg
from repro.core.timing import DatabaseTiming
from repro.core.types import ABORT, COMMIT, Request
from repro.sim.process import Process
from repro.sim.scheduler import Simulator
from repro.storage.kvstore import (
    ShardOwnershipError,
    TransactionError,
    TransactionalKVStore,
)
from repro.storage.locks import LockConflict
from repro.storage.stable import StableStorage
from repro.storage.xa import XAResource

BusinessLogicFactory = Callable[[Request], Callable[[Any], Any]]
"""Maps a request to the function run inside the transaction (the SQL work)."""


class DatabaseServer(Process):
    """One back-end database server (an XA engine behind a message interface).

    Parameters
    ----------
    sim, name:
        Simulator and process name.
    app_server_names:
        All application servers (recipients of the ``Ready`` notification).
    business_logic:
        Factory turning a :class:`~repro.core.types.Request` into the function
        executed inside the transaction (provided by the workload).
    timing:
        Per-phase costs; defaults reproduce the paper's baseline column.
    initial_data:
        Initial committed database contents.  On a partitioned deployment the
        builder passes only this shard's slice of the key space.
    owns_key:
        Optional ``key -> owned?`` predicate installed on the store; when
        present, a transaction touching a foreign key aborts with a
        :class:`~repro.storage.kvstore.ShardOwnershipError` instead of
        silently diverging from the owning shard.
    """

    pure_server = True

    def __init__(self, sim: Simulator, name: str, app_server_names: list[str],
                 business_logic: BusinessLogicFactory,
                 timing: Optional[DatabaseTiming] = None,
                 initial_data: Optional[dict[str, Any]] = None,
                 owns_key: Optional[Callable[[str], bool]] = None,
                 directory: Optional[Any] = None):
        super().__init__(sim, name)
        self.app_server_names = list(app_server_names)
        self.business_logic = business_logic
        self.timing = timing if timing is not None else DatabaseTiming()
        self.disk = StableStorage(f"{name}.disk", forced_write_latency=self.timing.forced_write)
        # The engine keeps its log on the device; recovery rebuilds the rest.
        self.store = TransactionalKVStore(name, storage=self.disk, initial_data=initial_data,
                                          owns_key=owns_key)
        self.resource = XAResource(self.store)
        # Online resharding: the live ShardDirectory, shared with the whole
        # deployment.  Only set when the scenario carries reshard faults --
        # the migration server must not exist otherwise.
        self.directory = directory

    # --------------------------------------------------------------- lifecycle

    def on_start(self, recovery: bool) -> None:
        # Cache of already-executed business-logic calls, keyed by result key.
        # Makes Execute idempotent under retransmission (volatile: an unprepared
        # transaction does not survive a crash anyway).
        self._executed: dict[Any, tuple[Any, bool]] = {}
        if recovery:
            in_doubt = self.resource.recover()
            self.trace.record("db_recover", self.name, in_doubt=[str(k) for k in in_doubt])
            # Figure 3, line 2: tell every application server we are back.
            self.multicast(self.app_server_names, msg.ready_message())
        self.serve(msg.EXECUTE, self._serve_execute)
        self.serve(msg.PREPARE, self._serve_prepare)
        self.serve(msg.DECIDE, self._serve_decide)
        if self.directory is not None:
            # Which (epoch, stage) migrations this incarnation already applied.
            self._migrations_applied: set[tuple[int, str]] = set()
            self.serve((msg.MIGRATE_SNAPSHOT, msg.MIGRATE_INSTALL, msg.MIGRATE_RELEASE),
                       self._serve_migrate)

    # ------------------------------------------------------------------- steps

    def _serve_execute(self, message):
        """Run the business logic inside a transaction (the paper's transient
        database manipulation performed by ``compute()``)."""
        key = message["j"]
        request: Request = message["request"]
        if key in self._executed:
            value, ok = self._executed[key]
            self.send(message.sender, msg.execute_result_message(key, value, ok=ok))
            return
        yield self.sleep(self.timing.start + self.timing.sql)
        ok = True
        try:
            value = self.resource.execute(key, self.business_logic(request))
        except LockConflict as conflict:
            ok = False
            value = {"error": "lock_conflict", "key": conflict.key}
        except ShardOwnershipError as misroute:
            # The business logic touched a key this shard does not own --
            # a routing bug (participant set narrower than the keys the
            # request manipulates).  The transaction was aborted, so this
            # shard will vote no and the whole transaction aborts.
            ok = False
            value = {"error": "shard_ownership", "key": misroute.key,
                     "shard": self.name}
        except TransactionError as error:
            # A re-execution of an already-terminated transaction (e.g. a
            # stale retransmission): report it, the vote will say no.
            ok = False
            value = {"error": "transaction_state", "detail": str(error)}
        self._executed[key] = (value, ok)
        self.trace.record("db_execute", self.name, j=key,
                          request_id=request.request_id, ok=ok)
        self.send(message.sender, msg.execute_result_message(key, value, ok=ok))

    def _serve_prepare(self, message):
        """Vote on results (Figure 3, lines 5-6)."""
        key = message["j"]
        vote, io_cost = self.resource.vote(key)
        cost = self.timing.prepare_cpu + io_cost if io_cost > 0 else 0.0
        if cost > 0:
            yield self.sleep(cost)
        self.trace.record("db_vote", self.name, j=key, vote=vote)
        self.send(message.sender, msg.vote_message(key, vote))

    def _serve_decide(self, message):
        """Apply decisions and acknowledge them (Figure 3, lines 7-9)."""
        key = message["j"]
        outcome = message["outcome"]
        final, io_cost = self.resource.decide(key, outcome)
        if final == COMMIT and io_cost > 0:
            yield self.sleep(self.timing.commit_cpu + io_cost + self.timing.end)
        elif final == ABORT and io_cost >= 0 and outcome == ABORT:
            yield self.sleep(self.timing.abort_cpu)
        self.trace.record("db_decide", self.name, j=key, outcome=final,
                          requested=outcome)
        self.send(message.sender, msg.ack_decide_message(key))

    def _serve_migrate(self, message):
        """Serve the reconfiguration coordinator's migration traffic.

        Three idempotent exchanges, all correlated by the *target* epoch:

        * ``MigrateSnapshot``: report which of this shard's committed keys
          move where under the pending placement (with their values).  While
          a moving key is pinned -- locked by an active or in-doubt
          transaction here, or retained by an in-flight transaction at the
          application tier -- the reply says *busy* and the coordinator asks
          again: old-epoch traffic drains before its data moves.  New
          transactions on moving keys are deferred at the application tier,
          so the drain terminates and repeated snapshots of one epoch are
          identical.
        * ``MigrateInstall``: durably adopt committed values moving here.
        * ``MigrateRelease``: durably drop keys that moved away.

        None of these emit ``db_execute``/``db_vote``/``db_decide`` events:
        migration is not a transaction, and the specification checker judges
        it only through the epoch stamps on regular commits.
        """
        applied = self._migrations_applied
        epoch = message["j"]
        if message.msg_type == msg.MIGRATE_SNAPSHOT:
            plan = self.directory.migration_plan(
                self.name, sorted(self.store.committed_snapshot()))
            moving = [key for keys in plan.values() for key in keys]
            busy = (any(self.store.locks.holder(key) is not None
                        for key in moving)
                    or self.directory.retained(moving))
            data = {} if busy else {
                dest: {key: self.store.get_committed(key) for key in keys}
                for dest, keys in sorted(plan.items())}
            self.send(message.sender, msg.migrate_snapshot_reply_message(
                epoch, self.name, data, busy=busy))
            return
        if message.msg_type == msg.MIGRATE_INSTALL:
            if (epoch, "install") not in applied:
                applied.add((epoch, "install"))
                cost = self.store.migrate_install(epoch, message["data"])
                if cost > 0:
                    yield self.sleep(cost)
                self.trace.record("db_migrate", self.name, j=epoch,
                                  stage="install",
                                  keys=len(message["data"]))
            self.send(message.sender, msg.migrate_ack_message(
                epoch, self.name, "install"))
            return
        if (epoch, "release") not in applied:
            applied.add((epoch, "release"))
            keys = tuple(message["keys"])
            cost = self.store.migrate_release(epoch, keys)
            if cost > 0:
                yield self.sleep(cost)
            self.trace.record("db_migrate", self.name, j=epoch,
                              stage="release", keys=len(keys))
        self.send(message.sender, msg.migrate_ack_message(
            epoch, self.name, "release"))

    # ------------------------------------------------------------------- query

    def committed_value(self, key: str) -> Any:
        """Committed database contents (used by tests and invariant checks)."""
        return self.store.get_committed(key)

    def in_doubt(self) -> list[Any]:
        """Prepared-but-undecided transactions currently holding locks."""
        return self.resource.in_doubt()

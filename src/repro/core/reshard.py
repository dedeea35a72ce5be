"""Online reconfiguration: resize the database tier while traffic flows.

The paper's deployment is static -- ``d`` database servers are fixed for a
run's lifetime.  This module adds the *elastic* reading: a reconfiguration
coordinator that migrates key ranges between database servers under live
load, without stopping the e-Transaction protocol and without violating its
specification.

The protocol is epoch-based and leans on the same building blocks as the
transaction path (idempotent request/reply exchanges, retransmission under
the fair-lossy channel model):

1. **begin** -- the coordinator opens a reconfiguration window on the shared
   :class:`~repro.core.sharding.ShardDirectory`: the *pending* placement
   (epoch ``e+1``) is published next to the *current* one (epoch ``e``).
   Traffic keeps routing against ``e``; transactions touching keys whose
   owner changes are deferred at the application tier.
2. **snapshot** -- each current shard reports which of its committed keys
   move where under the pending placement.  A shard whose moving keys are
   still pinned -- locked by an active/in-doubt transaction, or retained by
   an in-flight handler -- answers *busy* and the coordinator retries:
   in-flight transactions drain on the old epoch before their data moves.
3. **install** -- every destination durably adopts the values moving onto
   it (a forced ``migrate_in`` WAL record, so the install survives crashes).
4. **release** -- every source durably drops the keys that moved away
   (a forced ``migrate_out`` record; recovery will not resurrect them).
5. **commit** -- the pending placement becomes current, the epoch advances,
   deferred transactions wake up and re-route against the new participant
   sets.

Steps 2-4 are idempotent per epoch and individually retried, so the
coordinator tolerates message loss and database crash/recovery mid-window;
ordering (all installs before any release) guarantees that at every instant
each key has at least one durable owner.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.core import messages as msg
from repro.core.sharding import ShardDirectory
from repro.sim.process import Process
from repro.sim.scheduler import Simulator
from repro.sim.waits import TIMEOUT

RESHARD_COORDINATOR = "reshard-coord"
"""Process name of the (single) reconfiguration coordinator."""


class ReshardCoordinator(Process):
    """The reconfiguration coordinator process.

    Parameters
    ----------
    sim:
        The simulator.
    directory:
        The deployment's shared :class:`ShardDirectory`.
    db_server_names:
        *All* database-server names the deployment can ever use, in order --
        the running shards plus the standbys.  A reshard to ``n`` shards
        targets the first ``n`` of these.
    retry_interval:
        Pace of snapshot/install/release retransmissions (and of the drain
        poll while a source is busy).
    """

    def __init__(self, sim: Simulator, directory: ShardDirectory,
                 db_server_names: Sequence[str],
                 retry_interval: float = 5.0,
                 name: str = RESHARD_COORDINATOR):
        super().__init__(sim, name)
        self.directory = directory
        self.db_server_names = list(db_server_names)
        self.retry_interval = retry_interval
        # (from_count, to_count) transitions applied or in progress.
        self.completed: list[tuple[int, int]] = []
        self._active = False

    # ---------------------------------------------------------------- trigger

    def request(self, from_count: int, to_count: int) -> None:
        """Entry point for ``reshard@t:dX->dY`` fault actions.

        Called from the fault schedule at its trigger time; runs the
        migration on a dedicated coordinator thread.
        """
        self.spawn(self._run(from_count, to_count),
                   name=f"reshard:d{from_count}->d{to_count}")

    # ------------------------------------------------------------------- run

    def _run(self, from_count: int, to_count: int):
        if self._active:
            raise RuntimeError("overlapping reshard requests are not supported")
        current = self.directory.current
        if len(current.shards) != from_count:
            raise RuntimeError(
                f"reshard d{from_count}->d{to_count} does not match the "
                f"running tier of {len(current.shards)} shards")
        if to_count > len(self.db_server_names):
            raise RuntimeError(
                f"reshard targets {to_count} shards but the deployment only "
                f"provisioned {len(self.db_server_names)}")
        self._active = True
        target = current.resized(self.db_server_names[:to_count])
        epoch = target.epoch
        self.directory.begin(target)
        self.trace.record("reshard", self.name, stage="begin", epoch=epoch,
                          shards=list(target.shards),
                          from_count=from_count, to_count=to_count)

        # Snapshot each source in turn, draining its in-flight traffic.
        incoming: dict[str, dict[str, Any]] = {}
        outgoing: dict[str, list[str]] = {}
        for source in current.shards:
            data = yield from self._snapshot(source, epoch)
            keys: list[str] = []
            for dest, values in sorted(data.items()):
                incoming.setdefault(dest, {}).update(values)
                keys.extend(values)
            if keys:
                outgoing[source] = sorted(keys)

        # All installs strictly before any release: every key durably exists
        # at its new owner before the old owner forgets it.
        for dest in sorted(incoming):
            yield from self._deliver(dest, epoch, "install",
                                     msg.migrate_install_message(epoch, incoming[dest]))
        for source in current.shards:
            if source in outgoing:
                yield from self._deliver(source, epoch, "release",
                                         msg.migrate_release_message(
                                             epoch, tuple(outgoing[source])))

        self.directory.commit()
        self._active = False
        self.completed.append((from_count, to_count))
        moved = sum(len(keys) for keys in outgoing.values())
        self.trace.record("reshard", self.name, stage="commit", epoch=epoch,
                          shards=list(target.shards), moved_keys=moved,
                          from_count=from_count, to_count=to_count)

    # --------------------------------------------------------------- exchanges

    def _snapshot(self, source: str, epoch: int):
        """Retry ``MigrateSnapshot`` against ``source`` until it drains."""
        while True:
            self.send(source, msg.migrate_snapshot_message(epoch, ()))
            reply = yield from self._reply(msg.MIGRATE_SNAPSHOT_REPLY, epoch, source)
            if reply is TIMEOUT:
                continue
            if reply["busy"]:
                # A moving key is pinned by in-flight work; let it drain.
                yield self.sleep(self.retry_interval)
                continue
            return reply["data"]

    def _deliver(self, shard: str, epoch: int, stage: str, message: Any):
        """Retry ``message`` against ``shard`` until its stage is acked."""
        while True:
            self.send(shard, message.copy() if hasattr(message, "copy") else message)
            reply = yield from self._reply(msg.MIGRATE_ACK, epoch, shard, stage)
            if reply is not TIMEOUT:
                return

    def _reply(self, msg_type: str, epoch: int, shard: str, stage: Optional[str] = None):
        """The ``msg_type`` reply of ``epoch`` from ``shard`` (at ``stage``), or
        :data:`TIMEOUT` once ``retry_interval`` has passed.

        A late reply from another shard or stage is dropped and the wait goes
        on for what is left of the interval, so no resend moves.
        """
        deadline = self.now + self.retry_interval
        while True:
            reply = yield self.receive([(msg_type, epoch)], timeout=deadline - self.now)
            if reply is TIMEOUT or reply.sender == shard and reply.get("stage") == stage:
                return reply

"""Write-ahead log for the transactional store.

The log is the database's single source of durability: transaction prepare
records (carrying the write set), commit records and abort records are
appended to it, and :meth:`WriteAheadLog.replay` reconstructs the committed
state and the set of in-doubt (prepared but undecided) transactions after a
crash.  The log lives on a :class:`~repro.storage.stable.StableStorage` device
so its I/O costs are accounted for.

Replay is a left fold over the records, so the log need not keep them all:
every :attr:`WriteAheadLog.CHECKPOINT_ROWS` appended records are folded into a
checkpoint kept on the same device (a :class:`ReplayResult`, written lazily:
no virtual time, no forced write) and dropped.  The log is that checkpoint
plus a tail of fewer records, and :meth:`WriteAheadLog.replay` folds the tail
into a copy of the checkpoint.  The checkpoint keeps every outcome id, so
recovery rebuilds the same tombstones.

A tail record is a row, a plain ``(kind, transaction_id, keys, values,
removes)`` tuple.  A write set is two flat tuples, its keys and its values in
the same order; a record without one (a two-phase commit, an abort, a
migrate-out) has the shared empty tuple there: no dict per record, and no
empty one.  A row of flat tuples, strings and numbers holds nothing the
cyclic garbage collector can follow: a collection untracks the flat tuples,
the next one the row, and from then on the collector never walks it (a dict
inside would keep it tracked for ever, even an empty one).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from repro.storage.stable import StableStorage

PREPARE = "prepare"
COMMIT = "commit"
ABORT = "abort"
MIGRATE_IN = "migrate_in"
MIGRATE_OUT = "migrate_out"


#: A stored record: ``(kind, transaction_id, keys, values, removes)``.
Row = tuple[str, Any, tuple[str, ...], tuple[Any, ...], tuple[str, ...]]

_NO_WRITES: dict[str, Any] = {}  # never mutated


@dataclass
class ReplayResult:
    """What replaying a log rebuilds, and what a checkpoint stores."""

    committed_state: dict[str, Any] = field(default_factory=dict)
    in_doubt: dict[Any, dict[str, Any]] = field(default_factory=dict)
    committed_transactions: list[Any] = field(default_factory=list)
    aborted_transactions: list[Any] = field(default_factory=list)
    # Keys migrated off this shard (and not written again later): recovery
    # must delete them even when they predate the log (initial data), so they
    # ride next to the replayed state rather than inside it.
    released_keys: set[str] = field(default_factory=set)

    def apply(self, rows: Iterable[Row]) -> "ReplayResult":
        """Fold ``rows``, oldest first, into this state in place; returns it."""
        committed_state = self.committed_state
        prepared = self.in_doubt
        released = self.released_keys
        committed = self.committed_transactions.append
        aborted = self.aborted_transactions.append
        for kind, transaction_id, keys, values, removes in rows:
            if kind == PREPARE:
                prepared[transaction_id] = dict(zip(keys, values))
            elif kind == COMMIT:
                # A one-phase commit carries its writes; a two-phase one
                # applies its prepare record's.
                applied = prepared.pop(transaction_id, _NO_WRITES)
                if keys:
                    applied = dict(zip(keys, values))
                committed_state.update(applied)
                if released:
                    released.difference_update(applied)
                committed(transaction_id)
            elif kind == ABORT:
                prepared.pop(transaction_id, None)
                aborted(transaction_id)
            elif kind == MIGRATE_IN:
                installed = dict(zip(keys, values))
                committed_state.update(installed)
                released.difference_update(installed)
            elif kind == MIGRATE_OUT:
                for key in removes:
                    committed_state.pop(key, None)
                released.update(removes)
        return self

    def copy(self) -> "ReplayResult":
        """A copy that shares no container with this one."""
        return ReplayResult(
            committed_state=dict(self.committed_state),
            in_doubt={tid: dict(writes) for tid, writes in self.in_doubt.items()},
            committed_transactions=list(self.committed_transactions),
            aborted_transactions=list(self.aborted_transactions),
            released_keys=set(self.released_keys),
        )


class WriteAheadLog:
    """Transaction log on stable storage: a checkpoint and a short tail."""

    LOG_KEY = "__wal__"
    CHECKPOINT_KEY = "__wal_checkpoint__"
    #: Tail length that triggers a checkpoint; the trace recorder seals its
    #: rows into blocks of the same size (``BLOCK_ROWS``).
    CHECKPOINT_ROWS = 256

    def __init__(self, storage: StableStorage):
        self.storage = storage

    # ----------------------------------------------------------------- append

    def append_prepare(self, transaction_id: Any, writes: dict[str, Any],
                       forced: bool = True) -> float:
        """Log the write set of a prepared transaction; returns the I/O cost."""
        return self._append(PREPARE, transaction_id, writes, (), forced)

    def append_commit(self, transaction_id: Any, writes: Optional[dict[str, Any]] = None,
                      forced: bool = True) -> float:
        """Log a commit decision.

        ``writes`` is only needed for one-phase commits (no prior prepare
        record); two-phase commits reference the prepare record's write set.
        """
        return self._append(COMMIT, transaction_id, writes, (), forced)

    def append_abort(self, transaction_id: Any, forced: bool = False) -> float:
        """Log an abort decision (lazily by default: aborts need no durability)."""
        return self._append(ABORT, transaction_id, None, (), forced)

    def append_migrate_in(self, epoch: int, data: dict[str, Any],
                          forced: bool = True) -> float:
        """Log committed values installed by an epoch-``epoch`` migration."""
        return self._append(MIGRATE_IN, ("migrate", epoch), data, (), forced)

    def append_migrate_out(self, epoch: int, keys: tuple[str, ...],
                           forced: bool = True) -> float:
        """Log keys released to another shard by an epoch-``epoch`` migration."""
        return self._append(MIGRATE_OUT, ("migrate", epoch), None, tuple(keys), forced)

    def _append(self, kind: str, transaction_id: Any, writes: Optional[dict[str, Any]],
                removes: tuple[str, ...], forced: bool) -> float:
        row = ((kind, transaction_id, tuple(writes), tuple(writes.values()), removes)
               if writes else (kind, transaction_id, (), (), removes))
        storage = self.storage
        cost = storage.append(self.LOG_KEY, row, forced=forced)
        tail = storage.get(self.LOG_KEY)
        if len(tail) >= self.CHECKPOINT_ROWS:
            self._checkpoint(tail)
        return cost

    def _checkpoint(self, tail: list[Row]) -> None:
        """Fold ``tail`` into the checkpoint, then drop it: two lazy writes
        whose cost nobody waits for."""
        checkpoint = self.storage.get(self.CHECKPOINT_KEY) or ReplayResult()
        self.storage.put(self.CHECKPOINT_KEY, checkpoint.apply(tail), forced=False)
        self.storage.delete(self.LOG_KEY, forced=False)

    # ------------------------------------------------------------------- read

    def replay(self) -> ReplayResult:
        """Rebuild committed state and in-doubt transactions from the log:
        the checkpoint folded with the tail (the stored checkpoint is left
        as it was)."""
        checkpoint = self.storage.get(self.CHECKPOINT_KEY)
        state = checkpoint.copy() if checkpoint is not None else ReplayResult()
        return state.apply(self.storage.get(self.LOG_KEY, ()))

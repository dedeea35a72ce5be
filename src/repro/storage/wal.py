"""Write-ahead log for the transactional store.

The log is the database's single source of durability: transaction prepare
records (carrying the write set), commit records and abort records are
appended to it, and :meth:`WriteAheadLog.replay` reconstructs the committed
state and the set of in-doubt (prepared but undecided) transactions after a
crash.  The log lives on a :class:`~repro.storage.stable.StableStorage` device
so its I/O costs are accounted for.

The log keeps every record for the whole run, so it stores each one as a
row, a plain ``(kind, transaction_id, keys, values, removes)`` tuple, never
as a :class:`LogRecord`.  A write set is two flat tuples, its keys and its
values in the same order; a record without one (a two-phase commit, an
abort, a migrate-out) has the shared empty tuple there: no dict per record,
and no empty one.  A row of flat tuples, strings and numbers holds nothing
the cyclic garbage collector can follow: a collection untracks the flat
tuples, the next one the row, and from then on the collector never walks it
(a dict inside would keep it tracked for ever, even an empty one).
:meth:`WriteAheadLog.records` builds the slotted :class:`LogRecord` objects,
write sets as dicts, on read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.storage.stable import StableStorage

PREPARE = "prepare"
COMMIT = "commit"
ABORT = "abort"
MIGRATE_IN = "migrate_in"
MIGRATE_OUT = "migrate_out"

_VALID_KINDS = {PREPARE, COMMIT, ABORT, MIGRATE_IN, MIGRATE_OUT}


#: A stored record: ``(kind, transaction_id, keys, values, removes)``.
Row = tuple[str, Any, tuple[str, ...], tuple[Any, ...], tuple[str, ...]]


@dataclass(frozen=True, slots=True)
class LogRecord:
    """One WAL entry, as :meth:`WriteAheadLog.records` returns it."""

    kind: str
    transaction_id: Any
    writes: dict[str, Any] = field(default_factory=dict)
    removes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _VALID_KINDS:
            raise ValueError(f"unknown log record kind {self.kind!r}")


@dataclass
class ReplayResult:
    """Outcome of replaying the log after a crash."""

    committed_state: dict[str, Any]
    in_doubt: dict[Any, dict[str, Any]]
    committed_transactions: list[Any]
    aborted_transactions: list[Any]
    # Keys migrated off this shard (and not written again later): recovery
    # must delete them even when they predate the log (initial data), so they
    # ride next to the replayed state rather than inside it.
    released_keys: set[str] = field(default_factory=set)


class WriteAheadLog:
    """Append-only transaction log stored on stable storage."""

    LOG_KEY = "__wal__"

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
        return self.storage.append(self.LOG_KEY, row, forced=forced)

    # ------------------------------------------------------------------- read

    def records(self) -> list[LogRecord]:
        """All records in append order."""
        return [LogRecord(kind, transaction_id, dict(zip(keys, values)), removes)
                for kind, transaction_id, keys, values, removes in self._rows()]

    def replay(self) -> ReplayResult:
        """Rebuild committed state and in-doubt transactions from the log."""
        committed_state: dict[str, Any] = {}
        prepared: dict[Any, dict[str, Any]] = {}
        committed: list[Any] = []
        aborted: list[Any] = []
        released: set[str] = set()
        for kind, transaction_id, keys, values, removes in self._rows():
            if kind == PREPARE:
                prepared[transaction_id] = dict(zip(keys, values))
            elif kind == COMMIT:
                applied = dict(zip(keys, values)) if keys else prepared.get(transaction_id, {})
                committed_state.update(applied)
                released.difference_update(applied)
                prepared.pop(transaction_id, None)
                committed.append(transaction_id)
            elif kind == ABORT:
                prepared.pop(transaction_id, None)
                aborted.append(transaction_id)
            elif kind == MIGRATE_IN:
                installed = dict(zip(keys, values))
                committed_state.update(installed)
                released.difference_update(installed)
            elif kind == MIGRATE_OUT:
                for key in removes:
                    committed_state.pop(key, None)
                released.update(removes)
        return ReplayResult(
            committed_state=committed_state,
            in_doubt=prepared,
            committed_transactions=committed,
            aborted_transactions=aborted,
            released_keys=released,
        )

    def _rows(self) -> list[Row]:
        return self.storage.get(self.LOG_KEY, [])

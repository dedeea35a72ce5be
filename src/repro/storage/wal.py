"""Write-ahead log for the transactional store.

The log is the database's single source of durability: transaction prepare
records (carrying the write set), commit records and abort records are
appended to it, and :meth:`WriteAheadLog.replay` reconstructs the committed
state and the set of in-doubt (prepared but undecided) transactions after a
crash.  The log lives on a :class:`~repro.storage.stable.StableStorage` device
so its I/O costs are accounted for.
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


@dataclass(frozen=True)
class LogRecord:
    """One WAL entry."""

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
        record = LogRecord(PREPARE, transaction_id, dict(writes))
        return self.storage.append(self.LOG_KEY, record, forced=forced)

    def append_commit(self, transaction_id: Any, writes: Optional[dict[str, Any]] = None,
                      forced: bool = True) -> float:
        """Log a commit decision.

        ``writes`` is only needed for one-phase commits (no prior prepare
        record); two-phase commits reference the prepare record's write set.
        """
        record = LogRecord(COMMIT, transaction_id, dict(writes or {}))
        return self.storage.append(self.LOG_KEY, record, forced=forced)

    def append_abort(self, transaction_id: Any, forced: bool = False) -> float:
        """Log an abort decision (lazily by default: aborts need no durability)."""
        record = LogRecord(ABORT, transaction_id)
        return self.storage.append(self.LOG_KEY, record, forced=forced)

    def append_migrate_in(self, epoch: int, data: dict[str, Any],
                          forced: bool = True) -> float:
        """Log committed values installed by an epoch-``epoch`` migration."""
        record = LogRecord(MIGRATE_IN, ("migrate", epoch), dict(data))
        return self.storage.append(self.LOG_KEY, record, forced=forced)

    def append_migrate_out(self, epoch: int, keys: tuple[str, ...],
                           forced: bool = True) -> float:
        """Log keys released to another shard by an epoch-``epoch`` migration."""
        record = LogRecord(MIGRATE_OUT, ("migrate", epoch), removes=tuple(keys))
        return self.storage.append(self.LOG_KEY, record, forced=forced)

    # ------------------------------------------------------------------- read

    def records(self) -> list[LogRecord]:
        """All records in append order."""
        return list(self.storage.get(self.LOG_KEY, []))

    def replay(self) -> ReplayResult:
        """Rebuild committed state and in-doubt transactions from the log."""
        committed_state: dict[str, Any] = {}
        prepared: dict[Any, dict[str, Any]] = {}
        committed: list[Any] = []
        aborted: list[Any] = []
        released: set[str] = set()
        for record in self.records():
            if record.kind == PREPARE:
                prepared[record.transaction_id] = dict(record.writes)
            elif record.kind == COMMIT:
                writes = record.writes or prepared.get(record.transaction_id, {})
                committed_state.update(writes)
                released.difference_update(writes)
                prepared.pop(record.transaction_id, None)
                committed.append(record.transaction_id)
            elif record.kind == ABORT:
                prepared.pop(record.transaction_id, None)
                aborted.append(record.transaction_id)
            elif record.kind == MIGRATE_IN:
                committed_state.update(record.writes)
                released.difference_update(record.writes)
            elif record.kind == MIGRATE_OUT:
                for key in record.removes:
                    committed_state.pop(key, None)
                released.update(record.removes)
        return ReplayResult(
            committed_state=committed_state,
            in_doubt=prepared,
            committed_transactions=committed,
            aborted_transactions=aborted,
            released_keys=released,
        )

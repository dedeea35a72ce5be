"""Transactional key-value store -- the database engine behind each database server.

The engine provides exactly the surface the paper's model needs from a
third-party database:

* transient data manipulation on behalf of the business logic
  (:meth:`TransactionalKVStore.read` / :meth:`write` inside a transaction),
* the XA-style commitment surface: :meth:`prepare` (the paper's ``vote()``)
  and :meth:`commit` / :meth:`abort` (the paper's ``decide()``),
* recovery from a write-ahead log: committed data survives, in-doubt
  (prepared) transactions are restored *with their locks*, and active
  (unprepared) transactions evaporate.

Durability and I/O cost live in :class:`~repro.storage.wal.WriteAheadLog` /
:class:`~repro.storage.stable.StableStorage`; every mutating call returns the
I/O cost it incurred so the hosting database-server process can charge that
time to the simulation clock.

The store remembers every transaction it ever saw, for the whole run, so that
a terminated one keeps refusing ``begin`` and keeps answering ``status``.  Only
a live (active or prepared) transaction has a :class:`Transaction` of its own,
with a write set and a read set.  A terminated one is a :class:`Tombstone`:
the one immutable object shared by every transaction that committed, or the
one shared by every transaction that aborted -- including the presumed-abort
tombstone installed for an unknown transaction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Optional

from repro.storage.locks import LockConflict, LockManager
from repro.storage.stable import StableStorage
from repro.storage.wal import WriteAheadLog

TransactionId = Hashable

ACTIVE = "active"
PREPARED = "prepared"
COMMITTED = "committed"
ABORTED = "aborted"


class TransactionError(Exception):
    """An operation was applied to a transaction in an incompatible state."""


class ShardOwnershipError(TransactionError):
    """A transaction touched a key this shard does not own.

    Raised when the store was built with an ownership predicate (a partitioned
    deployment) and the business logic reads or writes a key that belongs to
    another shard -- always a routing bug (the request's participant set did
    not match the keys it touches), never a legitimate protocol state.
    """

    def __init__(self, shard: str, key: str):
        super().__init__(f"shard {shard!r} does not own key {key!r}")
        self.shard = shard
        self.key = key


@dataclass(slots=True)
class Transaction:
    """In-memory descriptor of one live (active or prepared) transaction."""

    transaction_id: TransactionId
    status: str = ACTIVE
    writes: dict[str, Any] = field(default_factory=dict)
    reads: set[str] = field(default_factory=set)


@dataclass(frozen=True, slots=True)
class Tombstone:
    """What a terminated transaction leaves behind: its outcome, nothing else."""

    status: str


COMMITTED_TOMBSTONE = Tombstone(COMMITTED)
ABORTED_TOMBSTONE = Tombstone(ABORTED)


class TransactionalKVStore:
    """A crash-recoverable key-value store with two-phase commitment."""

    def __init__(self, name: str, storage: Optional[StableStorage] = None,
                 initial_data: Optional[dict[str, Any]] = None,
                 owns_key: Optional[Callable[[str], bool]] = None):
        self.name = name
        self.storage = storage if storage is not None else StableStorage(f"{name}.disk")
        self.wal = WriteAheadLog(self.storage)
        self.locks = LockManager()
        self._owns_key = owns_key
        self._committed: dict[str, Any] = dict(initial_data or {})
        self._transactions: dict[TransactionId, Transaction | Tombstone] = {}
        if initial_data:
            # Persist the initial data so recovery can rebuild it.
            self.storage.put("__initial__", dict(initial_data), forced=False)

    # --------------------------------------------------------------- lifecycle

    def begin(self, transaction_id: TransactionId) -> Transaction:
        """Start a transaction; re-beginning an active one is idempotent."""
        existing = self._transactions.get(transaction_id)
        if existing is not None:
            if existing.status in (ACTIVE, PREPARED):
                return existing
            raise TransactionError(
                f"transaction {transaction_id!r} already terminated ({existing.status})"
            )
        transaction = Transaction(transaction_id)
        self._transactions[transaction_id] = transaction
        return transaction

    def status(self, transaction_id: TransactionId) -> Optional[str]:
        """Status string of the transaction, or ``None`` if unknown."""
        transaction = self._transactions.get(transaction_id)
        return None if transaction is None else transaction.status

    # -------------------------------------------------------- data manipulation

    def owns(self, key: str) -> bool:
        """Whether this store is responsible for ``key`` (always true when the
        deployment is not partitioned)."""
        return self._owns_key is None or self._owns_key(key)

    def _assert_owned(self, key: str) -> None:
        if not self.owns(key):
            raise ShardOwnershipError(self.name, key)

    def read(self, transaction_id: TransactionId, key: str, default: Any = None) -> Any:
        """Read ``key`` within the transaction (sees the transaction's own writes)."""
        self._assert_owned(key)
        transaction = self._require(transaction_id, ACTIVE, PREPARED)
        transaction.reads.add(key)
        if key in transaction.writes:
            return transaction.writes[key]
        return self._committed.get(key, default)

    def write(self, transaction_id: TransactionId, key: str, value: Any) -> None:
        """Write ``key`` within the transaction; acquires the exclusive lock."""
        self._assert_owned(key)
        transaction = self._require(transaction_id, ACTIVE)
        if not self.locks.acquire(transaction_id, key):
            raise LockConflict(key, self.locks.holder(key), transaction_id)
        transaction.writes[key] = value

    def get_committed(self, key: str) -> Any:
        """Read the committed (durable) value of ``key`` outside any
        transaction (``None`` when it has none)."""
        return self._committed.get(key)

    def committed_snapshot(self) -> dict[str, Any]:
        """Copy of the whole committed state (tests and invariant checks)."""
        return dict(self._committed)

    # -------------------------------------------------------------- migration

    def migrate_install(self, epoch: int, data: dict[str, Any]) -> float:
        """Durably install committed values migrating onto this shard.

        Part of online resharding: the new owner accepts the moving keys'
        committed values *outside* any transaction (the reconfiguration
        window defers transactions touching them).  The install is logged, so
        it survives a crash and replays in order against later commits.
        Re-installing the same epoch's data is harmless (same values).
        """
        cost = self.wal.append_migrate_in(epoch, data)
        self._committed.update(data)
        return cost

    def migrate_release(self, epoch: int, keys: tuple[str, ...]) -> float:
        """Durably drop committed keys that migrated off this shard."""
        cost = self.wal.append_migrate_out(epoch, tuple(keys))
        for key in keys:
            self._committed.pop(key, None)
        return cost

    # ------------------------------------------------------------- commitment

    def prepare(self, transaction_id: TransactionId) -> tuple[str, float]:
        """Vote on the transaction: returns ``("yes"|"no", io_cost)``.

        A *yes* vote forces the transaction's write set to the log and keeps
        its locks; the transaction becomes in-doubt until a decision arrives.
        An unknown or already-aborted transaction votes *no*.
        """
        transaction = self._transactions.get(transaction_id)
        if transaction is None or transaction.status == ABORTED:
            return "no", 0.0
        if transaction.status == PREPARED:
            return "yes", 0.0
        if transaction.status == COMMITTED:
            raise TransactionError(f"cannot prepare committed transaction {transaction_id!r}")
        cost = self.wal.append_prepare(transaction_id, transaction.writes)
        transaction.status = PREPARED
        return "yes", cost

    def commit(self, transaction_id: TransactionId, allow_one_phase: bool = False) -> float:
        """Apply the transaction's writes durably; returns the I/O cost.

        ``allow_one_phase`` permits committing straight from the active state
        (used by the unreliable baseline protocol, which skips the vote).
        """
        transaction = self._transactions.get(transaction_id)
        if transaction is None:
            raise TransactionError(f"cannot commit unknown transaction {transaction_id!r}")
        if transaction.status == COMMITTED:
            return 0.0
        if transaction.status == ABORTED:
            raise TransactionError(f"cannot commit aborted transaction {transaction_id!r}")
        if transaction.status == ACTIVE and not allow_one_phase:
            raise TransactionError(
                f"transaction {transaction_id!r} must be prepared before commit"
            )
        writes = transaction.writes if transaction.status == ACTIVE else None
        cost = self.wal.append_commit(transaction_id, writes)
        self._committed.update(transaction.writes)
        self._transactions[transaction_id] = COMMITTED_TOMBSTONE
        self.locks.release_all(transaction_id)
        return cost

    def abort(self, transaction_id: TransactionId) -> float:
        """Discard the transaction's writes and release its locks.

        Aborting an unknown transaction installs an *aborted tombstone*
        (presumed abort): a later attempt to begin or execute work under the
        same identifier is refused, which prevents a slow business-logic call
        from resurrecting a transaction that a recovery path already aborted.
        """
        transaction = self._transactions.get(transaction_id)
        if transaction is None:
            self._transactions[transaction_id] = ABORTED_TOMBSTONE
            return 0.0
        if transaction.status == COMMITTED:
            raise TransactionError(f"cannot abort committed transaction {transaction_id!r}")
        if transaction.status == ABORTED:
            return 0.0
        cost = self.wal.append_abort(transaction_id, forced=False)
        self._transactions[transaction_id] = ABORTED_TOMBSTONE
        self.locks.release_all(transaction_id)
        return cost

    # ----------------------------------------------------------- crash recovery

    def recover(self) -> list[TransactionId]:
        """Rebuild every volatile field -- committed state, transactions,
        locks -- from the device, replacing whatever a crash left in memory.

        Returns the list of in-doubt transaction identifiers (prepared but not
        yet committed or aborted); their locks are re-installed so the data
        they touched stays inaccessible until a decision arrives -- the
        situation property T.2 is about.
        """
        self._committed = dict(self.storage.get("__initial__", {}))
        replay = self.wal.replay()
        self._committed.update(replay.committed_state)
        # Migrated-away keys may predate the log (initial data) or have been
        # committed by transactions older than the migration; either way they
        # left this shard, so recovery must not resurrect them.
        for key in replay.released_keys:
            self._committed.pop(key, None)
        self._transactions = {}
        self.locks.clear()
        for transaction_id in replay.committed_transactions:
            self._transactions[transaction_id] = COMMITTED_TOMBSTONE
        for transaction_id in replay.aborted_transactions:
            self._transactions[transaction_id] = ABORTED_TOMBSTONE
        in_doubt = []
        for transaction_id, writes in replay.in_doubt.items():
            transaction = Transaction(transaction_id, status=PREPARED, writes=dict(writes))
            self._transactions[transaction_id] = transaction
            self.locks.reinstall(transaction_id, writes.keys())
            in_doubt.append(transaction_id)
        return in_doubt

    # ----------------------------------------------------------------- helpers

    def in_doubt(self) -> list[TransactionId]:
        """Transactions currently prepared but undecided."""
        return [t.transaction_id for t in self._transactions.values() if t.status == PREPARED]

    def _require(self, transaction_id: TransactionId, *statuses: str) -> Transaction:
        transaction = self._transactions.get(transaction_id)
        if transaction is None:
            raise TransactionError(f"unknown transaction {transaction_id!r}")
        if transaction.status not in statuses:
            raise TransactionError(
                f"transaction {transaction_id!r} is {transaction.status}, expected {statuses}"
            )
        return transaction

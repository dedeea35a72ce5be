"""Database substrate: stable storage, WAL, locks, transactional store, XA facade."""

from repro.storage.kvstore import (
    ABORTED,
    ACTIVE,
    COMMITTED,
    PREPARED,
    Transaction,
    TransactionError,
    TransactionalKVStore,
)
from repro.storage.locks import LockConflict, LockManager
from repro.storage.stable import StableStorage, StorageStats
from repro.storage.wal import ReplayResult, WriteAheadLog
from repro.storage.xa import (
    OUTCOME_ABORT,
    OUTCOME_COMMIT,
    VOTE_NO,
    VOTE_YES,
    TransactionView,
    XAResource,
)

__all__ = [
    "StableStorage",
    "StorageStats",
    "WriteAheadLog",
    "ReplayResult",
    "LockManager",
    "LockConflict",
    "TransactionalKVStore",
    "Transaction",
    "TransactionError",
    "ACTIVE",
    "PREPARED",
    "COMMITTED",
    "ABORTED",
    "XAResource",
    "TransactionView",
    "VOTE_YES",
    "VOTE_NO",
    "OUTCOME_COMMIT",
    "OUTCOME_ABORT",
]

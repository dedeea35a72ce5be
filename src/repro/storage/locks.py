"""Strict exclusive lock manager for the transactional store.

The paper points out that a database server which voted *yes* for a result
holds locks on the corresponding resources until the result is committed or
aborted -- that is exactly why the non-blocking termination property (T.2)
matters.  The lock manager makes that behaviour concrete: locks are acquired
as a transaction writes, are *retained* while the transaction is prepared
(in doubt), and are only released by commit or abort.
"""

from __future__ import annotations

from typing import Any, Hashable, Optional

TransactionId = Hashable


class LockConflict(Exception):
    """A lock could not be granted because another transaction holds it."""

    def __init__(self, key: str, holder: TransactionId, requester: TransactionId):
        super().__init__(f"lock on {key!r} held by {holder!r}, requested by {requester!r}")
        self.key = key
        self.holder = holder
        self.requester = requester


class LockManager:
    """Per-key exclusive locks with no blocking (conflicts are reported)."""

    def __init__(self) -> None:
        self._holders: dict[str, TransactionId] = {}
        self._held_by_txn: dict[TransactionId, set[str]] = {}

    # ---------------------------------------------------------------- acquire

    def acquire(self, transaction_id: TransactionId, key: str) -> bool:
        """Grant the lock on ``key`` to ``transaction_id`` if possible.

        Returns ``True`` if the lock is granted (or already held by the same
        transaction) and ``False`` on conflict.
        """
        holder = self._holders.get(key)
        if holder is None:
            self._holders[key] = transaction_id
            self._held_by_txn.setdefault(transaction_id, set()).add(key)
            return True
        return holder == transaction_id

    # ---------------------------------------------------------------- release

    def release_all(self, transaction_id: TransactionId) -> int:
        """Release every lock held by ``transaction_id``; returns the count."""
        keys = self._held_by_txn.pop(transaction_id, set())
        for key in keys:
            if self._holders.get(key) == transaction_id:
                del self._holders[key]
        return len(keys)

    # ------------------------------------------------------------------ query

    def holder(self, key: str) -> Optional[TransactionId]:
        """The transaction currently holding ``key``, or ``None``."""
        return self._holders.get(key)

    def clear(self) -> None:
        """Drop every lock (recovery rebuilds the table from the log)."""
        self._holders.clear()
        self._held_by_txn.clear()

    def reinstall(self, transaction_id: TransactionId, keys: Any) -> None:
        """Re-acquire ``keys`` for an in-doubt transaction during recovery."""
        for key in keys:
            self._holders[key] = transaction_id
            self._held_by_txn.setdefault(transaction_id, set()).add(key)

"""XA-style resource-manager facade.

The paper views each database server as an XA engine and only uses the
commitment surface of XA: ``prepare()`` (exposed to the protocol as ``vote()``)
and ``commit()``/``rollback()`` (exposed as ``decide()``).  This module wraps
the :class:`~repro.storage.kvstore.TransactionalKVStore` behind exactly that
surface, including the ``xa_recover``-style listing of in-doubt transactions a
transaction manager queries after a resource restart.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable

from repro.storage.kvstore import ShardOwnershipError, TransactionalKVStore
from repro.storage.locks import LockConflict

TransactionId = Hashable

VOTE_YES = "yes"
VOTE_NO = "no"

OUTCOME_COMMIT = "commit"
OUTCOME_ABORT = "abort"

BusinessLogic = Callable[["TransactionView"], Any]


class TransactionView:
    """The handle the business logic uses to manipulate data inside a transaction."""

    def __init__(self, store: TransactionalKVStore, transaction_id: TransactionId):
        self._store = store
        self.transaction_id = transaction_id

    def read(self, key: str, default: Any = None) -> Any:
        """Read ``key`` within the transaction."""
        return self._store.read(self.transaction_id, key, default)

    def write(self, key: str, value: Any) -> None:
        """Write ``key`` within the transaction (may raise ``LockConflict``)."""
        self._store.write(self.transaction_id, key, value)

    def owns(self, key: str) -> bool:
        """Whether the executing shard owns ``key``.

        Shard-aware business logic guards each per-key block with this so a
        cross-shard transaction applies only its local part on each
        participant; on an unpartitioned deployment it is always true.
        """
        return self._store.owns(key)


class XAResource:
    """One database server's resource manager (vote / decide / recover)."""

    def __init__(self, store: TransactionalKVStore):
        self.store = store

    # ------------------------------------------------------------- execution

    def execute(self, transaction_id: TransactionId, logic: BusinessLogic) -> Any:
        """Run ``logic`` inside ``transaction_id`` and return its result.

        This is the transient data manipulation the paper abstracts behind
        ``compute()``: changes are made to the database but not committed.
        A lock conflict -- or a shard-ownership violation in a partitioned
        deployment -- aborts the transaction and re-raises; the caller (the
        application server) treats it like any other failed computation, and
        the abort guarantees this resource will vote no, so a misrouted
        transaction can never half-commit.
        """
        self.store.begin(transaction_id)
        view = TransactionView(self.store, transaction_id)
        try:
            return logic(view)
        except (LockConflict, ShardOwnershipError):
            self.store.abort(transaction_id)
            raise

    # ------------------------------------------------------------ commitment

    def vote(self, transaction_id: TransactionId) -> tuple[str, float]:
        """XA ``prepare``: returns ``(vote, io_cost)`` with vote in {yes, no}."""
        return self.store.prepare(transaction_id)

    def decide(self, transaction_id: TransactionId, outcome: str) -> tuple[str, float]:
        """XA ``commit``/``rollback``: apply ``outcome`` and return ``(final, io_cost)``.

        Follows the paper's contract for ``decide()``: an abort input always
        yields abort; a commit input yields commit only if this resource
        previously voted yes (otherwise the result is abort).
        """
        if outcome == OUTCOME_ABORT:
            cost = self.store.abort(transaction_id)
            return OUTCOME_ABORT, cost
        if outcome != OUTCOME_COMMIT:
            raise ValueError(f"unknown outcome {outcome!r}")
        status = self.store.status(transaction_id)
        if status == "committed":
            return OUTCOME_COMMIT, 0.0
        if status != "prepared":
            # Never voted yes (or already aborted): refuse to commit.
            cost = self.store.abort(transaction_id)
            return OUTCOME_ABORT, cost
        cost = self.store.commit(transaction_id)
        return OUTCOME_COMMIT, cost

    def commit_one_phase(self, transaction_id: TransactionId) -> float:
        """One-phase commit (used by the unreliable baseline): no vote, just commit."""
        return self.store.commit(transaction_id, allow_one_phase=True)

    # --------------------------------------------------------------- recovery

    def recover(self) -> list[TransactionId]:
        """XA ``recover``: rebuild state and return the in-doubt transactions."""
        return self.store.recover()

    def in_doubt(self) -> list[TransactionId]:
        """Currently prepared-but-undecided transactions."""
        return self.store.in_doubt()

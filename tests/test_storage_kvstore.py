"""Tests for the transactional key-value store and the XA facade."""

import dataclasses

import pytest

from repro.storage.kvstore import (
    ABORTED,
    ABORTED_TOMBSTONE,
    COMMITTED,
    COMMITTED_TOMBSTONE,
    PREPARED,
    Tombstone,
    TransactionError,
    TransactionalKVStore,
)
from repro.storage.locks import LockConflict
from repro.storage.xa import OUTCOME_ABORT, OUTCOME_COMMIT, XAResource


def make_store(**initial):
    return TransactionalKVStore("db", initial_data=initial)


# ------------------------------------------------------------------ basic txn


def test_begin_read_write_commit_cycle():
    store = make_store(balance=100)
    store.begin("t1")
    assert store.read("t1", "balance") == 100
    store.write("t1", "balance", 90)
    assert store.read("t1", "balance") == 90  # sees own write
    assert store.get_committed("balance") == 100  # not yet durable
    store.prepare("t1")
    store.commit("t1")
    assert store.get_committed("balance") == 90
    assert store.status("t1") == COMMITTED


def test_begin_is_idempotent_for_active_transaction():
    store = make_store()
    first = store.begin("t1")
    second = store.begin("t1")
    assert first is second


def test_begin_after_termination_rejected():
    store = make_store()
    store.begin("t1")
    store.abort("t1")
    with pytest.raises(TransactionError):
        store.begin("t1")


def test_abort_discards_writes_and_releases_locks():
    store = make_store(x=1)
    store.begin("t1")
    store.write("t1", "x", 2)
    store.abort("t1")
    assert store.get_committed("x") == 1
    assert store.status("t1") == ABORTED
    store.begin("t2")
    store.write("t2", "x", 3)  # lock is free again


def test_write_conflict_raises_lock_conflict():
    store = make_store()
    store.begin("t1")
    store.begin("t2")
    store.write("t1", "x", 1)
    with pytest.raises(LockConflict):
        store.write("t2", "x", 2)


def test_commit_requires_prepare_unless_one_phase():
    store = make_store()
    store.begin("t1")
    store.write("t1", "x", 1)
    with pytest.raises(TransactionError):
        store.commit("t1")
    store.commit("t1", allow_one_phase=True)
    assert store.get_committed("x") == 1


def test_commit_unknown_or_aborted_rejected():
    store = make_store()
    with pytest.raises(TransactionError):
        store.commit("ghost")
    store.begin("t1")
    store.abort("t1")
    with pytest.raises(TransactionError):
        store.commit("t1")


def test_abort_after_commit_rejected_and_commit_idempotent():
    store = make_store()
    store.begin("t1")
    store.write("t1", "x", 1)
    store.prepare("t1")
    store.commit("t1")
    assert store.commit("t1") == 0.0  # idempotent
    with pytest.raises(TransactionError):
        store.abort("t1")


def test_read_from_unknown_transaction_rejected():
    store = make_store()
    with pytest.raises(TransactionError):
        store.read("ghost", "x")


# --------------------------------------------------------------------- voting


def test_prepare_votes_yes_and_holds_locks():
    store = make_store()
    store.begin("t1")
    store.write("t1", "x", 1)
    vote, cost = store.prepare("t1")
    assert vote == "yes"
    assert cost > 0  # forced log write
    assert store.status("t1") == PREPARED
    assert store.in_doubt() == ["t1"]
    store.begin("t2")
    with pytest.raises(LockConflict):
        store.write("t2", "x", 2)  # in-doubt transaction still holds the lock


def test_prepare_unknown_transaction_votes_no():
    store = make_store()
    vote, cost = store.prepare("ghost")
    assert vote == "no"
    assert cost == 0.0


def test_prepare_is_idempotent():
    store = make_store()
    store.begin("t1")
    store.write("t1", "x", 1)
    assert store.prepare("t1")[0] == "yes"
    vote, cost = store.prepare("t1")
    assert vote == "yes"
    assert cost == 0.0


# ------------------------------------------------------------- crash recovery


def test_recovery_restores_committed_state():
    store = make_store(balance=100)
    store.begin("t1")
    store.write("t1", "balance", 42)
    store.prepare("t1")
    store.commit("t1")
    # A crash leaves the device: a store that remembers nothing else recovers.
    store = TransactionalKVStore("db", storage=store.storage)
    assert store.committed_snapshot() == {}
    in_doubt = store.recover()
    assert in_doubt == []
    assert store.get_committed("balance") == 42


def test_recovery_restores_in_doubt_transactions_with_locks():
    store = make_store()
    store.begin("t1")
    store.write("t1", "x", 1)
    store.prepare("t1")
    in_doubt = store.recover()
    assert in_doubt == ["t1"]
    assert store.status("t1") == PREPARED
    store.begin("t2")
    with pytest.raises(LockConflict):
        store.write("t2", "x", 9)
    # A later decision can still commit the in-doubt transaction.
    store.commit("t1")
    assert store.get_committed("x") == 1


def test_recovery_discards_active_unprepared_transactions():
    store = make_store(x=0)
    store.begin("t1")
    store.write("t1", "x", 5)
    in_doubt = store.recover()
    assert in_doubt == []
    assert store.get_committed("x") == 0
    # The lock died with the unprepared transaction.
    store.begin("t2")
    store.write("t2", "x", 7)


def test_recovery_preserves_initial_data():
    store = make_store(seats=10)
    store.recover()
    assert store.get_committed("seats") == 10


# ------------------------------------------------------------------ XA facade


def test_xa_execute_vote_decide_commit():
    resource = XAResource(make_store(balance=100))

    def logic(view):
        balance = view.read("balance")
        view.write("balance", balance - 10)
        return {"new_balance": balance - 10}

    result = resource.execute("t1", logic)
    assert result == {"new_balance": 90}
    vote, _ = resource.vote("t1")
    assert vote == "yes"
    outcome, _ = resource.decide("t1", OUTCOME_COMMIT)
    assert outcome == OUTCOME_COMMIT
    assert resource.store.get_committed("balance") == 90


def test_xa_decide_abort_always_aborts():
    resource = XAResource(make_store(balance=100))
    resource.execute("t1", lambda view: view.write("balance", 0))
    resource.vote("t1")
    outcome, _ = resource.decide("t1", OUTCOME_ABORT)
    assert outcome == OUTCOME_ABORT
    assert resource.store.get_committed("balance") == 100


def test_xa_commit_without_yes_vote_refused():
    resource = XAResource(make_store())
    resource.execute("t1", lambda view: view.write("x", 1))
    # No vote() call: decide(commit) must not commit.
    outcome, _ = resource.decide("t1", OUTCOME_COMMIT)
    assert outcome == OUTCOME_ABORT
    assert resource.store.get_committed("x") is None


def test_xa_decide_commit_is_idempotent():
    resource = XAResource(make_store())
    resource.execute("t1", lambda view: view.write("x", 1))
    resource.vote("t1")
    assert resource.decide("t1", OUTCOME_COMMIT)[0] == OUTCOME_COMMIT
    assert resource.decide("t1", OUTCOME_COMMIT)[0] == OUTCOME_COMMIT


def test_xa_unknown_outcome_rejected():
    resource = XAResource(make_store())
    with pytest.raises(ValueError):
        resource.decide("t1", "maybe")


def test_xa_lock_conflict_during_execute_aborts_transaction():
    store = make_store()
    resource = XAResource(store)
    resource.execute("t1", lambda view: view.write("x", 1))
    with pytest.raises(LockConflict):
        resource.execute("t2", lambda view: view.write("x", 2))
    assert store.status("t2") == ABORTED


def test_xa_recover_reports_in_doubt():
    resource = XAResource(make_store())
    resource.execute("t1", lambda view: view.write("x", 1))
    resource.vote("t1")
    assert resource.recover() == ["t1"]
    assert resource.in_doubt() == ["t1"]


def test_xa_one_phase_commit():
    resource = XAResource(make_store())
    resource.execute("t1", lambda view: view.write("x", 1))
    resource.commit_one_phase("t1")
    assert resource.store.get_committed("x") == 1


# ------------------------------------------------------ shared tombstones


def _terminate(store, how):
    """Drive ``t1`` to its end along one path; returns the status it must keep."""
    if how == "abort-unknown":
        store.abort("t1")               # presumed abort: never begun here
        return ABORTED
    store.begin("t1")
    store.write("t1", "x", 1)
    if how == "one-phase":
        store.commit("t1", allow_one_phase=True)
        return COMMITTED
    store.prepare("t1")
    if how == "commit":
        store.commit("t1")
        return COMMITTED
    store.abort("t1")
    return ABORTED


@pytest.mark.parametrize("how", ["commit", "one-phase", "abort", "abort-unknown"])
@pytest.mark.parametrize("recovered", [False, True], ids=["live", "recovered"])
def test_a_terminated_transaction_keeps_its_status_and_refuses_begin(how, recovered):
    store = make_store()
    status = _terminate(store, how)
    if recovered:
        store.recover()
    if how == "abort-unknown" and recovered:
        # A presumed-abort tombstone was never logged: the recovered store
        # has never heard of the transaction, as before tombstones were shared.
        assert store.status("t1") is None
        return
    assert store.status("t1") == status
    with pytest.raises(TransactionError):
        store.begin("t1")               # no resurrection
    with pytest.raises(TransactionError):
        store.read("t1", "x")
    # Repeating the outcome is harmless; the other outcome is refused.
    if status == COMMITTED:
        assert store.commit("t1") == 0.0
        with pytest.raises(TransactionError):
            store.abort("t1")
        with pytest.raises(TransactionError):
            store.prepare("t1")
    else:
        assert store.abort("t1") == 0.0
        assert store.prepare("t1") == ("no", 0.0)
        with pytest.raises(TransactionError):
            store.commit("t1")
    assert store.in_doubt() == []
    assert store.status("t1") == status
    # Every path ended on one of the two shared tombstones, untouched.
    assert COMMITTED_TOMBSTONE == Tombstone(COMMITTED)
    assert ABORTED_TOMBSTONE == Tombstone(ABORTED)


def test_many_terminated_transactions_share_one_immutable_tombstone_per_outcome():
    stores = [make_store(), make_store()]
    for store in stores:
        for n in range(3):
            store.begin(f"c{n}")
            store.write(f"c{n}", f"k{n}", n)
            store.prepare(f"c{n}")
            store.commit(f"c{n}")
            store.begin(f"a{n}")
            store.abort(f"a{n}")
            store.abort(f"u{n}")
    assert {id(t) for store in stores for tid, t in store._transactions.items()
            if tid.startswith("c")} == {id(COMMITTED_TOMBSTONE)}
    assert {id(t) for store in stores for tid, t in store._transactions.items()
            if not tid.startswith("c")} == {id(ABORTED_TOMBSTONE)}
    with pytest.raises(dataclasses.FrozenInstanceError):
        COMMITTED_TOMBSTONE.status = ABORTED  # type: ignore[misc]
    assert COMMITTED_TOMBSTONE.status == COMMITTED
    assert ABORTED_TOMBSTONE.status == ABORTED


def test_recovery_keeps_in_doubt_transactions_live_next_to_tombstones():
    store = make_store()
    _terminate(store, "commit")
    store.begin("t2")
    store.write("t2", "y", 2)
    store.prepare("t2")
    assert store.recover() == ["t2"]
    assert store.status("t1") == COMMITTED
    assert store.status("t2") == PREPARED
    assert store.in_doubt() == ["t2"]
    store.commit("t2")
    assert store.get_committed("y") == 2
    assert store.status("t2") == COMMITTED

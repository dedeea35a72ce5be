"""Tests for the exclusive lock manager."""

from repro.storage.locks import LockManager


def test_acquire_grants_free_lock():
    locks = LockManager()
    assert locks.acquire("t1", "x")
    assert locks.holder("x") == "t1"


def test_reacquire_by_same_transaction_is_idempotent():
    locks = LockManager()
    assert locks.acquire("t1", "x")
    assert locks.acquire("t1", "x")
    assert locks.holder("x") == "t1"


def test_conflicting_acquire_denied():
    locks = LockManager()
    locks.acquire("t1", "x")
    assert not locks.acquire("t2", "x")
    assert locks.holder("x") == "t1"


def test_release_all_frees_locks_for_others():
    locks = LockManager()
    locks.acquire("t1", "x")
    locks.acquire("t1", "y")
    released = locks.release_all("t1")
    assert released == 2
    assert locks.acquire("t2", "x")
    assert locks.acquire("t2", "y")


def test_release_all_unknown_transaction_is_noop():
    locks = LockManager()
    assert locks.release_all("ghost") == 0


def test_clear_drops_everything():
    locks = LockManager()
    locks.acquire("t1", "x")
    locks.clear()
    assert locks.holder("x") is None
    assert locks.acquire("t2", "x")


def test_reinstall_restores_in_doubt_locks():
    locks = LockManager()
    locks.reinstall("t1", ["x", "y"])
    assert not locks.acquire("t2", "x")
    assert locks.holder("x") == locks.holder("y") == "t1"

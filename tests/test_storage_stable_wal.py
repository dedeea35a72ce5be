"""Tests for stable storage and the write-ahead log."""

import gc
import random

import pytest

from repro.storage.kvstore import TransactionError, TransactionalKVStore
from repro.storage.stable import StableStorage
from repro.storage.wal import ReplayResult, WriteAheadLog


# ------------------------------------------------------------- stable storage


def test_put_get_roundtrip():
    storage = StableStorage("disk")
    storage.put("k", {"a": 1})
    assert storage.get("k") == {"a": 1}


def test_get_missing_returns_default():
    storage = StableStorage("disk")
    assert storage.get("missing") is None
    assert storage.get("missing", 7) == 7


def test_forced_write_costs_forced_latency():
    storage = StableStorage("disk", forced_write_latency=12.5, lazy_write_latency=0.5)
    forced_cost = storage.put("a", 1, forced=True)
    lazy_cost = storage.put("b", 2, forced=False)
    assert forced_cost == pytest.approx(12.5)
    assert lazy_cost == pytest.approx(0.5)
    assert storage.stats.forced_writes == 1
    assert storage.stats.lazy_writes == 1
    assert storage.stats.total_write_cost == pytest.approx(13.0)


def test_append_creates_and_extends_list():
    storage = StableStorage("disk")
    storage.append("log", "first", forced=False)
    storage.append("log", "second", forced=False)
    assert storage.get("log") == ["first", "second"]


def test_delete_removes_only_its_key():
    storage = StableStorage("disk")
    storage.put("a", 1)
    storage.put("b", 2)
    storage.delete("a")
    assert storage.get("a") is None and storage.get("b") == 2


def test_negative_latency_rejected():
    with pytest.raises(ValueError):
        StableStorage("disk", forced_write_latency=-1.0)


# -------------------------------------------------------------------- the WAL


def test_wal_append_and_records_order():
    wal = WriteAheadLog(StableStorage("disk"))
    wal.append_prepare(1, {"x": 10})
    wal.append_commit(1)
    wal.append_abort(2)
    wal.append_prepare(2, {"x": 20})
    result = wal.replay()
    assert result.committed_state == {"x": 10}
    assert result.committed_transactions == [1]
    assert result.aborted_transactions == [2]
    assert result.in_doubt == {2: {"x": 20}}  # prepared after its abort record


def test_wal_prepare_is_forced_and_abort_is_lazy_by_default():
    storage = StableStorage("disk", forced_write_latency=10.0, lazy_write_latency=0.0)
    wal = WriteAheadLog(storage)
    prepare_cost = wal.append_prepare(1, {"x": 1})
    abort_cost = wal.append_abort(1)
    assert prepare_cost == pytest.approx(10.0)
    assert abort_cost == pytest.approx(0.0)
    assert storage.stats.forced_writes == 1
    assert storage.stats.lazy_writes == 1


def test_replay_applies_committed_transactions_in_order():
    wal = WriteAheadLog(StableStorage("disk"))
    wal.append_prepare(1, {"x": 1})
    wal.append_commit(1)
    wal.append_prepare(2, {"x": 2, "y": 5})
    wal.append_commit(2)
    result = wal.replay()
    assert result.committed_state == {"x": 2, "y": 5}
    assert result.committed_transactions == [1, 2]
    assert result.in_doubt == {}


def test_replay_keeps_prepared_undecided_transactions_in_doubt():
    wal = WriteAheadLog(StableStorage("disk"))
    wal.append_prepare(1, {"x": 1})
    wal.append_prepare(2, {"y": 2})
    wal.append_commit(1)
    result = wal.replay()
    assert result.committed_state == {"x": 1}
    assert result.in_doubt == {2: {"y": 2}}


def test_replay_discards_aborted_transactions():
    wal = WriteAheadLog(StableStorage("disk"))
    wal.append_prepare(1, {"x": 1})
    wal.append_abort(1)
    result = wal.replay()
    assert result.committed_state == {}
    assert result.in_doubt == {}
    assert result.aborted_transactions == [1]


def test_replay_one_phase_commit_record_carries_writes():
    wal = WriteAheadLog(StableStorage("disk"))
    wal.append_commit(7, {"z": 3})
    result = wal.replay()
    assert result.committed_state == {"z": 3}
    assert result.committed_transactions == [7]


def _mixed_log() -> WriteAheadLog:
    """Every record kind: two-phase and one-phase commits, an abort of a
    prepared and of an unknown transaction, an in-doubt prepare, both
    migration records, and a commit that writes a released key again."""
    wal = WriteAheadLog(StableStorage("disk"))
    wal.append_prepare(1, {"x": 1, "y": 2})
    wal.append_commit(1)
    wal.append_commit(2, {"z": 3})                 # one phase
    wal.append_prepare(3, {"x": 9})
    wal.append_abort(3)
    wal.append_abort(4)                            # never prepared
    wal.append_migrate_in(1, {"m": 7, "n": 8})
    wal.append_migrate_out(1, ("y", "m", "old"))
    wal.append_prepare(5, {"w": 5})                # in doubt
    wal.append_prepare(6, {})                      # prepared, wrote nothing
    wal.append_commit(6)
    wal.append_commit(7, {"m": 70})                # a released key comes back
    return wal


def test_replay_of_a_mixed_log_answers_every_field():
    result = _mixed_log().replay()
    assert result == ReplayResult(
        committed_state={"x": 1, "z": 3, "n": 8, "m": 70},
        in_doubt={5: {"w": 5}},
        committed_transactions=[1, 2, 6, 7],
        aborted_transactions=[3, 4],
        released_keys={"y", "old"},
    )
    assert list(result.committed_state) == ["x", "z", "n", "m"]


def test_a_logged_write_set_is_a_copy():
    wal = WriteAheadLog(StableStorage("disk"))
    writes = {"x": 1}
    wal.append_prepare(1, writes)
    writes["x"] = 2
    writes.clear()
    assert wal.replay().in_doubt == {1: {"x": 1}}


def test_stored_records_leave_the_collector_nothing_to_walk():
    wal = _mixed_log()
    gc.collect()  # untracks the flat key, value and removed-key tuples
    gc.collect()  # then the rows that hold them
    rows = wal.storage.get(WriteAheadLog.LOG_KEY)
    assert len(rows) == 12
    assert not any(gc.is_tracked(row) for row in rows)


# -------------------------------------------------------------- checkpoints


def _random_log(rng: random.Random, length: int) -> list:
    """``length`` appends drawn over a few keys and transaction ids: two-phase
    prepares and commits, one-phase commits, aborts (of prepared, committed
    and unknown ids) and migrations in and out."""
    keys = ["a", "b", "c", "d"]
    appends = []
    for _ in range(length):
        tid = rng.randrange(12)
        writes = {key: rng.randrange(100) for key in rng.sample(keys, rng.randrange(3))}
        appends.append(rng.choice((
            lambda wal, tid=tid, writes=writes: wal.append_prepare(tid, writes),
            lambda wal, tid=tid: wal.append_commit(tid),
            lambda wal, tid=tid, writes=writes: wal.append_commit(tid, writes),
            lambda wal, tid=tid: wal.append_abort(tid),
            lambda wal, tid=tid, writes=writes: wal.append_migrate_in(tid, writes),
            lambda wal, tid=tid, writes=writes: wal.append_migrate_out(tid, tuple(writes)),
        )))
    return appends


def _replayed(appends: list, checkpoint_rows: int) -> tuple:
    """Replay of ``appends`` checkpointed every ``checkpoint_rows``, as plain
    data (dict order included), with the I/O the appends reported."""
    storage = StableStorage("disk", forced_write_latency=10.0, lazy_write_latency=0.5)
    wal = WriteAheadLog(storage)
    wal.CHECKPOINT_ROWS = checkpoint_rows
    costs = [append(wal) for append in appends]
    assert len(storage.get(WriteAheadLog.LOG_KEY, [])) < checkpoint_rows
    result = wal.replay()
    return ((list(result.committed_state.items()), list(result.in_doubt.items()),
             result.committed_transactions, result.aborted_transactions,
             sorted(result.released_keys)),
            costs, storage.stats.forced_writes)


@pytest.mark.parametrize("seed", range(20))
def test_a_checkpoint_at_any_boundary_replays_like_the_whole_log(seed):
    appends = _random_log(random.Random(seed), 40)
    whole = _replayed(appends, checkpoint_rows=len(appends) + 1)  # never folds
    # 1 folds at every boundary; the others at every multiple of themselves.
    for checkpoint_rows in range(1, len(appends) + 1):
        assert _replayed(appends, checkpoint_rows) == whole, checkpoint_rows


def test_the_tail_is_folded_every_checkpoint_rows_appends():
    storage = StableStorage("disk")
    wal = WriteAheadLog(storage)
    for tid in range(2 * WriteAheadLog.CHECKPOINT_ROWS + 3):
        wal.append_commit(tid, {"k": tid})
    assert WriteAheadLog.CHECKPOINT_ROWS == 256
    assert len(storage.get(WriteAheadLog.LOG_KEY)) == 3
    result = wal.replay()
    assert result.committed_transactions == list(range(2 * 256 + 3))
    assert result.committed_state == {"k": 2 * 256 + 2}


def test_replay_leaves_the_stored_checkpoint_as_it_was():
    wal = WriteAheadLog(StableStorage("disk"))
    wal.CHECKPOINT_ROWS = 2
    wal.append_prepare(1, {"x": 1})
    wal.append_commit(2, {"y": 2})   # folds
    wal.append_abort(3)
    first = wal.replay()
    first.committed_state["z"] = 0
    first.in_doubt[1]["x"] = 99
    first.committed_transactions.append(4)
    first.aborted_transactions.clear()
    first.released_keys.add("y")
    assert wal.replay() == ReplayResult(
        committed_state={"y": 2},
        in_doubt={1: {"x": 1}},
        committed_transactions=[2],
        aborted_transactions=[3],
    )


def _store_state(store: TransactionalKVStore, ids: range) -> tuple:
    return (store.committed_snapshot(),
            {tid: store.status(tid) for tid in ids},
            {key: store.locks.holder(key) for key in store.locks.locked_keys()})


def test_a_store_recovers_across_a_checkpoint_with_one_transaction_in_doubt():
    """More than CHECKPOINT_ROWS transactions, one left in doubt: the recovered
    store has the same committed data, tombstones and locks as before the crash."""
    initial = {f"k{n}": 0 for n in range(8)} | {"held": 0}
    store = TransactionalKVStore("d1", initial_data=initial)
    ids = range(300)
    for tid in ids:
        store.begin(tid)
        if tid == 150:
            store.write(tid, "held", tid)
            assert store.prepare(tid)[0] == "yes"   # in doubt from here on
            continue
        store.write(tid, f"k{tid % 8}", tid)
        if tid % 7 == 0:
            store.abort(tid)
        elif tid % 2:
            store.commit(tid, allow_one_phase=True)
        else:
            store.prepare(tid)
            store.commit(tid)
    tail = store.storage.get(WriteAheadLog.LOG_KEY, [])
    assert store.storage.get(WriteAheadLog.CHECKPOINT_KEY) is not None
    assert len(tail) < WriteAheadLog.CHECKPOINT_ROWS
    before = _store_state(store, ids)
    assert before[2] == {"held": 150}

    assert store.recover() == [150]
    assert _store_state(store, ids) == before
    with pytest.raises(TransactionError):
        store.begin(149)   # committed: its tombstone survived the checkpoint
    with pytest.raises(TransactionError):
        store.begin(147)   # aborted
    store.commit(150)
    assert store.get_committed("held") == 150

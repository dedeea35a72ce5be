"""Tests for stable storage and the write-ahead log."""

import gc

import pytest

from repro.storage.stable import StableStorage
from repro.storage.wal import (
    ABORT,
    COMMIT,
    MIGRATE_IN,
    MIGRATE_OUT,
    PREPARE,
    LogRecord,
    ReplayResult,
    WriteAheadLog,
)


# ------------------------------------------------------------- stable storage


def test_put_get_roundtrip():
    storage = StableStorage("disk")
    storage.put("k", {"a": 1})
    assert storage.get("k") == {"a": 1}
    assert list(storage.keys()) == ["k"]


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


def test_delete_and_keys_and_wipe():
    storage = StableStorage("disk")
    storage.put("a", 1)
    storage.put("b", 2)
    assert sorted(storage.keys()) == ["a", "b"]
    storage.delete("a")
    assert list(storage.keys()) == ["b"]
    storage.wipe()
    assert list(storage.keys()) == []


def test_negative_latency_rejected():
    with pytest.raises(ValueError):
        StableStorage("disk", forced_write_latency=-1.0)


# -------------------------------------------------------------------- the WAL


def test_log_record_kind_validation():
    with pytest.raises(ValueError):
        LogRecord("explode", 1)


def test_wal_append_and_records_order():
    wal = WriteAheadLog(StableStorage("disk"))
    wal.append_prepare(1, {"x": 10})
    wal.append_commit(1)
    wal.append_abort(2)
    kinds = [r.kind for r in wal.records()]
    assert kinds == [PREPARE, COMMIT, ABORT]


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


def test_records_read_back_as_the_records_that_were_appended():
    assert _mixed_log().records() == [
        LogRecord(PREPARE, 1, {"x": 1, "y": 2}),
        LogRecord(COMMIT, 1, {}),
        LogRecord(COMMIT, 2, {"z": 3}),
        LogRecord(PREPARE, 3, {"x": 9}),
        LogRecord(ABORT, 3),
        LogRecord(ABORT, 4),
        LogRecord(MIGRATE_IN, ("migrate", 1), {"m": 7, "n": 8}),
        LogRecord(MIGRATE_OUT, ("migrate", 1), removes=("y", "m", "old")),
        LogRecord(PREPARE, 5, {"w": 5}),
        LogRecord(PREPARE, 6, {}),
        LogRecord(COMMIT, 6, {}),
        LogRecord(COMMIT, 7, {"m": 70}),
    ]


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

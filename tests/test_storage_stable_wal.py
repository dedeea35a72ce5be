"""Tests for stable storage and the write-ahead log."""

import pytest

from repro.storage.stable import StableStorage
from repro.storage.wal import ABORT, COMMIT, PREPARE, LogRecord, WriteAheadLog


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

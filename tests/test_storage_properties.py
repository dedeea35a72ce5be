"""Property-based tests of the transactional store's durability invariants."""

from hypothesis import given, settings, strategies as st

from repro.storage.kvstore import TransactionalKVStore


# One operation = (kind, key, value) where kind selects write/prepare/commit/abort/crash.
operation_strategy = st.one_of(
    st.tuples(st.just("write"), st.sampled_from("abc"), st.integers(-100, 100)),
    st.tuples(st.just("prepare"), st.none(), st.none()),
    st.tuples(st.just("commit"), st.none(), st.none()),
    st.tuples(st.just("abort"), st.none(), st.none()),
    st.tuples(st.just("crash_recover"), st.none(), st.none()),
)


class ModelChecker:
    """Replays a transaction workload against the store and a trivial model."""

    def __init__(self):
        self.store = TransactionalKVStore("db", initial_data={"a": 0, "b": 0, "c": 0})
        self.model = {"a": 0, "b": 0, "c": 0}
        self.next_txn = 0
        self.current = None
        self.pending_writes = {}
        self.prepared = False

    def _open(self):
        if self.current is None:
            self.next_txn += 1
            self.current = f"t{self.next_txn}"
            self.store.begin(self.current)
            self.pending_writes = {}
            self.prepared = False

    def apply(self, op):
        kind, key, value = op
        if kind == "write":
            if self.prepared:
                return  # writes after prepare are not part of the model
            self._open()
            self.store.write(self.current, key, value)
            self.pending_writes[key] = value
        elif kind == "prepare":
            if self.current is not None and not self.prepared:
                vote, _ = self.store.prepare(self.current)
                assert vote == "yes"
                self.prepared = True
        elif kind == "commit":
            if self.current is not None and self.prepared:
                self.store.commit(self.current)
                self.model.update(self.pending_writes)
                self.current = None
        elif kind == "abort":
            if self.current is not None:
                self.store.abort(self.current)
                self.current = None
        elif kind == "crash_recover":
            self.store.recover()
            if self.current is not None and not self.prepared:
                # Active transactions are lost in the crash.
                self.current = None
            elif self.current is not None and self.prepared:
                # In-doubt transaction survives; resolve it by aborting so the
                # model and store stay comparable.
                self.store.abort(self.current)
                self.current = None

    def check(self):
        snapshot = {k: self.store.get_committed(k) for k in ("a", "b", "c")}
        assert snapshot == self.model


@given(st.lists(operation_strategy, min_size=1, max_size=40))
@settings(max_examples=120, deadline=None)
def test_committed_state_matches_model_under_any_workload(operations):
    """Durability invariant: committed state == the model of committed writes only."""
    checker = ModelChecker()
    for op in operations:
        checker.apply(op)
        checker.check()


@given(st.lists(st.tuples(st.sampled_from("xyz"), st.integers(-50, 50)),
                min_size=1, max_size=20))
@settings(max_examples=80, deadline=None)
def test_prepared_transaction_survives_any_number_of_crashes(writes):
    """An in-doubt transaction and its locks survive repeated crash/recover cycles."""
    store = TransactionalKVStore("db")
    store.begin("t1")
    for key, value in writes:
        store.write("t1", key, value)
    store.prepare("t1")
    for _ in range(3):
        in_doubt = store.recover()
        assert in_doubt == ["t1"]
    store.commit("t1")
    for key, value in dict(writes).items():
        assert store.get_committed(key) == value


@given(st.dictionaries(st.sampled_from("pqr"), st.integers(0, 9), min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_aborted_writes_never_become_visible(write_set):
    """Atomicity: aborted transactions leave no trace in committed state."""
    store = TransactionalKVStore("db", initial_data={"p": -1, "q": -1, "r": -1})
    store.begin("t1")
    for key, value in write_set.items():
        store.write("t1", key, value)
    store.abort("t1")
    store.recover()
    for key in "pqr":
        assert store.get_committed(key) == -1

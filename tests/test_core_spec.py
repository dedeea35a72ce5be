"""Tests that the specification checkers actually detect violations.

The integration tests establish that real runs satisfy the spec; these tests
feed synthetic traces to the post-hoc oracle and to the online monitor, and
require identical verdicts, to make sure each property check can fail when it
should (a checker that always passes is worthless).
"""

from spec_oracle import DifferentialChecker, replayed_monitor, verdict, violated
from repro.core.spec import _a2_violation, _a3_violation
from repro.core.types import ABORT, COMMIT
from repro.sim.tracing import TraceRecorder


def make_checker(trace, dbs=("d1", "d2"), clients=("c1",)):
    return DifferentialChecker(trace, list(dbs), list(clients))


def base_commit_trace(dbs=("d1", "d2")):
    """A well-formed trace: one request, computed, voted yes, committed, delivered."""
    trace = TraceRecorder()
    trace.record("client_issue", "c1", request_id="req-1", operation="pay")
    trace.record("as_compute", "a1", client="c1", j=1, request_id="req-1", result="{}")
    for db in dbs:
        trace.record("db_vote", db, j=("c1", 1), vote="yes")
    for db in dbs:
        trace.record("db_decide", db, j=("c1", 1), outcome=COMMIT, requested=COMMIT)
    trace.record("client_deliver", "c1", j=1, request_id="req-1",
                 result_request_id="req-1", computed_by="a1", value="{}")
    return trace


def test_well_formed_trace_passes_all_properties():
    report = make_checker(base_commit_trace()).check()
    assert report.ok
    assert set(report.checked_properties) == {"T.1", "T.2", "A.1", "A.2", "A.3",
                                              "V.1", "V.2", "S.1"}


def test_t1_detects_undelivered_request():
    trace = TraceRecorder()
    trace.record("client_issue", "c1", request_id="req-1", operation="pay")
    report = make_checker(trace).check()
    assert violated(report, "T.1")


def test_t1_excuses_crashed_client():
    trace = TraceRecorder()
    trace.record("client_issue", "c1", request_id="req-1", operation="pay")
    trace.record("crash", "c1")
    report = make_checker(trace).check()
    assert not violated(report, "T.1")


def test_t1_does_not_excuse_recovered_client():
    trace = TraceRecorder()
    trace.record("client_issue", "c1", request_id="req-1", operation="pay")
    trace.record("crash", "c1")
    trace.record("recover", "c1")
    report = make_checker(trace).check()
    assert violated(report, "T.1")


def test_t2_detects_vote_without_decision():
    trace = base_commit_trace()
    trace.record("db_vote", "d1", j=("c1", 2), vote="yes")
    report = make_checker(trace).check()
    assert violated(report, "T.2")


def test_a1_detects_delivery_without_commit_at_every_database():
    trace = TraceRecorder()
    trace.record("client_issue", "c1", request_id="req-1", operation="pay")
    trace.record("as_compute", "a1", client="c1", j=1, request_id="req-1", result="{}")
    trace.record("db_vote", "d1", j=("c1", 1), vote="yes")
    trace.record("db_decide", "d1", j=("c1", 1), outcome=COMMIT)
    # d2 never commits, yet the client delivers.
    trace.record("client_deliver", "c1", j=1, request_id="req-1",
                 result_request_id="req-1", computed_by="a1", value="{}")
    report = make_checker(trace).check(check_termination=False)
    assert violated(report, "A.1")


def test_a2_detects_two_committed_results_for_one_request():
    trace = base_commit_trace(dbs=("d1",))
    trace.record("as_compute", "a2", client="c1", j=2, request_id="req-1", result="{}")
    trace.record("db_vote", "d1", j=("c1", 2), vote="yes")
    trace.record("db_decide", "d1", j=("c1", 2), outcome=COMMIT)
    report = make_checker(trace, dbs=("d1",)).check(check_termination=False)
    assert violated(report, "A.2")


def test_a2_allows_one_commit_per_distinct_request():
    trace = base_commit_trace(dbs=("d1",))
    trace.record("client_issue", "c1", request_id="req-2", operation="pay")
    trace.record("as_compute", "a1", client="c1", j=2, request_id="req-2", result="{}")
    trace.record("db_vote", "d1", j=("c1", 2), vote="yes")
    trace.record("db_decide", "d1", j=("c1", 2), outcome=COMMIT)
    trace.record("client_deliver", "c1", j=2, request_id="req-2",
                 result_request_id="req-2", computed_by="a1", value="{}")
    report = make_checker(trace, dbs=("d1",)).check()
    assert not violated(report, "A.2")


def test_a3_detects_conflicting_final_outcomes():
    trace = TraceRecorder()
    trace.record("as_compute", "a1", client="c1", j=1, request_id="req-1", result="{}")
    trace.record("db_vote", "d1", j=("c1", 1), vote="yes")
    trace.record("db_vote", "d2", j=("c1", 1), vote="yes")
    trace.record("db_decide", "d1", j=("c1", 1), outcome=COMMIT)
    trace.record("db_decide", "d2", j=("c1", 1), outcome=ABORT)
    report = make_checker(trace).check(check_termination=False)
    assert violated(report, "A.3")


def test_v1_detects_invented_result():
    trace = TraceRecorder()
    trace.record("client_issue", "c1", request_id="req-1", operation="pay")
    trace.record("client_deliver", "c1", j=1, request_id="req-1",
                 result_request_id="req-unknown", computed_by="a1", value="{}")
    report = make_checker(trace).check(check_termination=False)
    assert violated(report, "V.1")


def test_v1_detects_result_for_never_issued_request():
    trace = TraceRecorder()
    trace.record("as_compute", "a1", client="c1", j=1, request_id="req-9", result="{}")
    trace.record("client_deliver", "c1", j=1, request_id="req-9",
                 result_request_id="req-9", computed_by="a1", value="{}")
    report = make_checker(trace).check(check_termination=False)
    assert violated(report, "V.1")


def test_v2_detects_commit_without_unanimous_yes_votes():
    trace = TraceRecorder()
    trace.record("as_compute", "a1", client="c1", j=1, request_id="req-1", result="{}")
    trace.record("db_vote", "d1", j=("c1", 1), vote="yes")
    # d2 never voted yes but d1 commits.
    trace.record("db_decide", "d1", j=("c1", 1), outcome=COMMIT)
    report = make_checker(trace).check(check_termination=False)
    assert violated(report, "V.2")


def test_report_summary_mentions_violations():
    trace = TraceRecorder()
    trace.record("client_issue", "c1", request_id="req-1", operation="pay")
    report = make_checker(trace).check()
    assert not report.ok
    assert "T.1" in report.summary()
    good = make_checker(base_commit_trace()).check()
    assert "all properties hold" in good.summary()


# -------------------------------------------------- S.1 epoch confinement


def epoch_stamped_trace(participants, universe=("d1", "d2")):
    """A committed run whose computation is epoch-stamped (online resharding)."""
    trace = TraceRecorder()
    trace.record("reshard", "reshard-coord", stage="init", epoch=0,
                 shards=list(universe))
    trace.record("client_issue", "c1", request_id="req-1", operation="pay")
    trace.record("as_compute", "a1", client="c1", j=1, request_id="req-1",
                 result="{}", epoch=0, participants=list(participants))
    for db in participants:
        trace.record("db_vote", db, j=("c1", 1), vote="yes")
    for db in participants:
        trace.record("db_decide", db, j=("c1", 1), outcome=COMMIT, requested=COMMIT)
    trace.record("client_deliver", "c1", j=1, request_id="req-1",
                 result_request_id="req-1", computed_by="a1", value="{}")
    return trace


def test_s1_epoch_stamped_computation_inside_universe_passes():
    report = make_checker(epoch_stamped_trace(("d1", "d2"))).check()
    assert report.ok


def test_s1_detects_participant_outside_its_epochs_universe():
    # d2 is a legal participant of the deployment, but epoch 0's universe
    # is only (d1,): the computation routed against a shard its epoch does
    # not know.
    trace = epoch_stamped_trace(("d1", "d2"), universe=("d1",))
    report = make_checker(trace).check(check_termination=False)
    assert violated(report, "S.1")
    assert any("epoch 0" in str(v) for v in report.violations)


def test_s1_epoch_universe_updates_at_commit():
    # After a reshard commits epoch 1 with a grown universe, computations
    # stamped with epoch 1 may route against the new shards -- and ones
    # stamped with epoch 0 still may not.
    trace = epoch_stamped_trace(("d1",), universe=("d1",))
    trace.record("reshard", "reshard-coord", stage="begin", epoch=1)
    trace.record("reshard", "reshard-coord", stage="commit", epoch=1,
                 shards=["d1", "d2"])
    trace.record("client_issue", "c1", request_id="req-2", operation="pay")
    trace.record("as_compute", "a1", client="c1", j=2, request_id="req-2",
                 result="{}", epoch=1, participants=["d2"])
    trace.record("db_vote", "d2", j=("c1", 2), vote="yes")
    trace.record("db_decide", "d2", j=("c1", 2), outcome=COMMIT, requested=COMMIT)
    trace.record("client_deliver", "c1", j=2, request_id="req-2",
                 result_request_id="req-2", computed_by="a1", value="{}")
    report = make_checker(trace).check()
    assert report.ok
    stale = epoch_stamped_trace(("d1",), universe=("d1",))
    stale.record("reshard", "reshard-coord", stage="commit", epoch=1,
                 shards=["d1", "d2"])
    stale.record("as_compute", "a1", client="c1", j=2, request_id="req-2",
                 result="{}", epoch=0, participants=["d2"])
    report = make_checker(stale).check(check_termination=False)
    assert violated(report, "S.1")


# -------------------------------------- compact monitor state vs the oracle
#
# The monitor keeps one committed key per request until a second one commits
# (then a set), and each key's decide outcomes as a shared, interned
# frozenset.  These traces drive both representations through every change
# and require the oracle's report, in its order, and the live violations
# the eager checks owe.


def _commit(trace, db, j, outcome=COMMIT, vote=True):
    if vote:
        trace.record("db_vote", db, j=("c1", j), vote="yes")
    trace.record("db_decide", db, j=("c1", j), outcome=outcome)


def _live(monitor):
    return [(v.property_name, v.description) for v in monitor.live_violations]


def test_a2_one_key_per_request_promotes_to_a_set_as_the_oracle_orders_it():
    dbs = ("d1", "d2")
    trace = TraceRecorder()
    for j, request_id in ((1, "req-1"), (2, "req-1"), (3, "req-1"), (4, "req-2"),
                          (5, "req-2"), (6, "req-3")):
        trace.record("as_compute", "a1", client="c1", j=j, request_id=request_id, result="{}")
    for j in (4, 1, 1, 6, 5, 2, 3, 1):          # d1: req-2 reaches the sequence first
        _commit(trace, "d1", j)
    for j in (2, 2, 1):
        _commit(trace, "d2", j)
    report = DifferentialChecker(trace, list(dbs), ["c1"]).check(check_termination=False)
    assert [str(v) for v in violated(report, "A.2")] == [
        str(_a2_violation("d1", {("c1", 4), ("c1", 5)}, "req-2")),
        str(_a2_violation("d1", {("c1", 1), ("c1", 2), ("c1", 3)}, "req-1")),
        str(_a2_violation("d2", {("c1", 1), ("c1", 2)}, "req-1")),
    ]
    # Live: once per new key of a request that already committed another,
    # never for a repeated commit of the same key.
    monitor = replayed_monitor(trace, list(dbs), ["c1"])
    assert _live(monitor) == [
        ("A.2", _a2_violation("d1", {("c1", 4), ("c1", 5)}, "req-2").description),
        ("A.2", _a2_violation("d1", {("c1", 1), ("c1", 2)}, "req-1").description),
        ("A.2", _a2_violation("d1", {("c1", 1), ("c1", 2), ("c1", 3)}, "req-1").description),
        ("A.2", _a2_violation("d2", {("c1", 1), ("c1", 2)}, "req-1").description),
    ]
    index = monitor._a2_index["d1"]
    assert index["req-3"] == ("c1", 6)          # one commit: the key, no set
    assert index["req-2"] == {("c1", 4), ("c1", 5)}


def test_a2_commit_before_its_computation_is_still_counted():
    # Only a synthetic trace commits a result before any computation names
    # its request; the oracle resolves the request at the end, so must the report.
    trace = TraceRecorder()
    _commit(trace, "d1", 1)
    trace.record("as_compute", "a1", client="c1", j=2, request_id="req-1", result="{}")
    _commit(trace, "d1", 2)
    _commit(trace, "d1", 3)                     # never computed: no request, no A.2
    trace.record("as_compute", "a2", client="c1", j=1, request_id="req-1", result="{}")
    report = DifferentialChecker(trace, ["d1"], ["c1"]).check(check_termination=False)
    assert [str(v) for v in violated(report, "A.2")] == [
        str(_a2_violation("d1", {("c1", 1), ("c1", 2)}, "req-1"))]


def test_a3_commit_then_abort_at_one_database_with_interned_outcomes():
    dbs = ("d1", "d2", "d3")
    trace = TraceRecorder()
    # Key 1: d1 commits, then aborts (final: commit); d2 voted yes, aborts.
    _commit(trace, "d1", 1)
    _commit(trace, "d1", 1, ABORT, vote=False)
    _commit(trace, "d2", 1, ABORT)
    _commit(trace, "d3", 1)
    # Key 2: first decided at d3, then d2 (abort after a yes) and d1 (commit):
    # the oracle reports it under d1, the first database in server order.
    _commit(trace, "d3", 2, ABORT)
    _commit(trace, "d2", 2, ABORT)
    _commit(trace, "d1", 2)
    # Key 3: d2 aborts without a yes vote: a disagreement, not a violation.
    _commit(trace, "d2", 3, ABORT, vote=False)
    _commit(trace, "d3", 3)
    # Key 4: agreement, reached through an abort first at one database.
    _commit(trace, "d2", 4, ABORT, vote=False)
    _commit(trace, "d2", 4)
    _commit(trace, "d1", 4)
    report = DifferentialChecker(trace, list(dbs), ["c1"]).check(check_termination=False)
    assert [str(v) for v in violated(report, "A.3")] == [
        str(_a3_violation(("c1", 1), ["d1", "d3"], ["d2"])),
        str(_a3_violation(("c1", 2), ["d1"], ["d2", "d3"])),
    ]
    monitor = replayed_monitor(trace, list(dbs), ["c1"])
    assert verdict(monitor.report(check_termination=False)) == verdict(report)
    outcomes = monitor._decide_outcomes
    assert outcomes["d1"][("c1", 1)] == {COMMIT, ABORT}
    assert outcomes["d1"][("c1", 1)] is outcomes["d2"][("c1", 4)]
    assert outcomes["d2"][("c1", 1)] is outcomes["d3"][("c1", 2)] == {ABORT}
    assert outcomes["d1"][("c1", 2)] is outcomes["d3"][("c1", 1)] == {COMMIT}
    assert all(type(values) is frozenset for table in outcomes.values()
               for values in table.values())

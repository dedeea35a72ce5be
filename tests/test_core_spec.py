"""Tests that the specification checkers actually detect violations.

The integration tests establish that real runs satisfy the spec; these tests
feed synthetic traces to the post-hoc oracle and to the online monitor, and
require identical verdicts, to make sure each property check can fail when it
should (a checker that always passes is worthless).
"""

from spec_oracle import DifferentialChecker
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
    assert report.violated("T.1")


def test_t1_excuses_crashed_client():
    trace = TraceRecorder()
    trace.record("client_issue", "c1", request_id="req-1", operation="pay")
    trace.record("crash", "c1")
    report = make_checker(trace).check()
    assert not report.violated("T.1")


def test_t1_does_not_excuse_recovered_client():
    trace = TraceRecorder()
    trace.record("client_issue", "c1", request_id="req-1", operation="pay")
    trace.record("crash", "c1")
    trace.record("recover", "c1")
    report = make_checker(trace).check()
    assert report.violated("T.1")


def test_t2_detects_vote_without_decision():
    trace = base_commit_trace()
    trace.record("db_vote", "d1", j=("c1", 2), vote="yes")
    report = make_checker(trace).check()
    assert report.violated("T.2")


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
    assert report.violated("A.1")


def test_a2_detects_two_committed_results_for_one_request():
    trace = base_commit_trace(dbs=("d1",))
    trace.record("as_compute", "a2", client="c1", j=2, request_id="req-1", result="{}")
    trace.record("db_vote", "d1", j=("c1", 2), vote="yes")
    trace.record("db_decide", "d1", j=("c1", 2), outcome=COMMIT)
    report = make_checker(trace, dbs=("d1",)).check(check_termination=False)
    assert report.violated("A.2")


def test_a2_allows_one_commit_per_distinct_request():
    trace = base_commit_trace(dbs=("d1",))
    trace.record("client_issue", "c1", request_id="req-2", operation="pay")
    trace.record("as_compute", "a1", client="c1", j=2, request_id="req-2", result="{}")
    trace.record("db_vote", "d1", j=("c1", 2), vote="yes")
    trace.record("db_decide", "d1", j=("c1", 2), outcome=COMMIT)
    trace.record("client_deliver", "c1", j=2, request_id="req-2",
                 result_request_id="req-2", computed_by="a1", value="{}")
    report = make_checker(trace, dbs=("d1",)).check()
    assert not report.violated("A.2")


def test_a3_detects_conflicting_final_outcomes():
    trace = TraceRecorder()
    trace.record("as_compute", "a1", client="c1", j=1, request_id="req-1", result="{}")
    trace.record("db_vote", "d1", j=("c1", 1), vote="yes")
    trace.record("db_vote", "d2", j=("c1", 1), vote="yes")
    trace.record("db_decide", "d1", j=("c1", 1), outcome=COMMIT)
    trace.record("db_decide", "d2", j=("c1", 1), outcome=ABORT)
    report = make_checker(trace).check(check_termination=False)
    assert report.violated("A.3")


def test_v1_detects_invented_result():
    trace = TraceRecorder()
    trace.record("client_issue", "c1", request_id="req-1", operation="pay")
    trace.record("client_deliver", "c1", j=1, request_id="req-1",
                 result_request_id="req-unknown", computed_by="a1", value="{}")
    report = make_checker(trace).check(check_termination=False)
    assert report.violated("V.1")


def test_v1_detects_result_for_never_issued_request():
    trace = TraceRecorder()
    trace.record("as_compute", "a1", client="c1", j=1, request_id="req-9", result="{}")
    trace.record("client_deliver", "c1", j=1, request_id="req-9",
                 result_request_id="req-9", computed_by="a1", value="{}")
    report = make_checker(trace).check(check_termination=False)
    assert report.violated("V.1")


def test_v2_detects_commit_without_unanimous_yes_votes():
    trace = TraceRecorder()
    trace.record("as_compute", "a1", client="c1", j=1, request_id="req-1", result="{}")
    trace.record("db_vote", "d1", j=("c1", 1), vote="yes")
    # d2 never voted yes but d1 commits.
    trace.record("db_decide", "d1", j=("c1", 1), outcome=COMMIT)
    report = make_checker(trace).check(check_termination=False)
    assert report.violated("V.2")


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
    assert report.violated("S.1")
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
    assert report.violated("S.1")

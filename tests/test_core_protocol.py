"""End-to-end integration tests of the e-Transaction protocol.

Each test builds a full three-tier deployment, drives one or more requests
through it under a specific failure scenario, and checks both the concrete
outcome (delivered results, database contents) and the executable
specification (T.1, T.2, A.1-A.3, V.1, V.2) over the recorded trace.
"""

import pytest

from repro import api
from repro.api import FaultSpec, Scenario, ScenarioError
from repro.core import COMMIT, Request
from repro.core.deployment import REGISTER_LOCAL


def bank_logic(request):
    def logic(view):
        balance = view.read("balance", 0)
        amount = request.params.get("amount", 0)
        view.write("balance", balance - amount)
        return {"new_balance": balance - amount}

    return logic


class PayWorkload:
    """One balance of 100; a ``pay`` request debits its ``amount``."""

    def initial_data(self):
        return {"balance": 100}

    def business_logic(self, request):
        return bank_logic(request)


def make_deployment(**fields):
    scenario = Scenario(**{"num_app_servers": 3, "detection_delay": 10.0, **fields})
    return api.build(scenario, workload=PayWorkload())


# --------------------------------------------------------------- failure-free


def test_failure_free_commit():
    deployment = make_deployment()
    issued = deployment.run_request(Request("pay", {"amount": 30}))
    assert issued.delivered
    assert issued.attempts == 1
    assert issued.result.value == {"new_balance": 70}
    assert deployment.db_servers["d1"].committed_value("balance") == 70
    report = deployment.check_spec()
    assert report.ok, report.summary()


def test_failure_free_latency_close_to_paper_ar_column():
    deployment = make_deployment()
    issued = deployment.run_request(Request("pay", {"amount": 1}))
    # Paper Figure 8: AR total = 252.3 ms.  The simulator reproduces the shape
    # (+/- a few ms of communication-step differences).
    assert issued.latency == pytest.approx(252.3, rel=0.05)


def test_multiple_sequential_requests_all_commit_exactly_once():
    deployment = make_deployment()
    amounts = [10, 20, 5, 15]
    issued = [deployment.issue(Request("pay", {"amount": a})) for a in amounts]
    deployment.sim.run_until(lambda: all(i.delivered for i in issued), until=1_000_000.0)
    assert all(i.delivered for i in issued)
    assert deployment.db_servers["d1"].committed_value("balance") == 100 - sum(amounts)
    assert deployment.check_spec().ok


def test_two_database_servers_both_commit():
    deployment = make_deployment(num_db_servers=2)
    issued = deployment.run_request(Request("pay", {"amount": 25}))
    assert issued.delivered
    for name in ("d1", "d2"):
        assert deployment.db_servers[name].committed_value("balance") == 75
    report = deployment.check_spec()
    assert report.ok, report.summary()


def test_local_register_mode_equivalent_behaviour():
    deployment = make_deployment(register_mode=REGISTER_LOCAL)
    issued = deployment.run_request(Request("pay", {"amount": 40}))
    assert issued.delivered
    assert deployment.db_servers["d1"].committed_value("balance") == 60
    assert deployment.check_spec().ok


def test_multiple_clients_interleave_without_violations():
    deployment = make_deployment(num_clients=2, num_db_servers=2)
    issued = []
    for i in range(4):
        client = "c1" if i % 2 == 0 else "c2"
        issued.append(deployment.issue(Request("pay", {"amount": 5}), client=client))
    deployment.sim.run_until(lambda: all(r.delivered for r in issued), until=1_000_000.0)
    assert all(r.delivered for r in issued)
    assert deployment.db_servers["d1"].committed_value("balance") == 80
    assert deployment.check_spec().ok


# -------------------------------------------------------------------- failover


def test_failover_with_abort_primary_crashes_before_decision():
    deployment = make_deployment()
    deployment.apply_faults((FaultSpec("crash", 50.0, "a1"),))
    issued = deployment.run_request(Request("pay", {"amount": 30}))
    assert issued.delivered
    assert issued.attempts >= 2            # at least one aborted intermediate result
    assert issued.aborted_results          # the first result was aborted by a cleaner
    assert deployment.db_servers["d1"].committed_value("balance") == 70
    # Exactly one committed result: the debit happened exactly once.
    commits = deployment.trace.select("db_decide", "d1", outcome=COMMIT)
    assert len(commits) == 1
    report = deployment.check_spec()
    assert report.ok, report.summary()


def test_failover_with_commit_primary_crashes_after_decision_write():
    deployment = make_deployment()
    # The decision write lands around t=243 ms in the failure-free schedule;
    # crash just after it so a backup finishes the commit and answers the client.
    deployment.apply_faults((FaultSpec("crash", 244.0, "a1"),))
    issued = deployment.run_request(Request("pay", {"amount": 30}))
    assert issued.delivered
    assert issued.result.value == {"new_balance": 70}
    assert deployment.db_servers["d1"].committed_value("balance") == 70
    # The client got the committed result even though the primary crashed:
    # the result it delivers was computed by the (now dead) primary.
    assert issued.result.computed_by == "a1"
    deliver = deployment.trace.select("client_deliver", "c1")[0]
    result_senders = {e.process for e in deployment.trace.select("as_result_sent")
                      if e.get("outcome") == COMMIT}
    assert result_senders - {"a1"}, "a backup must have terminated the result"
    report = deployment.check_spec()
    assert report.ok, report.summary()


def test_crash_of_one_backup_does_not_disturb_the_run():
    deployment = make_deployment()
    deployment.apply_faults((FaultSpec("crash", 10.0, "a3"),))
    issued = deployment.run_request(Request("pay", {"amount": 10}))
    assert issued.delivered
    assert issued.attempts == 1
    assert deployment.check_spec().ok


def test_false_suspicion_of_live_primary_is_harmless():
    deployment = make_deployment(num_db_servers=2, seed=7)
    deployment.apply_faults(
        (FaultSpec("false_suspicion", 20.0, "a1", observer="a2", duration=150.0),))
    issued = deployment.run_request(Request("pay", {"amount": 30}))
    assert issued.delivered
    # Whatever the race outcome (commit by the primary or abort by the cleaner
    # followed by a retry), the databases stay consistent and the debit is
    # applied exactly once.
    assert deployment.db_servers["d1"].committed_value("balance") == 70
    assert deployment.db_servers["d2"].committed_value("balance") == 70
    report = deployment.check_spec()
    assert report.ok, report.summary()


def test_database_crash_and_recovery_mid_request():
    deployment = make_deployment(num_db_servers=2, seed=3)
    deployment.apply_faults((FaultSpec("crash_for", 100.0, "d1", downtime=300.0),))
    issued = deployment.run_request(Request("pay", {"amount": 30}))
    assert issued.delivered
    for name in ("d1", "d2"):
        assert deployment.db_servers[name].committed_value("balance") == 70
    assert deployment.check_spec().ok


def test_database_crash_after_vote_recovers_in_doubt_and_commits():
    deployment = make_deployment(seed=5)
    # The yes vote lands around t=216 ms; crash the database right after it and
    # recover it later: terminate() keeps re-sending the decision (T.2).
    deployment.apply_faults((FaultSpec("crash_for", 218.0, "d1", downtime=400.0),))
    issued = deployment.run_request(Request("pay", {"amount": 30}))
    assert issued.delivered
    assert deployment.db_servers["d1"].committed_value("balance") == 70
    assert deployment.db_servers["d1"].in_doubt() == []
    report = deployment.check_spec()
    assert report.ok, report.summary()


def test_client_crash_gives_at_most_once_and_releases_databases():
    deployment = make_deployment()
    issued = deployment.issue(Request("pay", {"amount": 30}))
    deployment.sim.schedule(50.0, deployment.client.crash)
    deployment.run(until=50_000.0)
    assert not issued.delivered
    # T.2 still holds: no database is left blocked with locks held.
    assert deployment.db_servers["d1"].in_doubt() == []
    assert deployment.db_servers["d1"].store.locks.holder("balance") is None
    # At-most-once: the balance is either untouched or debited exactly once.
    assert deployment.db_servers["d1"].committed_value("balance") in (70, 100)
    report = deployment.check_spec(check_termination=False)
    assert report.ok, report.summary()


def test_crash_of_minority_of_app_servers_after_claim_still_terminates():
    deployment = make_deployment(num_app_servers=5, seed=11)
    deployment.apply_faults((FaultSpec("crash", 30.0, "a1"),
                             FaultSpec("crash", 35.0, "a2")))
    issued = deployment.run_request(Request("pay", {"amount": 10}))
    assert issued.delivered
    assert deployment.db_servers["d1"].committed_value("balance") == 90
    assert deployment.check_spec().ok


# ------------------------------------------------------------------ validation


def test_config_validation():
    with pytest.raises(ScenarioError, match="at least one process"):
        Scenario(num_app_servers=-1)
    with pytest.raises(ScenarioError, match="at least one process"):
        Scenario(num_clients=0)
    with pytest.raises(ScenarioError, match="unknown register mode"):
        Scenario(register_mode="shared-memory")


def test_deployment_exposes_trace_and_names():
    deployment = make_deployment()
    scenario = deployment.scenario
    assert scenario.client_names == ["c1"]
    assert scenario.app_server_names == ["a1", "a2", "a3"]
    assert scenario.db_server_names == ["d1"]
    assert deployment.client.primary == "a1"
    assert deployment.trace is deployment.sim.trace

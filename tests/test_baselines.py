"""Tests for the comparison protocols (baseline, 2PC, primary-backup).

Besides checking that each baseline works in the failure-free case, these
tests reproduce the paper's *qualitative* claims about them:

* the unreliable baseline leaves the client hanging when the application
  server crashes (no termination T.1);
* 2PC blocks the databases (locks held, in-doubt transactions) when the
  coordinator crashes after the votes;
* primary-backup requires perfect failure detection -- a false suspicion can
  make the client deliver a result that no database committed (A.1 broken),
  which is exactly why the paper's protocol goes through wo-registers.
"""

import pytest

from repro import api
from repro.api import FaultSpec, Scenario, ScenarioError
from repro.failure.detectors import EventuallyPerfectFailureDetector
from repro.workload.bank import BankWorkload

BANK = BankWorkload(num_accounts=2, initial_balance=100)


def deploy(protocol, **fields):
    return api.build(Scenario(protocol, **fields), workload=BANK)


# ------------------------------------------------------------------- baseline


def test_baseline_commits_in_failure_free_run():
    deployment = deploy("baseline")
    issued = deployment.run_request(BANK.debit(0, 10))
    assert issued.delivered
    assert issued.result.value["status"] == "ok"
    assert deployment.db_servers["d1"].committed_value("account:0") == 90


def test_baseline_latency_matches_paper_baseline_column():
    deployment = deploy("baseline")
    issued = deployment.run_request(BANK.debit(0, 10))
    # Paper: 217.4 ms; the difference is pure client/server hop accounting.
    assert issued.latency == pytest.approx(217.4, rel=0.03)


def test_baseline_has_no_prepare_phase():
    deployment = deploy("baseline")
    deployment.run_request(BANK.debit(0, 10))
    assert deployment.trace.count("msg_send", msg_type="Prepare") == 0
    assert deployment.trace.count("msg_send", msg_type="CommitOnePhase") == 1


def test_baseline_client_hangs_when_app_server_crashes():
    deployment = deploy("baseline")
    deployment.apply_faults((FaultSpec("crash", 50.0, "a1"),))
    issued = deployment.issue(BANK.debit(0, 10))
    deployment.run(until=100_000.0)
    assert not issued.delivered  # no T.1 without replication
    report = deployment.check_spec()
    assert report.violated("T.1")


def test_baseline_two_databases_commit_independently():
    deployment = deploy("baseline", num_db_servers=2)
    issued = deployment.run_request(BANK.debit(0, 10))
    assert issued.delivered
    for db in deployment.db_servers.values():
        assert db.committed_value("account:0") == 90


# ------------------------------------------------------------------------ 2PC


def test_twopc_commits_and_is_slower_than_baseline():
    baseline = deploy("baseline")
    twopc = deploy("2pc")
    baseline_latency = baseline.run_request(BANK.debit(0, 10)).latency
    twopc_latency = twopc.run_request(BANK.debit(0, 10)).latency
    assert twopc.db_servers["d1"].committed_value("account:0") == 90
    assert twopc_latency > baseline_latency
    overhead = (twopc_latency - baseline_latency) / baseline_latency
    assert 0.15 < overhead < 0.30  # paper: ~23 %


def test_twopc_forces_two_log_writes_per_transaction():
    deployment = deploy("2pc")
    deployment.run_request(BANK.debit(0, 10))
    coordinator = deployment.app_servers["a1"]
    assert coordinator.disk.stats.forced_writes == 2
    log_events = deployment.trace.select("tm_log", "a1")
    assert {event.get("which") for event in log_events} == {"start", "outcome"}


def test_twopc_runs_voting_phase():
    deployment = deploy("2pc")
    deployment.run_request(BANK.debit(0, 10))
    assert deployment.trace.count("msg_send", msg_type="Prepare") == 1
    assert deployment.trace.count("msg_send", msg_type="Vote") == 1


def test_twopc_blocks_databases_when_coordinator_crashes_after_votes():
    deployment = deploy("2pc")
    # The vote lands around t=230 ms (after the forced start log); crash the
    # coordinator right after it and never recover it.
    deployment.apply_faults((FaultSpec("crash", 235.0, "a1"),))
    issued = deployment.issue(BANK.debit(0, 10))
    deployment.run(until=200_000.0)
    assert not issued.delivered
    db = deployment.db_servers["d1"]
    # The database is stuck in doubt with the account lock held: the blocking
    # behaviour the e-Transaction protocol's T.2 rules out.
    assert db.in_doubt() == [("c1", 1)]
    assert "account:0" in db.store.locks.locked_keys()


def test_twopc_log_latency_is_configurable():
    cheap = deploy("2pc", coordinator_log_latency=0.0)
    expensive = deploy("2pc", coordinator_log_latency=25.0)
    cheap_latency = cheap.run_request(BANK.debit(0, 10)).latency
    expensive_latency = expensive.run_request(BANK.debit(0, 10)).latency
    assert expensive_latency == pytest.approx(cheap_latency + 50.0, abs=1.0)


# -------------------------------------------------------------- primary-backup


def test_primary_backup_commits_in_failure_free_run():
    deployment = deploy("pb", num_app_servers=2)
    issued = deployment.run_request(BANK.debit(0, 10))
    assert issued.delivered
    assert deployment.db_servers["d1"].committed_value("account:0") == 90
    # The replication messages of Figure 7c were exchanged.
    assert deployment.trace.count("msg_send", msg_type="PBStart") == 1
    assert deployment.trace.count("msg_send", msg_type="PBOutcome") == 1


def test_primary_backup_failover_after_outcome_replication_commits():
    deployment = deploy("pb", num_app_servers=2)
    # The outcome replication lands around t=240 ms; crash the primary after it
    # so the backup finishes the commit and answers the client.
    deployment.apply_faults((FaultSpec("crash", 243.0, "a1"),))
    issued = deployment.run_request(BANK.debit(0, 10), horizon=300_000.0)
    assert issued.delivered
    assert deployment.db_servers["d1"].committed_value("account:0") == 90
    assert deployment.trace.count("pb_takeover", "a2") >= 1


def test_primary_backup_failover_before_outcome_aborts():
    deployment = deploy("pb", num_app_servers=2)
    deployment.apply_faults((FaultSpec("crash", 50.0, "a1"),))
    issued = deployment.issue(BANK.debit(0, 10))
    deployment.run(until=300_000.0)
    # The backup aborts the orphaned result; the client is told (an abort) but
    # has no committed result -- the balance is untouched.
    assert deployment.db_servers["d1"].committed_value("account:0") == 100
    assert not issued.delivered or issued.aborted_results


def test_primary_backup_false_suspicion_breaks_agreement():
    """The paper's warning: primary-backup needs perfect failure detection.

    A false suspicion of the live primary makes the backup abort the result at
    the database *after* the database already voted yes, while the primary --
    unaware -- collects the yes votes and reports the result as committed to
    the client.  The reported outcome and the database state disagree: the
    message-level counterpart of an A.1 violation.  (The end user here is only
    saved because the backup's abort notification happens to reach the client
    first; with the wo-registers of the e-Transaction protocol the conflicting
    decision cannot be produced in the first place.)
    """
    deployment = deploy("pb", num_app_servers=2)
    # Replace the perfect detector with an eventually-perfect one and inject a
    # false suspicion covering the window between the database's yes vote and
    # the primary's commit decision.
    unreliable_fd = EventuallyPerfectFailureDetector(deployment.network, detection_delay=5.0)
    deployment.backup.failure_detector = unreliable_fd
    unreliable_fd.inject_false_suspicion("a2", "a1", start=195.0, duration=20.0)
    issued = deployment.run_request(BANK.debit(0, 10), horizon=300_000.0)
    deployment.run(until=deployment.sim.now + 10_000.0)
    assert issued.delivered
    # The primary claimed commit for the first intermediate result...
    primary_commits = deployment.trace.select("as_result_sent", "a1", outcome="commit", j=1)
    assert primary_commits, "expected the primary to report the first result as committed"
    # ...but no database ever committed it (the backup's abort won the race).
    db_commits_j1 = [e for e in deployment.trace.select("db_decide", "d1", outcome="commit")
                     if e.get("j") == ("c1", 1)]
    assert db_commits_j1 == []
    assert deployment.trace.count("pb_takeover", "a2") >= 1


def test_primary_backup_requires_two_app_servers():
    with pytest.raises(ScenarioError, match="at least 2 application server"):
        deploy("pb", num_app_servers=1)


# ----------------------------------------------------------------- validation


def test_config_validation():
    with pytest.raises(ScenarioError, match="at least one process"):
        Scenario("baseline", num_app_servers=-1)
    with pytest.raises(ScenarioError, match="at least one process"):
        Scenario("baseline", num_db_servers=0)


def test_unset_middle_tier_size_resolves_to_the_protocol_default():
    """``num_app_servers=0`` means "the size this protocol runs by default"."""
    sizes = {protocol: len(deploy(protocol).app_servers) for protocol in api.PROTOCOLS}
    assert sizes == {"etx": 3, "2pc": 1, "pb": 2, "baseline": 1}
    assert len(deploy("2pc", num_app_servers=2).app_servers) == 2

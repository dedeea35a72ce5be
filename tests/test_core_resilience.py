"""Additional resilience scenarios: client recovery, partitions, message loss.

These complement ``test_core_protocol.py`` with conditions the paper discusses
in its model section but does not draw in Figure 1: a client that crashes and
recovers, a temporary partition of the middle tier, and lossy links with no
retransmission layer underneath: the protocol's own retries carry delivery.
"""


from repro import api
from repro.api import FaultSpec
from repro.core.timing import ProtocolTiming
from repro.workload.bank import BankWorkload

BANK = BankWorkload(num_accounts=1, initial_balance=100)


def make_deployment(protocol_timing=None, **fields):
    scenario = api.Scenario(**{"num_app_servers": 3, "detection_delay": 10.0, **fields})
    return api.build(scenario, workload=BANK, protocol_timing=protocol_timing)


def test_client_crash_and_recovery_gives_at_most_once():
    deployment = make_deployment()
    issued = deployment.issue(BANK.debit(0, 10))
    deployment.apply_faults((FaultSpec("crash_for", 20.0, "c1", downtime=500.0),))
    deployment.run(until=2_000_000.0)
    # The client does not resume the in-flight request after recovery: it
    # cannot know whether the debit was applied, so re-issuing it could
    # execute it twice.  At-most-once is what the paper promises here.
    assert not issued.delivered
    assert all(event.time < 520.0 for event in deployment.trace.select("client_send", "c1"))
    assert deployment.db_servers["d1"].committed_value("account:0") in (90, 100)
    # The databases are not left blocked (T.2 independent of the client).
    assert deployment.db_servers["d1"].in_doubt() == []
    report = deployment.check_spec(check_termination=False)
    assert report.ok, report.summary()


def test_client_recovery_with_empty_queue_is_harmless():
    deployment = make_deployment()
    first = deployment.run_request(BANK.debit(0, 10))
    assert first.delivered
    deployment.client.crash()
    deployment.client.recover()
    second = deployment.run_request(BANK.debit(0, 10))
    assert second.delivered
    assert deployment.db_servers["d1"].committed_value("account:0") == 80


def test_temporary_partition_of_a_backup_does_not_block_the_run():
    deployment = make_deployment()
    deployment.apply_faults(
        (FaultSpec("partition", 10.0, groups=(["a3"], ["a1", "a2", "d1", "c1"])),
         FaultSpec("heal", 800.0)))
    issued = deployment.run_request(BANK.debit(0, 10), horizon=2_000_000.0)
    assert issued.delivered
    assert deployment.db_servers["d1"].committed_value("account:0") == 90
    assert deployment.check_spec().ok


def test_partition_isolating_the_primary_triggers_failover():
    deployment = make_deployment()
    # a1 is cut off from everyone (including the client) right after it claims
    # the result; because it cannot reach a register quorum it cannot decide,
    # and the others -- who suspect nothing -- only take over once the client
    # rebroadcasts.  The partition never heals: a1 is effectively dead.
    timing = ProtocolTiming(client_backoff=300.0)
    deployment = make_deployment(protocol_timing=timing)
    deployment.apply_faults((FaultSpec("partition", 30.0, groups=(["a1"],)),))
    deployment.apply_faults((FaultSpec("crash", 500.0, "a1"),))
    issued = deployment.run_request(BANK.debit(0, 10), horizon=2_000_000.0)
    assert issued.delivered
    assert deployment.db_servers["d1"].committed_value("account:0") == 90
    report = deployment.check_spec(check_termination=False)
    assert report.ok, report.summary()


def test_lossy_network_without_reliable_channels_still_safe():
    # No layer retransmits underneath the protocol: the client's periodic
    # rebroadcast and the application server's retry loops carry delivery.
    timing = ProtocolTiming(client_backoff=500.0, client_rebroadcast=500.0,
                            decide_retry=100.0, prepare_retry=100.0, execute_retry=100.0)
    deployment = make_deployment(loss_probability=0.03, seed=21, protocol_timing=timing)
    issued = deployment.run_request(BANK.debit(0, 10), horizon=3_000_000.0)
    assert issued.delivered
    assert deployment.db_servers["d1"].committed_value("account:0") == 90
    report = deployment.check_spec(check_termination=False)
    assert report.ok, report.summary()


def test_sequential_requests_across_repeated_database_crashes():
    deployment = make_deployment(num_db_servers=2, seed=5)
    deployment.apply_faults(tuple(FaultSpec("crash_for", start, "d1", downtime=200.0)
                                  for start in (100.0, 900.0, 1_700.0)))
    issued = [deployment.issue(BANK.debit(0, 10)) for _ in range(3)]
    deployment.sim.run_until(lambda: all(r.delivered for r in issued), until=5_000_000.0)
    assert all(r.delivered for r in issued)
    for db in deployment.db_servers.values():
        assert db.committed_value("account:0") == 70
    assert deployment.check_spec().ok

"""Integration tests for online resharding: d=4 -> d=8 under live traffic.

The synthetic-trace tests in ``test_core_spec.py`` establish that the
epoch-confinement extension of S.1 can fail; these tests establish that the
real migration protocol never makes it fail -- the tier grows mid-stream,
in-flight claims drain on the old epoch, stale placements re-route instead
of erroring, and the whole thing is deterministic and crash-tolerant.
"""

from dataclasses import replace

import pytest

from repro import api
from repro.api.runner import load_generator_for
from repro.api.scenario import ScenarioError
from repro.core import messages as msg
from repro.core.reshard import ReshardCoordinator
from repro.core.spec import PropertyViolation, SpecReport
from repro.experiments import reshard
from repro.net.network import Network
from repro.sim.process import Process

RESHARD_DSN = ("etx://a3.d4.c2?rate=40&workload=bank&placement=hash"
               "&seed=3&faults=reshard@300:d4->d8")


def run_scenario(dsn, requests=8, settle=8000):
    scenario = api.Scenario.from_dsn(dsn)
    system = api.build(scenario)
    generator = load_generator_for(scenario)
    generator.run(system, requests)
    if settle > 0:
        system.run(until=system.sim.now + settle)
    return system


def test_reshard_grows_tier_online_and_stays_spec_clean():
    system = run_scenario(RESHARD_DSN)
    trace = system.trace

    # The coordinator committed epoch 1 with the grown shard set.
    (commit,) = trace.select("reshard", stage="commit")
    assert commit.data["epoch"] == 1
    assert sorted(commit.data["shards"]) == [f"d{i}" for i in range(1, 9)]

    # Traffic kept flowing across the migration: deliveries on both sides.
    deliveries = trace.select("client_deliver")
    assert len(deliveries) == 16
    assert any(e.time < commit.time for e in deliveries)
    assert any(e.time > commit.time for e in deliveries)

    # The new shards actually take load after the commit: hash placement
    # over the bank's account keys spreads decisions onto d5..d8.
    new_shard_decides = [e for e in trace.select("db_decide")
                         if e.process in {"d5", "d6", "d7", "d8"}]
    assert new_shard_decides
    assert all(e.time >= commit.time for e in new_shard_decides)

    # Spec-clean end to end, epoch confinement included.
    report = system.check_spec(check_termination=True)
    assert report.ok, "\n".join(str(v) for v in report.violations)
    assert "S.1" in report.checked_properties


def test_reshard_is_invisible_to_clients_and_its_window_survives_faults():
    """The growth scenario against its fault-free twin (same seed), then fault
    schedules aimed at the reconfiguration window."""
    report = reshard.run(requests=15, window_ms=2000.0)
    assert report.run.statistics.undelivered == 0
    assert report.spec_ok, report.summary()
    assert report.run.spec.ok and report.flat.spec.ok
    assert report.final_epoch >= 1
    assert len(report.final_shards) == 8, report.final_shards
    assert 0 < report.reshard_commit - report.reshard_begin <= 5000.0
    # Elasticity: throughput with the migration in the middle stays close to
    # the flat run's.
    assert report.throughput_ratio >= 0.85
    report.campaign = reshard.run_campaign(runs=12, seed=0)
    assert report.campaign.runs == 12
    assert report.campaign.clean, report.campaign.summary()
    assert report.ok


def test_a_violation_in_the_flat_twin_is_named_in_the_summary():
    """``ok`` needs both runs clean, so the printed verdict must show the flat
    twin's violation too, not only the resharded run's clean line."""
    clean = api.run_scenario("etx://a3.d2.c1?workload=bank&placement=hash")
    report = reshard.ReshardReport(run=clean, flat=clean, window_ms=2000.0)
    assert "flat spec" not in report.summary()
    broken = SpecReport(violations=[PropertyViolation("A.1", "d2 committed twice")],
                        checked_properties=list(clean.spec.checked_properties))
    report.flat = replace(clean, spec=broken)
    assert not report.spec_ok and not report.ok
    assert report.to_json()["spec_ok"] is False
    summary = report.summary()
    assert "spec       all properties hold" in summary
    assert "flat spec  1 violation(s):" in summary
    assert "[A.1] d2 committed twice" in summary


def test_reshard_run_is_deterministic():
    def fingerprint(system):
        return [(e.time, e.category, e.process, repr(sorted(e.data.items())))
                for e in system.trace.select()]

    first = fingerprint(run_scenario(RESHARD_DSN))
    second = fingerprint(run_scenario(RESHARD_DSN))
    assert first == second


def test_stale_epoch_claims_reroute_instead_of_erroring():
    system = run_scenario(RESHARD_DSN)
    trace = system.trace
    # With the reshard firing mid-stream at this rate, some claims race the
    # commit and carry a stale placement; each must surface as an explicit
    # epoch_retry (re-route) or epoch_defer (wait for the key to land), and
    # every computation that did commit must be stamped with its epoch.
    assert trace.count("epoch_retry") + trace.count("epoch_defer") > 0
    computes = trace.select("as_compute")
    assert computes
    assert all("epoch" in e.data and "participants" in e.data for e in computes)
    report = system.check_spec(check_termination=True)
    assert report.ok, "\n".join(str(v) for v in report.violations)


def test_reshard_survives_db_crash_inside_migration_window():
    # A source shard goes down right as the window opens; migration stalls
    # on its WAL until recovery, then completes -- still spec-clean, still
    # every request delivered.
    dsn = ("etx://a3.d4.c2?rate=40&workload=bank&placement=hash&seed=3"
           "&faults=reshard@300:d4->d8,crash_for@320:d2:150")
    system = run_scenario(dsn, settle=12000)
    trace = system.trace
    (commit,) = trace.select("reshard", stage="commit")
    assert commit.data["epoch"] == 1
    assert trace.count("client_deliver") == 16
    report = system.check_spec(check_termination=True)
    assert report.ok, "\n".join(str(v) for v in report.violations)


def test_a_late_migrate_ack_neither_completes_an_exchange_nor_moves_a_resend(sim):
    """The coordinator waits on ``("MigrateAck", epoch)``: a late duplicate
    from another shard, or from the same shard at another stage, is dropped,
    and the wait goes on for what is left of the retry interval."""
    network = Network(sim)
    coordinator = network.register(ReshardCoordinator(sim, None, ["d1", "d2"],
                                                      retry_interval=5.0))
    shard = network.register(Process(sim, "d1"))
    sends, done = [], []
    shard.on_message(msg.MIGRATE_INSTALL, lambda message: sends.append(message.send_time))

    def exchange():
        yield from coordinator._deliver("d1", 1, "install", msg.migrate_install_message(1, {}))
        done.append(sim.now)

    def ack(at, epoch, sender, stage):
        reply = msg.migrate_ack_message(epoch, sender, stage)
        reply.sender = sender
        sim.schedule(at, lambda: coordinator.deliver(reply))

    ack(2.0, 1, "d2", "install")    # another shard's
    ack(3.0, 0, "d1", "install")    # another epoch's: never taken
    ack(7.5, 1, "d1", "release")    # this shard's, at another stage
    ack(12.5, 1, "d2", "install")
    ack(13.0, 1, "d1", "install")   # the one it waits for
    coordinator.spawn(exchange())
    sim.run()
    assert sends == [0.0, 5.0, 10.0]
    assert done == [13.0]
    assert coordinator.mailbox_size == 1


def test_baseline_protocols_reject_resharding():
    scenario = api.Scenario.from_dsn(
        "2pc://a1.d2.c1?placement=hash&faults=reshard@100:d2->d4")
    with pytest.raises(ScenarioError, match="does not support online resharding"):
        api.build(scenario)


def test_baseline_protocols_reject_mailbox_bounds():
    scenario = api.Scenario.from_dsn("2pc://a1.d1.c1?mailbox=4")
    with pytest.raises(ScenarioError, match="mailbox"):
        api.build(scenario)

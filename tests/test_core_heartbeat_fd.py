"""End-to-end tests with the message-based (heartbeat) failure detector.

The protocol-level tests mostly use the oracle eventually-perfect detector for
speed and precise fault timing; these tests run the real heartbeat-based
detector to show the protocol does not depend on oracle knowledge of crashes.
"""

import pytest

from conftest import idle

from repro import api
from repro.api import FaultSpec
from repro.api.runner import load_generator_for
from repro.core import FD_HEARTBEAT
from repro.core import messages as msg
from repro.workload.bank import BankWorkload

BANK = BankWorkload(num_accounts=1, initial_balance=100)


def make_deployment(workload=BANK, **fields):
    scenario = api.Scenario(**{"num_app_servers": 3, "failure_detector": FD_HEARTBEAT,
                               "heartbeat_interval": 5.0, "heartbeat_timeout": 20.0,
                               **fields})
    return api.build(scenario, workload=workload)


def test_heartbeat_mode_failure_free_commit():
    deployment = make_deployment()
    issued = deployment.run_request(BANK.debit(0, 10))
    assert issued.delivered
    assert issued.attempts == 1
    assert deployment.db_servers["d1"].committed_value("account:0") == 90
    assert deployment.check_spec().ok
    # Heartbeats actually flowed.
    assert deployment.trace.count("msg_send", msg_type="Heartbeat") > 0


def test_heartbeat_mode_failover_after_primary_crash():
    deployment = make_deployment()
    deployment.apply_faults((FaultSpec("crash", 50.0, "a1"),))
    issued = deployment.run_request(BANK.debit(0, 10))
    assert issued.delivered
    # The crash was detected through missed heartbeats, not an oracle.
    assert deployment.trace.count("fd_suspect", target="a1") >= 1
    assert deployment.db_servers["d1"].committed_value("account:0") == 90
    report = deployment.check_spec()
    assert report.ok, report.summary()


def test_heartbeat_mode_latency_unchanged_in_failure_free_runs():
    oracle = api.build(api.Scenario(), workload=BANK)
    heartbeat = make_deployment()
    oracle_latency = oracle.run_request(BANK.debit(0, 10)).latency
    heartbeat_latency = heartbeat.run_request(BANK.debit(0, 10)).latency
    # The detector is off the request's critical path.
    assert heartbeat_latency == pytest.approx(oracle_latency, abs=1.0)


def test_invalid_failure_detector_mode_rejected():
    with pytest.raises(api.ScenarioError, match="unknown failure detector"):
        api.Scenario(failure_detector="telepathy")


def heartbeat_buffered(deployment):
    return sum(len(queue) for server in deployment.app_servers.values()
               for queue in server._inbox.get("Heartbeat", {}).values())


def test_heartbeat_detector_survives_app_server_recovery():
    """The recovered a2 is installed again: it handles the heartbeats it hears,
    its peers hear it once it claims, and idle it is suspected by nobody."""
    deployment = make_deployment()
    a2 = deployment.app_servers["a2"]
    detector = a2.failure_detector
    deployment.apply_faults((FaultSpec("crash_for", 30.0, "a2", downtime=60.0),))
    deployment.run(until=400.0)
    assert deployment.run_request(BANK.debit(0, 10)).delivered  # a1 claims and beats
    assert deployment.trace.count("msg_deliver", "a2", msg_type="Heartbeat") > 0
    assert a2.mailbox_size == 0
    deployment.client.primary = "a2"
    start = deployment.sim.now
    assert deployment.run_request(BANK.debit(0, 10)).delivered  # now a2 claims
    assert any(event.get("sender") == "a2" and event.time > start
               for event in deployment.trace.select("msg_deliver", msg_type="Heartbeat"))
    deployment.run(until=deployment.sim.now + 1_000.0)  # and idles
    assert deployment.trace.count("fd_suspect") == 0
    assert not detector.suspect("a1", "a2") and not detector.suspect("a3", "a2")
    assert all(server.mailbox_size == 0 for server in deployment.app_servers.values())
    assert idle(deployment.sim)
    assert deployment.check_spec().ok


def test_heartbeat_detector_across_crash_and_reinstall():
    """Suspicion, clean-up and trust through the crash of a claim holder and its
    recovery: a1 claims at 7, beats at 7 and on its install grid at 10, and dies
    at 12; its last beat arrives at 12.25, so its peers suspect it at 12.25 + 20 --
    the deadline, not a polling grid -- clean its claim, and then trust it again,
    time-out unchanged.  The recovered a1 holds nothing and suspects nobody."""
    deployment = make_deployment()
    detector = deployment.app_servers["a1"].failure_detector
    sim, a1 = deployment.sim, deployment.app_servers["a1"]
    issued = deployment.issue(BANK.debit(0, 10))
    sim.schedule(12.0, a1.crash)
    sim.schedule(90.0, a1.recover)  # on_start(recovery=True) reinstalls the detector
    sim.run(until=5_000.0)
    assert issued.delivered
    names = ("a1", "a2", "a3")
    assert not any(detector.suspect(o, t) for o in names for t in names if o != t)

    def events(category):
        return [(e.time, e.process, e.data) for e in deployment.trace.select(category)]

    assert [time for time, _, _ in events("as_claim")][:1] == [7.0]
    assert events("fd_suspect") == [(32.25, "a2", {"target": "a1"}),
                                    (32.25, "a3", {"target": "a1"})]
    assert [(p, d) for _, p, d in events("as_clean")] == [
        ("a2", {"suspected": "a1", "client": "c1", "j": 1, "participants": ["d1"]}),
        ("a3", {"suspected": "a1", "client": "c1", "j": 1, "participants": ["d1"]})]
    assert [(p, d) for _, p, d in events("fd_trust")] == [
        ("a2", {"target": "a1", "new_timeout": 20.0}),
        ("a3", {"target": "a1", "new_timeout": 20.0})]
    assert all(timeouts == dict.fromkeys(timeouts, 20.0)
               for timeouts in detector._timeouts.values())
    # Heartbeats are handled, never buffered -- on the reinstalled server too.
    assert heartbeat_buffered(deployment) == 0
    with pytest.raises(ValueError):
        detector.reinstall("a1")  # already installed: refused, nothing armed twice
    assert idle(sim)
    assert deployment.check_spec().ok


def test_an_idle_heartbeat_deployment_sends_no_heartbeat_and_arms_no_timer():
    deployment = make_deployment()
    assert idle(deployment.sim)
    deployment.run(until=10_000.0)
    assert deployment.network.stats.sent == 0
    # A request: its claimant beats while it holds the claim, and then all is quiet again.
    assert deployment.run_request(BANK.debit(0, 10)).delivered
    sent = deployment.trace.count("msg_send", msg_type="Heartbeat")
    assert 0 < sent == deployment.trace.count("msg_send", "a1", msg_type="Heartbeat")
    deployment.run(until=deployment.sim.now + 100.0)
    assert idle(deployment.sim)
    deployment.run(until=deployment.sim.now + 10_000.0)
    assert deployment.trace.count("msg_send", msg_type="Heartbeat") == sent + 2  # the last beat


def test_client_progress_is_not_termination():
    """a1 dies holding a decided but unterminated result: it wrote ``regD`` and
    died as it was about to send ``Decide``.  The client gets the decision from a
    backup (which resends it, terminating nothing) and moves on to its next
    result -- and the claim is still cleaned, by both observers, against d1.

    The second request goes straight to a2, the backup that answered the first
    broadcast.  a3 learns a2's claim and re-arms its monitor at a1's deadline
    then; a2, the claimant, learns nothing and re-arms there only when its
    first timer fires.  Both suspect a1 at the same instant, and a3, armed
    first, cleans first."""
    bank = BankWorkload(num_accounts=2, initial_balance=100)
    deployment = make_deployment(heartbeat_timeout=10_000.0,  # detection after the client moved on
                                 workload=bank)
    a1 = deployment.app_servers["a1"]
    send = a1.send

    def dies_at_decide(destination, message):
        if message.msg_type == msg.DECIDE:
            deployment.sim.schedule(0.0, a1.crash)
            return
        send(destination, message)

    a1.send = dies_at_decide
    assert deployment.run_request(bank.debit(0, 10)).delivered
    assert deployment.run_request(bank.debit(1, 10)).delivered
    moved_on = deployment.sim.now
    deployment.run(until=moved_on + 20_000.0)
    trace = deployment.trace
    (crashed, ), = [(e.time,) for e in trace.select("crash", process="a1")]
    assert [(e.process, e.get("j")) for e in trace.select("client_deliver")] == [
        ("c1", 1), ("c1", 2)]
    cleans = [(e.time, e.process, e.get("j")) for e in trace.select("as_clean")]
    assert [(p, j) for _, p, j in cleans] == [("a3", 1), ("a2", 1)]
    assert all(time > moved_on for time, _, _ in cleans)
    decided = [e.time for e in trace.select("db_decide", process="d1") if e.get("j") == ("c1", 1)]
    assert decided and min(decided) > moved_on > crashed
    assert deployment.db_servers["d1"].committed_value("account:0") == 90
    report = deployment.check_spec()
    assert report.ok, report.summary()


LONG_RUN = ("etx://a3.d2.c4?rate=4&arrival=uniform&fd=heartbeat&workload=bank&placement=hash"
            "&xshard=0.2&faults=partition@3000:a1|a2~a3~d1~d2,heal@3500,crash@6000:a1&seed=5")


def test_an_observers_pending_claims_stay_bounded_over_a_long_run():
    """A claim leaves an observer's pending set when its claimant announces that
    it terminated it, or when the observer cleans it: the sets hold what is in
    flight, not the run's history -- the same peak after 40 results as after 200,
    and nothing pending once the run is quiet; tombstones are one per client at
    most.  (A recovered observer is the exception: its cleaner reads the durable
    feed from the start, so it holds every claim it learned before its crash
    until it has cleaned them.)"""
    peaks = []
    for per_client in (10, 50):
        scenario = api.Scenario.from_dsn(LONG_RUN)
        system = api.build(scenario)
        detector = system.app_servers["a1"].failure_detector
        peak = [0]

        def sample(_event):
            for member in detector._members.values():
                if member.pending is not None:
                    peak[0] = max(peak[0], sum(map(len, member.pending.values())))
                    assert len(member.tombstones) <= len(scenario_clients)

        scenario_clients = system.clients
        system.trace.subscribe("as_claim", sample)
        load_generator_for(scenario).run(system, per_client)
        system.run(until=system.sim.now + 1_000.0)
        assert system.trace.count("as_clean") > 0
        assert not any(claims for member in detector._members.values()
                       for claims in member.pending.values())
        assert idle(system.sim)
        peaks.append(peak[0])
        system.close()
    assert peaks[0] == peaks[1] <= 4

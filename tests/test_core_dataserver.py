"""Tests for the database-server protocol (Figure 3) in isolation.

A scripted 'application server' process drives the database server directly so
each reaction (vote, decide, execute, recovery notification) can be observed
without the full protocol stack.
"""

import pytest

from repro.core import messages as msg
from repro.core.dataserver import DatabaseServer
from repro.core.timing import DatabaseTiming
from repro.core.types import ABORT, COMMIT, Request
from repro.failure.detectors import HeartbeatFailureDetector
from repro.net.message import Message
from repro.net.network import Network
from repro.sim.process import Process
from repro.sim.scheduler import Simulator
from repro.sim.waits import ANY


def bank_logic(request):
    def logic(view):
        balance = view.read("balance", 0)
        amount = request.params.get("amount", 0)
        view.write("balance", balance - amount)
        return {"new_balance": balance - amount}

    return logic


def build(initial=None, timing=None):
    sim = Simulator(seed=0)
    network = Network(sim)
    driver = network.register(Process(sim, "a1"))
    db = DatabaseServer(sim, "d1", ["a1"], business_logic=bank_logic,
                        timing=timing or DatabaseTiming(),
                        initial_data=initial or {"balance": 100})
    network.register(db)
    db.start()
    return sim, network, driver, db


def drive(driver, responses, script):
    """Spawn a scripted driver coroutine collecting replies into ``responses``."""

    def body():
        yield from script(driver, responses)

    driver.spawn(body())


def test_execute_runs_business_logic_and_replies():
    sim, network, driver, db = build()
    responses = []

    def script(p, out):
        p.send("d1", msg.execute_message(("c1", 1), Request("pay", {"amount": 30})))
        reply = yield p.receive([(msg.EXECUTE_RESULT, ANY)])
        out.append(reply)

    drive(driver, responses, script)
    sim.run(until=5_000.0)
    assert len(responses) == 1
    assert responses[0]["value"] == {"new_balance": 70}
    assert responses[0]["ok"] is True
    # Not committed yet: only transient manipulation happened.
    assert db.committed_value("balance") == 100


def test_execute_charges_start_plus_sql_time():
    timing = DatabaseTiming(start=3.4, sql=187.0)
    sim, network, driver, db = build(timing=timing)
    responses = []

    def script(p, out):
        p.send("d1", msg.execute_message(("c1", 1), Request("pay", {"amount": 1})))
        reply = yield p.receive([(msg.EXECUTE_RESULT, ANY)])
        out.append(sim.now)

    drive(driver, responses, script)
    sim.run(until=5_000.0)
    # one-way latency 1.75 * 2 + 190.4 of database work
    assert responses[0] == pytest.approx(3.5 + 190.4, abs=0.5)


def test_execute_is_idempotent_for_same_result_key():
    sim, network, driver, db = build()
    responses = []

    def script(p, out):
        for _ in range(2):
            p.send("d1", msg.execute_message(("c1", 1), Request("pay", {"amount": 30})))
            reply = yield p.receive([(msg.EXECUTE_RESULT, ANY)])
            out.append(reply["value"])

    drive(driver, responses, script)
    sim.run(until=10_000.0)
    # The second execution must not re-apply the debit inside the transaction.
    assert responses == [{"new_balance": 70}, {"new_balance": 70}]


def test_vote_yes_then_commit_applies_writes():
    sim, network, driver, db = build()
    log = []

    def script(p, out):
        key = ("c1", 1)
        p.send("d1", msg.execute_message(key, Request("pay", {"amount": 30})))
        yield p.receive([(msg.EXECUTE_RESULT, ANY)])
        p.send("d1", msg.prepare_message(key))
        vote = yield p.receive([(msg.VOTE, ANY)])
        out.append(("vote", vote["vote"]))
        p.send("d1", msg.decide_message(key, COMMIT))
        ack = yield p.receive([(msg.ACK_DECIDE, ANY)])
        out.append(("ack", ack["j"]))

    drive(driver, log, script)
    sim.run(until=10_000.0)
    assert ("vote", "yes") in log
    assert ("ack", ("c1", 1)) in log
    assert db.committed_value("balance") == 70


def test_vote_no_for_unknown_result():
    sim, network, driver, db = build()
    log = []

    def script(p, out):
        p.send("d1", msg.prepare_message(("c1", 99)))
        vote = yield p.receive([(msg.VOTE, ANY)])
        out.append(vote["vote"])

    drive(driver, log, script)
    sim.run(until=5_000.0)
    assert log == ["no"]


def test_decide_abort_discards_writes():
    sim, network, driver, db = build()

    def script(p, out):
        key = ("c1", 1)
        p.send("d1", msg.execute_message(key, Request("pay", {"amount": 30})))
        yield p.receive([(msg.EXECUTE_RESULT, ANY)])
        p.send("d1", msg.prepare_message(key))
        yield p.receive([(msg.VOTE, ANY)])
        p.send("d1", msg.decide_message(key, ABORT))
        yield p.receive([(msg.ACK_DECIDE, ANY)])

    drive(driver, [], script)
    sim.run(until=10_000.0)
    assert db.committed_value("balance") == 100
    assert db.in_doubt() == []


def test_decide_commit_without_yes_vote_is_refused():
    sim, network, driver, db = build()
    outcomes = []

    def script(p, out):
        key = ("c1", 1)
        p.send("d1", msg.execute_message(key, Request("pay", {"amount": 30})))
        yield p.receive([(msg.EXECUTE_RESULT, ANY)])
        # No Prepare: straight to Decide(commit).
        p.send("d1", msg.decide_message(key, COMMIT))
        yield p.receive([(msg.ACK_DECIDE, ANY)])

    drive(driver, outcomes, script)
    sim.run(until=10_000.0)
    assert db.committed_value("balance") == 100
    decide_events = sim.trace.select("db_decide", "d1")
    assert decide_events and decide_events[0].get("outcome") == ABORT


def test_duplicate_decide_is_acknowledged_idempotently():
    sim, network, driver, db = build()
    acks = []

    def script(p, out):
        key = ("c1", 1)
        p.send("d1", msg.execute_message(key, Request("pay", {"amount": 10})))
        yield p.receive([(msg.EXECUTE_RESULT, ANY)])
        p.send("d1", msg.prepare_message(key))
        yield p.receive([(msg.VOTE, ANY)])
        for _ in range(3):
            p.send("d1", msg.decide_message(key, COMMIT))
            ack = yield p.receive([(msg.ACK_DECIDE, ANY)])
            out.append(ack["j"])

    drive(driver, acks, script)
    sim.run(until=20_000.0)
    assert acks == [("c1", 1)] * 3
    assert db.committed_value("balance") == 90


def test_recovery_sends_ready_and_restores_in_doubt():
    sim, network, driver, db = build()
    observed = []

    def script(p, out):
        key = ("c1", 1)
        p.send("d1", msg.execute_message(key, Request("pay", {"amount": 30})))
        yield p.receive([(msg.EXECUTE_RESULT, ANY)])
        p.send("d1", msg.prepare_message(key))
        yield p.receive([(msg.VOTE, ANY)])
        # Crash the database after the yes vote and bring it back.
        db.crash_for(50.0)
        ready = yield p.receive([(msg.READY, ANY)])
        out.append(("ready", ready.sender))
        # The in-doubt transaction can still be committed after recovery.
        p.send("d1", msg.decide_message(key, COMMIT))
        yield p.receive([(msg.ACK_DECIDE, ANY)])

    drive(driver, observed, script)
    sim.run(until=20_000.0)
    assert ("ready", "d1") in observed
    assert db.committed_value("balance") == 70


def test_a_busy_database_counts_the_queued_execute_in_its_mailbox():
    """The served steps' queue is the backlog the mailbox used to hold."""
    sim, network, driver, db = build(timing=DatabaseTiming(start=3.4, sql=187.0))
    for j in (1, 2):
        driver.send("d1", msg.execute_message(("c1", j), Request("pay", {"amount": 1})))
    sim.run(until=100.0)  # both delivered; the first still executes
    assert db.mailbox_size == 1 and db.mailbox_peak == 1
    sim.run()
    assert db.mailbox_size == 0
    assert [event.get("j") for event in sim.trace.select("db_execute", "d1")] == [
        ("c1", 1), ("c1", 2)]
    assert driver.mailbox_size == 2  # both answered


def test_a_type_no_step_serves_is_a_traced_counted_drop():
    """A database hosts no thread that could ever receive a stray message."""
    sim, network, driver, db = build()
    driver.send("d1", Message(HeartbeatFailureDetector.HEARTBEAT, payload={"origin": "a1"}))
    sim.run()
    assert db.mailbox_size == 0 and db.mailbox_peak == 0
    assert [event.get("msg_type") for event in sim.trace.select("unhandled", "d1")] == [
        "Heartbeat"]


def test_crash_loses_unprepared_transaction():
    sim, network, driver, db = build()

    def script(p, out):
        key = ("c1", 1)
        p.send("d1", msg.execute_message(key, Request("pay", {"amount": 30})))
        yield p.receive([(msg.EXECUTE_RESULT, ANY)])
        db.crash_for(10.0)
        yield p.receive([(msg.READY, ANY)])

    drive(driver, [], script)
    sim.run(until=20_000.0)
    assert db.committed_value("balance") == 100
    assert db.in_doubt() == []
    assert db.store.locks.holder("balance") is None

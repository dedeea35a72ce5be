"""Admission control: bounded mailboxes shed loudly, never silently.

Unit level: a :class:`Process` with ``mailbox_limit`` set refuses buffered
messages past the bound, counts them, and records an ``overload`` trace
event for each refusal.  Deployment level: an e-Transaction scenario with a
small ``mailbox=`` bound under open-loop pressure sheds at the application
tier, surfaces the counters in ``RunStatistics.saturation`` -- and still
delivers every request spec-clean, because the protocol's retry machinery
absorbs the loss like any other dropped message.
"""

from repro import api
from repro.api.runner import load_generator_for
from repro.net.message import Message
from repro.sim.process import Process
from repro.sim.scheduler import Simulator
from repro.sim.waits import ANY

SHED_DSN = "etx://a1.d2.c8?rate=500&seed=3&workload=bank&mailbox=2"


def test_process_sheds_buffered_messages_past_the_bound():
    sim = Simulator()
    process = Process(sim, "p")
    process.mailbox_limit = 2
    for _ in range(3):
        process.deliver(Message("Ping"))
    assert process.mailbox_size == 2
    assert process.shed_messages == 1
    assert process.mailbox_peak == 2
    overloads = sim.trace.select("overload", process="p")
    assert len(overloads) == 1
    assert overloads[0].data == {"msg_type": "Ping", "backlog": 2}


def test_process_unbounded_by_default():
    sim = Simulator()
    process = Process(sim, "p")
    for _ in range(50):
        process.deliver(Message("Ping"))
    assert process.mailbox_size == 50
    assert process.shed_messages == 0
    assert sim.trace.count("overload") == 0


def test_shed_messages_resume_waiting_threads_unaffected():
    # The bound applies to *buffered* backlog only: a message that resumes a
    # blocked receive never occupies the mailbox and is never shed.
    sim = Simulator()
    process = Process(sim, "p")
    process.mailbox_limit = 1
    seen = []

    def protocol():
        while True:
            message = yield process.receive([("Ping", ANY)])
            seen.append(message.msg_type)

    process.spawn(protocol())
    sim.run()
    for _ in range(3):
        process.deliver(Message("Ping"))
        sim.run()
    assert seen == ["Ping", "Ping", "Ping"]
    assert process.shed_messages == 0


def test_mailbox_bound_sheds_under_load_but_stays_spec_clean():
    scenario = api.Scenario.from_dsn(SHED_DSN)
    system = api.build(scenario)
    generator = load_generator_for(scenario)
    stats = generator.run(system, 10)
    system.run(until=system.sim.now + 20000)

    # The statistics schema carries the admission counters on every run.
    assert set(stats.saturation) == {"shed_messages", "mailbox_peak"}

    # This scenario is tuned to actually overflow the bound: sheds happened,
    # and every one of them is a traced overload event, never silent.
    saturation = system.saturation_stats()
    assert saturation["shed_messages"] > 0
    assert saturation["mailbox_peak"] == 2
    overloads = system.trace.select("overload")
    assert len(overloads) == saturation["shed_messages"]
    assert all(e.data["backlog"] == 2 for e in overloads)

    # Shedding is invisible to correctness: retries resend, everything
    # delivers, the specification holds.
    assert system.trace.count("client_deliver") == 80
    report = system.check_spec(check_termination=True)
    assert report.ok, "\n".join(str(v) for v in report.violations)


def test_unbounded_scenario_reports_zeroed_saturation():
    scenario = api.Scenario.from_dsn("etx://a1.d1.c2?rate=20&seed=3")
    system = api.build(scenario)
    generator = load_generator_for(scenario)
    stats = generator.run(system, 3)
    assert stats.saturation == {"shed_messages": 0, "mailbox_peak": 0}

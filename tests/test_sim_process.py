"""Unit tests for the process / coroutine-thread model."""

import gc
import weakref

import pytest

from conftest import idle

from repro.net.message import Message
from repro.net.network import Network
from repro.sim.errors import ProcessNotRunning, ThreadError
from repro.sim.process import Process
from repro.sim.waits import TIMEOUT, SimFuture


def make_pair(sim):
    network = Network(sim)
    a = network.register(Process(sim, "a"))
    b = network.register(Process(sim, "b"))
    return network, a, b


def test_sleep_resumes_after_delay(sim):
    process = Process(sim, "p")
    times = []

    def body():
        yield process.sleep(10.0)
        times.append(sim.now)
        yield process.sleep(2.5)
        times.append(sim.now)

    process.spawn(body())
    sim.run()
    assert times == [pytest.approx(10.0), pytest.approx(12.5)]


def test_receive_delivers_matching_message(sim):
    network, a, b = make_pair(sim)
    got = []

    def receiver():
        message = yield b.receive([("Ping", "a")])
        got.append((message.msg_type, message.sender, sim.now))

    b.spawn(receiver())
    a.send("b", Message("Ping"))
    sim.run()
    assert len(got) == 1
    msg_type, sender, time = got[0]
    assert msg_type == "Ping" and sender == "a"
    assert time > 0.0  # network latency elapsed


def test_receive_drops_unmatched_messages(sim):
    network, a, b = make_pair(sim)
    got = []

    def receiver():
        message = yield b.receive([("Wanted", "a")])
        got.append(message.msg_type)

    b.spawn(receiver())
    a.send("b", Message("Unwanted"))
    a.send("b", Message("Wanted"))
    sim.run()
    assert got == ["Wanted"]
    assert b.mailbox_size == 0 and not b._waiters  # nothing kept for later


def test_a_message_no_thread_awaits_is_gone_before_a_later_receive(sim):
    """Nothing is kept for a receive that begins after the message arrived:
    the message is dropped like a lost one, and the receive times out."""
    network, a, b = make_pair(sim)
    got = []
    a.send("b", Message("Early", payload={"j": 4}))
    sim.run()

    def receiver():
        got.append((yield b.receive([("Early", 4)], timeout=50.0)))

    b.spawn(receiver())
    sim.run()
    assert got == [TIMEOUT]


def test_receive_timeout_returns_sentinel(sim):
    process = Process(sim, "p")
    results = []

    def body():
        result = yield process.receive([], timeout=5.0)
        results.append(result)

    process.spawn(body())
    sim.run()
    assert results == [TIMEOUT]
    assert sim.now == pytest.approx(5.0)


def test_timeout_cancelled_when_message_arrives_first(sim):
    network, a, b = make_pair(sim)
    results = []

    def receiver():
        result = yield b.receive([("Ping", "a")], timeout=100.0)
        results.append(result)

    b.spawn(receiver())
    a.send("b", Message("Ping"))
    sim.run()
    assert len(results) == 1
    assert results[0] is not TIMEOUT
    assert sim.now < 100.0


def test_two_threads_with_different_matchers_get_their_own_messages(sim):
    network, a, b = make_pair(sim)
    got = {"x": None, "y": None}

    def wants(msg_type, key):
        message = yield b.receive([(msg_type, "a")])
        got[key] = message.msg_type

    b.spawn(wants("X", "x"))
    b.spawn(wants("Y", "y"))
    a.send("b", Message("Y"))
    a.send("b", Message("X"))
    sim.run()
    assert got == {"x": "X", "y": "Y"}


def test_crash_kills_threads_and_clears_mailbox(sim):
    network, a, b = make_pair(sim)
    resumed = []

    def body():
        yield b.sleep(50.0)
        resumed.append(True)

    def step(message):
        yield b.sleep(50.0)

    thread = b.spawn(body())
    b.serve("Ping", step)
    a.send("b", Message("Ping"))
    a.send("b", Message("Ping"))
    sim.run(until=10.0)
    assert b.mailbox_size == 1  # the second Ping queues behind the first step
    b.crash()
    assert not b.up
    assert b.mailbox_size == 0
    assert not thread.alive
    sim.run()
    assert resumed == []


def test_messages_to_crashed_process_are_dropped(sim):
    network, a, b = make_pair(sim)
    b.crash()
    a.send("b", Message("Ping"))
    sim.run()
    assert network.stats.dropped_dest_down == 1
    assert network.stats.delivered == 0


def test_crashed_process_sends_are_ignored(sim):
    network, a, b = make_pair(sim)
    a.crash()
    a.send("b", Message("Ping"))
    sim.run()
    assert network.stats.sent == 0


def test_recovery_calls_on_start_with_recovery_flag(sim):
    class Recoverable(Process):
        def __init__(self, sim, name):
            super().__init__(sim, name)
            self.starts = []

        def on_start(self, recovery):
            self.starts.append(recovery)

    network = Network(sim)
    p = network.register(Recoverable(sim, "p"))
    p.start()
    p.crash()
    p.recover()
    assert p.starts == [False, True]
    assert p.up


def test_crash_for_schedules_recovery(sim):
    network, a, b = make_pair(sim)
    b.crash_for(25.0)
    assert not b.up
    sim.run()
    assert b.up
    assert sim.now >= 25.0


def test_spawn_on_crashed_process_raises(sim):
    process = Process(sim, "p")
    process.crash()
    with pytest.raises(ProcessNotRunning):
        process.spawn(iter(()), name="t")


def test_finished_threads_leave_the_table_and_are_freed_without_the_collector(sim):
    """A thread leaves the table as it finishes, even when no message is ever
    buffered, and no reference cycle keeps it (or its generator) alive."""
    process = Process(sim, "p")

    def short():
        yield process.sleep(1.0)

    def forever():
        yield process.receive([("Never", 0)])

    live = process.spawn(forever(), name="live")
    gc.disable()
    try:
        generators = [short() for _ in range(100)]
        refs = [weakref.ref(generator) for generator in generators]
        for generator in generators:
            process.spawn(generator, name="short")
        del generators, generator
        sim.run()
        assert live.alive and process.mailbox_size == 0
        assert all(ref() is None for ref in refs)  # the finished threads are gone
    finally:
        gc.enable()


# ---------------------------------------------------------------- tickers


def test_ticker_runs_its_first_step_inside_tick_and_none_arms_nothing(sim):
    process = Process(sim, "p")
    steps = []

    def step():
        steps.append(sim.now)

    ticker = process.tick(step)
    assert steps == [0.0] and idle(sim)  # parked: like a never-resolved future
    sim.run(until=10.0)
    ticker.poke()
    assert steps == [0.0, 10.0] and idle(sim)


def test_ticker_delay_arms_exactly_one_kernel_event(sim):
    process = Process(sim, "p")
    steps = []

    def step():
        steps.append(sim.now)
        return 5.0 if len(steps) < 4 else None

    process.tick(step)
    sim.run()
    assert steps == [0.0, 5.0, 10.0, 15.0]
    assert sim.events_processed == 3


def test_ticker_poke_cancels_the_armed_timer_and_steps_now(sim):
    process = Process(sim, "p")
    steps = []

    def step():
        steps.append(sim.now)
        return 10.0

    ticker = process.tick(step)
    sim.run(until=3.0)
    ticker.poke()
    assert steps == [0.0, 3.0]
    sim.run(until=25.0)
    assert steps == [0.0, 3.0, 13.0, 23.0] and sim.events_processed == 2


def test_crash_stops_a_ticker_for_good(sim):
    process = Process(sim, "p")
    steps = []

    def step():
        steps.append(sim.now)
        return 5.0

    ticker = process.tick(step)
    sim.run(until=7.0)
    process.crash()
    assert idle(sim)
    ticker.poke()
    process.recover()
    ticker.poke()
    sim.run(until=50.0)
    assert steps == [0.0, 5.0] and idle(sim)
    process.crash()
    with pytest.raises(ProcessNotRunning):
        process.tick(step)


def test_a_step_that_crashes_its_process_arms_nothing(sim):
    process = Process(sim, "p")

    def step():
        process.crash()
        return 5.0

    process.tick(step)
    assert not process.up and idle(sim)


# ------------------------------------------------------- message handlers


def test_handler_runs_synchronously_at_delivery_time(sim):
    network, a, b = make_pair(sim)
    seen = []
    b.on_message("Ping", lambda message: seen.append((message.sender, sim.now)))
    a.send("b", Message("Ping"))
    assert seen == []  # still on the wire
    sim.run()
    assert seen == [("a", sim.now)] and sim.now > 0.0  # at the delivery event
    b.deliver(Message("Ping", sender="x"))
    assert [sender for sender, _ in seen] == ["a", "x"]  # no kernel event between


def test_handled_type_never_enters_the_mailbox_or_wakes_a_receive(sim):
    process = Process(sim, "p")
    handled, woken = [], []

    def waiter(keys, label):
        message = yield process.receive(keys)
        woken.append((label, message.msg_type))

    process.spawn(waiter([("Ping", "x")], "ping"))
    process.spawn(waiter([("Ping", "x"), ("Pong", "x")], "either"))
    process.on_message("Ping", handled.append)
    for _ in range(5):
        process.deliver(Message("Ping", sender="x"))
    sim.run()
    assert len(handled) == 5 and woken == []
    assert process.mailbox_size == 0 and process.mailbox_peak == 0
    process.deliver(Message("Pong", sender="x"))  # an unhandled type goes to its waiters
    sim.run()
    assert woken == [("either", "Pong")]


def test_crash_drops_handlers_and_on_start_registers_them_again(sim):
    class Counting(Process):
        def __init__(self, sim, name):
            super().__init__(sim, name)
            self.pings = 0

        def on_start(self, recovery):
            self.on_message("Ping", self._count)

        def _count(self, message):
            self.pings += 1

    p = Counting(sim, "p")
    p.start()
    p.deliver(Message("Ping"))
    p.crash()
    p.deliver(Message("Ping"))  # down: dropped, handler not called
    assert p.pings == 1
    with pytest.raises(ProcessNotRunning):
        p.on_message("Pong", p._count)
    p.recover()  # would raise "already handles" had the crash kept the handler
    p.deliver(Message("Ping"))
    assert p.pings == 2 and p.mailbox_size == 0


def test_crash_without_reregistration_drops_the_type(sim):
    process = Process(sim, "p")
    seen = []
    process.on_message("Ping", seen.append)
    process.crash()
    process.recover()
    process.deliver(Message("Ping"))  # no handler and no waiter: dropped
    assert seen == [] and process.mailbox_size == 0 and not process._waiters


def test_second_handler_for_a_type_is_rejected(sim):
    process = Process(sim, "p")
    process.on_message("Ping", lambda message: None)
    with pytest.raises(ValueError):
        process.on_message("Ping", lambda message: None)
    process.on_message("Pong", lambda message: None)  # other types are free


def test_raising_handler_propagates_out_of_the_run(sim):
    network, a, b = make_pair(sim)

    def boom(message):
        raise RuntimeError("boom")

    b.on_message("Ping", boom)
    a.send("b", Message("Ping"))
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()


def test_thread_exception_is_wrapped_and_traced(sim):
    process = Process(sim, "p")

    def body():
        yield process.sleep(1.0)
        raise RuntimeError("boom")

    process.spawn(body())
    with pytest.raises(ThreadError):
        sim.run()
    assert sim.trace.count("thread_error", "p") == 1


def test_served_step_exception_is_wrapped_and_traced(sim):
    process = Process(sim, "p")

    def step(message):
        yield process.sleep(1.0)
        raise RuntimeError("boom")

    process.serve("Ping", step)
    process.deliver(Message("Ping"))
    with pytest.raises(ThreadError):
        sim.run()
    assert sim.trace.count("thread_error", "p") == 1


def test_served_step_may_only_sleep(sim):
    process = Process(sim, "p")

    def step(message):
        yield process.receive([("Pong", "x")])

    process.serve("Ping", step)
    with pytest.raises(ThreadError):
        process.deliver(Message("Ping"))
    assert sim.trace.count("thread_error", "p") == 1


def test_wait_for_future_resolution(sim):
    process = Process(sim, "p")
    future = SimFuture()
    got = []

    def body():
        value = yield process.wait_for(future)
        got.append(value)

    process.spawn(body())
    sim.schedule(7.0, lambda: future.resolve("decided"))
    sim.run()
    assert got == ["decided"]


def test_wait_for_already_resolved_future(sim):
    process = Process(sim, "p")
    future = SimFuture()
    future.resolve(99)
    got = []

    def body():
        value = yield process.wait_for(future)
        got.append(value)

    process.spawn(body())
    sim.run()
    assert got == [99]


def test_future_is_write_once(sim):
    future = SimFuture()
    future.resolve(1)
    future.resolve(2)
    assert future.value == 1


def test_future_callbacks_on_a_resolved_future():
    future = SimFuture()
    calls = []
    first = calls.append
    second = lambda v: calls.append(("second", v))
    dropped = lambda v: calls.append(("dropped", v))
    future.on_resolve(first)
    future.on_resolve(second)
    future.on_resolve(dropped)
    future.discard_callback(dropped)
    future.discard_callback(dropped)   # no longer pending: a no-op
    future.resolve("v")
    assert calls == ["v", ("second", "v")]
    # Resolved: a new callback runs at once, with the same value, and
    # discarding one that is not pending (or already ran) changes nothing.
    late = []
    future.on_resolve(late.append)
    future.discard_callback(late.append)
    future.discard_callback(first)
    future.resolve("w")
    assert late == ["v"]
    assert calls == ["v", ("second", "v")]
    assert future.resolved and future.value == "v"


def test_a_resolved_future_holds_no_callback_list():
    waited, never = SimFuture(), SimFuture()
    waited.on_resolve(lambda _value: None)
    waited.resolve(1)
    never.resolve(2)
    assert waited._callbacks == () and never._callbacks == ()


def test_multicast_sends_to_every_destination(sim):
    network = Network(sim)
    a = network.register(Process(sim, "a"))
    targets = [network.register(Process(sim, f"t{i}")) for i in range(3)]
    got = []
    for target in targets:
        target.on_message("Hello", lambda message, name=target.name: got.append(name))
    a.multicast([t.name for t in targets], Message("Hello"))
    sim.run()
    assert network.stats.delivered == 3
    assert got == ["t0", "t1", "t2"]


def test_send_without_transport_raises(sim):
    process = Process(sim, "orphan")
    with pytest.raises(ProcessNotRunning):
        process.send("nowhere", Message("Ping"))


# ---------------------------------------------------------- waiter indexing


def test_delivery_prefers_earlier_spawned_thread_on_tie(sim):
    """Two threads waiting on the same key both resume, in spawn order, though
    the earlier one filed its wait last."""
    network, a, b = make_pair(sim)
    got = []

    def wants(label, first_wait):
        yield b.sleep(first_wait)
        message = yield b.receive([("Ping", "a")])
        got.append((label, message["n"]))

    b.spawn(wants("first", 1.0))
    b.spawn(wants("second", 0.5))
    a.send("b", Message("Ping", payload={"n": 1}))
    a.send("b", Message("Ping", payload={"n": 2}))
    sim.run()
    assert got == [("first", 1), ("second", 1)]
    assert not b._waiters  # the second Ping found nobody: dropped


def test_one_ready_resumes_every_round_waiting_on_its_database(sim):
    """Two rounds wait on their own reply key and on ``("Ready", "d1")``: one
    ``Ready`` from d1 restarts both, in spawn order."""
    process = Process(sim, "p")
    got = []

    def round_(label, reply_key):
        message = yield process.receive([reply_key, ("Ready", "d1")])
        got.append((label, message.msg_type, message.sender))

    process.spawn(round_("x", ("X", "k1")))
    process.spawn(round_("y", ("Y", "k2")))
    process.deliver(Message("Ready", sender="d1"))
    assert got == [("x", "Ready", "d1"), ("y", "Ready", "d1")]
    assert not process._waiters


def test_a_waiter_ended_by_an_earlier_one_is_not_resumed(sim):
    """Resuming one waiter may end another's wait; that one stays ended."""
    process = Process(sim, "p")
    got = []

    def killer():
        yield process.receive([("Ready", "d1")])
        got.append("killer")
        victim.kill()

    def victim_body():
        yield process.receive([("Ready", "d1")])
        got.append("victim")

    process.spawn(killer())
    victim = process.spawn(victim_body())
    process.deliver(Message("Ready", sender="d1"))
    assert got == ["killer"] and not victim.alive and not process._waiters


def test_correlated_receive_only_gets_its_own_key(sim):
    """A wait on ``(type, j)`` takes only the messages of that ``j``."""
    network, a, b = make_pair(sim)
    got = {}

    def handler(key):
        message = yield b.receive([("Vote", key)])
        got[key] = message["v"]

    for key in ("k1", "k2", "k3"):
        b.spawn(handler(key))
    a.send("b", Message("Vote", payload={"j": "k2", "v": 2}))
    a.send("b", Message("Vote", payload={"j": "k3", "v": 3}))
    a.send("b", Message("Vote", payload={"j": "k1", "v": 1}))
    sim.run()
    assert got == {"k1": 1, "k2": 2, "k3": 3}


def test_a_message_without_j_is_filed_under_its_sender(sim):
    """``Ready`` carries no ``j``: it is filed under ``("Ready", sender)``, so a
    wait on one sender's key never wakes on another's."""
    process = Process(sim, "p")
    got = []

    def waiter():
        message = yield process.receive([("Ready", "d2")])
        got.append(message.sender)

    process.deliver(Message("Ready", sender="d1"))
    process.spawn(waiter())
    process.deliver(Message("Ready", sender="d3"))
    assert got == []
    process.deliver(Message("Ready", sender="d2"))
    assert got == ["d2"] and not process._waiters

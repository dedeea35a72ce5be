"""Unit tests for the process / coroutine-thread model."""

import gc
import weakref

import pytest

from conftest import idle

from repro.net.message import Message
from repro.net.network import Network
from repro.sim.errors import ProcessNotRunning, ThreadError
from repro.sim.process import Process
from repro.sim.waits import ANY, TIMEOUT, SimFuture


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
        message = yield b.receive([("Ping", ANY)])
        got.append((message.msg_type, message.sender, sim.now))

    b.spawn(receiver())
    a.send("b", Message("Ping"))
    sim.run()
    assert len(got) == 1
    msg_type, sender, time = got[0]
    assert msg_type == "Ping" and sender == "a"
    assert time > 0.0  # network latency elapsed


def test_receive_buffers_unmatched_messages(sim):
    network, a, b = make_pair(sim)
    got = []

    def receiver():
        message = yield b.receive([("Wanted", ANY)])
        got.append(message.msg_type)

    b.spawn(receiver())
    a.send("b", Message("Unwanted"))
    a.send("b", Message("Wanted"))
    sim.run()
    assert got == ["Wanted"]
    assert b.mailbox_size == 1  # the unwanted message stays buffered


def test_receive_consumes_from_mailbox_first(sim):
    network, a, b = make_pair(sim)
    got = []
    a.send("b", Message("Early"))
    sim.run()
    assert b.mailbox_size == 1

    def receiver():
        message = yield b.receive([("Early", ANY)])
        got.append(message.msg_type)

    b.spawn(receiver())
    sim.run()
    assert got == ["Early"]
    assert b.mailbox_size == 0


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
        result = yield b.receive([("Ping", ANY)], timeout=100.0)
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
        message = yield b.receive([(msg_type, ANY)])
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

    thread = b.spawn(body())
    a.send("b", Message("Ping"))
    sim.run(until=10.0)
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
        yield process.receive([("Never", ANY)])

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
    process.mailbox_limit = 1
    handled, woken = [], []

    def waiter(keys, label):
        message = yield process.receive(keys)
        woken.append((label, message.msg_type))

    process.spawn(waiter([("Ping", ANY)], "ping"))
    process.spawn(waiter([("Ping", ANY), ("Pong", ANY)], "either"))
    process.on_message("Ping", handled.append)
    for _ in range(5):
        process.deliver(Message("Ping"))
    sim.run()
    assert len(handled) == 5 and woken == []
    assert process.mailbox_size == 0 and process.mailbox_peak == 0
    assert process.shed_messages == 0
    process.deliver(Message("Pong"))  # an unhandled type still takes the old road
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


def test_crash_without_reregistration_falls_back_to_the_mailbox(sim):
    process = Process(sim, "p")
    process.on_message("Ping", lambda message: None)
    process.crash()
    process.recover()
    process.deliver(Message("Ping"))
    assert process.mailbox_size == 1


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
        yield process.receive([("Pong", ANY)])

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
    a.multicast([t.name for t in targets], Message("Hello"))
    sim.run()
    assert network.stats.delivered == 3
    assert all(t.mailbox_size == 1 for t in targets)


def test_send_without_transport_raises(sim):
    process = Process(sim, "orphan")
    with pytest.raises(ProcessNotRunning):
        process.send("nowhere", Message("Ping"))


# ------------------------------------------------- waiter / mailbox indexing


def test_delivery_prefers_earlier_spawned_thread_on_tie(sim):
    """Two threads waiting on the same key: spawn order breaks the tie."""
    network, a, b = make_pair(sim)
    got = []

    def wants(label):
        message = yield b.receive([("Ping", ANY)])
        got.append((label, message["n"]))

    b.spawn(wants("first"))
    b.spawn(wants("second"))
    # The second thread re-blocks "after" the first in wall-clock terms, but
    # spawn order must still win for the first message.
    a.send("b", Message("Ping", payload={"n": 1}))
    a.send("b", Message("Ping", payload={"n": 2}))
    sim.run()
    assert got == [("first", 1), ("second", 2)]


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


def test_mailbox_preserves_arrival_order_across_type_buckets(sim):
    """A wait on several keys takes the oldest message across them, though
    the inbox files each key apart."""
    network, a, b = make_pair(sim)
    a.send("b", Message("Beta", payload={"j": 9, "n": 1}))
    a.send("b", Message("Alpha", payload={"j": 9, "n": 2}))
    a.send("b", Message("Beta", payload={"j": 9, "n": 3}))
    sim.run()
    assert b.mailbox_size == 3
    taken = []

    def drain():
        for _ in range(3):
            message = yield b.receive([("Alpha", 9), ("Beta", 9)])
            taken.append((message.msg_type, message["n"]))

    b.spawn(drain())
    sim.run()
    assert taken == [("Beta", 1), ("Alpha", 2), ("Beta", 3)]
    assert b.mailbox_size == 0


def test_a_message_without_j_is_filed_under_its_sender(sim):
    """``Ready`` carries no ``j``: it is filed under ``("Ready", sender)``, so a
    wait on one sender's key neither takes nor wakes on another's."""
    process = Process(sim, "p")
    got = []

    def waiter():
        message = yield process.receive([("Ready", "d2")])
        got.append(message.sender)

    process.deliver(Message("Ready", sender="d1"))
    process.spawn(waiter())
    process.deliver(Message("Ready", sender="d3"))
    assert got == [] and process.mailbox_size == 2
    process.deliver(Message("Ready", sender="d2"))
    assert got == ["d2"] and process.mailbox_size == 2

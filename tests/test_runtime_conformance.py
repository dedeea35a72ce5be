"""One protocol semantics, two runtimes.

The generator-coroutine protocol code never names its runtime: it yields
waits to whatever :class:`repro.runtime.base.Kernel` the deployment chose.
These tests run the same behavioural scenarios against the deterministic
simulator and the wall-clock asyncio kernel and assert the *semantics*
agree -- wake-up ordering, receive keys, timer cancellation on kill,
multicast fan-out.

The asyncio leg crosses the real loop (``call_later``, ``_run_once``) but not
the real clock: nothing here opens a socket, so the fixture makes loop time
a counter that ticks a nanosecond per reading and jumps by exactly the timeout
whenever the loop would have slept.  An order that depends on which of two
timers is due first must not depend on how long the host took between arming
them; real time stays covered by ``tests/test_runtime_asyncio.py`` over TCP.
The ticks remain, so assertions about exact virtual timestamps run on kernels
with ``realtime == False`` only.
"""

import pytest

from conftest import idle

from repro.net.message import Message
from repro.net.network import Network
from repro.runtime.base import RUNTIME_ASYNCIO, RUNTIME_SIM
from repro.sim.process import Process
from repro.sim.waits import TIMEOUT

PACE = 0.002


class SteppedClock:
    """Loop time as a counter: it moves when read and where the loop would sleep.

    No two readings are equal, as on a real monotonic clock -- asyncio orders
    timers by deadline alone, so FIFO among timers armed for the same delay
    rests on the later one having read a later clock.
    """

    TICK = 1e-9

    def __init__(self, loop, start):
        self.now = start
        self._poll = loop._selector.select
        loop.time = self.read
        loop._selector.select = self.sleep

    def read(self):
        self.now += self.TICK
        return self.now

    def sleep(self, timeout=None):
        # ``None`` cannot happen: a parked run_until always holds its
        # ``max_wall`` timer, which ends a run nothing else will end.
        self.now += timeout
        return self._poll(0)


@pytest.fixture(params=[RUNTIME_SIM, RUNTIME_ASYNCIO])
def kernel(request):
    if request.param == RUNTIME_SIM:
        from repro.sim.scheduler import Simulator

        kernel = Simulator(seed=7)
    else:
        from repro.runtime.loop import AsyncioKernel

        kernel = AsyncioKernel(seed=7, pace=PACE)
        SteppedClock(kernel._loop, kernel._epoch)
    yield kernel
    kernel.close()


def make_network(kernel) -> Network:
    from repro.net.latency import FixedLatency

    return Network(kernel, latency=FixedLatency(1.0))


def run_until(kernel, predicate, horizon: float = 60_000.0) -> bool:
    return kernel.run_until(predicate, until=horizon)


# ------------------------------------------------------------ sleep ordering


def test_sleeps_wake_in_delay_order(kernel):
    network = make_network(kernel)
    process = network.register(Process(kernel, "p"))
    woke: list[str] = []

    def sleeper(tag: str, delay: float):
        def thread():
            yield process.sleep(delay)
            woke.append(tag)

        return thread()

    # Spawn out of delay order on purpose: wake order must follow delays,
    # not spawn order.
    process.spawn(sleeper("slow", 120.0), name="slow")
    process.spawn(sleeper("fast", 20.0), name="fast")
    process.spawn(sleeper("mid", 60.0), name="mid")
    assert run_until(kernel, lambda: len(woke) == 3)
    assert woke == ["fast", "mid", "slow"]
    if not kernel.realtime:
        assert kernel.now == 120.0
    else:
        assert 120.0 <= kernel.now < 121.0


def test_zero_delay_runs_before_any_timer(kernel):
    network = make_network(kernel)
    process = network.register(Process(kernel, "p"))
    order: list[str] = []

    def timed():
        yield process.sleep(5_000.0)
        order.append("timer")

    def immediate():
        yield process.sleep(0.0)
        order.append("immediate")

    process.spawn(timed(), name="timed")
    process.spawn(immediate(), name="immediate")
    assert run_until(kernel, lambda: len(order) == 2)
    assert order == ["immediate", "timer"]


def test_same_timestamp_events_dispatch_in_schedule_order(kernel):
    """FIFO within a timestamp: both kernels fire equal-time events in the
    order they were scheduled, even when armed out of order relative to
    other delays."""
    order: list[str] = []
    kernel.schedule(50.0, lambda: order.append("same-a"))
    kernel.schedule(10.0, lambda: order.append("early"))
    kernel.schedule(50.0, lambda: order.append("same-b"))
    kernel.schedule(50.0, lambda: order.append("same-c"))
    assert run_until(kernel, lambda: len(order) == 4)
    assert order == ["early", "same-a", "same-b", "same-c"]


def test_cancel_inside_callback_stops_later_event(kernel):
    """A callback may cancel an event scheduled for the same timestamp after
    it; the cancelled callback must not run on either kernel."""
    order: list[str] = []

    def killer():
        order.append("killer")
        assert victim.cancel() is True
        assert victim.cancel() is False  # second cancel: documented no-op

    # Killer first, victim second: FIFO puts the killer earlier in the
    # same-time batch, so the victim is cancelled while it is next in line.
    kernel.schedule(40.0, killer)
    victim = kernel.schedule(40.0, lambda: order.append("victim"))
    kernel.schedule(200.0, lambda: order.append("tail"))
    assert run_until(kernel, lambda: "tail" in order)
    assert order == ["killer", "tail"]


@pytest.mark.parametrize("kernel", [RUNTIME_ASYNCIO], indirect=True)
def test_a_record_is_stamped_with_the_kernel_clock(kernel):
    """The recorder reads the kernel's ``now`` property at the record itself.

    Every loop-time reading ticks the stepped clock, so the event a subscriber
    receives inside the record is compared with the reading the record took
    (the clock's last value), not with a fresh ``kernel.now``.
    """
    clock = kernel._loop.time.__self__
    stamps: list[tuple] = []
    kernel.trace.subscribe("tick", lambda event: stamps.append(
        (event.time, (clock.now - kernel._epoch) * 1000.0 / kernel.pace)))
    kernel.schedule(30.0, lambda: kernel.trace.record("tick", "p"))
    assert run_until(kernel, lambda: stamps)
    recorded, now_at_record = stamps[0]
    assert recorded == now_at_record and recorded >= 30.0


# -------------------------------------------------------------- receive keys


def test_receive_matchers_route_by_type(kernel):
    network = make_network(kernel)
    sender = network.register(Process(kernel, "s"))
    receiver = network.register(Process(kernel, "r"))
    seen: dict[str, list] = {"Ping": [], "Pong": []}

    def listener(msg_type: str):
        while True:
            message = yield receiver.receive([(msg_type, "s")])
            seen[msg_type].append(message["n"])

    receiver.spawn(listener("Ping"), name="ping-listener")
    receiver.spawn(listener("Pong"), name="pong-listener")

    def producer():
        sender.send("r", Message("Pong", payload={"n": 1}))
        sender.send("r", Message("Ping", payload={"n": 2}))
        sender.send("r", Message("Pong", payload={"n": 3}))
        yield sender.sleep(0.0)

    sender.spawn(producer(), name="producer")
    assert run_until(kernel, lambda: len(seen["Ping"]) + len(seen["Pong"]) == 3)
    # Each key saw exactly its own messages, in send order.
    assert seen == {"Ping": [2], "Pong": [1, 3]}


def test_receive_timeout_resumes_with_sentinel(kernel):
    network = make_network(kernel)
    process = network.register(Process(kernel, "p"))
    outcomes: list[object] = []

    def waiter():
        message = yield process.receive([("Never", "p")], timeout=30.0)
        outcomes.append(TIMEOUT if message is TIMEOUT else message.msg_type)

    process.spawn(waiter(), name="waiter")
    assert run_until(kernel, lambda: outcomes)
    assert outcomes == [TIMEOUT]
    if not kernel.realtime:
        assert kernel.now == 30.0


# ------------------------------------------------------ timer cancel on kill


def test_kill_cancels_pending_timer(kernel):
    network = make_network(kernel)
    process = network.register(Process(kernel, "p"))
    woke: list[str] = []

    def sleeper():
        yield process.sleep(40.0)
        woke.append("sleeper")  # must never run

    def bystander():
        yield process.sleep(100.0)
        woke.append("bystander")

    victim = process.spawn(sleeper(), name="victim")
    process.spawn(bystander(), name="bystander")
    victim.kill()
    assert not victim.alive
    assert run_until(kernel, lambda: woke)
    # The killed thread's timer fired into the void (or was descheduled);
    # only the bystander woke, well after the victim's deadline passed.
    assert woke == ["bystander"]


def test_crash_kills_threads_and_recovery_restarts(kernel):
    network = make_network(kernel)
    process = network.register(Process(kernel, "p"))
    woke: list[str] = []

    def sleeper():
        yield process.sleep(20.0)
        woke.append("pre-crash")  # must never run

    process.start()
    process.spawn(sleeper(), name="sleeper")
    process.crash()
    assert not process.up
    kernel.run(until=kernel.now + 60.0)
    assert woke == []
    process.recover()
    assert process.up


# ------------------------------------------------------------- served steps


class Echo(Process):
    """Serves ``Job`` after a 20 ms sleep, answering ``Done``; serves again on
    every start, as a database server does."""

    def on_start(self, recovery):
        self.serve("Job", self._job)

    def _job(self, message):
        yield self.sleep(20.0)
        self.send(message.sender, Message("Done", payload={"n": message["n"]}))


def collect(process, msg_type, into):
    process.on_message(msg_type, lambda message: into.append(message["n"]))


def test_serve_runs_one_step_at_a_time_in_arrival_order(kernel):
    network = make_network(kernel)
    sender = network.register(Process(kernel, "s"))
    server = network.register(Process(kernel, "r"))
    log: list[tuple[str, int]] = []
    backlog: list[int] = []

    def step(message):
        log.append(("start", message["n"]))
        backlog.append(server.mailbox_size)
        yield server.sleep(10.0)
        log.append(("end", message["n"]))

    server.serve("Job", step)
    for n in (1, 2, 3):
        sender.send("r", Message("Job", payload={"n": n}))
    assert run_until(kernel, lambda: len(log) == 6)
    assert log == [("start", 1), ("end", 1), ("start", 2), ("end", 2),
                   ("start", 3), ("end", 3)]
    # Job 1 starts on an empty queue; 2 and 3 wait in it, counted as backlog.
    assert backlog == [0, 1, 0] and server.mailbox_peak == 2
    if not kernel.realtime:
        assert kernel.now == 31.0


def test_two_servers_on_one_process_interleave(kernel):
    network = make_network(kernel)
    sender = network.register(Process(kernel, "s"))
    server = network.register(Process(kernel, "r"))
    log: list[tuple[str, int]] = []

    def worker(delay):
        def step(message):
            log.append((message.msg_type, message["n"]))
            yield server.sleep(delay)
            log.append((message.msg_type + " done", message["n"]))

        return step

    server.serve("Slow", worker(30.0))
    server.serve("Fast", worker(10.0))
    sender.send("r", Message("Slow", payload={"n": 1}))
    sender.send("r", Message("Fast", payload={"n": 1}))
    sender.send("r", Message("Fast", payload={"n": 2}))
    assert run_until(kernel, lambda: len(log) == 6)
    # The slow step does not hold up the other server's queue.
    assert log == [("Slow", 1), ("Fast", 1), ("Fast done", 1), ("Fast", 2),
                   ("Fast done", 2), ("Slow done", 1)]


def test_a_step_that_never_sleeps_answers_inside_delivery(kernel):
    network = make_network(kernel)
    client = network.register(Process(kernel, "c"))
    server = network.register(Process(kernel, "r"))
    served: list[int] = []
    answers: list[int] = []

    def step(message):
        served.append(message["n"])
        server.send(message.sender, Message("Done", payload={"n": message["n"]}))
        return
        yield  # a generator that never sleeps

    server.serve("Job", step)
    collect(client, "Done", answers)
    server.deliver(Message("Job", payload={"n": 7}, sender="c"))
    assert served == [7] and server.mailbox_size == 0  # no kernel event between
    assert run_until(kernel, lambda: answers)
    assert answers == [7]


def test_crash_mid_sleep_drops_the_step_and_its_queue(kernel):
    network = make_network(kernel)
    client = network.register(Process(kernel, "c"))
    server = network.register(Echo(kernel, "r"))
    server.start()
    answers: list[int] = []
    backlog: list[int] = []
    collect(client, "Done", answers)
    for n in (1, 2):
        client.send("r", Message("Job", payload={"n": n}))
    # Job 1 sleeps until ~21 and job 2 waits behind it when the server dies.
    kernel.schedule(5.0, lambda: backlog.append(server.mailbox_size))
    kernel.schedule(6.0, lambda: server.crash_for(4.0))
    kernel.schedule(11.0, lambda: backlog.append(server.mailbox_size))
    kernel.schedule(50.0, lambda: client.send("r", Message("Job", payload={"n": 3})))
    assert run_until(kernel, lambda: answers)
    assert answers == [3] and backlog == [1, 0]
    if not kernel.realtime:
        assert kernel.now == 72.0
        assert idle(kernel)


def test_serve_is_registered_again_on_recovery(kernel):
    network = make_network(kernel)
    client = network.register(Process(kernel, "c"))
    server = network.register(Echo(kernel, "r"))
    server.start()
    answers: list[int] = []
    collect(client, "Done", answers)
    for _ in range(2):
        server.crash()
        server.recover()  # on_start serves "Job" again: no "already handles"
    client.send("r", Message("Job", payload={"n": 1}))
    assert run_until(kernel, lambda: answers)
    assert answers == [1] and server.mailbox_size == 0


# ------------------------------------------------------------------ multicast


def test_multicast_reaches_every_destination_once(kernel):
    network = make_network(kernel)
    sender = network.register(Process(kernel, "s"))
    received: dict[str, int] = {}
    receivers = []
    for name in ("r1", "r2", "r3"):
        receiver = network.register(Process(kernel, name))
        receivers.append(receiver)

        def listener(receiver=receiver):
            while True:
                message = yield receiver.receive([("Gossip", "s")])
                received[receiver.name] = received.get(receiver.name, 0) + message["n"]

        receiver.spawn(listener(), name="listener")

    def producer():
        sender.multicast(["r1", "r2", "r3"], Message("Gossip", payload={"n": 1}))
        yield sender.sleep(0.0)

    sender.spawn(producer(), name="producer")
    assert run_until(kernel, lambda: len(received) == 3)
    assert received == {"r1": 1, "r2": 1, "r3": 1}
    assert network.stats.sent == 3
    assert network.stats.delivered == 3

"""Unit tests for the discrete-event scheduler, and its model-based oracle."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.errors import InvalidScheduling, SimulationLimitExceeded
from repro.sim.scheduler import Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, lambda: fired.append("b"))
    sim.schedule(1.0, lambda: fired.append("a"))
    sim.schedule(9.0, lambda: fired.append("c"))
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == pytest.approx(9.0)


def test_same_time_events_fire_in_fifo_order():
    sim = Simulator()
    fired = []
    for label in "abcde":
        sim.schedule(3.0, lambda label=label: fired.append(label))
    sim.run()
    assert fired == list("abcde")


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(InvalidScheduling):
        sim.schedule(-1.0, lambda: None)


def test_schedule_at_in_past_rejected():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.run()
    with pytest.raises(InvalidScheduling):
        sim.schedule_at(5.0, lambda: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, lambda: fired.append("x"))
    handle.cancel()
    sim.run()
    assert fired == []


def test_cancel_returns_true_exactly_once():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    assert handle.cancel() is True
    assert handle.cancel() is False  # second cancel: documented no-op
    sim.run()


def test_cancel_after_fire_is_a_documented_noop():
    """Cancelling an event that already fired returns False, changes nothing.

    This is the contract a stale handle relies on: an ack racing the
    retransmit timer it is trying to stop may arrive after the timer fired,
    and the late ``cancel()`` must neither error nor perturb the kernel.
    """
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, lambda: fired.append("x"))
    sim.run()
    assert fired == ["x"]
    assert handle.cancel() is False
    assert handle.cancel() is False
    assert not handle.cancelled  # it fired; it was never cancelled
    sim.schedule(1.0, lambda: fired.append("y"))
    sim.run()
    assert fired == ["x", "y"]


def test_cancel_inside_same_timestamp_batch():
    """A callback can cancel a later event in its own same-time batch."""
    sim = Simulator()
    fired = []

    def killer():
        fired.append("killer")
        assert victim.cancel() is True

    # Killer first, victim second: FIFO puts the killer earlier in the
    # same-time batch, so the victim is cancelled while it is next in line.
    sim.schedule(4.0, lambda: fired.append("early"))
    sim.schedule(5.0, killer)
    victim = sim.schedule(5.0, lambda: fired.append("victim"))
    sim.schedule(5.0, lambda: fired.append("tail"))
    sim.run()
    assert fired == ["early", "killer", "tail"]


def test_only_live_events_fire():
    sim = Simulator()
    handles = [sim.schedule(float(i % 7), lambda: None) for i in range(20)]
    for handle in handles[:5]:
        handle.cancel()
    sim.run()
    assert sim.events_processed == 15


def test_far_future_events_fire_and_cancel():
    """Events far beyond everything else fire in order; cancel works."""
    sim = Simulator()
    fired = []
    sim.schedule(100_000.0, lambda: fired.append("far"))
    doomed = [sim.schedule(50_000.0 + i, lambda: fired.append("doomed"))
              for i in range(8)]
    sim.schedule(1.0, lambda: fired.append("near"))
    for handle in doomed:
        assert handle.cancel() is True
    sim.run()
    assert fired == ["near", "far"]
    assert sim.now == pytest.approx(100_000.0)


def test_run_until_time_horizon_stops_clock_at_horizon():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, lambda: fired.append("early"))
    sim.schedule(50.0, lambda: fired.append("late"))
    sim.run(until=10.0)
    assert fired == ["early"]
    assert sim.now == pytest.approx(10.0)
    sim.run()
    assert fired == ["early", "late"]


def test_run_until_predicate():
    sim = Simulator()
    counter = {"n": 0}

    def tick():
        counter["n"] += 1
        sim.schedule(1.0, tick)

    sim.schedule(1.0, tick)
    satisfied = sim.run_until(lambda: counter["n"] >= 5, until=100.0)
    assert satisfied
    assert counter["n"] == 5


def test_run_until_predicate_not_satisfied_within_horizon():
    sim = Simulator()
    satisfied = sim.run_until(lambda: False, until=10.0)
    assert not satisfied


def test_event_callbacks_can_schedule_more_events():
    sim = Simulator()
    fired = []

    def first():
        fired.append("first")
        sim.schedule(1.0, lambda: fired.append("second"))

    sim.schedule(1.0, first)
    sim.run()
    assert fired == ["first", "second"]
    assert sim.now == pytest.approx(2.0)


def test_max_events_guard_detects_livelock():
    sim = Simulator()

    def loop():
        sim.schedule(0.0, loop)

    sim.schedule(0.0, loop)
    with pytest.raises(SimulationLimitExceeded):
        sim.run(max_events=1000)


def _three_events(sim):
    fired = []
    for label in "abc":
        sim.schedule(1.0, lambda label=label: fired.append(label))
    return fired


def test_max_events_guard_leaves_the_refused_event_queued():
    """Regression: the limit was checked after the event had been consumed, so
    the event over budget was counted, never run and lost to later runs."""
    sim = Simulator()
    fired = _three_events(sim)
    with pytest.raises(SimulationLimitExceeded):
        sim.run(max_events=2)
    assert fired == ["a", "b"]
    assert sim.events_processed == 2
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.events_processed == 3


def test_max_events_guard_in_run_until_leaves_the_refused_event_queued():
    sim = Simulator()
    fired = _three_events(sim)
    with pytest.raises(SimulationLimitExceeded):
        sim.run_until(lambda: False, max_events=2)
    assert fired == ["a", "b"]
    assert sim.events_processed == 2
    assert sim.run_until(lambda: len(fired) == 3)
    assert sim.events_processed == 3


def test_max_events_equal_to_the_work_left_is_enough():
    sim = Simulator()
    fired = _three_events(sim)
    sim.run(max_events=3)
    assert fired == ["a", "b", "c"]


def test_rng_streams_are_deterministic_and_independent():
    sim_a = Simulator(seed=7)
    sim_b = Simulator(seed=7)
    draws_a = [sim_a.rng("net").random() for _ in range(5)]
    draws_b = [sim_b.rng("net").random() for _ in range(5)]
    assert draws_a == draws_b
    # A different stream does not replay the same sequence.
    other = [sim_a.rng("fd").random() for _ in range(5)]
    assert other != draws_a


def test_events_processed_counter():
    sim = Simulator()
    for _ in range(4):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.events_processed == 4


def test_call_soon_runs_at_current_time():
    sim = Simulator()
    times = []
    sim.schedule(5.0, lambda: sim.call_soon_call(lambda _: times.append(sim.now), None))
    sim.run()
    assert times == [pytest.approx(5.0)]


def test_stream_seed_is_hash_randomisation_free():
    import zlib

    from repro.sim.scheduler import stream_seed

    # The derivation must not involve str.__hash__ (salted by
    # PYTHONHASHSEED); CRC-32 of "<seed>\x00<stream>" is the contract.
    assert stream_seed(7, "net") == zlib.crc32(b"7\x00net") & 0xFFFFFFFF
    assert stream_seed(7, "net") != stream_seed(7, "fd")
    assert stream_seed(7, "net") != stream_seed(8, "net")


def test_rng_streams_identical_across_interpreter_invocations():
    """Regression: per-stream seeds used hash((seed, stream)), which is
    salted by PYTHONHASHSEED -- 'deterministic' runs differed between
    interpreter invocations.  Spawn subprocesses with different hash seeds
    and require identical draws."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    code = ("from repro.sim.scheduler import Simulator; "
            "s = Simulator(seed=7); "
            "print([s.rng('net').random() for _ in range(3)], "
            "s.rng('load.arrivals').randint(0, 10**9))")
    outputs = set()
    for hash_seed in ("0", "1", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run([sys.executable, "-c", code], env=env,
                                   capture_output=True, text=True, timeout=60)
        assert completed.returncode == 0, completed.stderr
        outputs.add(completed.stdout)
    assert len(outputs) == 1, f"draws depend on PYTHONHASHSEED: {outputs}"


# ------------------------------------------------------------------ the oracle
#
# The kernel against a model small enough to be obviously right: a list of
# records in arming order (the index *is* the FIFO sequence number), each
# live, cancelled or fired.  Whatever fires must be the live record with the
# least (time, index).  Delays are whole numbers, so float sums are exact.

LIVE, CANCELLED, FIRED = "live", "cancelled", "fired"
POOLED = ("schedule_call", "call_soon_call")
ARMS = ("schedule", "schedule_at") + POOLED


class _Record:
    def __init__(self, index, time, pooled):
        self.index = index
        self.time = time
        self.pooled = pooled
        self.state = LIVE
        self.handle = None


class _KernelModel:
    """Drives a :class:`Simulator` and the record list side by side."""

    def __init__(self):
        self.sim = Simulator()
        self.records = []
        self.fired = []
        self.now = 0.0

    def live(self):
        return [record for record in self.records if record.state is LIVE]

    def check(self):
        assert self.sim.now == self.now
        assert self.sim.events_processed == len(self.fired)

    def apply(self, op):
        if op[0] == "cancel":
            self.cancel(op[1])
        else:
            self.arm(*op)

    def arm(self, kind, delay, body):
        sim = self.sim
        if kind == "call_soon_call":
            delay = 0.0
        index = len(self.records)
        record = _Record(index, sim.now + delay, kind in POOLED)
        if kind == "schedule":
            handle = sim.schedule(delay, lambda: self.on_fire((index, body)))
        elif kind == "schedule_at":
            handle = sim.schedule_at(sim.now + delay, lambda: self.on_fire((index, body)))
        elif kind == "schedule_call":
            handle = sim.schedule_call(delay, self.on_fire, (index, body))
        else:
            handle = sim.call_soon_call(self.on_fire, (index, body))
        # A handle in use is never handed out twice -- and a pooled event that
        # was cancelled stays out of the free list, because its tombstone may
        # still be queued and would swallow the new occupant.
        for other in self.records:
            if other.state is LIVE or (other.pooled and other.state is CANCELLED):
                assert handle is not other.handle
        record.handle = handle
        self.records.append(record)

    def cancel(self, target):
        if not self.records:
            return
        record = self.records[target % len(self.records)]
        if record.pooled and record.state is FIRED:
            return  # unsupported: the fired event may have been recycled
        assert record.handle.cancel() is (record.state is LIVE)
        if record.state is LIVE:
            record.state = CANCELLED
        assert record.handle.cancelled is (record.state is CANCELLED)

    def on_fire(self, arg):
        index, body = arg
        record = self.records[index]
        assert record is min(self.live(), key=lambda r: (r.time, r.index))
        assert self.sim.now == record.time >= self.now
        self.now = record.time
        record.state = FIRED
        self.fired.append(index)
        for op in body:
            self.apply(op)
        self.check()

    # ----------------------------------------------------------- the drivers

    def step(self):
        """One event: ``run_until`` checks its predicate after every event."""
        count, expected = len(self.fired), bool(self.live())
        assert self.sim.run_until(lambda: len(self.fired) > count) is expected
        assert len(self.fired) == count + expected

    def run(self, span):
        until = self.now + span
        assert self.sim.run(until=until) == until
        self.now = until
        assert all(record.time > until for record in self.live())

    def run_until(self, more, span):
        target, until = len(self.fired) + more, self.now + span
        hit = self.sim.run_until(lambda: len(self.fired) >= target, until=until)
        assert hit is (len(self.fired) == target)  # never one event too many
        if not hit:
            assert all(record.time > until for record in self.live())
            if self.live():  # a drained queue leaves the clock at the last event
                self.now = until

    def drive(self, command):
        getattr(self, command[0])(*command[1:])
        self.check()


_delays = st.sampled_from([0.0, 0.0, 1.0, 2.0, 3.0, 7.0, 300.0, 70_000.0])
_cancels = st.tuples(st.just("cancel"), st.integers(0, 60))


def _ops(depth):
    bodies = _ops(depth - 1) if depth else st.just([])
    arms = st.tuples(st.sampled_from(ARMS), _delays, bodies)
    return st.lists(st.one_of(arms, arms, _cancels), max_size=4)


_drives = st.one_of(
    st.just(("step",)),
    st.tuples(st.just("run"), _delays),
    st.tuples(st.just("run_until"), st.integers(0, 5), _delays))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_ops(3).map(lambda ops: ("ops", ops)), _drives),
                max_size=12))
def test_kernel_follows_the_model(program):
    model = _KernelModel()
    for command in program:
        if command[0] == "ops":
            for op in command[1]:
                model.apply(op)
            model.check()
        else:
            model.drive(command)
    model.sim.run()
    assert not model.live()
    assert model.fired == sorted(model.fired, key=lambda i: (model.records[i].time, i))
    model.check()

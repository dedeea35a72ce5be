"""Tests for the failure detectors (perfect, eventually perfect, heartbeat)."""

import pytest

from repro.failure.detectors import (
    EventuallyPerfectFailureDetector,
    HeartbeatFailureDetector,
    PerfectFailureDetector,
)
from repro.net.network import Network
from repro.sim.process import Process
from repro.sim.scheduler import Simulator


def build(names, seed=0):
    sim = Simulator(seed=seed)
    network = Network(sim)
    procs = {name: network.register(Process(sim, name)) for name in names}
    return sim, network, procs


# --------------------------------------------------------------- perfect FD


def test_perfect_fd_tracks_ground_truth():
    sim, network, procs = build(["a", "b"])
    fd = PerfectFailureDetector(network)
    assert not fd.suspect("a", "b")
    procs["b"].crash()
    assert fd.suspect("a", "b")
    procs["b"].recover()
    assert not fd.suspect("a", "b")


def test_perfect_fd_suspects_unknown_process():
    sim, network, procs = build(["a"])
    fd = PerfectFailureDetector(network)
    assert fd.suspect("a", "ghost")


# ----------------------------------------------------- eventually perfect FD


def test_ep_fd_completeness_after_detection_delay():
    sim, network, procs = build(["a", "b"])
    fd = EventuallyPerfectFailureDetector(network, detection_delay=10.0)
    sim.schedule(5.0, procs["b"].crash)
    sim.run(until=7.0)
    assert not fd.suspect("a", "b")  # crash not yet detectable
    sim.run(until=20.0)
    assert fd.suspect("a", "b")


def test_ep_fd_accuracy_for_up_processes():
    sim, network, procs = build(["a", "b"])
    fd = EventuallyPerfectFailureDetector(network, detection_delay=0.0)
    sim.run(until=100.0)
    assert not fd.suspect("a", "b")
    assert not fd.suspect("b", "a")


def test_ep_fd_false_suspicion_window_is_transient():
    sim, network, procs = build(["a", "b"])
    fd = EventuallyPerfectFailureDetector(network, detection_delay=5.0)
    fd.inject_false_suspicion("a", "b", start=10.0, duration=20.0)
    sim.run(until=15.0)
    assert fd.suspect("a", "b")
    assert not fd.suspect("b", "a")  # only the named observer is fooled
    sim.run(until=40.0)
    assert not fd.suspect("a", "b")  # eventual accuracy


def test_ep_fd_recovery_clears_suspicion():
    sim, network, procs = build(["a", "b"])
    fd = EventuallyPerfectFailureDetector(network, detection_delay=1.0)
    sim.schedule(5.0, procs["b"].crash)
    sim.schedule(50.0, procs["b"].recover)
    sim.run(until=30.0)
    assert fd.suspect("a", "b")
    sim.run(until=60.0)
    assert not fd.suspect("a", "b")


def test_ep_fd_wakes_observers_when_a_suspicion_starts_and_schedules_nothing_else():
    sim, network, procs = build(["a", "b", "c"])
    fd = EventuallyPerfectFailureDetector(network, detection_delay=10.0)
    woken = []
    for observer in ("a", "b"):
        fd.on_suspicion(observer, lambda observer=observer: woken.append((sim.now, observer)))
    fd.inject_false_suspicion("b", "a", start=3.0, duration=4.0)
    sim.schedule(5.0, procs["c"].crash)
    assert sim.pending_events == 2  # the window's start and the crash itself
    sim.run(until=100.0)
    # One event per window (its observer alone) and one per crash (everybody); the
    # slot stays armed until overwritten, and the last armed wake-up is the one called.
    assert woken == [(3.0, "b"), (15.0, "a"), (15.0, "b")]
    assert fd.suspect("a", "c") and sim.pending_events == 0
    fd.on_suspicion("a", lambda: woken.append("rearmed"))
    procs["b"].crash()
    sim.run(until=200.0)
    assert woken[3:] == ["rearmed", (110.0, "b")]


def test_ep_fd_window_injected_mid_run_is_open_when_its_wakeup_fires():
    """``now + (start - now)`` can round an ulp below ``start``: the observer woken
    then must find the window open, or it parks and the suspicion goes unseen."""
    sim, network, procs = build(["a", "b"])
    fd = EventuallyPerfectFailureDetector(network)
    sim.run(until=86.37)
    assert sim.now + (1113.14 - sim.now) < 1113.14
    seen = []
    fd.on_suspicion("a", lambda: seen.append(fd.suspect("a", "b")))
    fd.inject_false_suspicion("a", "b", start=1113.14, duration=10.0)
    sim.run(until=1113.0)
    assert not fd.suspect("a", "b")
    sim.run(until=1120.0)
    assert seen == [True] and fd.suspect("a", "b")
    sim.run(until=1113.14 + 10.0)
    assert not fd.suspect("a", "b")


def test_ep_fd_negative_delay_rejected():
    sim, network, procs = build(["a"])
    with pytest.raises(ValueError):
        EventuallyPerfectFailureDetector(network, detection_delay=-1.0)


# ------------------------------------------------------------- heartbeat FD


def test_heartbeat_fd_no_suspicions_without_failures():
    sim, network, procs = build(["a", "b", "c"])
    fd = HeartbeatFailureDetector(network, ["a", "b", "c"],
                                  heartbeat_interval=5.0, initial_timeout=15.0)
    sim.run(until=200.0)
    for observer in ("a", "b", "c"):
        for target in ("a", "b", "c"):
            if observer != target:
                assert not fd.suspect(observer, target)


def test_heartbeat_fd_detects_crash():
    sim, network, procs = build(["a", "b", "c"])
    fd = HeartbeatFailureDetector(network, ["a", "b", "c"],
                                  heartbeat_interval=5.0, initial_timeout=15.0)
    sim.schedule(50.0, procs["c"].crash)
    sim.run(until=200.0)
    assert fd.suspect("a", "c")
    assert fd.suspect("b", "c")
    assert not fd.suspect("a", "b")


def test_heartbeat_fd_trusts_again_after_recovery_and_adapts_timeout():
    sim, network, procs = build(["a", "b"])
    fd = HeartbeatFailureDetector(network, ["a", "b"],
                                  heartbeat_interval=5.0, initial_timeout=12.0)
    sim.schedule(30.0, procs["b"].crash)
    sim.schedule(80.0, procs["b"].recover)
    sim.schedule(80.1, lambda: fd.reinstall("b"))
    sim.run(until=70.0)
    assert fd.suspect("a", "b")
    sim.run(until=200.0)
    assert not fd.suspect("a", "b")
    # The contradicted suspicion raised the timeout for b.
    assert fd._timeouts["a"]["b"] > 12.0
    assert sim.trace.count("fd_trust", "a", target="b") >= 1


def test_heartbeat_fd_invalid_parameters_rejected():
    sim, network, procs = build(["a", "b"])
    with pytest.raises(ValueError):
        HeartbeatFailureDetector(network, ["a", "b"], heartbeat_interval=0.0)


def heartbeat_group(names=("a", "b", "c"), **parameters):
    sim, network, procs = build(list(names))
    return sim, network, procs, HeartbeatFailureDetector(network, list(names), **parameters)


def suspicions(sim):
    return [(e.time, e.process, e.get("target")) for e in sim.trace.select("fd_suspect")]


def test_heartbeat_fd_suspects_exactly_at_last_heard_plus_timeout_and_never_before():
    sim, network, procs, fd = heartbeat_group(
        heartbeat_interval=5.0, initial_timeout=12.0)
    sim.schedule(31.0, procs["c"].crash)  # its last heartbeat left at 30
    sim.run(until=200.0)
    last_arrival = max(e.time for e in sim.trace.select("msg_deliver", msg_type="Heartbeat")
                       if e.get("sender") == "c")
    assert 30.0 < last_arrival < 31.0 + 12.0
    assert suspicions(sim) == [(last_arrival + 12.0, "a", "c"), (last_arrival + 12.0, "b", "c")]


def test_heartbeat_fd_timeout_grows_by_the_increment_per_false_suspicion():
    sim, network, procs, fd = heartbeat_group(
        names=("a", "b"), heartbeat_interval=5.0, initial_timeout=12.0, timeout_increment=3.0)
    for start in (30.0, 230.0):  # silenced twice, long enough to be suspected
        sim.schedule(start, lambda: network.partition(["a"], ["b"]))
        sim.schedule(start + 50.0, network.heal_partition)
    sim.run(until=400.0)
    assert len(suspicions(sim)) == 4 and not fd.suspect("a", "b") and not fd.suspect("b", "a")
    assert [e.get("new_timeout") for e in sim.trace.select("fd_trust", process="a")] == [15.0, 18.0]
    assert fd._timeouts["a"]["b"] == fd._timeouts["b"]["a"] == 18.0
    # The second suspicion waited for the adapted time-out.
    (first, _, _), _, (second, _, _), _ = suspicions(sim)
    assert second - 230.0 == pytest.approx(first - 30.0 + 3.0, abs=5.0)


def test_heartbeat_fd_idle_cost_is_one_monitor_wakeup_per_timeout_minus_interval():
    """A quiet a3 group at the deployment's 5 / 20 vms: the monitor re-arms at its
    earliest deadline (one wake-up per ``timeout - interval`` = 15 vms), it does not
    poll every 5 (201 wake-ups per observer, 2 520 kernel events, before)."""
    sim, network, procs, fd = heartbeat_group(
        heartbeat_interval=5.0, initial_timeout=20.0, install_on=[])
    wakeups = {name: 0 for name in procs}

    def counting_ticks(process):
        tick = process.tick

        def counted_tick(step):
            if step.__name__ != "watch":  # the heartbeat sender
                return tick(step)

            def counted_watch():
                wakeups[process.name] += 1
                return step()

            return tick(counted_watch)

        return counted_tick

    for name, process in procs.items():
        process.tick = counting_ticks(process)
        fd.reinstall(name)
    sim.run(until=1_000.0)
    assert suspicions(sim) == []
    assert all(60 <= count <= 70 for count in wakeups.values()), wakeups
    assert sim.events_processed <= 2_050


def test_heartbeat_fd_crashed_member_sends_no_heartbeat_while_down():
    sim, network, procs, fd = heartbeat_group(heartbeat_interval=5.0, initial_timeout=12.0)
    sim.schedule(31.0, procs["c"].crash)
    sim.schedule(100.0, procs["c"].recover)
    sim.schedule(100.0, lambda: fd.reinstall("c"))
    sim.run(until=120.0)
    sent = sorted({e.time for e in sim.trace.select("msg_send", "c", msg_type="Heartbeat")})
    assert sent == [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 100.0, 105.0, 110.0, 115.0, 120.0]
    assert network.stats.sent == sim.trace.count("msg_send")  # nothing was refused at a send


def test_heartbeat_fd_observer_suspecting_everybody_holds_no_timer():
    sim, network, procs, fd = heartbeat_group(
        heartbeat_interval=5.0, initial_timeout=12.0)
    sim.schedule(31.0, lambda: network.partition(["a"], ["b", "c"]))
    sim.run(until=100.0)
    assert fd.suspect("a", "b") and fd.suspect("a", "c")
    procs["b"].crash(), procs["c"].crash()  # nothing left to schedule but a's own tickers
    sim.run(until=200.0)
    # a's heartbeat sender alone keeps a timer; its monitor is parked on the trust edge.
    assert sim.pending_events == 1
    network.heal_partition()
    procs["b"].recover()
    fd.reinstall("b")
    sim.run(until=300.0)
    assert not fd.suspect("a", "b") and fd.suspect("a", "c")
    trusted, = sim.trace.select("fd_trust", process="a")
    procs["b"].crash()  # monitoring resumed at the first heartbeat: b is suspected again
    sim.run(until=400.0)
    assert suspicions(sim)[-1][1:] == ("a", "b") and suspicions(sim)[-1][0] > trusted.time

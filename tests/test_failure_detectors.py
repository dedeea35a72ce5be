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
#
# The heartbeat detector watches claim holders only: a member beats while it
# holds a claim, and an observer arms a deadline for it while its cleaner holds
# one of its claims pending.  These tests play both halves of the application
# server by hand: ``hold`` is a won claim, ``follow``/``learned`` a cleaner that
# learned it.


def heartbeat_group(names=("a", "b", "c"), **parameters):
    sim, network, procs = build(list(names))
    return sim, network, procs, HeartbeatFailureDetector(network, list(names), **parameters)


def follow_all(fd):
    """A stand-in cleaner per member: ``observer -> claimant -> key -> participants``."""
    pending = {observer: {peer: {} for peer in fd.members if peer != observer}
               for observer in fd.members}
    for observer, claims in pending.items():
        fd.follow(observer, claims)
    return pending


def hold(fd, pending, claimant, key=None):
    """``claimant`` wins a claim, and every other member's cleaner learns it."""
    key = key or (claimant, 1)
    fd.claimed(claimant, key)
    for observer, claims in pending.items():
        if observer != claimant:
            claims[claimant][key] = ("d1",)
            fd.learned(observer, claimant, key)
    return key


def suspicions(sim):
    return [(e.time, e.process, e.get("target")) for e in sim.trace.select("fd_suspect")]


def heartbeats_sent(sim, process=None):
    return sorted({e.time for e in sim.trace.select("msg_send", process, msg_type="Heartbeat")})


def test_heartbeat_fd_no_suspicions_without_failures():
    sim, network, procs, fd = heartbeat_group(heartbeat_interval=5.0, initial_timeout=15.0)
    pending = follow_all(fd)
    for name in procs:
        hold(fd, pending, name)
    sim.run(until=200.0)
    for observer in ("a", "b", "c"):
        for target in ("a", "b", "c"):
            if observer != target:
                assert not fd.suspect(observer, target)


def test_heartbeat_fd_idle_group_sends_nothing_and_arms_no_timer():
    """Nobody holds a claim: no heartbeat, no timer, whatever the run's length."""
    sim, network, procs, fd = heartbeat_group(heartbeat_interval=5.0, initial_timeout=15.0)
    follow_all(fd)
    assert sim.pending_events == 0
    sim.run(until=10_000.0)
    assert sim.trace.count("msg_send") == 0 and sim.events_processed == 0
    assert suspicions(sim) == []


def test_heartbeat_fd_detects_crash():
    """Of a claim holder; a crashed member that holds nothing goes unwatched."""
    sim, network, procs, fd = heartbeat_group(heartbeat_interval=5.0, initial_timeout=15.0)
    hold(fd, follow_all(fd), "c")
    sim.schedule(50.0, procs["c"].crash)
    sim.schedule(50.0, procs["b"].crash)  # holds nothing: nobody needs to notice
    sim.run(until=200.0)
    assert fd.suspect("a", "c")
    assert not fd.suspect("a", "b")
    assert {target for _, _, target in suspicions(sim)} == {"c"}


def test_heartbeat_fd_trusts_again_after_recovery_and_adapts_timeout():
    sim, network, procs, fd = heartbeat_group(
        names=("a", "b"), heartbeat_interval=5.0, initial_timeout=12.0)
    pending = follow_all(fd)
    key = hold(fd, pending, "b")
    sim.schedule(30.0, procs["b"].crash)
    sim.schedule(80.0, procs["b"].recover)
    sim.schedule(80.1, lambda: fd.reinstall("b"))
    sim.schedule(80.2, lambda: fd.claimed("b", key))  # the recovered b takes its claim up again
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


def test_heartbeat_fd_suspects_exactly_at_last_heard_plus_timeout_and_never_before():
    sim, network, procs, fd = heartbeat_group(
        heartbeat_interval=5.0, initial_timeout=12.0)
    hold(fd, follow_all(fd), "c")
    sim.schedule(31.0, procs["c"].crash)  # its last heartbeat left at 30
    sim.run(until=200.0)
    last_arrival = max(e.time for e in sim.trace.select("msg_deliver", msg_type="Heartbeat")
                       if e.get("sender") == "c")
    assert 30.0 < last_arrival < 31.0 + 12.0
    assert suspicions(sim) == [(last_arrival + 12.0, "a", "c"), (last_arrival + 12.0, "b", "c")]


def test_heartbeat_fd_timeout_grows_by_the_increment_per_false_suspicion():
    sim, network, procs, fd = heartbeat_group(
        names=("a", "b"), heartbeat_interval=5.0, initial_timeout=12.0, timeout_increment=3.0)
    pending = follow_all(fd)
    hold(fd, pending, "a"), hold(fd, pending, "b")
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
    """Everybody holds a claim (the busiest a watch gets; idle, nothing runs at all),
    at the deployment's 5 / 20 vms: the monitor re-arms at its earliest deadline (one wake-up per ``timeout - interval`` = 15 vms), it does
    not poll every 5 (201 wake-ups per observer, 2 520 kernel events, before)."""
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
    pending = follow_all(fd)
    for name in procs:
        hold(fd, pending, name)
    sim.run(until=1_000.0)
    assert suspicions(sim) == []
    assert all(60 <= count <= 70 for count in wakeups.values()), wakeups
    assert sim.events_processed <= 2_050


def test_heartbeat_fd_beats_while_holding_a_claim_and_announces_its_terminations():
    """Beats start at the claim, follow the install-time grid, carry the keys terminated
    since the previous beat, and stop with the beat that empties the claim set."""
    sim, network, procs, fd = heartbeat_group(heartbeat_interval=5.0, initial_timeout=12.0)
    pending = follow_all(fd)
    heard, handler = [], procs["a"]._handlers["Heartbeat"]
    procs["a"]._handlers["Heartbeat"] = lambda m: (heard.append(m["done"]), handler(m))
    sim.run(until=17.5)
    first = hold(fd, pending, "c", ("c1", 1))
    sim.schedule(21.0 - 17.5, lambda: hold(fd, pending, "c", ("c2", 1)))
    sim.schedule(22.0 - 17.5, lambda: fd.terminated("c", first))
    sim.schedule(31.0 - 17.5, lambda: fd.terminated("c", ("c2", 1)))
    sim.run(until=200.0)
    assert heartbeats_sent(sim, "c") == [17.5, 20.0, 25.0, 30.0, 35.0]
    assert heard == [(), (), (("c1", 1),), (), (("c2", 1),)]
    assert pending["a"]["c"] == pending["b"]["c"] == {}
    assert suspicions(sim) == [] and sim.pending_events == 0


def test_heartbeat_fd_a_done_notice_ahead_of_its_claim_leaves_a_tombstone():
    """``c`` claims, terminates and announces it before ``a``'s cleaner learns the
    claim: the tombstone drops the claim as it is filed, and ``a`` never watches
    ``c`` for it -- while ``b``, which learned the claim in time, was never at risk."""
    sim, network, procs, fd = heartbeat_group(heartbeat_interval=5.0, initial_timeout=12.0)
    pending = follow_all(fd)
    key = ("c1", 1)
    fd.claimed("c", key)
    pending["b"]["c"][key] = ("d1",)
    fd.learned("b", "c", key)
    sim.schedule(3.0, lambda: fd.terminated("c", key))
    sim.run(until=50.0)  # the beat at 5 carried the termination, and was the last
    assert heartbeats_sent(sim, "c") == [0.0, 5.0]
    assert pending["b"]["c"] == {} and fd._members["a"].tombstones == {"c1": key}
    pending["a"]["c"][key] = ("d1",)  # a's cleaner learns the claim late
    fd.learned("a", "c", key)
    assert pending["a"]["c"] == {} and fd._members["a"].tombstones == {}
    sim.run(until=500.0)
    assert suspicions(sim) == [] and sim.pending_events == 0


def test_heartbeat_fd_crashed_member_sends_no_heartbeat_while_down():
    sim, network, procs, fd = heartbeat_group(heartbeat_interval=5.0, initial_timeout=12.0)
    pending = follow_all(fd)
    key = hold(fd, pending, "c")
    sim.schedule(31.0, procs["c"].crash)
    sim.schedule(100.0, procs["c"].recover)
    sim.schedule(100.0, lambda: fd.reinstall("c"))
    sim.schedule(100.0, lambda: fd.claimed("c", key))
    sim.run(until=120.0)
    sent = heartbeats_sent(sim, "c")
    assert sent == [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 100.0, 105.0, 110.0, 115.0, 120.0]
    assert network.stats.sent == sim.trace.count("msg_send")  # nothing was refused at a send


def test_heartbeat_fd_observer_suspecting_everybody_holds_no_timer():
    sim, network, procs, fd = heartbeat_group(
        heartbeat_interval=5.0, initial_timeout=12.0)
    pending = follow_all(fd)
    b_key = hold(fd, pending, "b")
    hold(fd, pending, "c")
    sim.schedule(31.0, lambda: network.partition(["a"], ["b", "c"]))
    sim.run(until=100.0)
    assert fd.suspect("a", "b") and fd.suspect("a", "c")
    procs["b"].crash(), procs["c"].crash()
    sim.run(until=200.0)
    # a holds no claim, so it sends nothing; its monitor is parked on the trust edge.
    assert sim.pending_events == 0
    network.heal_partition()
    procs["b"].recover()
    fd.reinstall("b")
    fd.claimed("b", b_key)
    sim.run(until=300.0)
    assert not fd.suspect("a", "b") and fd.suspect("a", "c")
    trusted, = sim.trace.select("fd_trust", process="a")
    procs["b"].crash()  # monitoring resumed at the first heartbeat: b is suspected again
    sim.run(until=400.0)
    assert suspicions(sim)[-1][1:] == ("a", "b") and suspicions(sim)[-1][0] > trusted.time


def test_heartbeat_fd_drops_the_suspicion_of_a_peer_whose_claims_are_cleaned():
    """A suspicion outlives no pending claim: once ``a``'s cleaner has cleaned every
    claim of the crashed ``c``, ``a`` trusts ``c`` again, time-out unchanged, and
    holds no timer for it."""
    sim, network, procs, fd = heartbeat_group(heartbeat_interval=5.0, initial_timeout=12.0)
    pending = follow_all(fd)
    key = hold(fd, pending, "c")
    sim.schedule(31.0, procs["c"].crash)
    sim.run(until=100.0)
    assert fd.suspect("a", "c")
    del pending["a"]["c"][key]
    fd.cleaned("a", "c")
    assert not fd.suspect("a", "c") and fd.suspect("b", "c")
    trust, = sim.trace.select("fd_trust", process="a")
    assert trust.data == {"target": "c", "new_timeout": 12.0} and trust.time == 100.0
    sim.run(until=1_000.0)
    assert not fd.suspect("a", "c") and sim.pending_events == 0

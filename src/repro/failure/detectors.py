"""Failure detectors.

The paper uses three distinct failure-detection schemes (Section 5):

1. Among application servers, an *eventually perfect* failure detector in the
   sense of Chandra and Toueg: completeness (a crashed server is eventually
   suspected by every server) and eventual accuracy (there is a time after
   which no correct server is suspected).  Suspicions may be wrong for a
   while without breaking safety.
2. Application servers learn about database crashes/recoveries through broken
   connections and the ``Ready`` notification the database sends when it comes
   back up -- this is part of the database protocol itself, not of this module.
3. Clients use plain time-outs to decide when to re-send a request to all
   application servers -- implemented inside the client protocol.

This module provides scheme (1) in two flavours:

* :class:`EventuallyPerfectFailureDetector` -- an *oracle* detector that reads
  the ground-truth ``up`` flag of processes.  It suspects a crashed process
  only after a configurable detection delay and can be told to emit transient
  *false suspicions*, which is how the experiments exercise the "unreliable
  failure detection" behaviour of the protocol.
* :class:`HeartbeatFailureDetector` -- a genuine message-based implementation:
  monitored processes periodically send heartbeats; an observer suspects a
  peer at the instant its heartbeat is overdue (one timer at its earliest
  deadline, no polling) and increases that peer's time-out whenever a
  suspicion turns out to be false (the classic adaptive ◇P construction).

:class:`PerfectFailureDetector` (immediate, never wrong) is used by the
primary-backup baseline, which -- as the paper notes -- *requires* perfect
failure detection for correctness.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterable, Optional

from repro.net.message import STR, Message, declare_message
from repro.net.network import Network
from repro.sim.process import Process


class FailureDetector:
    """Interface: ``suspect(observer, target)`` as in the paper's predicate."""

    def suspect(self, observer: str, target: str) -> bool:
        """Whether ``observer`` currently suspects ``target`` to have crashed."""
        raise NotImplementedError

    def on_suspicion(self, observer: str, wake: Callable[[], None]) -> None:
        """Arm ``wake()`` for when ``observer`` starts suspecting someone: one slot per
        observer; it may fire spuriously (ask :meth:`suspect` again), never fail to fire."""
        self._wakes[observer] = wake

    def _wake(self, *observers: str) -> None:
        for name in observers or list(self._wakes):  # nobody named: everybody
            if name in self._wakes:
                self._wakes[name]()


class PerfectFailureDetector(FailureDetector):
    """Oracle detector: suspects exactly the processes that are down right now."""

    def __init__(self, network: Network):
        self.network = network

    def suspect(self, observer: str, target: str) -> bool:
        process = self.network.processes.get(target)
        return process is None or not process.up


class EventuallyPerfectFailureDetector(FailureDetector):
    """Oracle-based eventually-perfect (◇P) detector with injectable mistakes.

    Completeness: a crashed process is suspected ``detection_delay`` after the
    crash.  Accuracy: an up process is only suspected during explicitly
    injected false-suspicion windows, which are finite, so there is a time
    after which no correct process is suspected.
    """

    def __init__(self, network: Network, detection_delay: float = 5.0):
        if detection_delay < 0:
            raise ValueError("detection_delay must be non-negative")
        self.network = network
        self.sim = network.sim
        self.detection_delay = detection_delay
        self._crash_times: dict[str, float] = {}
        self._recover_times: dict[str, float] = {}
        # (observer, target) -> list of (start, end) false-suspicion windows
        self._false_windows: dict[tuple[str, str], list[tuple[str, float, float]]] = {}
        self._wakes: dict[str, Callable[[], None]] = {}
        self._hook_processes()

    def _hook_processes(self) -> None:
        for process in self.network.processes.values():
            self._instrument(process)

    def _instrument(self, process: Process) -> None:
        detector = self
        original_crash = process.crash
        original_recover = process.recover

        def crash_hook() -> None:
            was_up = process.up
            original_crash()
            if was_up:
                detector._crash_times[process.name] = detector.sim.now
                detector.sim.schedule(detector.detection_delay, detector._wake)

        def recover_hook() -> None:
            was_down = not process.up
            original_recover()
            if was_down:
                detector._recover_times[process.name] = detector.sim.now

        process.crash = crash_hook  # type: ignore[method-assign]
        process.recover = recover_hook  # type: ignore[method-assign]

    def inject_false_suspicion(self, observer: str, target: str, start: float,
                               duration: float) -> None:
        """Make ``observer`` wrongly suspect ``target`` during ``[start, start+duration)``."""
        key, delay = (observer, target), max(0.0, start - self.sim.now)
        # Opens as its wake-up fires: the kernel's ``now + delay`` may be an ulp below ``start``.
        opens = min(start, self.sim.now + delay)
        self._false_windows.setdefault(key, []).append((target, opens, start + duration))
        self.sim.schedule(delay, partial(self._wake, observer))

    def suspect(self, observer: str, target: str) -> bool:
        now = self.sim.now
        process = self.network.processes.get(target)
        if process is None:
            return True
        if not process.up:
            crash_time = self._crash_times.get(target, 0.0)
            return now >= crash_time + self.detection_delay
        for _, start, end in self._false_windows.get((observer, target), []):
            if start <= now < end:
                return True
        return False


class HeartbeatFailureDetector(FailureDetector):
    """Message-based adaptive ◇P detector.

    Every monitored process broadcasts a ``Heartbeat`` to its peers every
    ``heartbeat_interval``; every observer records arrivals in a message
    handler, and a monitor step suspects whoever is overdue, then arms one
    timer at the earliest ``last heartbeat + time-out`` among the peers it
    still trusts -- no timer at all while it suspects everybody.  Both run as
    :meth:`~repro.sim.process.Process.tick` tickers.  A heartbeat that
    contradicts a suspicion raises the time-out by ``timeout_increment``
    (eventual accuracy under bounded but unknown message delay) and pokes the
    monitor for the deadline its timer does not cover.
    """

    HEARTBEAT = "Heartbeat"
    declare_message(HEARTBEAT, origin=STR)

    def __init__(self, network: Network, members: Iterable[str],
                 heartbeat_interval: float = 5.0, initial_timeout: float = 15.0,
                 timeout_increment: float = 5.0, install_on: Optional[Iterable[str]] = None):
        if heartbeat_interval <= 0 or initial_timeout <= 0:
            raise ValueError("intervals must be positive")
        self.network = network
        self.sim = network.sim
        self.members = list(members)
        # The detector runs only on locally hosted members (all of them by
        # default); a distributed deployment passes its local subset, the
        # remote members run their own detector in their own OS process.
        self.install_on = list(install_on) if install_on is not None else self.members
        self.heartbeat_interval = heartbeat_interval
        self.initial_timeout = initial_timeout
        self.timeout_increment = timeout_increment
        # observer -> target -> current timeout
        self._timeouts: dict[str, dict[str, float]] = {}
        # observer -> set of currently suspected targets
        self._suspected: dict[str, set[str]] = {}
        self._wakes: dict[str, Callable[[], None]] = {}
        for name in self.members:
            self._timeouts[name] = {peer: initial_timeout for peer in self.members if peer != name}
            self._suspected[name] = set()
        for name in self.install_on:
            self.reinstall(name)

    # ------------------------------------------------------------------ setup

    def reinstall(self, name: str) -> None:
        """(Re-)install the detector on ``name``: at start, and after a recovery.  Every
        peer's clock starts now -- nobody is overdue for what ``name`` missed while down."""
        process, sim = self.network.processes[name], self.sim
        suspected, timeouts = self._suspected[name], self._timeouts[name]
        last_heard = dict.fromkeys(timeouts, sim.now)  # target -> last heartbeat time

        def heard(message: Message) -> None:
            origin = message.sender
            last_heard[origin] = sim.now
            if origin in suspected:
                # False suspicion detected: trust again and adapt the timeout.
                suspected.discard(origin)
                timeouts[origin] += self.timeout_increment
                sim.trace.record("fd_trust", name, target=origin, new_timeout=timeouts[origin])
                monitor.poke()  # a deadline its timer does not cover

        def beat() -> float:
            for peer in peers:
                process.send(peer, Message(self.HEARTBEAT, payload={"origin": name}))
            return self.heartbeat_interval

        def watch() -> Optional[float]:
            now, deadline, before = sim.now, None, len(suspected)
            for peer, timeout in timeouts.items():
                due = last_heard[peer] + timeout  # one expression: the test and the deadline
                if peer not in suspected and now >= due:
                    suspected.add(peer)
                    sim.trace.record("fd_suspect", name, target=peer)
                if peer not in suspected and (deadline is None or due < deadline):
                    deadline = due  # the earliest among the peers still trusted
            if len(suspected) > before:
                self._wake(name)
            # Heartbeats move ``last_heard`` alone; a trust edge pokes this ticker.
            return deadline - now if deadline is not None else None

        process.on_message(self.HEARTBEAT, heard)
        peers = [peer for peer in self.members if peer != name]
        process.tick(beat)
        monitor = process.tick(watch)

    # ------------------------------------------------------------------ query

    def suspect(self, observer: str, target: str) -> bool:
        return target in self._suspected.get(observer, ())

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
* :class:`HeartbeatFailureDetector` -- a genuine message-based implementation
  that is *quiescent*: only a server holding an unterminated claim beats, and
  an observer watches a peer only while its cleaner holds a claim of that peer
  pending.  It suspects a watched peer at the instant its heartbeat is overdue
  (one timer at the earliest deadline, no polling) and raises that peer's
  time-out whenever a suspicion turns out to be false (the classic adaptive ◇P
  construction).

Why watching claim holders only is enough.  The application server asks its
detector one question, in one place: the cleaning thread (Figure 6) terminates
the pending claims of a server it suspects.  A suspicion of a server of which
the observer holds no pending claim changes nothing, so it is needed neither
for completeness nor in the way of accuracy.  Against that question the
heartbeat detector is ◇P:

* *Completeness.*  A server beats while it holds a claim, and the beat that
  empties its claim set is its last, carrying the keys it terminated since the
  previous one (``done``).  A claim leaves an observer's pending set only
  through such a notice or by the observer cleaning it itself.  So a claim
  holder that crashes stops beating with a claim left pending at every
  observer that learned it, and each of those has a deadline armed for it --
  at its last beat plus the time-out, or, for a claim learned after that, at
  the moment the claim was learned plus the time-out -- and suspects it then.
* *Accuracy.*  A deadline counts from the later of the peer's last beat and
  the moment the observer learned its first pending claim, so a server is
  never suspected for the silence before it claimed.  Beyond that the
  adaptive time-out does the classic work: each false suspicion, contradicted
  by a beat, raises it, so under eventually bounded delays a live claim holder
  is eventually never suspected.  A suspicion also ends when the observer has
  cleaned every pending claim of its target: it no longer matters to the
  cleaner, and the target's next fresh claim is not aborted on sight.  (A
  ``done`` notice lost, or heard before its claim was learned and its one
  tombstone per client overwritten, costs one needless suspicion and a
  harmless re-termination, never safety.)

Chen, Toueg and Aguilera (IEEE TC 2002) quantify a heartbeat detector by its
detection time against its message rate.  This one keeps the all-to-all
detector's detection time for the servers that matter -- a claim holder beats
on the grid it would have beaten on anyway, so its crash is suspected at the
same instant (up to one interval later if it won its first claim after its
last grid beat, whose place its at-once beat takes) -- and spends no message
at all on a server that holds nothing, which in a primary-backup deployment
is every backup and the idle primary.

:class:`PerfectFailureDetector` (immediate, never wrong) is used by the
primary-backup baseline, which -- as the paper notes -- *requires* perfect
failure detection for correctness.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Iterable, Optional

from repro.net.message import IDS, STR, Message, declare_message
from repro.net.network import Network


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

    def reinstall(self, name: str) -> None:
        """Install the detector again on ``name``, which has just recovered."""

    #: Whether the detector watches only the servers that hold a claim.  Then
    #: each application server reports the claims it wins and terminates
    #: (:meth:`claimed`, :meth:`terminated`), and its cleaner files every claim
    #: as it is learned (:meth:`follow`, :meth:`learned`, :meth:`cleaned`).
    #: An oracle needs none of it.
    watches_claims = False

    def claimed(self, server: str, key: Any) -> None:
        """``server`` won the claim on ``key``: its ``regA`` write returned its own entry."""
        raise NotImplementedError

    def terminated(self, server: str, key: Any) -> None:
        """``server`` terminated ``key``, a claim of its own or one it cleaned."""
        raise NotImplementedError

    def follow(self, observer: str, pending: dict[str, dict[Any, Any]]) -> None:
        """``observer``'s cleaner files the claims it learns in ``pending`` (claimant ->
        key -> participants); the detector removes a claim whose claimant announced
        its termination."""
        raise NotImplementedError

    def learned(self, observer: str, claimant: str, key: Any) -> None:
        """``observer``'s cleaner has just filed ``claimant``'s claim on ``key``."""
        raise NotImplementedError

    def cleaned(self, observer: str, target: str) -> None:
        """``observer`` suspects ``target`` and has cleaned every pending claim of it."""
        raise NotImplementedError


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
        # (observer, target) -> list of (start, end) false-suspicion windows
        self._false_windows: dict[tuple[str, str], list[tuple[str, float, float]]] = {}
        self._wakes: dict[str, Callable[[], None]] = {}
        self.sim.trace.subscribe("crash", self._on_crash)

    def _on_crash(self, event: Any) -> None:
        """A process crashed: suspect it ``detection_delay`` from now."""
        self._crash_times[event.process] = event.time
        self.sim.schedule(self.detection_delay, self._wake)

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
    """Message-based adaptive ◇P detector that watches claim holders only.

    A member beats its peers every ``heartbeat_interval`` while it holds an
    unterminated claim (:meth:`claimed` to :meth:`terminated`); each beat
    carries ``done``, the keys it terminated since its previous beat, and the
    beat that empties its claim set is its last.  An observer keeps one timer,
    armed at the earliest ``last heard + time-out`` among the trusted peers
    whose claims its cleaner holds pending (:meth:`follow`, :meth:`learned`);
    when it fires, whoever is overdue is suspected.  A beat that contradicts a
    suspicion raises the time-out by ``timeout_increment`` (eventual accuracy
    under bounded but unknown message delay); an observer that has cleaned
    every pending claim of a suspect drops the suspicion (:meth:`cleaned`).
    Sender and monitor are :meth:`~repro.sim.process.Process.tick` tickers,
    parked while there is nothing to send or to watch.
    """

    HEARTBEAT = "Heartbeat"
    declare_message(HEARTBEAT, origin=STR, done=IDS)
    watches_claims = True

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
        self._members: dict[str, _Member] = {}  # installed member -> its state
        for name in self.members:
            self._timeouts[name] = {peer: initial_timeout for peer in self.members if peer != name}
            self._suspected[name] = set()
        for name in self.install_on:
            self.reinstall(name)

    def reinstall(self, name: str) -> None:
        """(Re-)install the detector on ``name``: at start, and as it recovers.  It holds
        no claim and suspects nobody; every peer's clock starts now, so nobody is
        overdue for what ``name`` missed while down."""
        member = _Member(self, name)
        member.process.on_message(self.HEARTBEAT, member.heard)  # refused if installed
        self._suspected[name].clear()
        self._members[name] = member
        member.sender = member.process.tick(member.beat)
        member.monitor = member.process.tick(member.watch)

    # ------------------------------------------------------------ claimant

    def claimed(self, server: str, key: Any) -> None:
        member = self._members[server]
        member.held.add(key)
        if not member.beating:
            member.sender.poke()  # beat at once, then every interval

    def terminated(self, server: str, key: Any) -> None:
        member = self._members[server]
        if key in member.held:
            member.held.remove(key)
            member.done.append(key)  # announced by the next beat

    # ------------------------------------------------------------ observer

    def follow(self, observer: str, pending: dict[str, dict[Any, Any]]) -> None:
        self._members[observer].pending = pending

    def learned(self, observer: str, claimant: str, key: Any) -> None:
        member = self._members[observer]
        claims = member.pending[claimant]
        tombstones = member.tombstones
        if tombstones.get(key[0]) == key:  # its done notice came first
            del tombstones[key[0]], claims[key]
        elif len(claims) == 1 and claimant not in member.suspected:
            # Watched from now: not overdue for the silence before it claimed.
            if member.last_heard[claimant] < self.sim.now:
                member.last_heard[claimant] = self.sim.now
            member.monitor.poke()

    def cleaned(self, observer: str, target: str) -> None:
        suspected = self._suspected[observer]
        if target in suspected:
            suspected.remove(target)
            self.sim.trace.record("fd_trust", observer, target=target,
                                  new_timeout=self._timeouts[observer][target])

    # --------------------------------------------------------------- query

    def suspect(self, observer: str, target: str) -> bool:
        return target in self._suspected.get(observer, ())


class _Member:
    """The heartbeat detector as installed on one member: the claims it holds
    and its sender (claimant side); the pending claims its cleaner follows,
    when it last heard each peer and its monitor (observer side).  Volatile:
    :meth:`HeartbeatFailureDetector.reinstall` builds a fresh one."""

    __slots__ = ("detector", "name", "process", "sim", "peers", "held", "done", "beating",
                 "installed", "sender", "pending", "tombstones", "last_heard", "suspected", "timeouts",
                 "monitor")

    def __init__(self, detector: HeartbeatFailureDetector, name: str):
        self.detector, self.name = detector, name
        self.process = detector.network.processes[name]
        self.sim = detector.sim
        self.peers = [peer for peer in detector.members if peer != name]
        self.held: set[Any] = set()  # claims won and not yet terminated
        self.done: list[Any] = []  # terminated since the previous beat
        self.beating = False  # the sender's timer is armed on the grid
        self.installed = self.sim.now  # the grid's origin
        self.sender: Any = None
        self.pending: Optional[dict[str, dict[Any, Any]]] = None  # the cleaner's, once it follows
        # client -> the key of a done notice ahead of its claim.  One per client:
        # a lost tombstone costs one needless suspicion at most, never safety.
        self.tombstones: dict[Any, Any] = {}
        self.timeouts = detector._timeouts[name]
        self.suspected = detector._suspected[name]
        self.last_heard = dict.fromkeys(self.timeouts, self.sim.now)
        self.monitor: Any = None

    def beat(self) -> Optional[float]:
        held, done, interval = self.held, self.done, self.detector.heartbeat_interval
        if held or done:
            self.process.multicast(self.peers, Message(
                HeartbeatFailureDetector.HEARTBEAT,
                payload={"origin": self.name, "done": tuple(done)}))
            done.clear()
        if not held:
            self.beating = False
            return None
        if self.beating:
            return interval
        # Poked by a first claim: back onto the install-time grid, where a member
        # that beat all the time would beat, so a crash is detected as early.
        self.beating = True
        return interval - (self.sim.now - self.installed) % interval

    def heard(self, message: Message) -> None:
        origin = message.sender
        self.last_heard[origin] = self.sim.now
        done, pending = message["done"], self.pending
        if done and pending is not None:
            claims, tombstones = pending[origin], self.tombstones
            for key in done:
                if claims.pop(key, None) is None:
                    tombstones[key[0]] = key
        if origin in self.suspected:
            # False suspicion detected: trust again and adapt the timeout.
            self.suspected.remove(origin)
            timeouts = self.timeouts
            timeouts[origin] += self.detector.timeout_increment
            self.sim.trace.record("fd_trust", self.name, target=origin,
                                  new_timeout=timeouts[origin])
            self.monitor.poke()  # a deadline its timer does not cover

    def watch(self) -> Optional[float]:
        pending = self.pending
        if pending is None:
            return None
        now, deadline, suspected = self.sim.now, None, self.suspected
        before, last_heard = len(suspected), self.last_heard
        for peer, timeout in self.timeouts.items():
            if peer in suspected or not pending[peer]:
                continue  # nothing of its to clean: no opinion needed
            due = last_heard[peer] + timeout  # one expression: the test and the deadline
            if now >= due:
                suspected.add(peer)
                self.sim.trace.record("fd_suspect", self.name, target=peer)
            elif deadline is None or due < deadline:
                deadline = due  # the earliest among the peers still watched
        if len(suspected) > before:
            self.detector._wake(self.name)
        # Beats move ``last_heard`` alone; a new watch or a trust edge pokes this ticker.
        return deadline - now if deadline is not None else None

"""Discrete-event simulator: virtual clock and a timer-wheel event queue.

The simulator is the root object of every run.  It owns:

* the virtual clock (``now``),
* a hierarchical timer wheel of scheduled callbacks (:mod:`repro.sim.wheel`),
* the trace recorder shared by all components,
* a deterministic random-number source partitioned into named streams.

Events scheduled at the same timestamp fire in FIFO order of scheduling,
which makes every run fully deterministic for a given seed and fault
schedule.  Dispatch is batched: the kernel drains one 256-tick wheel
window at a time into a sorted *ready run* and fires it in a tight loop --
the cross-event bookkeeping a heap pays per pop (sift, horizon compare,
clock store) is paid once per window and once per timestamp change
instead.  A callback that schedules more work inside the drained window
merges into the running batch at exactly the FIFO position a
``(time, seq)`` heap would have given it.

The previous binary-heap kernel is preserved verbatim in
:mod:`repro.sim.legacy`; ``tests/test_trace_equivalence.py`` holds the two
kernels to byte-identical traces per seed.
"""

from __future__ import annotations

from bisect import insort
from operator import attrgetter
from typing import Callable, Optional

from repro.runtime.base import Kernel, stream_seed  # noqa: F401  (re-exported)
from repro.sim.errors import InvalidScheduling, SimulationLimitExceeded
from repro.sim.tracing import TraceRecorder
from repro.sim.wheel import DRAINED, L0_MASK, L0_SLOTS, TimerWheel

_TIME_KEY = attrgetter("time")

_NO_ARG = object()
"""Sentinel in :attr:`ScheduledEvent.arg` marking a plain zero-argument
callback.  Events carrying a real argument come from :meth:`Simulator.
schedule_call`, fire as ``callback(arg)``, and are recycled through the
kernel's free list after dispatch."""

_EVENT_POOL_MAX = 512
"""Free-list depth: enough to cover the in-flight message population of a
busy run without pinning an unbounded pile of dead handles."""


class ScheduledEvent:
    """Handle to a scheduled callback; supports cancellation.

    Instances are returned by :meth:`Simulator.schedule` and order by
    ``(time, seq)``, the stable priority that fixes FIFO-within-timestamp
    dispatch.  ``_slots``/``_pos`` record where the event currently lives (a
    wheel bucket, the far-future heap, or the ready run) so :meth:`cancel`
    can remove it in O(1).
    """

    __slots__ = ("time", "seq", "callback", "name", "cancelled", "arg",
                 "_sim", "_slots", "_pos")

    def __init__(self, time: float, seq: int, callback: Callable[[], None], name: str):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.name = name
        self.cancelled = False
        self.arg = _NO_ARG

    def cancel(self) -> bool:
        """Prevent the callback from firing.

        Returns ``True`` if the event was live and is now cancelled.
        Cancelling an event that already fired -- or cancelling twice -- is a
        documented no-op returning ``False``: the kernel clears ``callback``
        the moment an event is dispatched, so a stale handle (e.g. an ack
        racing the retransmit timer it is trying to stop) can always be
        cancelled safely without perturbing anything that already happened.
        """
        if self.callback is None:
            return False
        self.callback = None
        self.cancelled = True
        sim = self._sim
        sim._cancelled += 1
        slots = self._slots
        if slots.__class__ is list:
            # True removal from a wheel bucket: no tombstone survives.
            slots[self._pos] = None
            self._slots = DRAINED
        elif slots is None:
            sim._wheel.note_far_cancel()
        # else DRAINED: the dispatch loop skips the flagged event.
        return True

    def __lt__(self, other: "ScheduledEvent") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.cancelled:
            state = "cancelled"
        elif self.callback is None:
            state = "fired"
        else:
            state = "pending"
        return f"<ScheduledEvent {self.name!r} at {self.time:.3f} ({state})>"


class Simulator(Kernel):
    """Deterministic discrete-event simulator with virtual time.

    This is the ``sim`` implementation of the :class:`~repro.runtime.base.Kernel`
    seam; :class:`repro.runtime.loop.AsyncioKernel` is the wall-clock one.

    Parameters
    ----------
    seed:
        Seed for the deterministic random source.  Every component obtains its
        own :class:`random.Random` stream via :meth:`rng`, so adding a new
        component does not perturb the draws seen by existing ones.
    trace:
        Optional externally-created :class:`TraceRecorder`; a fresh one is
        created when omitted.
    """

    def __init__(self, seed: int = 0, trace: Optional[TraceRecorder] = None):
        self.now: float = 0.0
        self._init_kernel(seed, trace, lambda: self.now)
        self._wheel = TimerWheel()
        self._seq = 0
        self._events_processed = 0
        self._cancelled = 0
        # The ready run: the drained current window, sorted by (time, seq).
        # _ready_idx is the dispatch cursor (kept on the instance so a run
        # can stop mid-window -- predicate hit, horizon, exception -- and a
        # later call resumes exactly where it left off); _ready_tick (the
        # drained window's last tick) routes schedules landing inside the
        # window into the run instead of the wheel.
        self._ready: list[ScheduledEvent] = []
        self._ready_idx = 0
        self._ready_tick = -1
        # Free list of fired argument-carrying events (see schedule_call):
        # the per-message ScheduledEvent allocation of the network's
        # delivery path is recycled across fire cycles.
        self._event_pool: list[ScheduledEvent] = []

    # ------------------------------------------------------------ scheduling

    def schedule(self, delay: float, callback: Callable[[], None], name: str = "event") -> ScheduledEvent:
        """Schedule ``callback`` to run ``delay`` time units from now.

        Returns a :class:`ScheduledEvent` handle that can be cancelled.
        """
        if delay < 0:
            raise InvalidScheduling(f"negative delay {delay!r} for event {name!r}")
        time = self.now + delay
        event = ScheduledEvent(time, self._seq, callback, name)
        self._seq += 1
        event._sim = self
        wheel = self._wheel
        tick = int(time)
        # _ready_tick (last drained tick) is always wheel._base - 1, so one
        # offset classifies the event: negative = inside the drained window
        # (merge into the ready run), < L0_SLOTS = current window (inlined L0
        # fast path, the overwhelmingly common case: timers a few virtual ms
        # out), otherwise the slow insert.
        offset = tick - wheel._base
        if offset < L0_SLOTS:
            if offset >= 0:
                bucket = wheel._l0[tick & L0_MASK]
                event._slots = bucket
                event._pos = len(bucket)
                bucket.append(event)
                wheel._n0 += 1
            else:
                # A fresh event's seq exceeds everything already in the ready
                # run, so position is decided by ``time`` alone (a right-
                # bisect lands after equal times -- exactly FIFO) and it
                # usually belongs at the end (the call_soon pattern).  ``lo``
                # is pinned past the consumed prefix: a cancelled-and-skipped
                # entry may carry a *later* timestamp than a fresh insert,
                # and anything placed before the cursor would never fire.
                ready = self._ready
                event._slots = DRAINED
                idx = self._ready_idx
                if idx > 1024 and idx + idx >= len(ready):
                    # Drop the consumed prefix (amortised O(1): only when it
                    # is most of the list) so an unbounded same-window chain
                    # -- the call_soon pattern -- does not pin every fired
                    # event in memory until the window drains.
                    del ready[:idx]
                    self._ready_idx = 0
                if not ready or ready[-1].time <= time:
                    ready.append(event)
                else:
                    insort(ready, event, lo=self._ready_idx, key=_TIME_KEY)
        else:
            wheel.insert(event, tick)
        return event

    def schedule_call(self, delay: float, callback: Callable, arg,
                      name: str = "event") -> ScheduledEvent:
        """Schedule ``callback(arg)`` to run ``delay`` time units from now.

        The argument-carrying form of :meth:`schedule`, built for the
        network's delivery path: it kills the per-message ``partial``
        allocation, and the event object itself is drawn from (and, after
        firing, returned to) a free list.  Because fired events are
        recycled, the returned handle must not be *retained* -- cancelling
        it before it fires is fine, but a cancel after the fire could hit a
        recycled, live event instead of the documented no-op.  Callers that
        keep handles around (timers, retransmits) must use :meth:`schedule`.
        """
        if delay < 0:
            raise InvalidScheduling(f"negative delay {delay!r} for event {name!r}")
        time = self.now + delay
        pool = self._event_pool
        if pool:
            event = pool.pop()
            event.time = time
            event.seq = self._seq
            event.callback = callback
            event.name = name
        else:
            event = ScheduledEvent(time, self._seq, callback, name)
            event._sim = self
        event.arg = arg
        self._seq += 1
        # Identical placement logic to schedule() (kept inline: this is the
        # hottest allocation site in a traffic run and a shared helper call
        # would tax schedule() too).
        wheel = self._wheel
        tick = int(time)
        offset = tick - wheel._base
        if offset < L0_SLOTS:
            if offset >= 0:
                bucket = wheel._l0[tick & L0_MASK]
                event._slots = bucket
                event._pos = len(bucket)
                bucket.append(event)
                wheel._n0 += 1
            else:
                ready = self._ready
                event._slots = DRAINED
                idx = self._ready_idx
                if idx > 1024 and idx + idx >= len(ready):
                    del ready[:idx]
                    self._ready_idx = 0
                if not ready or ready[-1].time <= time:
                    ready.append(event)
                else:
                    insort(ready, event, lo=self._ready_idx, key=_TIME_KEY)
        else:
            wheel.insert(event, tick)
        return event

    def schedule_at(self, time: float, callback: Callable[[], None], name: str = "event") -> ScheduledEvent:
        """Schedule ``callback`` at absolute virtual time ``time`` (>= now)."""
        if time < self.now:
            raise InvalidScheduling(f"cannot schedule {name!r} in the past ({time} < {self.now})")
        return self.schedule(time - self.now, callback, name)

    def call_soon(self, callback: Callable[[], None], name: str = "soon") -> ScheduledEvent:
        """Schedule ``callback`` at the current timestamp (after pending same-time events).

        Same-timestamp chains (a callback re-arming itself with ``call_soon``)
        are the one shape where a one-element heap is near optimal, so this
        path is specialized: during dispatch ``now`` always lies inside the
        already-drained window (``now < wheel base``), so the event belongs
        in the ready run unconditionally and the generic tick classification
        in :meth:`schedule` -- delay validation, offset arithmetic, bucket
        routing -- can be skipped.  A fresh event's seq exceeds everything
        pending, so when the run's tail is at ``<= now`` (the common case:
        nothing later than the current timestamp has been drained) a plain
        append preserves (time, seq) order.
        """
        time = self.now
        # Outside a drained window (before the first run, or exactly at a
        # window edge) fall back to the generic path.
        if time >= self._ready_tick + 1:
            return self.schedule(0.0, callback, name)
        event = ScheduledEvent(time, self._seq, callback, name)
        self._seq += 1
        event._sim = self
        event._slots = DRAINED
        ready = self._ready
        idx = self._ready_idx
        if idx > 1024 and idx + idx >= len(ready):
            # Same compaction as schedule(): an unbounded same-window chain
            # must not pin every fired event in memory until the window drains.
            del ready[:idx]
            self._ready_idx = 0
        if not ready or ready[-1].time <= time:
            ready.append(event)
        else:
            insort(ready, event, lo=self._ready_idx, key=_TIME_KEY)
        return event

    def call_soon_call(self, callback: Callable, arg, name: str = "soon") -> ScheduledEvent:
        """Run ``callback(arg)`` at the current timestamp, pool-recycled.

        :meth:`call_soon` with the :meth:`schedule_call` event free list:
        the thread wake-up path (mailbox hits, resolved futures) burns one
        of these per delivery, and like delivery events their handles are
        dropped before dispatch completes, so cancel-after-fire never
        happens and the event can go straight back to the pool.
        """
        time = self.now
        if time >= self._ready_tick + 1:
            return self.schedule_call(0.0, callback, arg, name)
        pool = self._event_pool
        if pool:
            event = pool.pop()
            event.time = time
            event.seq = self._seq
            event.callback = callback
            event.name = name
        else:
            event = ScheduledEvent(time, self._seq, callback, name)
            event._sim = self
        event.arg = arg
        self._seq += 1
        event._slots = DRAINED
        ready = self._ready
        idx = self._ready_idx
        if idx > 1024 and idx + idx >= len(ready):
            del ready[:idx]
            self._ready_idx = 0
        if not ready or ready[-1].time <= time:
            ready.append(event)
        else:
            insort(ready, event, lo=self._ready_idx, key=_TIME_KEY)
        return event

    # --------------------------------------------------------------- running

    @property
    def pending_events(self) -> int:
        """Number of not-yet-cancelled, not-yet-fired events (O(1)).

        Derived from counters the hot paths maintain anyway: everything ever
        scheduled, minus fired, minus cancelled.
        """
        return self._seq - self._events_processed - self._cancelled

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far."""
        return self._events_processed

    def step(self) -> bool:
        """Run the next scheduled event.  Returns ``False`` if the queue is empty."""
        while True:
            ready = self._ready
            idx = self._ready_idx
            if idx < len(ready):
                event = ready[idx]
                self._ready_idx = idx + 1
                callback = event.callback
                if callback is None:  # cancelled in place
                    continue
                self.now = event.time
                event.callback = None
                self._events_processed += 1
                arg = event.arg
                if arg is _NO_ARG:
                    callback()
                else:
                    event.arg = _NO_ARG
                    callback(arg)
                    pool = self._event_pool
                    if len(pool) < _EVENT_POOL_MAX:
                        pool.append(event)
                return True
            drained = self._wheel.drain_next()
            if drained is None:
                return False
            self._ready_tick, self._ready = drained
            self._ready_idx = 0

    def run(self, until: Optional[float] = None, max_events: int = 5_000_000) -> float:
        """Run events until the queue drains or virtual time reaches ``until``.

        Returns the virtual time at which the run stopped.  Raises
        :class:`SimulationLimitExceeded` if more than ``max_events`` callbacks
        fire, which almost always indicates a livelock in a protocol under test.
        """
        wheel = self._wheel
        processed = 0
        while True:
            # Batched dispatch: ready is sorted, so the horizon/clock work
            # only runs when the timestamp changes, and ready state is
            # re-read from the instance every iteration, which keeps
            # exceptions (and re-entrant runs) consistent.
            ready = self._ready
            idx = self._ready_idx
            if idx < len(ready):
                event = ready[idx]
                self._ready_idx = idx + 1
                callback = event.callback
                if callback is None:  # cancelled in place
                    continue
                time = event.time
                if time != self.now:  # sorted => strictly later: new timestamp
                    if until is not None and time > until:
                        self._ready_idx = idx  # leave unconsumed
                        if until > self.now:
                            self.now = until
                        return self.now
                    self.now = time
                event.callback = None
                self._events_processed += 1
                processed += 1
                if processed > max_events:
                    raise SimulationLimitExceeded(
                        f"simulation exceeded {max_events} events (possible livelock)"
                    )
                arg = event.arg
                if arg is _NO_ARG:
                    callback()
                    continue
                # Argument-carrying events (message deliveries) fire and go
                # straight back to the free list; their handles are never
                # retained past dispatch (see schedule_call).
                event.arg = _NO_ARG
                callback(arg)
                pool = self._event_pool
                if len(pool) < _EVENT_POOL_MAX:
                    pool.append(event)
                continue
            drained = wheel.drain_next()
            if drained is None:
                if until is not None and until > self.now:
                    self.now = until
                return self.now
            self._ready_tick, self._ready = drained
            self._ready_idx = 0

    def run_until(self, predicate: Callable[[], bool], *, until: Optional[float] = None,
                  max_events: int = 5_000_000) -> bool:
        """Run until ``predicate()`` becomes true.

        Returns ``True`` if the predicate was satisfied, ``False`` if the event
        queue drained or the time horizon was reached first.

        The predicate is re-evaluated after *every* dispatched event, never
        once per batch: callers interleave ``run_until`` with synchronous
        work (the closed-loop generator pattern), and overshooting the
        predicate within a same-timestamp batch would reorder their RNG
        draws relative to the heap kernel's one-event-at-a-time schedule.
        """
        if predicate():
            return True
        wheel = self._wheel
        processed = 0
        while True:
            ready = self._ready
            idx = self._ready_idx
            if idx < len(ready):
                event = ready[idx]
                self._ready_idx = idx + 1
                callback = event.callback
                if callback is None:  # cancelled in place
                    continue
                time = event.time
                if time != self.now:
                    if until is not None and time > until:
                        self._ready_idx = idx
                        if until > self.now:
                            self.now = until
                        return predicate()
                    self.now = time
                event.callback = None
                self._events_processed += 1
                processed += 1
                if processed > max_events:
                    raise SimulationLimitExceeded(
                        f"simulation exceeded {max_events} events (possible livelock)"
                    )
                arg = event.arg
                if arg is _NO_ARG:
                    callback()
                else:
                    event.arg = _NO_ARG
                    callback(arg)
                    pool = self._event_pool
                    if len(pool) < _EVENT_POOL_MAX:
                        pool.append(event)
                if predicate():
                    return True
                continue
            drained = wheel.drain_next()
            if drained is None:
                # Queue fully drained: the clock stays at the last event,
                # matching the heap kernel.
                return predicate()
            self._ready_tick, self._ready = drained
            self._ready_idx = 0

"""Discrete-event simulator: virtual clock and a binary-heap event queue.

The simulator is the root object of every run.  It owns:

* the virtual clock (``now``),
* one heap of ``(time, seq, event)`` tuples -- ``seq`` is the scheduling
  order, so the tuples order totally and the events are never compared,
* the trace recorder shared by all components,
* a deterministic random-number source partitioned into named streams.

Events scheduled at the same timestamp fire in FIFO order of scheduling,
which makes every run fully deterministic for a given seed and fault
schedule.  A cancelled event stays in the heap as a tombstone (its
``callback`` is ``None``) and is dropped when it reaches the top.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Optional

from repro.runtime.base import Kernel, stream_seed  # noqa: F401  (re-exported)
from repro.sim.errors import InvalidScheduling, SimulationLimitExceeded

_NO_ARG = object()
"""Sentinel in :attr:`ScheduledEvent.arg` marking a plain zero-argument
callback.  Events carrying a real argument come from :meth:`Simulator.
schedule_call`, fire as ``callback(arg)``, and are recycled through the
kernel's free list after dispatch."""

_EVENT_POOL_MAX = 512
"""Free-list depth: enough to cover the in-flight message population of a
busy run without pinning an unbounded pile of dead handles."""


def _after_one_event() -> bool:
    """The predicate that turns the run loop into :meth:`Simulator.step`."""
    return True


class ScheduledEvent:
    """Handle to a scheduled callback; supports cancellation."""

    __slots__ = ("time", "callback", "name", "cancelled", "arg", "_sim")

    def __init__(self, time: float, callback: Callable, name: str,
                 sim: "Simulator", arg=_NO_ARG):
        self.time = time
        self.callback = callback
        self.name = name
        self.cancelled = False
        self.arg = arg
        self._sim = sim

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
        self._sim._cancelled += 1
        return True

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
    """

    def __init__(self, seed: int = 0):
        self.now: float = 0.0
        self._init_kernel(seed)
        self._queue: list[tuple[float, int, ScheduledEvent]] = []
        self._seq = 0
        self._events_processed = 0
        self._cancelled = 0
        # Free list of fired argument-carrying events (see schedule_call).  A
        # cancelled one is never recycled: its tombstone may still be queued.
        self._event_pool: list[ScheduledEvent] = []

    # ------------------------------------------------------------ scheduling

    def schedule(self, delay: float, callback: Callable[[], None], name: str = "event") -> ScheduledEvent:
        """Schedule ``callback`` to run ``delay`` time units from now.

        Returns a :class:`ScheduledEvent` handle that can be cancelled.
        """
        if delay < 0:
            raise InvalidScheduling(f"negative delay {delay!r} for event {name!r}")
        time = self.now + delay
        event = ScheduledEvent(time, callback, name, self)
        seq = self._seq
        self._seq = seq + 1
        heappush(self._queue, (time, seq, event))
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
            event.callback = callback
            event.name = name
            event.arg = arg
        else:
            event = ScheduledEvent(time, callback, name, self, arg)
        seq = self._seq
        self._seq = seq + 1
        heappush(self._queue, (time, seq, event))
        return event

    def schedule_at(self, time: float, callback: Callable[[], None], name: str = "event") -> ScheduledEvent:
        """Schedule ``callback`` at absolute virtual time ``time`` (>= now)."""
        if time < self.now:
            raise InvalidScheduling(f"cannot schedule {name!r} in the past ({time} < {self.now})")
        return self.schedule(time - self.now, callback, name)

    def call_soon(self, callback: Callable[[], None], name: str = "soon") -> ScheduledEvent:
        """Schedule ``callback`` at the current timestamp (after pending same-time events)."""
        return self.schedule(0.0, callback, name)

    def call_soon_call(self, callback: Callable, arg, name: str = "soon") -> ScheduledEvent:
        """Run ``callback(arg)`` at the current timestamp, pool-recycled.

        :meth:`call_soon` with the :meth:`schedule_call` event free list:
        the thread wake-up path (mailbox hits, resolved futures) burns one
        of these per delivery, and like delivery events their handles are
        dropped before dispatch completes.
        """
        return self.schedule_call(0.0, callback, arg, name)

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

    def _dispatch(self, predicate: Optional[Callable[[], bool]],
                  until: Optional[float], max_events: int) -> bool:
        """The one run loop: fire events in ``(time, seq)`` order.

        Stops with ``True`` as soon as ``predicate()`` holds after an event
        (it is re-evaluated after *every* event: callers interleave
        ``run_until`` with synchronous work, and overshooting within a
        same-timestamp batch would reorder their RNG draws), with ``False``
        when the queue drains (the clock stays at the last event) or the next
        live event lies beyond ``until`` (the clock moves up to ``until``).
        Raises :class:`SimulationLimitExceeded` *before* taking an event that
        ``max_events`` does not cover, so the event stays queued.
        """
        queue = self._queue
        pool = self._event_pool
        budget = max_events
        while queue:
            time, _, event = queue[0]
            callback = event.callback
            if callback is None:  # tombstone of a cancelled event
                heappop(queue)
                continue
            if until is not None and time > until:
                if until > self.now:
                    self.now = until
                return False
            if budget <= 0:
                raise SimulationLimitExceeded(
                    f"simulation exceeded {max_events} events (possible livelock)")
            budget -= 1
            heappop(queue)
            self.now = time
            event.callback = None
            self._events_processed += 1
            arg = event.arg
            if arg is _NO_ARG:
                callback()
            else:
                # Argument-carrying events (message deliveries, wake-ups) go
                # straight back to the free list; their handles are never
                # retained past dispatch (see schedule_call).
                event.arg = _NO_ARG
                callback(arg)
                if len(pool) < _EVENT_POOL_MAX:
                    pool.append(event)
            if predicate is not None and predicate():
                return True
        return False

    def step(self) -> bool:
        """Run the next scheduled event.  Returns ``False`` if the queue is empty."""
        return self._dispatch(_after_one_event, None, 1)

    def run(self, until: Optional[float] = None, max_events: int = 5_000_000) -> float:
        """Run events until the queue drains or virtual time reaches ``until``.

        Returns the virtual time at which the run stopped.  Raises
        :class:`SimulationLimitExceeded` rather than fire more than
        ``max_events`` callbacks, which almost always indicates a livelock in
        a protocol under test.
        """
        self._dispatch(None, until, max_events)
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def run_until(self, predicate: Callable[[], bool], *, until: Optional[float] = None,
                  max_events: int = 5_000_000) -> bool:
        """Run until ``predicate()`` becomes true.

        Returns ``True`` if the predicate was satisfied, ``False`` if the event
        queue drained or the time horizon was reached first.
        """
        if predicate() or self._dispatch(predicate, until, max_events):
            return True
        return predicate()

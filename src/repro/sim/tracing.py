"""Structured event tracing: a publish/subscribe event bus with retention.

Every significant action in a run -- message send/delivery, crash, recovery,
vote, decision, result delivery, disk write -- is recorded as a
:class:`TraceEvent`.  Consumers attach in two ways:

* **streaming** -- ``trace.subscribe(category, callback)`` delivers each event
  of that category as it is recorded.  The online specification monitor
  (:class:`repro.core.spec.SpecMonitor`) and the streaming metrics
  accumulators work this way, so they see every event even when the recorder
  stores nothing;
* **post-hoc** -- the query helpers (``select``/``count``/``first``/``last``/
  ``between``) read back the *stored* events.  How many events are stored is
  the recorder's **retention policy**:

  - ``full`` (default) -- keep everything; all queries see the whole history.
  - ``ring:N`` -- keep only the most recent ``N`` events (a flight recorder);
    memory is bounded, queries see a suffix of the history.
  - ``off`` -- store nothing; :meth:`record` is a near-no-op for categories
    nobody subscribed to (the event object is not even constructed).

A record costs one slotted :class:`TraceEvent`, stamped with the owning
kernel's ``now`` read directly (an attribute on the simulator, a property on
the asyncio kernel).  Call sites ask ``wants(category)`` before assembling a
payload -- or before calling :meth:`record` at all, for a per-request
category nobody may consume: at ``off`` that question is a dictionary
membership test that runs no Python frame, so an unwatched category costs
neither an event nor a call into this module.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from types import SimpleNamespace
from typing import Any, Callable, Iterable, Iterator, Optional, Union

RETENTION_FULL = "full"
RETENTION_OFF = "off"
RETENTION_RING = "ring"


def parse_retention(policy: str) -> tuple[str, Optional[int]]:
    """Parse a retention policy string into ``(mode, capacity)``.

    Accepted forms: ``"full"``, ``"off"``, ``"ring:N"`` with ``N >= 1``.
    """
    if policy == RETENTION_FULL:
        return RETENTION_FULL, None
    if policy == RETENTION_OFF:
        return RETENTION_OFF, None
    if policy.startswith("ring:"):
        try:
            capacity = int(policy[len("ring:"):])
        except ValueError:
            raise ValueError(f"bad ring capacity in retention policy {policy!r}") from None
        if capacity < 1:
            raise ValueError(f"ring capacity must be >= 1, got {capacity}")
        return RETENTION_RING, capacity
    raise ValueError(f"unknown trace retention policy {policy!r} "
                     "(expected 'full', 'off' or 'ring:N')")


class TraceEvent:
    """One recorded event.

    A plain ``__slots__`` class: :meth:`TraceRecorder.record` builds one per
    event, and a slotted ``__init__`` is the cheapest way to do it.  Events
    compare equal by their four fields and are unhashable (``data`` is a dict).

    Attributes
    ----------
    time:
        Virtual time at which the event occurred.
    category:
        Machine-readable event kind, e.g. ``"msg_send"``, ``"crash"``,
        ``"db_commit"``, ``"client_deliver"``.
    process:
        Name of the process the event is attributed to ("" for global events).
    data:
        Free-form payload describing the event.
    """

    __slots__ = ("time", "category", "process", "data")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, time: float, category: str, process: str,
                 data: Optional[dict[str, Any]] = None):
        self.time = time
        self.category = category
        self.process = process
        self.data = {} if data is None else data

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.time, self.category, self.process, self.data) == \
            (other.time, other.category, other.process, other.data)  # type: ignore[attr-defined]

    def __repr__(self) -> str:
        return (f"TraceEvent(time={self.time!r}, category={self.category!r}, "
                f"process={self.process!r}, data={self.data!r})")

    def get(self, key: str, default: Any = None) -> Any:
        """Shorthand for ``event.data.get(key, default)``."""
        return self.data.get(key, default)


Subscriber = Callable[[TraceEvent], None]


class TraceRecorder:
    """Event bus plus (retention-bounded) store of :class:`TraceEvent` objects.

    ``clock`` is any object with a ``now`` attribute or property in virtual
    milliseconds -- the kernel that owns the recorder; without one every
    event is stamped 0.0.
    """

    #: ``wants(category)``: whether recording ``category`` has any effect
    #: (stored or consumed).  Hot paths ask before building a payload.  At
    #: ``off`` it is the subscriber table's own ``__contains__``, so asking
    #: runs no Python frame; storing, it is ``bool``, true for every
    #: (non-empty) category.
    wants: Callable[[str], bool]

    def __init__(self, clock: Any = None, retention: str = RETENTION_FULL):
        self._clock = clock if clock is not None else SimpleNamespace(now=0.0)
        self._events: Union[list[TraceEvent], deque[TraceEvent]] = []
        self._subscribers: dict[str, list[Subscriber]] = {}
        # record() stamps a monotone virtual clock, so the store is normally
        # time-ordered; extend() may break that, which downgrades between()
        # from bisect to a linear scan.
        self._time_ordered = True
        self.set_retention(retention)

    # ------------------------------------------------------------- retention

    @property
    def retention(self) -> str:
        """The active retention policy (``full``, ``off`` or ``ring:N``)."""
        if self._retention == RETENTION_RING:
            return f"ring:{self._capacity}"
        return self._retention

    def set_retention(self, policy: str) -> None:
        """Switch retention policy; already-stored events are kept (a ring
        trims them to its capacity, ``off`` stops storing new ones)."""
        mode, capacity = parse_retention(policy)
        self._retention = mode
        self._capacity = capacity
        if mode == RETENTION_RING:
            self._events = deque(self._events, maxlen=capacity)
        else:
            self._events = list(self._events)
        self._store = mode != RETENTION_OFF
        # The bound __contains__ stays current: subscribe() and unsubscribe
        # mutate this one table and nothing replaces it.
        self.wants = bool if self._store else self._subscribers.__contains__

    # ----------------------------------------------------------------- bus

    def subscribe(self, category: str, callback: Subscriber) -> Callable[[], None]:
        """Deliver every recorded event of ``category`` to ``callback``.

        Returns an unsubscribe function.  Subscribers see events regardless of
        the retention policy, in record order, synchronously.
        """
        self._subscribers.setdefault(category, []).append(callback)

        def unsubscribe() -> None:
            callbacks = self._subscribers.get(category)
            if callbacks and callback in callbacks:
                callbacks.remove(callback)
                if not callbacks:
                    del self._subscribers[category]

        return unsubscribe

    # --------------------------------------------------------------- record

    def record(self, category: str, process: str = "", **data: Any) -> Optional[TraceEvent]:
        """Record an event at the current virtual time and dispatch it.

        With retention ``off`` and no subscriber for ``category`` this is a
        near-no-op: no :class:`TraceEvent` is constructed.
        """
        subscribers = self._subscribers.get(category)
        if subscribers is None and not self._store:
            return None
        event = TraceEvent(self._clock.now, category, process, data)
        if self._store:
            self._events.append(event)
        if subscribers is not None:
            for callback in subscribers:
                callback(event)
        return event

    # ---------------------------------------------------------------- query

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    @staticmethod
    def _matches(event: TraceEvent, category: Optional[str], process: Optional[str],
                 data_filters: dict[str, Any]) -> bool:
        if category is not None and event.category != category:
            return False
        if process is not None and event.process != process:
            return False
        return not any(event.data.get(k) != v for k, v in data_filters.items())

    def select(self, category: Optional[str] = None, process: Optional[str] = None,
               **data_filters: Any) -> list[TraceEvent]:
        """Return stored events matching the given category/process/data filters."""
        return [e for e in self._events
                if self._matches(e, category, process, data_filters)]

    def count(self, category: Optional[str] = None, process: Optional[str] = None,
              **data_filters: Any) -> int:
        """Number of stored events matching the filters (no list materialised)."""
        return sum(1 for e in self._events
                   if self._matches(e, category, process, data_filters))

    def first(self, category: Optional[str] = None, process: Optional[str] = None,
              **data_filters: Any) -> Optional[TraceEvent]:
        """First matching stored event, or ``None`` (short-circuits)."""
        return next((e for e in self._events
                     if self._matches(e, category, process, data_filters)), None)

    def last(self, category: Optional[str] = None, process: Optional[str] = None,
             **data_filters: Any) -> Optional[TraceEvent]:
        """Last matching stored event, or ``None`` (scans backwards)."""
        return next((e for e in reversed(self._events)
                     if self._matches(e, category, process, data_filters)), None)

    def categories(self) -> set[str]:
        """The set of distinct categories stored so far."""
        return {e.category for e in self._events}

    def between(self, start: float, end: float) -> list[TraceEvent]:
        """Stored events with ``start <= time <= end``.

        The trace is recorded in non-decreasing time order, so the window is
        located with :func:`bisect` instead of a full scan (unless
        :meth:`extend` injected out-of-order events, which falls back to the
        scan).
        """
        if not self._time_ordered:
            return [e for e in self._events if start <= e.time <= end]
        events = self._events if isinstance(self._events, list) else list(self._events)
        lo = bisect_left(events, start, key=lambda e: e.time)
        hi = bisect_right(events, end, key=lambda e: e.time)
        return events[lo:hi]

    def summary(self) -> dict[str, int]:
        """Histogram of stored event counts per category."""
        hist: dict[str, int] = {}
        for event in self._events:
            hist[event.category] = hist.get(event.category, 0) + 1
        return hist

    def extend(self, events: Iterable[TraceEvent]) -> None:
        """Append pre-built events (used by tests and replay tooling).

        Extended events are stored (subject to retention) but not dispatched
        to subscribers: they describe the past, not something happening now.
        """
        for event in events:
            if self._events and event.time < self._events[-1].time:
                self._time_ordered = False
            self._events.append(event)

    def clear(self) -> None:
        """Drop all stored events (subscriptions stay)."""
        self._events.clear()
        self._time_ordered = True

"""Structured event tracing: a publish/subscribe event bus with retention.

Every significant action in a run -- message send/delivery, crash, recovery,
vote, decision, result delivery, disk write -- is recorded as an event:
a virtual time, a category, a process and a data dict.  Consumers attach in
two ways:

* **streaming** -- ``trace.subscribe(category, callback)`` delivers each event
  of that category, as a :class:`TraceEvent`, as it is recorded.  The online
  specification monitor (:class:`repro.core.spec.SpecMonitor`) and the
  streaming metrics accumulators work this way, so they see every event even
  when the recorder stores nothing;
* **post-hoc** -- ``select``/``count`` and iteration read back the *stored*
  events.  How many events are stored is the recorder's **retention policy**:

  - ``full`` (default) -- keep everything; all queries see the whole history.
  - ``ring:N`` -- keep only the most recent ``N`` events (a flight recorder);
    memory is bounded, queries see a suffix of the history.
  - ``off`` -- store nothing.

The store holds rows of plain data, never :class:`TraceEvent` objects, in
two shapes.  A transport event (``msg_send``, ``msg_deliver``, ``msg_drop``,
recorded by :meth:`TraceRecorder.record_message`) is one flat row,
``(time, category, process, msg_type, peer, msg_id, detail)``; every other
event is a ``(time, category, process, data)`` row.  A transport row is
expanded to its data dict only when it is read or consumed, by the one
expander beside the queries, so the messages a ring throws away unread never
cost a dict.  What a stored event costs per retention mode:

* ``full`` -- a row in a live list until :data:`BLOCK_ROWS` rows have
  gathered; then the list is sealed into one bytes block, a protocol-5
  :mod:`pickle` deflated by :mod:`zlib` at level 1: about 12 bytes per event
  on the 2PC comparator (38 as the bare pickle, whose memo writes a string
  that repeats within the block -- a category, a process, a key -- once).
  The cyclic garbage collector never walks bytes, so a sealed event costs
  it nothing; only the live list's rows are tracked objects.
* ``ring:N`` -- a row in a ``deque(maxlen=N)``, about 230 bytes live on the
  same run: tracked, but at most ``N``.
* ``off`` -- nothing; a category nobody subscribed to is not even stamped.

A :class:`TraceEvent` is built only where one is consumed: once per record
for the category's subscribers, and on read, where the queries inflate and
unpickle one sealed block at a time (about a microsecond per stored event,
a tenth of it inflating) and test a row's category and process before
expanding it and building an event.
Events are stamped with the owning kernel's ``now`` read directly (an
attribute on the simulator, a property on the asyncio kernel).  Call sites ask
``wants(category)`` before assembling a payload -- or before calling
:meth:`TraceRecorder.record` at all, for a per-request category nobody may
consume: at ``off`` that question is a dictionary membership test that runs no
Python frame, so an unwatched category costs neither an event nor a call into
this module.
"""

from __future__ import annotations

import io
import pickle
import zlib
from collections import deque
from itertools import chain, starmap
from types import SimpleNamespace
from typing import Any, Callable, Iterable, Iterator, Optional, Union

RETENTION_FULL = "full"
RETENTION_OFF = "off"
RETENTION_RING = "ring"

#: Rows a ``full`` trace gathers before sealing them into one bytes block.
#: Small enough that most rows are sealed before the collector promotes them
#: to its oldest generation, whose growth is what triggers full collections
#: (4 096 rows left as many full collections as storing events did).
BLOCK_ROWS = 256

#: An event as it is read: ``(time, category, process, data)``.
Row = tuple[float, str, str, dict[str, Any]]
#: A transport event as it is stored:
#: ``(time, category, process, msg_type, peer, msg_id, detail)``.
MessageRow = tuple[float, str, str, str, str, int, Any]
#: What the store holds: either shape.
StoredRow = Union[Row, MessageRow]


class _BlockPickler(pickle.Pickler):
    """Seals rows of plain data into one bytes block: a pickle, deflated.

    ``pickle`` stores an exact ``None``, ``bool``, ``int``, ``float``,
    ``str``, ``bytes``, ``tuple``, ``list``, ``dict``, ``set`` or
    ``frozenset`` itself (a ``bytearray`` too, which reads back as one) and
    asks :meth:`reducer_override` about everything else, which it would
    store by a reference to its class (a ``str`` subclass, an ``IntEnum``
    member, a namedtuple).  The override refuses them all, so a block holds
    plain data only, reads back with the same types and, on read, imports
    nothing.
    """

    def __init__(self) -> None:
        self._buffer = io.BytesIO()
        super().__init__(self._buffer, protocol=5)

    def reducer_override(self, obj: Any) -> Any:
        raise ValueError(f"a trace stores plain data only, not {type(obj).__qualname__!r}")

    def seal(self, rows: list[StoredRow]) -> bytes:
        buffer = self._buffer
        buffer.seek(0)
        buffer.truncate()
        try:
            self.dump(rows)
        finally:
            # A memo left over from this block, complete or refused, would
            # make the next block refer to objects it never wrote.
            self.clear_memo()
        # A refused dump has raised by now, so a half-written buffer is never
        # deflated; the view is released before the next seal truncates it.
        with buffer.getbuffer() as pickled:
            return zlib.compress(pickled, 1)

    def refuses(self, row: StoredRow) -> bool:
        """Whether sealing ``row`` raises (it holds a value that is not plain data)."""
        try:
            self.seal([row])
        except ValueError:
            return True
        return False


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
    """One recorded event, as a subscriber or a query sees it.

    A plain ``__slots__`` class, the cheapest object to build per consumed
    event.  Events compare equal by their four fields and are unhashable
    (``data`` is a dict).

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


def _expand(row: StoredRow) -> Row:
    """A stored row as it is read: a transport row gets back the data dict its
    event has always carried (same keys, same order, ``payload_keys`` a sorted
    list); any other row is returned as it is."""
    if len(row) == 4:
        return row  # type: ignore[return-value]
    time, category, process, msg_type, peer, msg_id, detail = row  # type: ignore[misc]
    if category == "msg_send":
        data = {"msg_type": msg_type, "destination": peer, "msg_id": msg_id,
                "payload_keys": sorted(detail)}
    elif category == "msg_deliver":
        data = {"msg_type": msg_type, "sender": peer, "msg_id": msg_id}
    elif detail == "destination_down":
        data = {"reason": detail, "msg_type": msg_type, "msg_id": msg_id, "sender": peer}
    else:  # a partition or loss drop, at the sender
        data = {"reason": detail, "msg_type": msg_type, "destination": peer, "msg_id": msg_id}
    return time, category, process, data


class TraceRecorder:
    """Event bus plus (retention-bounded) store of event rows.

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
        self._blocks: list[bytes] = []  # sealed rows, oldest first (full/off)
        self._sealed = 0  # rows in self._blocks
        self._rows: Union[list[StoredRow], deque[StoredRow]] = []  # the live rows after them
        self._pickler = _BlockPickler()  # seals self._rows into self._blocks
        self._subscribers: dict[str, list[Subscriber]] = {}
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
            self._rows = deque(self._stored(), maxlen=capacity)
            self._blocks, self._sealed = [], 0
        else:
            self._rows = list(self._rows)
        self._store = mode != RETENTION_OFF
        self._sealing = mode == RETENTION_FULL  # a ring is bounded already
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

    def record(self, category: str, process: str = "", **data: Any) -> None:
        """Record an event at the current virtual time and dispatch it.

        ``data`` is plain data: ``str``, ``int``, ``float``, ``bool``,
        ``None``, ``bytes``, and tuples, lists, dicts, sets and frozensets of
        those, exact types only.  Sealing a ``full`` trace raises
        ``ValueError`` on anything else, so a stored value never comes back
        as a different type.  With retention ``off`` and no subscriber for
        ``category`` this is a near-no-op.
        """
        subscribers = self._subscribers.get(category)
        if subscribers is None and not self._store:
            return
        now = self._clock.now
        if self._store:
            rows = self._rows
            rows.append((now, category, process, data))
            if self._sealing and len(rows) >= BLOCK_ROWS:
                self._seal()
        if subscribers is not None:
            event = TraceEvent(now, category, process, data)
            for callback in subscribers:
                callback(event)

    def record_message(self, category: str, process: str, msg_type: str, peer: str,
                       msg_id: int, detail: Any) -> None:
        """Record a transport event (``msg_send``, ``msg_deliver``,
        ``msg_drop``) as one flat row, expanded to its data dict only when
        read or consumed.

        ``peer`` is the other end of the message (the destination of a send
        or a partition/loss drop, the sender of a delivery or a
        ``destination_down`` drop); ``detail`` is the sent payload's keys as a
        tuple, ``None`` for a delivery, the reason string for a drop.  Callers
        ask ``wants(category)`` first, so this always has an effect.
        """
        row = (self._clock.now, category, process, msg_type, peer, msg_id, detail)
        if self._store:
            rows = self._rows
            rows.append(row)
            if self._sealing and len(rows) >= BLOCK_ROWS:
                self._seal()
        subscribers = self._subscribers.get(category)
        if subscribers is not None:
            event = TraceEvent(*_expand(row))
            for callback in subscribers:
                callback(event)

    def _seal(self) -> None:
        """Turn the live rows into one bytes block the collector never walks.

        A refused seal raises once: the rows it refused leave the live list
        first, so the next full list seals again."""
        rows = self._rows
        try:
            block = self._pickler.seal(rows)
        except ValueError:
            rows[:] = [row for row in rows if not self._pickler.refuses(row)]
            raise
        self._blocks.append(block)
        self._sealed += len(rows)
        rows.clear()

    # ---------------------------------------------------------------- query

    def _stored(self) -> Iterator[StoredRow]:
        """Every stored row, either shape, oldest first, one sealed block
        decoded at a time."""
        return chain(chain.from_iterable(map(pickle.loads, map(zlib.decompress, self._blocks))),
                     self._rows)

    @staticmethod
    def _matching(rows: Iterable[StoredRow], category: Optional[str], process: Optional[str],
                  data_filters: dict[str, Any]) -> Iterator[Row]:
        for row in rows:
            if (category is None or row[1] == category) \
                    and (process is None or row[2] == process):
                event = _expand(row)
                if not any(event[3].get(k) != v for k, v in data_filters.items()):
                    yield event

    def __len__(self) -> int:
        return self._sealed + len(self._rows)

    def __iter__(self) -> Iterator[TraceEvent]:
        return starmap(TraceEvent, map(_expand, self._stored()))

    def select(self, category: Optional[str] = None, process: Optional[str] = None,
               **data_filters: Any) -> list[TraceEvent]:
        """Return stored events matching the given category/process/data filters."""
        return list(starmap(TraceEvent, self._matching(
            self._stored(), category, process, data_filters)))

    def count(self, category: Optional[str] = None, process: Optional[str] = None,
              **data_filters: Any) -> int:
        """Number of stored events matching the filters (no event built)."""
        return sum(1 for _ in self._matching(self._stored(), category, process, data_filters))

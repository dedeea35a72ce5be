"""Wait primitives yielded by protocol threads.

Protocol code in this repository is written as generator coroutines hosted on a
:class:`repro.sim.process.Process`.  A coroutine expresses blocking operations
by *yielding* one of the wait objects defined here:

* :class:`Sleep` -- resume after a virtual-time delay.
* :class:`Receive` -- resume when a message filed under one of its keys
  arrives (optionally with a timeout, in which case the coroutine receives the
  :data:`TIMEOUT` sentinel).
* :class:`WaitFuture` -- resume when a :class:`SimFuture` is resolved.

These map directly onto the paper's pseudo-code: ``wait until (receive ...)``
becomes ``msg = yield self.receive(...)``, and the ``set-timeout-to`` /
``on-timeout`` construct becomes the ``timeout=`` argument.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence, Union


class _TimeoutSentinel:
    """Singleton returned from a timed-out wait."""

    _instance: Optional["_TimeoutSentinel"] = None

    def __new__(cls) -> "_TimeoutSentinel":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "TIMEOUT"

TIMEOUT = _TimeoutSentinel()
"""Sentinel value a coroutine receives when a timed wait expires."""


class _AnyCorrelation:
    """Type of :data:`ANY`."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "ANY"


ANY = _AnyCorrelation()
"""Receive-key correlation that accepts any: ``(msg_type, ANY)``."""


class Wait:
    """Base class for everything a protocol coroutine may yield."""

    __slots__ = ()


class Sleep(Wait):
    """Suspend the coroutine for ``delay`` units of virtual time."""

    __slots__ = ("delay",)

    def __init__(self, delay: float):
        if delay < 0:
            raise ValueError(f"negative sleep delay: {delay}")
        self.delay = delay

    def __repr__(self) -> str:
        return f"Sleep({self.delay})"


class Receive(Wait):
    """Wait for a message filed under one of ``keys``.

    A delivered message is filed under ``(msg_type, payload["j"])``, or under
    ``(msg_type, sender)`` when its payload has no ``j``; a key is such a pair,
    or ``(msg_type, ANY)`` for any correlation.  When ``timeout`` is given and
    expires first, the coroutine is resumed with :data:`TIMEOUT` instead.
    """

    __slots__ = ("keys", "timeout")

    def __init__(self, keys: Sequence[tuple[str, Any]], timeout: Optional[float] = None):
        if timeout is not None and timeout < 0:
            raise ValueError(f"negative receive timeout: {timeout}")
        self.keys = keys
        self.timeout = timeout

    def __repr__(self) -> str:
        return f"Receive({self.keys!r}, timeout={self.timeout})"


class SimFuture:
    """A one-shot, single-value future resolvable by any component.

    Used for in-process synchronisation: a coroutine yields
    ``WaitFuture(future)`` and another component (e.g. the consensus module
    learning a decision) calls :meth:`resolve`.  A future keeps a callback
    list only while a callback waits on it: it starts with none and drops
    the list when it resolves, so a resolved future a run keeps (a client's
    delivered request) holds its value and nothing else.
    """

    __slots__ = ("_resolved", "_value", "_callbacks")

    def __init__(self) -> None:
        self._resolved = False
        self._value: Any = None
        self._callbacks: Union[list[Callable[[Any], None]], tuple[()]] = ()

    @property
    def resolved(self) -> bool:
        """Whether :meth:`resolve` has been called."""
        return self._resolved

    @property
    def value(self) -> Any:
        """The resolved value (``None`` until resolved)."""
        return self._value

    def resolve(self, value: Any = None) -> None:
        """Resolve the future; later calls are ignored (write-once)."""
        if self._resolved:
            return
        self._resolved = True
        self._value = value
        callbacks, self._callbacks = self._callbacks, ()
        for callback in callbacks:
            callback(value)

    def on_resolve(self, callback: Callable[[Any], None]) -> None:
        """Invoke ``callback(value)`` now if resolved, otherwise upon resolution."""
        if self._resolved:
            callback(self._value)
        elif self._callbacks:
            self._callbacks.append(callback)
        else:
            self._callbacks = [callback]

    def discard_callback(self, callback: Callable[[Any], None]) -> None:
        """Remove a previously registered callback if still pending."""
        if callback in self._callbacks:
            self._callbacks.remove(callback)


class WaitFuture(Wait):
    """Wait for a :class:`SimFuture` to resolve."""

    __slots__ = ("future",)

    def __init__(self, future: SimFuture):
        self.future = future

    def __repr__(self) -> str:
        return f"WaitFuture(resolved={self.future.resolved})"

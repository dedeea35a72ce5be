"""Wait primitives yielded by protocol threads.

Protocol code in this repository is written as generator coroutines hosted on a
:class:`repro.sim.process.Process`.  A coroutine expresses blocking operations
by *yielding* one of the wait objects defined here:

* :class:`Sleep` -- resume after a virtual-time delay.
* :class:`Receive` -- resume when a matching message arrives (optionally with a
  timeout, in which case the coroutine receives the :data:`TIMEOUT` sentinel).
* :class:`WaitFuture` -- resume when a :class:`SimFuture` is resolved (again
  optionally bounded by a timeout).

These map directly onto the paper's pseudo-code: ``wait until (receive ...)``
becomes ``msg = yield self.receive(...)``, and the ``set-timeout-to`` /
``on-timeout`` construct becomes the ``timeout=`` argument.
"""

from __future__ import annotations

from typing import Any, Callable, Optional


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
    """Wait for a message accepted by ``matcher`` (or any message when omitted).

    ``matcher`` receives the message object and returns a truthy value to
    accept it.  When ``timeout`` is given and expires first, the coroutine is
    resumed with :data:`TIMEOUT` instead of a message.
    """

    __slots__ = ("matcher", "timeout", "_buckets")

    def __init__(self, matcher: Optional[Callable[[Any], bool]] = None,
                 timeout: Optional[float] = None):
        if timeout is not None and timeout < 0:
            raise ValueError(f"negative receive timeout: {timeout}")
        self.matcher = matcher
        self.timeout = timeout
        # Waiter-index buckets this wait registers under, resolved once by
        # Process._register_waiter and reused on unregister (the matcher
        # hints are immutable, so the bucket set never changes).
        self._buckets: Optional[list] = None

    def matches(self, message: Any) -> bool:
        """Whether this wait accepts ``message``."""
        if self.matcher is None:
            return True
        return bool(self.matcher(message))

    def __repr__(self) -> str:
        return f"Receive(timeout={self.timeout})"


class SimFuture:
    """A one-shot, single-value future resolvable by any component.

    Used for in-process synchronisation: a coroutine yields
    ``WaitFuture(future)`` and another component (e.g. the consensus module
    learning a decision) calls :meth:`resolve`.
    """

    __slots__ = ("_resolved", "_value", "_callbacks")

    def __init__(self) -> None:
        self._resolved = False
        self._value: Any = None
        self._callbacks: list[Callable[[Any], None]] = []

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
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(value)

    def on_resolve(self, callback: Callable[[Any], None]) -> None:
        """Invoke ``callback(value)`` now if resolved, otherwise upon resolution."""
        if self._resolved:
            callback(self._value)
        else:
            self._callbacks.append(callback)

    def discard_callback(self, callback: Callable[[Any], None]) -> None:
        """Remove a previously registered callback if still pending."""
        if callback in self._callbacks:
            self._callbacks.remove(callback)


class WaitFuture(Wait):
    """Wait for a :class:`SimFuture` to resolve (optionally with a timeout)."""

    __slots__ = ("future", "timeout")

    def __init__(self, future: SimFuture, timeout: Optional[float] = None):
        if timeout is not None and timeout < 0:
            raise ValueError(f"negative future timeout: {timeout}")
        self.future = future
        self.timeout = timeout

    def __repr__(self) -> str:
        return f"WaitFuture(resolved={self.future.resolved}, timeout={self.timeout})"

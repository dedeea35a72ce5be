"""AsyncioKernel: the wall-clock implementation of the kernel seam.

The simulator advances a virtual clock by popping a heap; this kernel lets an
asyncio event loop advance the wall clock and maps the seam onto it:

* ``now`` is wall time since kernel creation, rescaled to *virtual
  milliseconds* by the ``pace`` factor (``pace`` wall seconds per virtual
  second), so protocol timeouts tuned for the simulator keep their meaning;
* ``schedule`` becomes ``loop.call_later``; cancelling a protocol timer
  cancels the underlying loop timer;
* ``run``/``run_until`` drive the loop with ``run_until_complete`` around a
  sleep or a parked future, so the workload generators' blocking call sites
  work unchanged.  Nothing polls: the predicate of ``run_until`` is checked
  where protocol state can change -- after each kernel timer callback and,
  through :meth:`AsyncioKernel.notify`, after each batch of frames a
  transport delivered.

Protocol generators stay exactly what they are under the simulator --
generator coroutines resumed by callbacks.  The only native asyncio task is
a transport's attempt to connect a link that is down
(:meth:`AsyncioKernel.spawn_task`); steady state runs none.

A wall-clock budget (``max_wall`` seconds per ``run``/``run_until`` call,
default 120) turns a hung loop into a loud :class:`SimulationLimitExceeded`
instead of a stalled CI job.
"""

from __future__ import annotations

import asyncio
import select
import selectors
from typing import Callable, Coroutine, Optional

from repro.runtime.base import Kernel
from repro.sim.errors import InvalidScheduling, SimulationLimitExceeded

#: ``select.select`` rejects descriptors from here on (``FD_SETSIZE``).
_FD_SETSIZE = 1024

if hasattr(selectors, "EpollSelector"):

    class _PunctualSelector(selectors.EpollSelector):
        """``EpollSelector`` whose timeouts end on time, not a millisecond late.

        ``epoll`` sleeps in whole milliseconds and CPython rounds a timeout
        *up* to the next one: at ``pace=0.05`` every protocol timer fires up
        to 20 virtual ms late.  This one sleeps the whole milliseconds in
        ``epoll`` and the rest in a ``select`` (microsecond timeouts) on the
        epoll descriptor itself, which turns readable when a socket is ready.
        """

        def select(self, timeout=None):
            if timeout is None or timeout <= 0 or self.fileno() >= _FD_SETSIZE:
                return super().select(timeout)
            whole_ms = int(timeout * 1e3)
            if whole_ms:
                # Half a millisecond less, so that the base class's ceil lands
                # on ``whole_ms`` whatever the float product rounds to.
                ready = super().select((whole_ms - 0.5) * 1e-3)
                if ready:
                    return ready
            rest = timeout - whole_ms * 1e-3
            if select.select((self.fileno(),), (), (), rest)[0]:
                return super().select(0)
            return []

    def _new_event_loop() -> asyncio.AbstractEventLoop:
        return asyncio.SelectorEventLoop(_PunctualSelector())
else:  # kqueue and friends already sleep with sub-millisecond resolution
    _new_event_loop = asyncio.new_event_loop


class WallEvent:
    """Cancellable handle for a timer scheduled on the event loop.

    Mirrors the surface of :class:`repro.sim.scheduler.ScheduledEvent` that
    process/thread code relies on (``cancel``, ``cancelled``, ``time``,
    ``name``).
    """

    __slots__ = ("time", "name", "cancelled", "_handle")

    def __init__(self, time: float, name: str, handle: asyncio.TimerHandle):
        self.time = time
        self.name = name
        self.cancelled = False
        self._handle = handle

    def cancel(self) -> bool:
        """Prevent the callback from firing.

        Returns ``True`` on the first effective cancel, ``False`` on repeat
        cancels -- the same contract as
        :meth:`repro.sim.scheduler.ScheduledEvent.cancel` (a wall clock
        cannot tell "already fired" apart from "in flight", so only the
        repeat-cancel half of the no-op contract is observable here).
        """
        if self.cancelled:
            return False
        self.cancelled = True
        self._handle.cancel()
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<WallEvent {self.name!r} at {self.time:.3f} ({state})>"


class AsyncioKernel(Kernel):
    """Kernel backed by a private asyncio event loop and the wall clock."""

    realtime = True

    def __init__(self, seed: int = 0, pace: float = 1.0,
                 max_wall: Optional[float] = 120.0):
        if pace <= 0:
            raise ValueError(f"pace must be > 0, got {pace}")
        self.pace = pace
        #: Wall-clock budget (seconds) for a single run()/run_until() call;
        #: ``None`` disables the guard (used by long-lived ``serve``).
        self.max_wall = max_wall
        self._loop = _new_event_loop()
        self._epoch = self._loop.time()
        self._events_processed = 0
        self._tasks: set[asyncio.Task] = set()
        #: The ``(predicate, future)`` a ``run_until`` call is parked on.
        self._parked: Optional[tuple[Callable[[], bool], asyncio.Future]] = None
        self._bootstraps: list[Callable[[], Coroutine]] = []
        self._closers: list[Callable[[], None]] = []
        self._closed = False
        self._init_kernel(seed)

    # ------------------------------------------------------------------ clock

    @property
    def now(self) -> float:
        """Virtual milliseconds elapsed since kernel creation."""
        return (self._loop.time() - self._epoch) * 1000.0 / self.pace

    def _wall_delay(self, virtual_ms: float) -> float:
        return virtual_ms * self.pace / 1000.0

    # ------------------------------------------------------------ scheduling

    @property
    def events_processed(self) -> int:
        """Number of kernel timer callbacks executed so far."""
        return self._events_processed

    def schedule(self, delay: float, callback: Callable[[], None],
                 name: str = "event") -> WallEvent:
        """Schedule ``callback`` to run ``delay`` virtual ms from now."""
        if delay < 0:
            raise InvalidScheduling(f"negative delay {delay!r} for event {name!r}")
        event: WallEvent

        def fire() -> None:
            if event.cancelled:
                return
            self._events_processed += 1
            callback()
            self.notify()

        handle = self._loop.call_later(self._wall_delay(delay), fire)
        event = WallEvent(self.now + delay, name, handle)
        return event

    def schedule_at(self, time: float, callback: Callable[[], None],
                    name: str = "event") -> WallEvent:
        """Schedule ``callback`` at absolute virtual time ``time``.

        Unlike the simulator, a wall clock keeps moving between computing a
        target time and scheduling it, so a slightly-past ``time`` is clamped
        to "as soon as possible" rather than rejected.
        """
        return self.schedule(max(0.0, time - self.now), callback, name)

    def call_soon(self, callback: Callable[[], None], name: str = "soon") -> WallEvent:
        """Schedule ``callback`` on the next loop iteration."""
        return self.schedule(0.0, callback, name)

    # ----------------------------------------------------- native-task support

    def spawn_task(self, coro: Coroutine) -> asyncio.Task:
        """Run a native asyncio coroutine (a link's connect); tracked for close()."""
        task = self._loop.create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    def add_bootstrap(self, factory: Callable[[], Coroutine]) -> None:
        """Register a coroutine to await before the first run (e.g. TCP binds)."""
        self._bootstraps.append(factory)

    def add_closer(self, closer: Callable[[], None]) -> None:
        """Register a synchronous shutdown hook invoked by :meth:`close`."""
        self._closers.append(closer)

    def _ensure_bootstrapped(self) -> None:
        while self._bootstraps:
            factory = self._bootstraps.pop(0)
            self._loop.run_until_complete(factory())

    # --------------------------------------------------------------- running

    def run(self, until: Optional[float] = None, max_events: int = 5_000_000) -> float:
        """Let the loop run until virtual time ``until`` (or just flush, if None).

        ``max_events`` is accepted for interface parity; the livelock guard
        under a wall clock is the ``max_wall`` budget instead.
        """
        self._ensure_bootstrapped()
        if until is None:
            self._loop.run_until_complete(asyncio.sleep(0))
            return self.now
        remaining = self._wall_delay(until - self.now)
        if remaining > 0:
            if self.max_wall is not None and remaining > self.max_wall:
                raise SimulationLimitExceeded(
                    f"run until t={until:.0f} needs {remaining:.1f}s of wall time, "
                    f"over the {self.max_wall:.0f}s budget (lower pace or raise max_wall)"
                )
            self._loop.run_until_complete(asyncio.sleep(remaining))
        return self.now

    def notify(self) -> None:
        """Protocol state may have changed: end a parked ``run_until`` if it holds now."""
        if self._parked is not None:
            predicate, parked = self._parked
            if not parked.done() and predicate():
                parked.set_result(True)

    def run_until(self, predicate: Callable[[], bool], *, until: Optional[float] = None,
                  max_events: int = 5_000_000) -> bool:
        """Run the loop until ``predicate`` holds; stop at ``until`` or budget."""
        self._ensure_bootstrapped()
        if predicate():
            return True
        parked = self._loop.create_future()

        def at_horizon() -> None:
            if not parked.done():
                parked.set_result(predicate())

        def over_budget() -> None:
            if not parked.done():
                parked.set_exception(SimulationLimitExceeded(
                    f"run_until exceeded the {self.max_wall:.0f}s wall-clock budget "
                    "(possible hang; lower pace or raise max_wall)"
                ))

        timers = []
        if until is not None:
            timers.append(self._loop.call_later(
                self._wall_delay(until - self.now), at_horizon))
        if self.max_wall is not None:
            timers.append(self._loop.call_later(self.max_wall, over_budget))
        self._parked = (predicate, parked)
        try:
            return self._loop.run_until_complete(parked)
        finally:
            self._parked = None
            for timer in timers:
                timer.cancel()

    # ---------------------------------------------------------------- closing

    def close(self) -> None:
        """Shut down transports and the loop; safe to call more than once."""
        if self._closed:
            return
        self._closed = True
        for closer in self._closers:
            closer()
        tasks = [task for task in self._tasks if not task.done()]
        for task in tasks:
            task.cancel()
        if tasks:
            self._loop.run_until_complete(
                asyncio.gather(*tasks, return_exceptions=True))
        self._loop.run_until_complete(self._loop.shutdown_asyncgens())
        self._loop.close()

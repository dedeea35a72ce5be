"""Process and thread model.

A :class:`Process` models one node of the three-tier system (a client, an
application server or a database server).  Processes host five kinds of
volatile activity, each the cheapest that fits its job:

* generator-coroutine *threads* (:meth:`Process.spawn`), for logic that
  blocks on a receive or a future between steps (the paper's ``cobegin``
  branches, e.g. the application server's per-request and cleaning threads),
* synchronous per-type *message handlers* (:meth:`Process.on_message`)
  for traffic that needs no blocking wait -- consensus, heartbeats, the
  application server's request dispatch, the primary-backup mirror,
* serial FIFO *servers* (:meth:`Process.serve`) for traffic whose
  processing only sleeps: one step per message, the next message queued
  until the step ends -- the database tier's execute/prepare/decide/migrate,
* *tickers* (:meth:`Process.tick`) for periodic work that only ever sleeps:
  a plain function returning its next delay, or ``None`` to park until
  poked -- the failure detector's heartbeat sender and monitor,
* one-shot *timers* (:meth:`Process.after`) -- consensus attempt time-outs.

Processes exchange messages through a transport installed by ``repro.net``,
crash and recover.  A process keeps its durable state on its device
(:attr:`Process.disk`); everything else is volatile.  :meth:`Process.crash`
is the only code that runs at a crash -- it stops all the activity above and
drops the mailbox -- and :meth:`Process.on_start` builds every incarnation's
volatile state, so a recovered process starts as a fresh one does.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Container, Generator, Iterable, Optional, Sequence

from repro.runtime.base import Kernel
from repro.sim.errors import ProcessNotRunning, ThreadError
from repro.sim.waits import ANY, TIMEOUT, Receive, SimFuture, Sleep, Wait, WaitFuture
from repro.storage.stable import StableStorage

ProtocolGenerator = Generator[Wait, Any, Any]


class Thread:
    """A single coroutine of protocol logic hosted on a process.

    The coroutine yields :class:`~repro.sim.waits.Wait` objects and is resumed
    with the wait's result (a message, :data:`TIMEOUT`, a future value, or
    ``None`` after a sleep).
    """

    __slots__ = ("id", "process", "generator", "name", "alive", "finished",
                 "_pending_timer", "_pending_receive", "_pending_future",
                 "_wait_token", "_armed_token", "_armed_result", "_fire_cb",
                 "_future_cb", "_timer_name", "_mailbox_name", "_future_name")

    def __init__(self, process: "Process", generator: ProtocolGenerator, name: str):
        # Thread ids are scoped to the hosting process: waiter ordering only
        # ever compares threads of one process, and a process-local counter
        # keeps the ids independent of what other processes did first.
        self.id = process._next_thread_id()
        self.process = process
        self.generator = generator
        self.name = name
        self.alive = True
        self.finished = False
        # A cancellable timer handle from the kernel (a ScheduledEvent under
        # the simulator, a WallEvent under the asyncio backend).
        self._pending_timer: Optional[Any] = None
        self._pending_receive: Optional[Receive] = None
        self._pending_future: Optional[SimFuture] = None
        self._wait_token = 0
        # Timer/mailbox wake-ups reuse one prebound callback plus these two
        # slots instead of allocating a capturing closure per wait: a thread
        # has at most one armed wake-up at a time, and the token check makes
        # a stale callback (cancel raced the fire) a no-op.
        self._armed_token = -1
        self._armed_result: Any = None
        self._fire_cb = self._fire
        self._future_cb = self._on_future
        # Event names are only read by humans debugging a run; building them
        # per wait with f-strings was measurable on the hot path, so they are
        # rendered once per (process, thread-name) pair and shared by every
        # short-lived thread reusing the same name.  Per-request names
        # ("as-handle:c1:37") would grow the cache by one entry per
        # transaction for the rest of the run, so it is cleared when it
        # outgrows the stable name set.
        cache = process._thread_names
        names = cache.get(name)
        if names is None:
            base = f"{process.name}/{name}"
            names = (base + ":timer", base + ":mailbox", base + ":future")
            if len(cache) >= 64:
                cache.clear()
            cache[name] = names
        self._timer_name, self._mailbox_name, self._future_name = names

    # ----------------------------------------------------------------- state

    def kill(self) -> None:
        """Terminate the thread, cancelling any pending timer or wait."""
        if not self.alive:
            return
        self.alive = False
        self._cancel_pending()
        self.generator.close()

    def _cancel_pending(self) -> None:
        self._wait_token += 1
        self._armed_result = None
        if self._pending_timer is not None:
            self._pending_timer.cancel()
            self._pending_timer = None
        if self._pending_receive is not None:
            self.process._unregister_waiter(self, self._pending_receive.keys)
            self._pending_receive = None
        if self._pending_future is not None:
            self._pending_future.discard_callback(self._future_cb)
            self._pending_future = None

    # ------------------------------------------------------------- stepping

    def start(self) -> None:
        """Begin executing the coroutine (runs until its first wait)."""
        self._advance(None)

    def resume(self, value: Any) -> None:
        """Resume the coroutine with ``value`` as the result of its last wait."""
        self._cancel_pending()
        self._advance(value)

    def _advance(self, value: Any) -> None:
        if not self.alive or self.finished:
            return
        try:
            wait = self.generator.send(value)
        except StopIteration:
            self._finish()
            return
        except Exception as exc:  # surface protocol bugs loudly
            self._finish()
            self.process.trace.record(
                "thread_error", self.process.name, thread=self.name, error=repr(exc)
            )
            raise ThreadError(f"thread {self.name!r} on {self.process.name!r} failed") from exc
        self._handle_wait(wait)

    def _finish(self) -> None:
        # Leave the thread table and drop the prebound wake-ups: they refer
        # back to the thread, and that cycle would leave every finished thread
        # to the cyclic collector instead of reference counting.
        self.finished = True
        self.alive = False
        self._fire_cb = self._future_cb = None
        self.process._threads.pop(self.id, None)

    def _handle_wait(self, wait: Wait) -> None:
        # Exact-type dispatch: the three wait classes are final, and ``type
        # is`` is measurably cheaper than an isinstance chain on the per-event
        # hot path.
        cls = wait.__class__
        if cls is Receive:
            self._handle_receive(wait)
        elif cls is Sleep:
            self._arm_timer(wait.delay, result=None)
        elif cls is WaitFuture:
            self._handle_future(wait)
        else:
            raise ThreadError(
                f"thread {self.name!r} yielded unsupported wait object {wait!r}"
            )

    def _fire(self, _arg: Any = None) -> None:
        """Prebound timer/mailbox wake-up: resume with the armed result.

        Dropping the handle *first* is what lets the wake-up events come
        from the kernel's recycled pool (``schedule_call``): once an event
        has fired, no stale ``_pending_timer`` reference survives for
        ``_cancel_pending`` to cancel, so a cancel can never land on a
        recycled, live event.  The ``_arg`` parameter only absorbs the
        argument-carrying kernels pass; it is unused.
        """
        self._pending_timer = None
        if self.alive and self._armed_token == self._wait_token:
            self.resume(self._armed_result)

    def _on_future(self, value: Any) -> None:
        """Prebound future-resolution wake-up."""
        if self.alive and self._armed_token == self._wait_token:
            self.resume(value)

    def _arm_timer(self, delay: float, result: Any) -> None:
        self._armed_token = self._wait_token
        self._armed_result = result
        # Pooled event: safe because _fire clears _pending_timer before it
        # can ever be cancelled (see _fire), so the handle is never retained
        # past dispatch.
        self._pending_timer = self.process.sim.schedule_call(
            delay, self._fire_cb, None, name=self._timer_name
        )

    def _handle_receive(self, wait: Receive) -> None:
        message = self.process._take(wait.keys)
        if message is not None:
            # Resume via the scheduler to keep same-time ordering deterministic
            # and to avoid unbounded recursion through long message chains.
            self._armed_token = self._wait_token
            self._armed_result = message
            self._pending_timer = self.process.sim.call_soon_call(
                self._fire_cb, None, name=self._mailbox_name
            )
            return
        self._pending_receive = wait
        self.process._register_waiter(self, wait.keys)
        if wait.timeout is not None:
            self._arm_timer(wait.timeout, result=TIMEOUT)

    def _handle_future(self, wait: WaitFuture) -> None:
        if wait.future.resolved:
            self._armed_token = self._wait_token
            self._armed_result = wait.future.value
            self._pending_timer = self.process.sim.call_soon_call(
                self._fire_cb, None, name=self._future_name
            )
            return
        self._armed_token = self._wait_token
        self._pending_future = wait.future
        wait.future.on_resolve(self._future_cb)
        if wait.timeout is not None:
            self._arm_timer(wait.timeout, result=TIMEOUT)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else ("finished" if self.finished else "dead")
        return f"<Thread {self.process.name}/{self.name} ({state})>"


class _Server:
    """A serial FIFO server (:meth:`Process.serve`).

    It schedules exactly the events of a thread looping on ``receive``: each
    sleep is one timer, and a step that ends with messages queued starts the
    next one from a ``call_soon`` hop, the thread's mailbox-hit wake-up.
    """

    __slots__ = ("process", "step", "name", "queue", "running", "timer", "_resume_cb")

    def __init__(self, process: "Process", step: Callable[[Any], ProtocolGenerator]):
        self.process, self.step, self.queue = process, step, deque()
        self.name = f"{process.name}/{step.__name__}"
        self.running: Optional[ProtocolGenerator] = None  # started or hopped to
        self.timer: Optional[Any] = None  # pooled: dropped as it fires
        self._resume_cb = self._resume

    def offer(self, message: Any) -> None:
        if self.running is None:
            self.running = self.step(message)
            self._resume()
        elif self.process._admit(message.msg_type):
            self.queue.append(message)

    def _resume(self, _arg: Any = None) -> None:
        self.timer = None
        process = self.process
        try:
            wait = self.running.send(None)
            if wait.__class__ is not Sleep:
                raise TypeError(f"a served step may only sleep, got {wait!r}")
        except StopIteration:
            self.running = None
            if self.queue:
                process._mailbox_count -= 1
                self.running = self.step(self.queue.popleft())
                self.timer = process.sim.call_soon_call(self._resume_cb, None, name=self.name)
            return
        except Exception as exc:  # as loud as a failing thread
            self.running = None
            process.trace.record("thread_error", process.name, thread=self.step.__name__,
                                 error=repr(exc))
            raise ThreadError(f"step {self.name!r} failed") from exc
        self.timer = process.sim.schedule_call(wait.delay, self._resume_cb, None, name=self.name)

    def stop(self) -> None:
        if self.timer is not None:
            self.timer.cancel()
        if self.running is not None:
            self.running.close()


class _Ticker:
    """A timer-driven step (:meth:`Process.tick`): the events of a thread that
    loops on ``sleep``, and on a never-resolved future when it has nothing due."""

    __slots__ = ("sim", "step", "name", "timer", "_fire_cb")

    def __init__(self, process: "Process", step: Callable[[], Optional[float]]):
        self.sim, self.step, self.timer = process.sim, step, None
        self.name = f"{process.name}/{step.__name__}"
        self._fire_cb = self._fire

    def _fire(self, _arg: Any = None) -> None:
        self.timer = None  # pooled: dropped as it fires
        delay = self.step()
        if delay is not None and self._fire_cb is not None:  # a crash in the step stops it
            self.timer = self.sim.schedule_call(delay, self._fire_cb, None, name=self.name)

    def poke(self) -> None:
        """Cancel the armed timer, if any, and step now (a no-op once stopped)."""
        if self.timer is not None:
            self.timer.cancel()
        if self._fire_cb is not None:
            self._fire()

    def stop(self) -> None:
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None
        self._fire_cb = None


class Process:
    """A simulated node that can crash and recover.

    Subclasses build their volatile state and start their protocol activity
    in :meth:`on_start`, and keep their durable state on :attr:`disk`.
    """

    #: A pure server hosts no thread, so nothing could ever ``receive`` a
    #: message its handlers do not take: such a message is dropped, traced
    #: as ``unhandled`` and counted instead of buffered for ever.
    pure_server = False

    #: Reply types that :meth:`deliver` drops, as if lost, once their ``j`` is
    #: in ``_terminated``: late retransmitted replies nobody will receive.
    _stale_types: frozenset[str] = frozenset()
    _terminated: Container[Any] = frozenset()

    def __init__(self, sim: Kernel, name: str):
        self.sim = sim
        self.name = name
        self.trace = sim.trace
        self.up = True
        self.crash_count = 0
        # The node's stable storage: the one place state survives a crash.
        self.disk = StableStorage(f"{name}.disk")
        # The inbox holds what no receive took yet, by message type and then
        # by correlation -- the ``j`` payload, or the sender for a message
        # without one -- as a deque of (arrival number, message).  Every
        # message of a deque matches the same keys, so a take pops the oldest
        # head across the wait's keys; a deque emptied by a take is deleted.
        self._inbox: dict[str, dict[Any, deque[tuple[int, Any]]]] = {}
        self._mailbox_seq = 0
        self._mailbox_count = 0
        # Admission control: with a non-zero limit, a message that would grow
        # the buffered backlog past it is shed (with an ``overload`` trace
        # event) instead of buffered.  Shedding is safe under the paper's
        # fair-lossy channel model -- senders cannot distinguish a shed from a
        # network loss -- and keeps a saturated process's memory bounded.
        self.mailbox_limit = 0
        self.shed_messages = 0
        self.mailbox_peak = 0
        self.unhandled_messages = 0
        self._threads: dict[int, Thread] = {}  # live ones, by id: spawn order
        # Threads blocked on a receive, under each key they wait on: a
        # delivery looks up its own key and ``(msg_type, ANY)``.  An entry is
        # deleted once it empties (correlations are transaction scoped).
        self._waiters: dict[tuple, dict[int, Thread]] = {}
        # Synchronous handlers by message type (``on_message``); volatile.
        self._handlers: dict[str, Callable[[Any], None]] = {}
        self._servers: list[_Server | _Ticker] = []  # stopped by a crash
        self._timers: set[Any] = set()  # armed by after(), not yet fired: cancelled by a crash
        self._thread_names: dict[str, tuple[str, str, str]] = {}
        self._thread_ids = 0
        self._transport: Optional[Any] = None  # installed by repro.net.Network

    def _next_thread_id(self) -> int:
        self._thread_ids += 1
        return self._thread_ids

    # ------------------------------------------------------------ properties

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.sim.now

    @property
    def threads(self) -> list[Thread]:
        """The live threads, in spawn order (a finished one has left)."""
        return list(self._threads.values())

    @property
    def mailbox_size(self) -> int:
        """Number of buffered, not-yet-consumed messages (queued at a
        :meth:`serve` server included)."""
        return self._mailbox_count

    def rng(self, stream: Optional[str] = None):
        """Deterministic random stream scoped to this process."""
        return self.sim.rng(stream if stream is not None else self.name)

    # --------------------------------------------------------------- startup

    def start(self) -> None:
        """Start the process for the first time (calls :meth:`on_start`)."""
        self.on_start(recovery=False)

    def on_start(self, recovery: bool) -> None:
        """Build this incarnation's volatile state and start its activity.
        Subclasses override."""

    # ------------------------------------------------------------ coroutines

    def spawn(self, generator: ProtocolGenerator, name: str = "thread") -> Thread:
        """Spawn a coroutine thread on this process and start it immediately."""
        if not self.up:
            raise ProcessNotRunning(f"cannot spawn thread on crashed process {self.name!r}")
        thread = Thread(self, generator, name)
        self._threads[thread.id] = thread
        thread.start()
        return thread

    def tick(self, step: Callable[[], Optional[float]]) -> "_Ticker":
        """Run ``step()`` now and again after each delay it returns.

        ``None`` parks the ticker until its ``poke()``, which also cancels an
        armed delay and steps at once.  Each delay arms one pooled timer, the
        event a thread's ``sleep`` arms; a crash stops the ticker for good.
        """
        if not self.up:
            raise ProcessNotRunning(f"cannot tick on crashed process {self.name!r}")
        ticker = _Ticker(self, step)
        self._servers.append(ticker)
        ticker.poke()
        return ticker

    def after(self, delay: float, callback: Callable[[], None], name: str) -> Any:
        """Call ``callback()`` after ``delay`` unless this incarnation crashes
        first; :meth:`cancel` the returned handle to stop it earlier."""
        if not self.up:
            raise ProcessNotRunning(f"cannot arm a timer on crashed process {self.name!r}")
        timers = self._timers

        def fire() -> None:
            timers.discard(timer)
            callback()

        timer = self.sim.schedule(delay, fire, name)
        timers.add(timer)
        return timer

    def cancel(self, timer: Any) -> None:
        """Stop a timer of :meth:`after` (a no-op once it fired or was cancelled)."""
        self._timers.discard(timer)
        timer.cancel()

    def on_message(self, msg_type: str, handler: Callable[[Any], None]) -> None:
        """Run ``handler(message)`` inside :meth:`deliver` for every ``msg_type``.

        For traffic whose processing never blocks: no pump thread to resume
        and re-index per message.  A handled type is never buffered and never
        offered to ``receive`` waiters.  Handlers are volatile like threads (a
        crash drops them, ``on_start`` registers them again) and an exception
        they raise propagates out of ``deliver``.
        """
        if not self.up:
            raise ProcessNotRunning(f"cannot register handler on crashed process {self.name!r}")
        if msg_type in self._handlers:
            raise ValueError(f"{self.name!r} already handles {msg_type!r} messages")
        self._handlers[msg_type] = handler

    def serve(self, msg_types: str | Iterable[str],
              step: Callable[[Any], ProtocolGenerator]) -> None:
        """Serve ``msg_types`` one message at a time, in arrival order.

        ``step(message)`` is a generator that may only ``yield self.sleep(d)``
        -- a receive-and-reply loop without the thread.  Messages arriving
        while a step runs queue (they count in :attr:`mailbox_size`); a crash
        drops the step and the queue, and ``on_start`` serves again.
        """
        server = _Server(self, step)
        for msg_type in (msg_types,) if isinstance(msg_types, str) else msg_types:
            self.on_message(msg_type, server.offer)
        self._servers.append(server)

    # Wait-constructor helpers so protocol code reads naturally -------------

    def sleep(self, delay: float) -> Sleep:
        """``yield self.sleep(d)`` suspends the calling thread for ``d``."""
        return Sleep(delay)

    def receive(self, keys: Sequence[tuple[str, Any]],
                timeout: Optional[float] = None) -> Receive:
        """``yield self.receive(keys)`` waits for a message filed under one of
        ``keys``: ``(msg_type, j)``, ``(msg_type, sender)`` for a message
        without ``j``, or ``(msg_type, ANY)``."""
        return Receive(keys, timeout)

    def wait_for(self, future: SimFuture, timeout: Optional[float] = None) -> WaitFuture:
        """``yield self.wait_for(f)`` waits for ``f`` to resolve."""
        return WaitFuture(future, timeout)

    # ------------------------------------------------------------- messaging

    def attach_transport(self, transport: Any) -> None:
        """Install the network transport (called by ``repro.net.Network``)."""
        self._transport = transport

    def send(self, destination: str, message: Any) -> None:
        """Send ``message`` to the process named ``destination``.

        Sends from a crashed process are silently dropped, matching the model
        in which a down process performs no actions.
        """
        if not self.up:
            return
        if self._transport is None:
            raise ProcessNotRunning(f"process {self.name!r} has no transport attached")
        self._transport.send(self.name, destination, message)

    def multicast(self, destinations: Iterable[str], message: Any) -> None:
        """Send a copy of ``message`` to every process in ``destinations``.

        There is no atomicity guarantee (matching the paper's model); each copy
        is an independent message with its own identifier.
        """
        copier = getattr(message, "copy", None)
        if copier is None or not callable(copier):
            for destination in destinations:
                self.send(destination, message)
            return
        send = self.send
        for destination in destinations:
            send(destination, copier())

    def _register_waiter(self, thread: Thread, keys: Sequence[tuple]) -> None:
        """File a thread that just blocked on a receive under its keys."""
        waiters = self._waiters
        for key in keys:
            threads = waiters.get(key)
            if threads is None:
                threads = waiters[key] = {}
            threads[thread.id] = thread

    def _unregister_waiter(self, thread: Thread, keys: Sequence[tuple]) -> None:
        """Drop a thread from the waiters (wait satisfied or cancelled)."""
        waiters = self._waiters
        for key in keys:
            threads = waiters.get(key)
            if threads is not None:
                threads.pop(thread.id, None)
                if not threads:
                    del waiters[key]

    def deliver(self, message: Any) -> None:
        """Deliver a message to this process (called by the network).

        Messages arriving at a crashed process are dropped and a type with a
        handler (:meth:`on_message`, :meth:`serve`) goes to it alone; a
        :attr:`pure_server` drops any other type; a reply of ``_stale_types``
        whose ``j`` is in ``_terminated`` is dropped as if lost; otherwise the
        message is filed under ``(msg_type, j)`` -- ``(msg_type, sender)``
        without a ``j`` -- and either resumes a thread waiting on that key or
        on ``(msg_type, ANY)``, the earliest spawned one if several are, or
        is buffered in the inbox.
        """
        if not self.up:
            return
        msg_type = message.msg_type
        handler = self._handlers.get(msg_type)
        if handler is not None:
            handler(message)
            return
        if self.pure_server:
            self.unhandled_messages += 1
            self.trace.record("unhandled", self.name, msg_type=msg_type)
            return
        payload = message._payload
        correlation = payload["j"] if "j" in payload else message.sender
        if msg_type in self._stale_types and correlation in self._terminated:
            return
        waiters = self._waiters
        if waiters:
            threads = waiters.get((msg_type, correlation))
            wild = waiters.get((msg_type, ANY))
            if wild:
                threads = {**threads, **wild} if threads else wild
            if threads:
                threads[min(threads)].resume(message)
                return
        if not self._admit(msg_type):
            return
        self._mailbox_seq += 1
        by_corr = self._inbox.get(msg_type)
        if by_corr is None:
            by_corr = self._inbox[msg_type] = {}
        queue = by_corr.get(correlation)
        if queue is None:
            queue = by_corr[correlation] = deque()
        queue.append((self._mailbox_seq, message))

    def _admit(self, msg_type: Any) -> bool:
        """Count one more buffered message, or shed it at ``mailbox_limit``."""
        count = self._mailbox_count
        limit = self.mailbox_limit
        if limit and count >= limit:
            self.shed_messages += 1
            trace = self.trace
            if trace.wants("overload"):
                trace.record("overload", self.name, msg_type=msg_type, backlog=count)
            return False
        self._mailbox_count = count = count + 1
        if count > self.mailbox_peak:
            self.mailbox_peak = count
        return True

    def discard_buffered(self, correlation: Any) -> int:
        """Drop every buffered message whose ``j`` payload equals ``correlation``.

        Protocol code calls this when a transaction terminates: retransmitted
        replies (votes, acknowledgements, execute results) keyed by a result
        that is already terminated can never be consumed again, and dropping
        a buffered message is indistinguishable from network loss in the
        paper's fair-lossy channel model.  Keeps long runs' mailbox memory
        proportional to the in-flight work instead of the run's history.
        """
        dropped = 0
        for by_corr in self._inbox.values():
            queue = by_corr.pop(correlation, None)
            if queue:
                dropped += len(queue)
        self._mailbox_count -= dropped
        return dropped

    def _take(self, keys: Sequence[tuple]) -> Optional[Any]:
        """Remove and return the oldest buffered message filed under one of ``keys``."""
        if not self._mailbox_count:
            return None
        inbox = self._inbox
        best: Optional[deque] = None
        for msg_type, correlation in keys:
            by_corr = inbox.get(msg_type)
            if not by_corr:
                continue
            if correlation is ANY:
                for corr, queue in by_corr.items():
                    if best is None or queue[0][0] < best[0][0]:
                        best, best_corr, best_by_corr = queue, corr, by_corr
            else:
                queue = by_corr.get(correlation)
                if queue is not None and (best is None or queue[0][0] < best[0][0]):
                    best, best_corr, best_by_corr = queue, correlation, by_corr
        if best is None:
            return None
        message = best.popleft()[1]
        if not best:
            del best_by_corr[best_corr]
        self._mailbox_count -= 1
        return message

    # ------------------------------------------------------- crash / recover

    def crash(self) -> None:
        """Crash the process: stop all its activity and drop its mailbox (a
        subclass's volatile state waits for the next :meth:`on_start`)."""
        if not self.up:
            return
        self.up = False
        self.crash_count += 1
        for thread in list(self._threads.values()):
            thread.kill()
        self._threads.clear()
        self._waiters.clear()
        self._handlers.clear()
        for server in self._servers:
            server.stop()
        self._servers.clear()
        for timer in self._timers:
            timer.cancel()
        self._timers.clear()
        self._inbox.clear()
        self._mailbox_count = 0
        self._notify_transport("on_process_crash")
        self.trace.record("crash", self.name)

    def recover(self) -> None:
        """Bring the process back up and restart its entry point."""
        if self.up:
            return
        self.up = True
        self._notify_transport("on_process_recover")
        self.trace.record("recover", self.name)
        self.on_start(recovery=True)

    def _notify_transport(self, hook: str) -> None:
        """Tell the transport about a crash/recovery, if it cares.

        A real transport (TCP) maps a crash to dropping the process's live
        connections; interposed channel layers without the hook are skipped.
        """
        callback = getattr(self._transport, hook, None)
        if callback is not None:
            callback(self.name)

    def crash_for(self, downtime: float) -> None:
        """Crash now and automatically recover after ``downtime`` virtual time."""
        self.crash()
        self.sim.schedule(downtime, self.recover, name=f"{self.name}:recover")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.up else "down"
        return f"<Process {self.name} ({state})>"

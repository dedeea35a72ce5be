"""The yardstick: a fixed pure-Python unit of work that host time is divided by.

Host speed on the boxes this benchmark runs on drifts by tens of percent
from one second to the next, so neither wall nor CPU time repeats.  The
harness therefore never reports a raw time as a gated metric: every few
milliseconds it runs this yardstick right next to the work it measures and
reports ``work / yardstick`` -- numerator and denominator share the noise.

The loop below is deliberately a miniature of what the simulator itself does
(pop a heap of slotted events, resume a generator, allocate a small tuple and
touch a dict), so a change in how fast this interpreter on this box runs that
*kind* of code moves both sides alike.  It must never change: every committed
number is expressed in units of it.
"""

from __future__ import annotations

from heapq import heappop, heappush
from time import process_time

#: Events dispatched by one :func:`run` call (about 0.5 ms of CPU).
ITERATIONS = 800

#: CPU nanoseconds one yardstick iteration took on the builder's box during
#: the first full run of the benchmark.  It only converts yardstick units
#: into "nominal" seconds so the numbers read like times; it is fixed once
#: and never re-tuned (see README, "How YARDSTICK_NOMINAL_NS was fixed").
YARDSTICK_NOMINAL_NS = 600.0


class _Event:
    __slots__ = ("time", "thread", "payload")

    def __init__(self, time: int, thread, payload: tuple):
        self.time = time
        self.thread = thread
        self.payload = payload


def _thread(ident: int):
    """A generator "process": wakes, books a little state, sleeps again."""
    state: dict[int, tuple] = {}
    step = 0
    while True:
        woke_at = yield (ident + step) % 7 + 1
        state[step & 15] = (ident, woke_at)
        step += 1


def run(iterations: int = ITERATIONS) -> float:
    """Dispatch ``iterations`` events; returns the CPU seconds it took."""
    started = process_time()
    heap: list[tuple[int, int, _Event]] = []
    seq = 0
    for ident in range(8):
        thread = _thread(ident)
        delay = next(thread)
        heappush(heap, (delay, seq, _Event(delay, thread, (ident, seq))))
        seq += 1
    for _ in range(iterations):
        now, _seq, event = heappop(heap)
        delay = event.thread.send(now)
        seq += 1
        due = now + delay
        heappush(heap, (due, seq, _Event(due, event.thread, (now, seq))))
    return process_time() - started

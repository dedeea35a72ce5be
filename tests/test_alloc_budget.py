"""Allocation budget: the hot path must stay allocation-slim.

Counts allocator blocks per delivered request on the closed-loop traffic
shape and the sharded open-loop soak shape.  Pure-stdlib CPython exposes no
cumulative allocation counter (``tracemalloc`` and the gc stats are net
figures), so the kernel is single-stepped and each event is charged the
growth of ``sys.getallocatedblocks()`` it caused: an event that allocates five
blocks and frees five *older* ones scores zero net but its churn still
surfaces, because allocation and release of one object almost never land in
the same step (``run_until`` checks its predicate after every event, so the
predicate is the sampler).  With the GC disabled and the workload deterministic the
figure is reproducible to a fraction of a percent and, being a count, needs
no machine-speed calibration.

It is per request, not per event: deleting the cheapest events (an idle tick
allocates nothing) lowers the total and *raises* blocks/event, which must not
read as a regression.  The exact dispatched-event counts are pinned too: the
scenarios are deterministic, so any drift means behaviour changed and the
block figures are incomparable -- re-pin both only for an intended change.

What a run retains is budgeted too, as the objects the cyclic collector must
walk: ``len(gc.get_objects())`` once collecting frees nothing more is an exact
count, taken once the system is built and its load laid out and again after
the run, per delivered request.  So are the calls into ``sim/process.py`` per request, counted by
``cProfile`` over the same deterministic runs: a count, exact for a given tree.
A stored trace event is budgeted in bytes: sealed under ``full``, and alive in
a ``ring:N`` (``tracemalloc``, beyond the same run at ``off``).
"""

import cProfile
import gc
import pstats
import sys
import tracemalloc

from repro import api
from repro.experiments.soak import tracked_objects
from repro.sim.tracing import BLOCK_ROWS, TraceRecorder
from repro.workload.generator import ClosedLoop

TRAFFIC_DSN = "etx://a3.d1.c4?seed=3&workload=bank&timing=paper&trace=off"
TWO_PC_DSN = "2pc://a1.d1.c4?seed=3&workload=bank&timing=paper&trace=off"
TWO_PC_TRACED_DSN = "2pc://a1.d1.c4?seed=3&workload=bank&timing=paper&trace=full"
SOAK_DSN = ("etx://a3.d8.c64?rate=32&arrival=poisson&seed=11"
            "&workload=bank&placement=hash&xshard=0.1&trace=off")

#: More than 30 % above the pinned blocks/request (measured when the data
#: tier's receive loops became served steps: 101.6 traffic, 119.4 soak;
#: 103.5 and 121.0 with the loops) fails.
HEADROOM = 1.3

#: More than 10 % above the pinned ``sim/process.py`` calls/request (measured
#: when ``receive`` took keys: 137.2 traffic, 138.5 soak; 175.9 and 177.2
#: with the hinted matchers, the waiter index and the ``trace`` property) fails.
CALLS_HEADROOM = 1.1

#: More than 20 % above the pinned GC-tracked objects retained per request
#: (measured with no client history and a WAL checkpointed every 256 rows,
#: collecting until the count stops falling: 2.77 traffic, 0.85 soak, 2.36
#: 2pc; 2.89, 0.93 and 2.51 after a single collection, which also counts
#: what that pass happened to leave; 6.83, 4.99 and 6.89 with each client's
#: delivered handles kept and every WAL row; 13.96, 12.30 and 15.34 with a
#: LogRecord, a Transaction and a monitor set per fact) fails.
RETAINED_HEADROOM = 1.2


def _stepped_alloc_blocks(sim, is_done) -> tuple[int, int]:
    """(sum of positive per-event block deltas, events fired) until ``is_done``."""
    blocks = sys.getallocatedblocks
    was_enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    grown = 0
    fired_before = sim.events_processed

    def sample() -> bool:
        nonlocal before, grown
        after = blocks()
        if after > before:
            grown += after - before
        before = after
        return is_done()

    try:
        before = blocks()
        sim.run_until(sample)
    finally:
        if was_enabled:
            gc.enable()
    return grown, sim.events_processed - fired_before


def _process_calls(sim, is_done) -> tuple[int, int]:
    """(calls into ``sim/process.py``, events fired) until ``is_done``."""
    profile = cProfile.Profile()
    fired_before = sim.events_processed
    profile.enable()
    try:
        sim.run_until(is_done)
    finally:
        profile.disable()
    calls = sum(entry[1] for (filename, _line, _name), entry
                in pstats.Stats(profile).stats.items()  # type: ignore[attr-defined]
                if filename.replace("\\", "/").endswith("repro/sim/process.py"))
    return calls, sim.events_processed - fired_before


def _retained_objects(sim, is_done) -> tuple[int, int]:
    """(GC-tracked objects alive after the run minus before it, events fired)."""
    before = tracked_objects()
    fired_before = sim.events_processed
    sim.run_until(is_done)
    return tracked_objects() - before, sim.events_processed - fired_before


def _closed_loop(dsn: str, requests_per_client: int,
                 sample=_stepped_alloc_blocks) -> tuple[float, int]:
    """``ClosedLoop``'s shape, stepped: each client keeps one request in flight."""
    system = api.build(api.Scenario.from_dsn(dsn))
    clients = list(system.clients)
    remaining = dict.fromkeys(clients, requests_per_client)
    total = requests_per_client * len(clients)
    done = [0]

    def issue_next(client: str) -> None:
        if remaining[client] <= 0:
            return
        remaining[client] -= 1
        issued = system.issue(system.standard_request(), client)

        def on_delivered(_result) -> None:
            done[0] += 1
            issue_next(client)

        issued.future.on_resolve(on_delivered)

    for client in clients:
        issue_next(client)
    figure, events = sample(system.sim, lambda: done[0] >= total)
    assert done[0] == total
    return figure / total, events


def _open_loop(dsn: str, total: int, rate: float,
               sample=_stepped_alloc_blocks) -> tuple[float, int]:
    """``OpenLoop``'s shape, stepped: the arrival schedule is laid out up front
    (outside the sampled region), then the kernel runs to the last delivery."""
    system = api.build(api.Scenario.from_dsn(dsn))
    sim = system.sim
    clients = list(system.clients)
    done = [0]
    rng = sim.rng("load.arrivals")
    clock = 0.0

    def inject(client: str) -> None:
        issued = system.issue(system.standard_request(), client)
        issued.future.on_resolve(lambda _result: done.__setitem__(0, done[0] + 1))

    for index in range(total):
        client = clients[index % len(clients)]
        clock += rng.expovariate(rate / 1000.0)
        sim.schedule(clock, lambda c=client: inject(c), name="arrival")
    figure, events = sample(sim, lambda: done[0] >= total)
    assert done[0] == total
    return figure / total, events


def test_traffic_shape_events_and_blocks_per_request():
    blocks_per_request, events = _closed_loop(TRAFFIC_DSN, requests_per_client=20)
    print(f"\ntraffic: {blocks_per_request:.1f} blocks/request, {events} events")
    assert events == 1911
    assert blocks_per_request <= HEADROOM * 101.6


def test_soak_shape_events_and_blocks_per_request():
    blocks_per_request, events = _open_loop(SOAK_DSN, total=400, rate=32.0)
    print(f"\nsoak: {blocks_per_request:.1f} blocks/request, {events} events")
    assert events == 9360
    assert blocks_per_request <= HEADROOM * 119.4


def test_traffic_shape_process_calls_per_request():
    calls_per_request, events = _closed_loop(TRAFFIC_DSN, requests_per_client=20,
                                             sample=_process_calls)
    print(f"\ntraffic: {calls_per_request:.1f} sim/process.py calls/request")
    assert events == 1911
    assert calls_per_request <= CALLS_HEADROOM * 137.2


def test_soak_shape_process_calls_per_request():
    calls_per_request, events = _open_loop(SOAK_DSN, total=400, rate=32.0,
                                           sample=_process_calls)
    print(f"\nsoak: {calls_per_request:.1f} sim/process.py calls/request")
    assert events == 9360
    assert calls_per_request <= CALLS_HEADROOM * 138.5


def test_traffic_shape_retained_objects_per_request():
    retained_per_request, events = _closed_loop(TRAFFIC_DSN, requests_per_client=20,
                                                sample=_retained_objects)
    print(f"\ntraffic: {retained_per_request:.2f} retained objects/request")
    assert events == 1911
    assert retained_per_request <= RETAINED_HEADROOM * 2.77


def test_soak_shape_retained_objects_per_request():
    retained_per_request, events = _open_loop(SOAK_DSN, total=400, rate=32.0,
                                              sample=_retained_objects)
    print(f"\nsoak: {retained_per_request:.2f} retained objects/request")
    assert events == 9360
    assert retained_per_request <= RETAINED_HEADROOM * 0.85


def test_2pc_closed_loop_retained_objects_per_request():
    retained_per_request, events = _closed_loop(TWO_PC_DSN, requests_per_client=20,
                                                sample=_retained_objects)
    print(f"\n2pc: {retained_per_request:.2f} retained objects/request")
    assert events == 1119
    assert retained_per_request <= RETAINED_HEADROOM * 2.36


def test_a_full_trace_leaves_the_collector_nothing_to_walk():
    """Sealed events are bytes: 0.00 GC-tracked objects per stored event
    (2.00 when each was a ``TraceEvent`` holding a tracked dict and list)."""
    trace = TraceRecorder()
    stored = 2 * 3 * 4096
    assert stored % BLOCK_ROWS == 0  # every row sealed, none left live
    gc.collect()
    before = len(gc.get_objects())
    for n in range(stored // 2):
        trace.record("msg_send", "a1", msg_type="Prepare", destination="d1", msg_id=n,
                     payload_keys=["request", "txn"])
        trace.record("msg_deliver", "d1", msg_type="Prepare", sender="a1", msg_id=n)
    gc.collect()
    tracked = len(gc.get_objects()) - before
    assert len(trace) == stored
    assert tracked / stored <= 0.05, tracked


def test_a_full_trace_seals_under_16_bytes_per_event():
    """A sealed event of the 2PC comparator's full trace costs 12.1 bytes on
    Python 3.10, 3.11, 3.12 and 3.13 with zlib 1.2.13 or 1.3.1; another zlib
    build may deflate a little differently, hence the margin.  An uncompressed
    pickle block cost 37.6 bytes (44.3 when a transport event was sealed as a
    data dict, 63.9 when a block was ``marshal``'s, which writes each repeated
    category, process and key string out again)."""
    system = api.build(api.Scenario.from_dsn(TWO_PC_TRACED_DSN))
    ClosedLoop().run(system, 20)
    trace = system.trace
    assert trace._sealed >= 8 * BLOCK_ROWS
    per_event = sum(map(len, trace._blocks)) / trace._sealed
    system.close()
    print(f"\n2pc trace=full: {per_event:.1f} sealed bytes/event")
    assert per_event <= 16, per_event


def _traced_bytes(retention: str, requests_per_client: int) -> tuple[int, int]:
    """(bytes ``tracemalloc`` sees alive after a closed-loop run of the 2PC
    comparator at ``retention``, events stored)."""
    dsn = TWO_PC_TRACED_DSN.replace("trace=full", f"trace={retention}")
    system = api.build(api.Scenario.from_dsn(dsn))
    gc.collect()
    tracemalloc.start()
    try:
        ClosedLoop().run(system, requests_per_client)
        gc.collect()
        size, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    stored = len(system.trace)
    system.close()
    return size, stored


def test_a_ring_row_costs_under_260_bytes():
    """A live ``ring:N`` row of the 2PC comparator costs 227.7 bytes (321.2
    when a transport event was stored as a row and a data dict): the bytes
    alive after the run beyond those of the same run at ``off``."""
    ring, stored = _traced_bytes("ring:100000", 100)
    off, _ = _traced_bytes("off", 100)
    assert stored == 11600
    per_row = (ring - off) / stored
    print(f"\n2pc trace=ring: {per_row:.1f} bytes/live row")
    assert per_row <= 260, per_row

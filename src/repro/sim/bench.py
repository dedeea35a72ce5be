"""Kernel microbenchmarks: the timer wheel against the frozen heap kernel.

End-to-end scenario runs are dominated by protocol and network code, so
they mostly hide what the event queue costs.  These benchmarks isolate the
kernel by driving the two :class:`~repro.runtime.base.Kernel`
implementations -- the timer-wheel :class:`repro.sim.scheduler.Simulator`
and the frozen pre-wheel :class:`repro.sim.legacy.HeapSimulator` -- with
nothing but scheduler traffic:

* ``timer_fire`` -- a deep population of spread timers, all of which fire.
  Insert + drain throughput at depth, no cancellation.
* ``retransmit_churn`` -- the protocol-shaped steady state: every virtual
  millisecond a batch of timers is armed and the previous batch cancelled
  before it fires (an ack stopping a retransmit timer).
* ``cancel_heavy`` -- a deep spread population of which 90% is cancelled
  before firing.  The wheel's true removal never touches a cancelled
  entry again; the heap sifts every tombstone to the top before it can
  drop it.
* ``same_time_chain`` -- each callback reschedules itself at the current
  timestamp; stresses same-timestamp FIFO dispatch and the ready-run
  merge.  This is the one shape where a one-element binary heap is close
  to optimal, so it bounds the wheel's constant-factor overhead.

Two figures are reported per scenario and kernel (seconds are process CPU
seconds, see ``_clock``):

* ``lifecycle`` -- scheduler operations per second with *everything* in
  the timed region: scheduling, cancelling and draining.  Neither kernel
  gets to push costs outside the clock (the heap pays for cancellations
  at pop time, the wheel at cancel time), so this is the fair end-to-end
  figure.  Expect moderate ratios here: event-object construction costs
  both kernels the same.
* ``drain`` -- events dispatched per second of :meth:`run` time only.
  This isolates the dispatch path, which is what protocol latency sits
  behind once a queue has built up.  On ``cancel_heavy`` the asymmetry is
  structural: the wheel already removed every cancelled entry, while the
  heap must sift each tombstone to the top before it can drop it.

``python -m repro kernelbench`` runs everything and writes the BENCH json
consumed by ``benchmarks/test_bench_kernel.py``, which gates the
wheel-vs-heap ratios.
"""

from __future__ import annotations

import time
from statistics import median
from typing import Callable, Dict, Tuple

#: Scenario name -> relative weight of the default operation count.
SCENARIOS = ("timer_fire", "retransmit_churn", "cancel_heavy", "same_time_chain")

DEFAULT_OPS = 200_000


def _nop() -> None:
    return None


def make_kernel(kind: str, seed: int = 0):
    """A fresh kernel instance: ``"wheel"`` (current) or ``"heap"`` (frozen)."""
    if kind == "heap":
        from repro.sim.legacy import HeapSimulator

        return HeapSimulator(seed=seed)
    if kind == "wheel":
        from repro.sim.scheduler import Simulator

        return Simulator(seed=seed)
    raise ValueError(f"unknown kernel kind {kind!r} (expected 'wheel' or 'heap')")


# Each scenario drives a fresh kernel and returns (total scheduler
# operations performed, seconds spent inside sim.run()).  The harness times
# the whole call for the lifecycle figure and uses the run() seconds with
# sim.events_processed for the drain figure.

#: The benches are single-threaded and CPU-bound, so they are timed in
#: process CPU seconds: a rate per CPU second does not move when another
#: process takes the core mid-measurement, a rate per wall second does.
_clock = time.process_time


def _run_timed(sim) -> float:
    start = _clock()
    sim.run()
    return _clock() - start


def _scenario_timer_fire(sim, ops: int) -> Tuple[int, float]:
    """Spread timers over ~800 ticks; everything fires."""
    schedule = sim.schedule
    for i in range(ops):
        schedule((i % 811) * 0.25, _nop)
    drain = _run_timed(sim)
    return ops + sim.events_processed, drain


def _scenario_retransmit_churn(sim, ops: int) -> Tuple[int, float]:
    """Arm timers ~150 ms out; cancel each when its 'ack' arrives."""
    depth = 2000
    pending = [sim.schedule(150.0 + (i % 97) * 0.37, _nop) for i in range(depth)]
    state = {"n": 0, "i": 0}

    def driver() -> None:
        i = state["i"]
        for _ in range(50):
            slot = i % depth
            pending[slot].cancel()
            pending[slot] = sim.schedule(150.0 + (i % 97) * 0.37, _nop)
            i += 1
        state["i"] = i
        state["n"] += 50
        if state["n"] < ops:
            sim.schedule(1.0, driver)

    sim.schedule(0.0, driver)
    drain = _run_timed(sim)
    return depth + state["n"] * 2 + sim.events_processed, drain


def _scenario_cancel_heavy(sim, ops: int) -> Tuple[int, float]:
    """Deep spread population, 90% cancelled before it can fire."""
    schedule = sim.schedule
    events = [schedule(1.0 + (i % 9973) * 0.11, _nop) for i in range(ops)]
    cancelled = 0
    for i, event in enumerate(events):
        if i % 10:
            event.cancel()
            cancelled += 1
    drain = _run_timed(sim)
    return ops + cancelled + sim.events_processed, drain


def _scenario_same_time_chain(sim, ops: int) -> Tuple[int, float]:
    """A callback chain at one timestamp: worst case for batched dispatch."""
    state = {"n": 0}

    def tick() -> None:
        state["n"] += 1
        if state["n"] < ops:
            sim.call_soon(tick)

    sim.call_soon(tick)
    drain = _run_timed(sim)
    return state["n"] + sim.events_processed, drain


_SCENARIO_FNS: Dict[str, Callable] = {
    "timer_fire": _scenario_timer_fire,
    "retransmit_churn": _scenario_retransmit_churn,
    "cancel_heavy": _scenario_cancel_heavy,
    "same_time_chain": _scenario_same_time_chain,
}


def run_scenario(kernel: str, scenario: str, ops: int = DEFAULT_OPS) -> Dict[str, float]:
    """One timed run on a fresh kernel: ``lifecycle`` ops/s and ``drain`` events/s."""
    sim = make_kernel(kernel)
    start = _clock()
    performed, drain_cpu = _SCENARIO_FNS[scenario](sim, ops)
    cpu = _clock() - start
    return {"lifecycle": performed / cpu,
            "drain": sim.events_processed / drain_cpu}


def run_kernel_bench(ops: int = DEFAULT_OPS, repeats: int = 3) -> dict:
    """Run every scenario under both kernels; return the BENCH payload.

    The payload carries absolute ops/sec per kernel and scenario (best of
    ``repeats``; machine dependent, informational) and the wheel/heap
    speedup ratios.  Each repeat times the two kernels back to back and
    the speedup is the median of the per-pair ratios: host-speed drift
    between repeats cancels inside a pair, and one pair hit by a noisy
    neighbour cannot move the median.
    """
    kernels: dict = {"wheel": {}, "heap": {}}
    speedup: dict = {}
    for scenario in SCENARIOS:
        pairs = [{kind: run_scenario(kind, scenario, ops)
                  for kind in ("heap", "wheel")}
                 for _ in range(repeats)]
        for kind in kernels:
            kernels[kind][scenario] = {
                metric: round(max(pair[kind][metric] for pair in pairs))
                for metric in ("lifecycle", "drain")}
        speedup[scenario] = {
            metric: round(median(pair["wheel"][metric] / pair["heap"][metric]
                                 for pair in pairs), 2)
            for metric in ("lifecycle", "drain")}
    return {
        "ops_per_scenario": ops,
        "ops_per_second": kernels,
        "speedup_wheel_vs_heap": speedup,
    }


# ------------------------------------------------------------- allocations


#: The closed-loop traffic shape of ``benchmarks/test_bench_traffic.py``.
ALLOC_TRAFFIC_DSN = "etx://a3.d1.c4?seed=3&workload=bank&timing=paper&trace=off"

#: The scaled-down 8-shard soak shape (open loop, hash placement, 10%
#: cross-shard transactions, no stored trace).
ALLOC_SOAK_DSN = ("etx://a3.d8.c64?rate=32&arrival=poisson&seed=11"
                  "&workload=bank&placement=hash&xshard=0.1&trace=off")


def _stepped_alloc_blocks(sim, is_done: Callable[[], bool],
                          max_steps: int = 2_000_000) -> Tuple[int, int]:
    """Sum positive per-event deltas of ``sys.getallocatedblocks()``.

    Pure-stdlib CPython exposes no cumulative allocation counter
    (``tracemalloc`` and the gc stats are net figures), so the bench
    single-steps the kernel and charges each event the growth it caused:
    an event that allocates five blocks and frees five *older* ones scores
    zero net but its churn still surfaces, because allocation and release
    of one object almost never land in the same step (a message allocated
    at send is freed at its delivery dispatch or later).  With the GC
    disabled and the workload deterministic the figure is reproducible to
    a fraction of a percent, which is what lets a committed baseline gate
    regressions.
    """
    import gc
    import sys

    blocks = sys.getallocatedblocks
    was_enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    grown = 0
    steps = 0
    step = sim.step
    try:
        before = blocks()
        while not is_done():
            if not step():
                break
            steps += 1
            if steps > max_steps:
                raise RuntimeError(f"alloc bench exceeded {max_steps} steps")
            after = blocks()
            if after > before:
                grown += after - before
            before = after
    finally:
        if was_enabled:
            gc.enable()
    return grown, steps


def _alloc_figures(dsn: str, requests: int, events: int, grown: int) -> dict:
    """One shape's payload.  Blocks are reported per *request*: per event, deleting
    the cheapest events (an idle tick allocates nothing) reads as a regression."""
    return {"dsn": dsn, "requests": requests, "events": events, "alloc_blocks": grown,
            "blocks_per_request": round(grown / requests, 1)}


def _alloc_closed_loop(dsn: str, requests_per_client: int) -> dict:
    """Allocation profile of the closed-loop traffic shape.

    Mirrors :class:`repro.workload.generator.ClosedLoop` (each client keeps
    one request in flight, reissuing on delivery) but drives the kernel one
    :meth:`step` at a time so the block counter can be sampled per event.
    """
    from repro import api

    system = api.build(api.Scenario.from_dsn(dsn))
    sim = system.sim
    clients = list(system.clients)
    remaining = dict.fromkeys(clients, requests_per_client)
    done = [0]
    total = requests_per_client * len(clients)

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
    processed_before = sim.events_processed
    grown, steps = _stepped_alloc_blocks(sim, lambda: done[0] >= total)
    return _alloc_figures(dsn, total, sim.events_processed - processed_before, grown)


def _alloc_open_loop(dsn: str, total: int, rate: float) -> dict:
    """Allocation profile of the serial soak shape (open-loop arrivals).

    Mirrors :class:`repro.workload.generator.OpenLoop`: the full arrival
    schedule is laid out up front (outside the sampled region), then the
    kernel is stepped to completion.
    """
    from repro import api

    system = api.build(api.Scenario.from_dsn(dsn))
    sim = system.sim
    clients = list(system.clients)
    done = [0]
    rng = sim.rng("load.arrivals")
    mean = 1000.0 / rate
    clock = 0.0

    def inject(client: str) -> None:
        issued = system.issue(system.standard_request(), client)
        issued.future.on_resolve(lambda _result: done.__setitem__(0, done[0] + 1))

    for index in range(total):
        client = clients[index % len(clients)]
        clock += rng.expovariate(1.0 / mean)
        sim.schedule(clock, lambda c=client: inject(c), name="arrival")
    processed_before = sim.events_processed
    grown, steps = _stepped_alloc_blocks(sim, lambda: done[0] >= total)
    return _alloc_figures(dsn, total, sim.events_processed - processed_before, grown)


def run_alloc_bench(traffic_requests: int = 20, soak_requests: int = 400,
                    soak_rate: float = 32.0) -> dict:
    """Allocations-per-request microbench for the traffic and soak shapes.

    Returns the BENCH payload consumed by ``benchmarks/test_bench_alloc.py``
    and committed (on the reference machine) as
    ``benchmarks/baseline/alloc.json``.  Figures are positive per-event
    deltas of ``sys.getallocatedblocks()`` (see
    :func:`_stepped_alloc_blocks`), so lower is better and zero is the
    steady-state floor.
    """
    traffic = _alloc_closed_loop(ALLOC_TRAFFIC_DSN, traffic_requests)
    soak = _alloc_open_loop(ALLOC_SOAK_DSN, soak_requests, soak_rate)
    return {
        "method": "positive per-step deltas of sys.getallocatedblocks(), gc off",
        "traffic": traffic,
        "soak": soak,
    }


def format_alloc_report(payload: dict) -> str:
    """Human-readable table of a :func:`run_alloc_bench` payload."""
    lines = ["alloc bench: positive allocated-block deltas per delivered request"]
    for shape in ("traffic", "soak"):
        figures = payload[shape]
        lines.append(
            f"  {shape:<8} {figures['blocks_per_request']:>7.1f} blocks/request  "
            f"({figures['alloc_blocks']:,} blocks / {figures['requests']} requests, "
            f"{figures['events']:,} events)")
    return "\n".join(lines)


def format_report(payload: dict) -> str:
    """Human-readable table of a :func:`run_kernel_bench` payload."""
    lines = [f"kernel bench: {payload['ops_per_scenario']} ops/scenario"]
    rates = payload["ops_per_second"]
    speedup = payload["speedup_wheel_vs_heap"]
    for scenario in SCENARIOS:
        heap = rates["heap"][scenario]
        wheel = rates["wheel"][scenario]
        lines.append(
            f"  {scenario:<16} lifecycle heap {heap['lifecycle']:>12,}/s  "
            f"wheel {wheel['lifecycle']:>12,}/s  {speedup[scenario]['lifecycle']:.2f}x"
            f"   | drain heap {heap['drain']:>12,}/s  "
            f"wheel {wheel['drain']:>12,}/s  {speedup[scenario]['drain']:.2f}x")
    return "\n".join(lines)

"""Benchmarks for the traffic engine: load generation and sweep execution.

Run with ``pytest benchmarks/ --benchmark-only``.  Besides the
pytest-benchmark timings, each test prints wall-clock seconds and simulator
events per second, so future performance PRs (batching, sharding, caching)
have a recorded baseline to beat.

``test_bench_traffic_json_and_regression_gate`` measures the open-loop bench
under the three trace retention policies, writes the machine-readable BENCH
json (``benchmarks/out/traffic.json``, uploaded as a CI artifact) and
enforces the one machine-independent contract of the committed baseline
(``benchmarks/baseline/traffic.json``): ``trace=off`` must sustain at least
2x the pre-event-bus (PR 3) kernel speed, checked as a same-run ratio.
Absolute speed is owned by ``norm_cpu_ms_per_req`` in ``BENCHMARK.json``.
"""

import json
import os
import time

import pytest

from repro import api
from repro.workload.generator import ClosedLoop, OpenLoop

OPEN_LOOP_DSN = "etx://a3.d1.c4?rate=40&seed=3&workload=bank&timing=paper"
CLOSED_LOOP_DSN = "etx://a3.d1.c4?seed=3&workload=bank&timing=paper"

BASELINE_PATH = os.path.join(os.path.dirname(__file__), "baseline", "traffic.json")


def _report(label: str, wall: float, events: int, delivered: int) -> None:
    rate = events / wall if wall > 0 else float("inf")
    print(f"\n[{label}] wall={wall:.3f}s events={events} "
          f"events/sec={rate:,.0f} delivered={delivered}")


def test_bench_open_loop_events_per_second():
    """One open-loop scenario: the per-event cost of the simulator kernel."""
    system = api.build(api.Scenario.from_dsn(OPEN_LOOP_DSN))
    generator = OpenLoop(rate=40.0)
    start = time.perf_counter()
    stats = generator.run(system, 10)
    wall = time.perf_counter() - start
    _report("open-loop c4 rate=40", wall, system.sim.events_processed, stats.count)
    assert stats.count == 40
    assert stats.throughput > 0
    assert system.check_spec().ok


def test_bench_closed_loop_multi_client(benchmark):
    """Closed loop over four concurrent clients, measured by pytest-benchmark."""
    def run_once():
        return api.run_scenario(CLOSED_LOOP_DSN, requests=3)

    result = benchmark(run_once)
    assert result.delivered == 12
    assert result.spec.ok


def test_bench_open_loop_scenario(benchmark):
    """The CI smoke shape: one open-loop run through the public entry point."""
    def run_once():
        return api.run_scenario(OPEN_LOOP_DSN, requests=2)

    result = benchmark(run_once)
    assert result.delivered == 8
    assert result.spec.ok


def test_bench_parallel_sweep_matches_serial():
    """A 4-way parallel sweep: wall-clock and identical-results check."""
    sweep = api.Sweep.over("etx://d1?workload=bank&timing=paper&seed=3",
                           protocol=["etx", "2pc"], clients=[1, 4])
    start = time.perf_counter()
    parallel = api.run_sweep(sweep, requests=1, workers=4)
    parallel_wall = time.perf_counter() - start
    start = time.perf_counter()
    serial = api.run_sweep(sweep, requests=1, workers=1)
    serial_wall = time.perf_counter() - start
    print(f"\n[sweep 2x2] parallel wall={parallel_wall:.3f}s "
          f"serial wall={serial_wall:.3f}s rows={len(parallel)}")
    assert parallel.to_table() == serial.to_table()
    assert parallel.ok


def test_bench_mailbox_hot_path(benchmark):
    """High-rate single-client closed loop: stresses deliver/_take_from_mailbox."""
    def run_once():
        system = api.build(api.Scenario.from_dsn(
            "etx://a3.d1.c1?seed=5&workload=bank"))
        return ClosedLoop().run(system, 20)

    stats = benchmark(run_once)
    assert stats.count == 20
    assert stats.undelivered == 0


def _measure_events_per_second(dsn: str, requests: int, reps: int = 3) -> float:
    """Best-of-``reps`` simulator events per wall second for one scenario."""
    best = 0.0
    for _ in range(reps):
        system = api.build(api.Scenario.from_dsn(dsn))
        generator = OpenLoop(rate=40.0)
        start = time.perf_counter()
        stats = generator.run(system, requests)
        wall = time.perf_counter() - start
        assert stats.undelivered == 0
        assert system.check_spec().ok
        best = max(best, system.sim.events_processed / wall)
    return best


def test_bench_traffic_json_and_regression_gate():
    """Measure full/ring/off retention, emit traffic.json, gate the ratio.

    The committed baseline numbers were all measured on one reference
    machine, so the 2x contract of ``trace=off`` versus the pre-event-bus
    (PR 3) kernel is checked as a pure ratio -- ``off/full`` on this machine
    against ``2 * pr3/full`` on the reference machine -- and machine speed
    cancels.
    """
    with open(BASELINE_PATH, encoding="utf-8") as handle:
        baseline = json.load(handle)
    dsn = baseline["open_loop_dsn"]
    requests = baseline["requests_per_client"]

    full = _measure_events_per_second(dsn, requests)
    ring = _measure_events_per_second(f"{dsn}&trace=ring:1000", requests)
    off = _measure_events_per_second(f"{dsn}&trace=off", requests)
    required_off_ratio = 2.0 * baseline["pr3_events_per_second_full"] \
        / baseline["events_per_second_full"]
    print(f"\n[traffic] events/sec full={full:,.0f} ring:1000={ring:,.0f} "
          f"off={off:,.0f} "
          f"(off/full={off / full:.2f}, needed {required_off_ratio:.2f})")

    out_dir = os.environ.get("BENCH_OUT", os.path.join("benchmarks", "out"))
    os.makedirs(out_dir, exist_ok=True)
    payload = {
        "open_loop_dsn": dsn,
        "requests_per_client": requests,
        "events_per_second": {"full": round(full), "ring:1000": round(ring),
                              "off": round(off)},
        "speedup_off_vs_pr3": round(
            (off / full) * baseline["events_per_second_full"]
            / baseline["pr3_events_per_second_full"], 2),
    }
    path = os.path.join(out_dir, "traffic.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"BENCH json written to {path}")

    # The headline contract of the event-bus refactor: with the trace store
    # off, the kernel runs at least twice as fast as the PR 3 baseline.
    assert off >= required_off_ratio * full, (
        f"trace=off must give >=2x the PR 3 events/sec: off/full="
        f"{off / full:.2f}, required {required_off_ratio:.2f}")


if __name__ == "__main__":  # pragma: no cover - manual baseline runs
    import sys

    sys.exit(pytest.main([__file__, "-q", "-s"]))

"""Allocations-per-request gate: the hot path must stay allocation-slim.

Measures allocated-blocks-per-delivered-request on the closed-loop traffic
shape and the sharded open-loop soak shape (``repro.sim.bench.run_alloc_bench``,
also reachable as ``python -m repro kernelbench --alloc``), writes the
machine-readable BENCH json (``benchmarks/out/alloc.json``, uploaded as a CI
artifact) and enforces ``benchmarks/baseline/alloc.json``:

* the metric -- positive per-step deltas of ``sys.getallocatedblocks()`` with
  gc disabled, divided by requests delivered -- counts allocator blocks, not
  seconds, so it needs no machine-speed calibration: >30% above the committed
  figure fails the build outright.  Per request, not per event: deleting the
  cheapest events (an idle polling tick allocates nothing) lowers the total
  and *raises* blocks/event, which must not read as a regression;
* the reduction contract re-checks the allocation-slim PR's headline claim
  against the recorded pre-PR figures: both shapes must stay at least 40%
  below what the hot path allocated before slotted messages, pooled wake-up
  events and the indexed-waiter registry landed;
* the exact dispatched-event counts are asserted too: the scenarios are
  deterministic, so any drift means behaviour changed and the figures are
  incomparable (this doubles as a cheap trace-equivalence canary).
"""

import json
import os

import pytest

from repro.sim import bench

BASELINE_PATH = os.path.join(os.path.dirname(__file__), "baseline", "alloc.json")


def test_bench_alloc_json_and_regression_gate():
    with open(BASELINE_PATH, encoding="utf-8") as handle:
        baseline = json.load(handle)

    payload = bench.run_alloc_bench()
    print()
    print(bench.format_alloc_report(payload))

    out_dir = os.environ.get("BENCH_OUT", os.path.join("benchmarks", "out"))
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "alloc.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"BENCH json written to {path}")

    for shape in ("traffic", "soak"):
        measured = payload[shape]
        committed = baseline[shape]
        # Determinism canary: the scenario must dispatch exactly the
        # committed number of events, or the figures mean nothing.
        assert measured["events"] == committed["events"], (
            f"{shape}: dispatched {measured['events']} events, baseline "
            f"recorded {committed['events']} -- scenario behaviour changed; "
            f"re-baseline only if the change is intended")
        # Regression gate: >30% more blocks/request than committed fails.
        # (Block counts are allocator facts, not timings -- no calibration.)
        assert measured["blocks_per_request"] <= 1.3 * committed["blocks_per_request"], (
            f"{shape}: {measured['blocks_per_request']} blocks/request vs "
            f"committed {committed['blocks_per_request']} (>30% regression)")
        # Reduction contract: the slim hot path's headline claim.
        pre = baseline["pre_pr"][f"{shape}_blocks_per_request"]
        assert measured["blocks_per_request"] <= 0.6 * pre, (
            f"{shape}: {measured['blocks_per_request']} blocks/request no longer "
            f">=40% below the pre-PR figure {pre}")


if __name__ == "__main__":  # pragma: no cover - manual baseline runs
    import sys

    sys.exit(pytest.main([__file__, "-q", "-s"]))

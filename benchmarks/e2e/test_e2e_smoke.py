"""Tier-1 smoke test of the end-to-end benchmark (no wall-clock assertion).

Every workload runs at 2 % of its size, untraced and traced, through the same
command the benchmark driver uses.  The run itself checks deliveries, the spec
report, the determinism canary (warm-up, measured and profiled repetition of
one seed must agree event for event) and that it emits exactly the metric
names ``BENCHMARK.json`` declares; the test checks the result line.
"""

from __future__ import annotations

import functools
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@functools.lru_cache(maxsize=None)
def run_benchmark(workload: str, trace: int, seed: int = 9) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "5", "--trace", str(trace), "--scale", "0.02"],
        capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_emits_exactly_the_declared_metrics(workload: str, trace: int) -> None:
    result = run_benchmark(workload, trace)
    declared = {metric["name"]: metric["unit"]
                for metric in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == declared
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], (int, float)), name
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_virtual_time_metrics_repeat_exactly_across_processes() -> None:
    first = run_benchmark("failover_hb", 0)["metrics"]
    second = run_benchmark.__wrapped__("failover_hb", 0)["metrics"]
    for name in ("lat_p50_vms", "lat_p90_vms", "events_per_req", "msgs_per_req",
                 "within_limit_share"):
        assert first[name]["value"] == second[name]["value"], name


def test_benchmark_json_meets_the_driver_contract() -> None:
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(metric for metric in SPEC["end_to_end"] if metric["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(metric["bound"] for metric in SPEC["end_to_end"])

"""Does the benchmark repeat within its own bounds?  Two sets of runs, compared.

    python benchmarks/e2e/check_repeat.py [--runs 10] [--workload W]

Runs every workload ``--runs`` times, each time with another ``--seed``, and
then does the same again with fresh seeds.  For every (workload, end-to-end
metric) pair it prints both medians, how much worse the second is than the
first, and each set's spread -- the distance between the first and third
quartile as a share of the median -- and checks both against the metric's
bound in ``BENCHMARK.json``.  Exits non-zero on any miss.  The output is
Markdown; ``REPEATABILITY.md`` is this program's output on the builder's box.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def run_once(workload: str, seed: int, seconds: int) -> dict[str, float]:
    """One untraced benchmark run; returns its end-to-end metric values."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        check=True, capture_output=True, text=True)
    result = json.loads(completed.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run\n{completed.stdout}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    first, _second, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]],
                        help="only this workload (repeatable; default: all)")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    started = time.time()
    sets: list[dict[str, list[dict[str, float]]]] = []
    for set_index in range(2):
        first_seed = 1 + set_index * args.runs
        sets.append({
            workload: [run_once(workload, seed, spec["run_seconds"])
                       for seed in range(first_seed, first_seed + args.runs)]
            for workload in workloads})

    print(f"# Repeatability: two sets of {args.runs} runs per workload, "
          f"seeds 1-{args.runs} and {args.runs + 1}-{2 * args.runs}\n")
    print("`worse` is how far the second median is on the wrong side of the first, as a "
          "share of the first; `spread` is (Q3 - Q1) / median within a set, as "
          "`statistics.quantiles(values, n=4)` gives the quartiles.  Both must stay "
          "within `bound`; `setup_s` is exempt from the spread rule.\n")
    print("| workload | metric | unit | median 1 | median 2 | worse | spread 1 | spread 2 "
          "| bound | verdict |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    misses = 0
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[run[name] for run in runs[workload]] for runs in sets]
            medians = [statistics.median(v) for v in values]
            change = (medians[1] - medians[0]) / medians[0]
            worse = max(0.0, change if metric["better"] == "lower" else -change)
            spreads = [spread(v) for v in values]
            ok = worse <= bound and (name == "setup_s" or max(spreads) <= bound)
            misses += not ok
            print(f"| {workload} | {name} | {metric['unit']} | {medians[0]:.6g} "
                  f"| {medians[1]:.6g} | {worse:.2%} | {spreads[0]:.2%} | {spreads[1]:.2%} "
                  f"| {bound:.0%} | {'pass' if ok else 'MISS'} |")
    print(f"\n{misses} miss(es); {2 * args.runs * len(workloads)} runs in "
          f"{time.time() - started:.0f} s.")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())

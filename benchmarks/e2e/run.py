"""End-to-end benchmark of the e-Transaction reproduction: one command.

    python benchmarks/e2e/run.py                      # all four workloads
    python benchmarks/e2e/run.py --workload soak_etx  # one workload
    python benchmarks/e2e/run.py --trace              # plus per-layer metrics
    python benchmarks/e2e/run.py --seed 42            # a new input set

Prints every metric by name with its unit, checks the run's outputs (spec
report clean, delivered == requested, same-seed repetitions identical) and
exits non-zero when a check fails.  With ``--workload`` the last line of
standard output is the one-object JSON result the benchmark driver reads;
metric names, units and bounds are declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

def declared_metrics() -> tuple[dict, dict[str, str], dict[str, str]]:
    """``BENCHMARK.json`` and its end-to-end / per-layer ``name -> unit`` tables."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (spec,
            {metric["name"]: metric["unit"] for metric in spec["end_to_end"]},
            {metric["name"]: metric["unit"] for metric in spec["per_layer"]})


def run_workload(name: str, seed: int | None, seconds: int, trace: bool,
                 scale: float) -> int:
    """Measure one workload in this process; returns the exit code."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import harness
        import layers
    except ModuleNotFoundError as exc:
        print(f"error: {exc}: the benchmark measures the program in src/ of a full "
              "checkout and cannot run without it", file=sys.stderr)
        return 2

    _spec, end_to_end_units, per_layer_units = declared_metrics()
    workload = harness.WORKLOADS[name]
    if seed is None:
        seed = workload.seed
    # The traced run reports per-layer metrics only, so it spends its time on
    # the profiled repetition instead of a third measured one.
    count = harness.measured_repetitions(workload, seconds)
    if trace:
        count = min(2, count)
    print(f"# {name}: {harness.dsn_for(workload, seed)}")
    print(f"# 1 warm-up + {count} measured repetition(s)" + (" + 1 profiled" if trace else ""))
    run = harness.measure(workload, seed, count, trace, scale)
    summary = harness.Summary(run)
    problems = run.problems
    for index, rep in enumerate([run.warm_up] + run.measured):
        print(f"# repetition {index}: {rep.delivered}/{rep.requested} delivered,"
              f" {harness.nominal_ms(rep.cost) / max(1, rep.delivered):.4f} nominal ms/req"
              f" ({rep.cpu_s:.2f} raw CPU s, {len(rep.slices)} slices)")

    host = summary.host()
    if trace:
        metrics = summary.counters()
        layer_metrics, document = layers.roll_up(run.profile, run.traced.delivered, str(HERE))
        metrics.update(layer_metrics)
        metrics.update(host)
        units = per_layer_units
        document.update(workload=name, dsn=harness.dsn_for(workload, seed),
                        trace_overhead=host["host.trace_overhead"])
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        (out / f"{name}.trace.json").write_text(json.dumps(document, indent=1),
                                                encoding="utf-8")
        print(f"# wrote {out / f'{name}.trace.json'}")
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = summary.end_to_end(peak_rss_mb)
        units = end_to_end_units
        for key, value in host.items():
            print(f"{key:32s} {value:14.6g}  (ungated)")
    if set(metrics) != set(units):
        problems.append(f"metric names differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ set(units))}")
    for key in sorted(metrics):
        print(f"{key:32s} {metrics[key]:14.6g}  {units.get(key, '?')}")
    for warning in harness.noise_warnings(host, run.realtime):
        print(f"# WARNING {warning}")
    for problem in problems:
        print(f"# FAILED {problem}")
    print(json.dumps({
        "correct": not problems, "attempted": summary.attempted, "failed": summary.failed,
        "metrics": {key: {"value": value, "unit": units.get(key, "")}
                    for key, value in metrics.items()}}))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    spec, _end_to_end, _per_layer = declared_metrics()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="measure this workload in this process (default: each "
                             "workload in its own child process, one after the other)")
    parser.add_argument("--seed", type=int,
                        help="seed the inputs are generated from (default: each "
                             "workload's reference seed)")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"],
                        help="measurement budget in nominal CPU seconds: buys 3 measured "
                             "repetitions at 15 (7 on tcp_closed)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="add one profiled repetition, print the per-layer metrics "
                             "and write out/<workload>.trace.json")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply request counts (the smoke test uses 0.02)")
    args = parser.parse_args(argv)
    if args.workload:
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                            args.scale)
    worst = 0
    for name in names:
        command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--scale", str(args.scale)]
        if args.seed is not None:
            command += ["--seed", str(args.seed)]
        worst = max(worst, subprocess.run(command, check=False).returncode)
    return worst


if __name__ == "__main__":
    sys.exit(main())

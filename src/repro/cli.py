"""Command-line interface for the reproduction harnesses.

Usage (any of)::

    python -m repro run "etx://a3.d1.c1?fd=heartbeat&seed=7"
    python -m repro run "etx://a3.d1.c8?rate=50&arrival=poisson&seed=7"
    python -m repro run "2pc://?workload=bank&timing=paper" --requests 3
    python -m repro run "etx://a3.d1.c2?runtime=asyncio&pace=0.2" --settle 500
    python -m repro serve "etx://a3.d1.c1?runtime=asyncio&port=7400" --only a1,a2
    python -m repro sweep "etx://d1?workload=bank" \
        --axis protocol=etx,2pc,pb --axis clients=1,4,8 --workers 4
    python -m repro experiment figure8 figure7
    python -m repro experiment --workers 2
    python -m repro experiment fault_sweep reshard
    python -m repro soak --requests 100000
    python -m repro run "etx://a3.d1.c4?rate=40&workload=bank" --profile
    python -m repro campaign \
        "etx://a3.d4.c8?rate=6&workload=bank&placement=hash&fault=reshard@500:d4->d8"

``run`` executes any scenario DSN (scheme = protocol: ``etx``, ``2pc``,
``pb``, ``baseline``) through the unified scenario API; ``sweep`` expands
``--axis`` grids around a base DSN and fans the grid out over worker
processes; ``experiment`` runs entries of the experiment table
(:mod:`repro.experiments.catalog`; all of them when none is named) and prints
each one's table and paper claims.  Exit status is non-zero when a run or a
claim fails (useful in CI).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro import api, campaign
from repro.experiments import catalog, soak


def _profiled(profile_arg, label: str, call):
    """Run ``call()`` under cProfile when ``--profile`` was given.

    ``profile_arg`` is ``None`` (profiling off), an empty string (write to
    the default ``benchmarks/out/<label>.pstats``), or an explicit path.
    The stats file loads with :mod:`pstats`; the top of the cumulative
    profile is printed so a quick look needs no second tool.
    """
    if profile_arg is None:
        return call()
    import cProfile
    import io
    import os
    import pstats

    path = profile_arg or os.path.join("benchmarks", "out", f"{label}.pstats")
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        return call()
    finally:
        profiler.disable()
        profiler.dump_stats(path)
        stream = io.StringIO()
        pstats.Stats(profiler, stream=stream).sort_stats("cumulative").print_stats(20)
        print(stream.getvalue().rstrip())
        print(f"PROFILE pstats written to {path} "
              f"(inspect with: python -m pstats {path})")


def _write_bench_json(path: str, payload) -> None:
    """Write a machine-readable BENCH payload, creating its directory."""
    import json
    import os

    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"BENCH json written to {path}")


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        scenario = _scenario(args, args.dsn)
        run_kwargs: dict = {}
        if args.settle is not None:
            run_kwargs["settle"] = args.settle
        if args.only:
            run_kwargs["only"] = _local_processes(scenario, args.only)
        result = _profiled(
            args.profile, "run",
            lambda: api.run_scenario(scenario, requests=args.requests,
                                     **run_kwargs))
    except api.ScenarioError as error:
        # Bad DSNs, protocol constraints, unknown workloads: user input,
        # reported cleanly.  Anything else is a genuine bug and tracebacks.
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(result.summary())
    return 0 if result.ok else 1


def _local_processes(scenario: "api.Scenario", text: str) -> tuple[str, ...]:
    """Validate a ``--only a1,a2`` process-name list against the scenario."""
    from repro.runtime.base import RUNTIME_ASYNCIO

    if scenario.runtime != RUNTIME_ASYNCIO:
        raise api.ScenarioError(
            "--only needs runtime=asyncio in the DSN: a simulated run always "
            "hosts every process in one OS process")
    if scenario.port == 0:
        raise api.ScenarioError(
            "--only needs an explicit port=N in the DSN so every OS process "
            "computes the same endpoint map (port=0 picks ephemeral ports)")
    names = tuple(name.strip() for name in text.split(",") if name.strip())
    if not names:
        raise api.ScenarioError("--only needs at least one process name")
    known = scenario.process_names
    unknown = [name for name in names if name not in known]
    if unknown:
        raise api.ScenarioError(
            f"--only names not in this scenario: {', '.join(unknown)} "
            f"(processes: {', '.join(known)})")
    return names


def _cmd_serve(args: argparse.Namespace) -> int:
    try:
        scenario = _scenario(args, args.dsn)
        only = _local_processes(scenario, args.only)
        system = api.build(scenario, only=only)
    except api.ScenarioError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    kernel = system.sim
    kernel.max_wall = None  # a server process has no per-run wall budget
    try:
        system.run(until=None)  # bind the local listeners before printing
        for name, host, port in system.network.endpoints.table():
            marker = "*" if name in only else " "
            print(f"{marker} {name:<6} {host}:{port}")
        print(f"serving {', '.join(only)}"
              + (f" for {args.run_for:g}s" if args.run_for else " (ctrl-c to stop)"),
              flush=True)
        horizon = (kernel.now + args.run_for * 1000.0 / scenario.pace
                   if args.run_for else None)
        while True:
            target = kernel.now + 60_000.0
            if horizon is not None and target >= horizon:
                system.run(until=horizon)
                break
            system.run(until=target)
    except KeyboardInterrupt:
        print("\ninterrupted; shutting down", file=sys.stderr)
    finally:
        system.close()
    return 0


def _scenario(args: argparse.Namespace, dsn: str) -> "api.Scenario":
    """The scenario ``dsn`` describes, with the global ``--seed`` applied."""
    scenario = api.Scenario.from_dsn(dsn)
    return scenario if args.seed is None else scenario.with_(seed=args.seed)


def _parse_axis(text: str) -> tuple[str, list[str]]:
    """Split one ``--axis name=v1,v2,...`` argument; :meth:`api.Sweep.over`
    parses each value with its parameter's parser."""
    name, separator, tail = text.partition("=")
    name = name.strip()
    if not separator or not name or not tail:
        raise api.ScenarioError(
            f"bad axis {text!r} (expected name=value[,value...])")
    return name, [value.strip() for value in tail.split(",")]


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        base = _scenario(args, args.dsn)
        axes: dict = {}
        for axis in args.axis or []:
            name, values = _parse_axis(axis)
            if name in axes:
                raise api.ScenarioError(
                    f"axis {name!r} given twice; list all its values in one "
                    f"--axis {name}=v1,v2,...")
            axes[name] = values
        sweep = api.Sweep.over(base, **axes)
        result = api.run_sweep(sweep, requests=args.requests, workers=args.workers)
    except api.ScenarioError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(result.to_table())
    print(f"\n{len(result)} scenario(s), "
          f"{sum(row.delivered for row in result)} requests delivered, "
          f"all ok: {result.ok}")
    return 0 if result.ok else 1


def _cmd_experiment(args: argparse.Namespace) -> int:
    names = args.names or list(catalog.EXPERIMENTS)
    unknown = [name for name in names if name not in catalog.EXPERIMENTS]
    if unknown:
        print(f"error: unknown experiment(s): {', '.join(unknown)} (known: "
              f"{', '.join(catalog.EXPERIMENTS)})", file=sys.stderr)
        return 2
    tables = catalog.run(names, seed=args.seed, workers=args.workers)
    verdicts: list[bool] = []
    for name in names:
        text, held = catalog.render(name, tables[name])
        print(text + "\n")
        verdicts.extend(held)
    print(f"{sum(verdicts)} of {len(verdicts)} claims hold")
    return 0 if all(verdicts) else 1


def _cmd_soak(args: argparse.Namespace) -> int:
    try:
        dsn = args.dsn if args.dsn is not None else soak.DEFAULT_SOAK_DSN
        scenario = _scenario(args, dsn)
        report = _profiled(
            args.profile, "soak",
            lambda: soak.run(scenario, requests=args.requests))
    except (api.ScenarioError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(report.summary())
    if args.json:
        _write_bench_json(args.json, report.to_json())
    return 0 if report.ok else 1


def _artifact_name(example: campaign.Counterexample, index: int) -> str:
    scenario = example.scenario()
    if example.kind == "certificate":
        return f"{scenario.protocol}-certificate-{index + 1}.json"
    signature = example.provenance.get("signature") or ["violation"]
    slug = "-".join(p.lower().replace(".", "") for p in signature)
    return f"{scenario.protocol}-{slug}.json"


def _cmd_campaign(args: argparse.Namespace) -> int:
    try:
        scenario = _scenario(args, args.dsn)
        budget = campaign.CampaignBudget(max_runs=args.budget)
        report = campaign.run_campaign(scenario, budget=budget, workers=args.workers)
    except (api.ScenarioError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(report.summary())
    if args.out:
        import os

        try:
            os.makedirs(args.out, exist_ok=True)
            written = []
            for index, example in enumerate(report.counterexamples
                                            + report.certificates):
                path = os.path.join(args.out, _artifact_name(example, index))
                written.append(example.save(path))
        except OSError as error:
            # The search results are already printed above; the write
            # failure must not traceback over them.
            print(f"error: cannot write artifacts: {error}", file=sys.stderr)
            return 2
        print(f"\n{len(written)} artifact(s) written to {args.out}")
    if args.expect == "violation":
        return 0 if report.counterexamples else 1
    if args.expect == "clean":
        return 0 if report.clean else 1
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    try:
        if "://" in args.source:
            # A scenario DSN (possibly referencing a faults=@sidecar): treat
            # it as a certificate claim -- the run must be spec-clean.
            example = campaign.Counterexample(dsn=args.source, kind="certificate")
            result = campaign.replay(example)
        else:
            result = campaign.replay(args.source)
    except (api.ScenarioError, ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(result.summary())
    return 0 if result.matches else 1


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction harnesses for 'Implementing e-Transactions with "
                    "Asynchronous Replication' (DSN 2000)")
    parser.add_argument("--seed", type=int, default=None,
                        help="simulation seed (for `run`, overrides the DSN's seed)")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run any scenario DSN "
                                     "(e.g. etx://a3.d1.c1?fd=heartbeat&seed=7)")
    run.add_argument("dsn", help="scenario DSN; schemes: "
                                 + ", ".join(api.known_schemes()))
    run.add_argument("--requests", type=int, default=1,
                     help="requests to issue per client (default 1)")
    run.add_argument("--settle", type=float, default=None,
                     help="virtual ms of cleanup time after the last delivery "
                          "(default 5000; lower it for paced asyncio runs)")
    run.add_argument("--only", default=None, metavar="NAME[,NAME...]",
                     help="host only these processes locally (distributed "
                          "runtime=asyncio runs; peers must be served "
                          "elsewhere with `repro serve`)")
    run.add_argument("--profile", nargs="?", const="", default=None,
                     metavar="PATH",
                     help="run under cProfile; write pstats to PATH (default "
                          "benchmarks/out/run.pstats) and print the top of "
                          "the cumulative profile")
    run.set_defaults(func=_cmd_run)

    serve = sub.add_parser(
        "serve", help="host a subset of a runtime=asyncio scenario's processes "
                      "over TCP (one OS process per subset)")
    serve.add_argument("dsn", help="scenario DSN with runtime=asyncio and an "
                                   "explicit port=N")
    serve.add_argument("--only", required=True, metavar="NAME[,NAME...]",
                       help="process names this OS process hosts, e.g. a1,a2")
    serve.add_argument("--for", dest="run_for", type=float, default=None,
                       metavar="SECONDS",
                       help="serve for this many wall seconds, then exit "
                            "(default: until interrupted)")
    serve.set_defaults(func=_cmd_serve)

    sweep = sub.add_parser(
        "sweep", help="expand --axis grids around a base DSN and run them "
                      "on a worker-process pool")
    sweep.add_argument("dsn", help="base scenario DSN the axes are applied to")
    sweep.add_argument("--axis", action="append", metavar="NAME=V1,V2,...",
                       help="one sweep axis (repeatable), e.g. "
                            "protocol=etx,2pc,pb or clients=1,4,8")
    sweep.add_argument("--requests", type=int, default=1,
                       help="requests per client and scenario (default 1)")
    sweep.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: one per scenario, "
                            "capped at the core count; 1 runs in-process, "
                            "same results)")
    sweep.set_defaults(func=_cmd_sweep)

    experiment = sub.add_parser(
        "experiment", help="run paper experiments and check their claims "
                           "(every experiment when none is named)")
    experiment.add_argument("names", nargs="*", metavar="NAME",
                            help="experiments to run: "
                                 + ", ".join(catalog.EXPERIMENTS))
    experiment.add_argument("--workers", type=int, default=1,
                            help="worker processes for the runs (same output)")
    experiment.set_defaults(func=_cmd_experiment)

    soak_cmd = sub.add_parser(
        "soak", help="sustained open-loop run, spec-checked online, with "
                     "bounded observability memory (trace=ring:N/off)")
    soak_cmd.add_argument("dsn", nargs="?", default=None,
                          help="open-loop scenario DSN (default: the standard "
                               "sharded soak deployment)")
    soak_cmd.add_argument("--requests", type=int, default=100_000,
                          help="total offered requests (default 100000)")
    soak_cmd.add_argument("--json", default=None, metavar="PATH",
                          help="also write the machine-readable report here")
    soak_cmd.add_argument("--profile", nargs="?", const="", default=None,
                          metavar="PATH",
                          help="run under cProfile; write pstats to PATH "
                               "(default benchmarks/out/soak.pstats) and "
                               "print the top of the cumulative profile")
    soak_cmd.set_defaults(func=_cmd_soak)

    camp = sub.add_parser(
        "campaign", help="adversarial fault-space search: window-targeted "
                         "schedules, spec-checked, counterexamples shrunk")
    camp.add_argument("dsn", help="base scenario DSN (its reshard faults are "
                                  "kept, the others ignored; the campaign "
                                  "lays its own on top)")
    camp.add_argument("--budget", type=int, default=200,
                      help="max search evaluations (default 200)")
    camp.add_argument("--workers", type=int, default=1,
                      help="worker processes for each generation (default 1)")
    camp.add_argument("--out", default=None, metavar="DIR",
                      help="write counterexample/certificate artifacts here")
    camp.add_argument("--expect", choices=["violation", "clean"], default=None,
                      help="exit non-zero unless the campaign found a "
                           "violation / stayed clean (for CI)")
    camp.set_defaults(func=_cmd_campaign)

    rep = sub.add_parser(
        "replay", help="re-run a saved campaign artifact (or assert a DSN "
                       "runs spec-clean) deterministically")
    rep.add_argument("source", help="a .json artifact path, or a scenario DSN "
                                    "to assert clean")
    rep.set_defaults(func=_cmd_replay)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())

"""Which functions of ``src/repro`` no real scenario calls, and which DSN
parameters, keyword parameters and CLI flags no real scenario sets.

A function earns its place by being reached from a scenario the repository
treats as real: the golden traces and corpus replays, the end-to-end
benchmark workloads, the paper-figure experiments and the other CLI
commands CI runs (TCP steps included), the shipped examples, and the CLI's
refusals of bad input.  This script installs a call tracer *before*
``repro`` is imported, runs all of them at small sizes, and rewrites
``tools/reachability.txt`` with the sorted ``src/repro`` defs none of them
entered::

    python tools/reachability.py

A DSN parameter earns its place the same way.  The runs also record every
:class:`~repro.api.scenario.Scenario` they build (and that passed its
checks): a row of ``PARAMS`` that none of them sets to anything but its
default is listed as ``param <key>``, and a value of a row that accepts one
of a fixed set (``register``, ``timing``, ...) that none of them holds as
``param <key>=<value>``.

So does every option.  The tracer compares each defaulted parameter of a
``src/repro`` def, as bound on entry, with its default, and a wrapper on
``cli.build_parser().parse_args`` compares each flag of the parsed command
with its default.  A parameter no run passes another value is listed as
``kwarg <file>::<qualname>(<name>)``, a flag no argv sets off its default as
``flag <command> --<name>``: an option with one value in use is a constant
unless it passes a DSN row through, guards against a hang, is a deployment
setting, or is set by a call site no run reaches.  The run prints how many
defaulted parameters and flags there are and how many some run sets.

That file is the allowlist: each line is one unreached def or unset
parameter, option or flag and, after ``#``, the one-line reason it stays --
a reference implementation tests compare against, a debug repr, a monitor
verdict for a violation no scenario commits, a guard that fires only on a
bug or a hang, a deployment setting.  "Only tests call it", or set it, or
pass it, is not a reason.  A rewrite keeps
the reasons of the entries still unreached, drops the entries a scenario now
reaches (or whose def or row is gone), and adds a newly unreached one with
no reason.  The run exits 1 when it dropped an entry or when an entry has no
reason: an unreached function or parameter is deleted, given a scenario that
needs it, or given a reason.  A def whose body only declares an interface
(``raise NotImplementedError``) is not counted.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import gc
import inspect
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
import types
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
REPORT = Path(__file__).resolve().with_suffix(".txt")
HEADER = """\
# The src/repro functions no real scenario reaches, and the DSN parameters
# (param lines), defaulted keyword parameters (kwarg lines) and CLI flags
# (flag lines) none sets, each with the reason it stays.
# python tools/reachability.py rewrites this file; see its docstring.
"""

_set_rows: set[str] = set()             # PARAMS keys some scenario set off default
_held: set[tuple[str, Any]] = set()     # (key, value) of the fixed-choice rows

_GENERATOR_FLAGS = inspect.CO_GENERATOR | inspect.CO_COROUTINE | inspect.CO_ASYNC_GENERATOR


class OptionRecorder:
    """Which defaulted parameters, and which CLI flags, some call sets.

    :meth:`tracer` is the global trace function.  It notes every code object
    entered; for a def listed in ``defaulted`` (``(file, first line)`` ->
    its defaulted parameter names) it also compares each such argument, as
    bound on entry, with the function's default, and keeps
    ``(file, first line, name)`` of each one passed with another value.  A
    generator's arguments are read on its first entry only: a resume sees
    locals the body may have rebound.  :meth:`wrap_parser` does the same for
    the flags of an :mod:`argparse` parser.
    """

    def __init__(self, defaulted: dict[tuple[str, int], tuple[str, ...]]):
        self.defaulted = defaulted
        self.seen: set = set()
        self.set_kwargs: set[tuple[str, int, str]] = set()
        self.set_flags: set[str] = set()
        self._watch: dict[Any, list[tuple[str, Any]]] = {}   # code -> unset (name, default)
        self._entry: dict[Any, int] = {}                     # generator code -> first f_lasti

    def tracer(self, frame, event, arg):
        # A global trace function sees one ``call`` per new frame (and per
        # generator resume); returning None skips line events inside it.
        code = frame.f_code
        if code not in self.seen:
            self.seen.add(code)
            self._first_sight(frame)
        watch = self._watch.get(code)
        if watch is not None and self._entry.get(code, frame.f_lasti) == frame.f_lasti:
            self._note(frame, watch)

    def _first_sight(self, frame) -> None:
        code = frame.f_code
        names = self.defaulted.get((code.co_filename, code.co_firstlineno))
        if not names:
            return
        function = next((referrer for referrer in gc.get_referrers(code)
                         if isinstance(referrer, types.FunctionType)
                         and referrer.__code__ is code), None)
        if function is None:
            return
        defaults = dict(function.__kwdefaults__ or {})
        positional = code.co_varnames[:code.co_argcount]
        defaults.update(zip(positional[len(positional) - len(function.__defaults__ or ()):],
                            function.__defaults__ or ()))
        self._watch[code] = [(name, defaults[name]) for name in names]
        if code.co_flags & _GENERATOR_FLAGS:
            self._entry[code] = frame.f_lasti

    def _note(self, frame, watch: list[tuple[str, Any]]) -> None:
        code = frame.f_code
        arguments = frame.f_locals
        unset = []
        for name, default in watch:
            if _same(arguments.get(name, default), default):
                unset.append((name, default))
            else:
                self.set_kwargs.add((code.co_filename, code.co_firstlineno, name))
        if len(unset) == len(watch):
            return
        if unset:
            self._watch[code] = unset
        else:
            del self._watch[code]

    def wrap_parser(self, parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
        """Make ``parser.parse_args`` note each flag its argv sets off the
        flag's default; returns ``parser``."""
        parse = parser.parse_args

        def parse_args(args=None, namespace=None):
            parsed = parse(args, namespace)
            command = getattr(parsed, "command", None)
            for owner, action in _flags(parser):
                if owner in (parser.prog, command) and not _same(
                        getattr(parsed, action.dest, action.default), action.default):
                    self.set_flags.add(_flag_key(owner, action))
            return parsed

        parser.parse_args = parse_args
        return parser

    def unset_kwargs(self, keys: dict[tuple[str, int], str]) -> list[str]:
        """``kwarg <def key>(<name>)`` for every defaulted parameter of a def
        in ``keys`` that no call set."""
        return sorted(f"kwarg {keys[place]}({name})"
                      for place, names in self.defaulted.items() if place in keys
                      for name in names if (*place, name) not in self.set_kwargs)

    def unset_flags(self, parser: argparse.ArgumentParser) -> list[str]:
        """``flag <command> --<name>`` for every flag of ``parser`` no parse set."""
        return sorted(key for key in (_flag_key(owner, action)
                                      for owner, action in _flags(parser))
                      if key not in self.set_flags)


def _same(value: Any, default: Any) -> bool:
    """Whether an argument holds its parameter's default value."""
    if value is default:
        return True
    try:
        return bool(value == default)
    except Exception:   # an argument whose == refuses the default differs from it
        return False


def _flags(parser: argparse.ArgumentParser):
    """``(command, action)`` for every optional flag of ``parser`` (command
    is its ``prog``) and of each of its sub-commands (the command name)."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for command, sub in action.choices.items():
                yield from ((command, flag) for owner, flag in _flags(sub)
                            if owner == sub.prog)
        elif action.option_strings and not isinstance(action, argparse._HelpAction):
            yield parser.prog, action


def _flag_key(command: str, action: argparse.Action) -> str:
    return f"flag {command} {max(action.option_strings, key=len)}"


# ----------------------------------------------------------------- defs


def _declaration(node: ast.AST) -> bool:
    """A def that only declares an interface: docstring, ``...``, ``pass`` or
    ``raise NotImplementedError``.  It has no behaviour to reach."""
    body = list(node.body)
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    if not body:
        return True
    if len(body) != 1:
        return False
    (statement,) = body
    if isinstance(statement, ast.Pass) or (isinstance(statement, ast.Expr)
                                           and isinstance(statement.value, ast.Constant)):
        return True
    if isinstance(statement, ast.Raise) and statement.exc is not None:
        raised = statement.exc.func if isinstance(statement.exc, ast.Call) else statement.exc
        return isinstance(raised, ast.Name) and raised.id == "NotImplementedError"
    return False


def _defaulted(node: ast.FunctionDef) -> tuple[str, ...]:
    """The names of a def's parameters that have a default."""
    arguments = node.args
    positional = arguments.posonlyargs + arguments.args
    return tuple([argument.arg for argument in positional[len(positional)
                                                          - len(arguments.defaults):]]
                 + [argument.arg for argument, default
                    in zip(arguments.kwonlyargs, arguments.kw_defaults) if default is not None])


def _defs(package: Path = PACKAGE) -> tuple[dict[tuple[str, int], str],
                                            dict[tuple[str, int], tuple[str, ...]]]:
    """``(file, first line)`` -> report key, for every def under ``package``
    that is not a :func:`_declaration`, and -> its defaulted parameter names
    for those that have any.

    The first line is the first decorator's, as in ``co_firstlineno``.  A
    qualname defined twice in one file (two branches of an ``if``) gets
    ``#2``, ``#3`` in source order.
    """
    defs: dict[tuple[str, int], str] = {}
    defaulted: dict[tuple[str, int], tuple[str, ...]] = {}
    for path in sorted(package.rglob("*.py")):
        relative = path.relative_to(package.parent.parent).as_posix()
        counts: dict[str, int] = {}

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = prefix + child.name
                    counts[name] = counts.get(name, 0) + 1
                    suffix = "" if counts[name] == 1 else f"#{counts[name]}"
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    if not _declaration(child):
                        defs[(str(path), first)] = f"{relative}::{name}{suffix}"
                        names = _defaulted(child)
                        if names:
                            defaulted[(str(path), first)] = names
                    visit(child, name + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return defs, defaulted


# ----------------------------------------------------------- parameters


def _record_scenarios() -> None:
    """Note the parameters of every Scenario built from now on (once it
    passed its checks: a refused one sets nothing)."""
    from repro.api.scenario import PARAMS, Scenario

    checked = Scenario.__post_init__

    def recorded(scenario: Scenario) -> None:
        checked(scenario)
        for row in PARAMS:
            value = getattr(scenario, row.field)
            if value != row.default:
                _set_rows.add(row.key)
            if hasattr(row.check, "choices"):
                _held.add((row.key, value))

    Scenario.__post_init__ = recorded


def _unset_params() -> list[str]:
    """``param <key>`` for every row no scenario set off its default, and
    ``param <key>=<value>`` for every fixed choice no scenario held."""
    from repro.api.scenario import PARAMS

    unset = []
    for row in PARAMS:
        choices = getattr(row.check, "choices", None)
        if choices is None:
            if row.key not in _set_rows:
                unset.append(f"param {row.key}")
        else:
            unset += [f"param {row.key}={value}" for value in choices
                      if (row.key, value) not in _held]
    return sorted(unset)


# ------------------------------------------------------------ scenarios


def _cli(*argv: str) -> int:
    from repro import cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(list(argv))


def _expect(status: int, expected: int, what: str) -> None:
    if status != expected:
        raise SystemExit(f"reachability: {what} exited {status}, expected {expected}")


def golden_traces(out: str) -> None:
    """The 90 golden traces and the corpus replays (``tests/test_trace_golden.py``)."""
    sys.path.insert(0, str(ROOT / "tests"))
    import test_trace_golden

    test_trace_golden.fingerprints()
    for path in test_trace_golden.CORPUS:
        _expect(_cli("replay", path), 0, f"replay {path}")


def benchmark_workloads(out: str) -> None:
    """Each ``benchmarks/e2e`` workload, as the harness runs it, at a small size."""
    sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
    import harness

    scales = {"soak_etx": 0.02, "paper_2pc_traced": 0.002, "failover_hb": 1.0,
              "tcp_closed": 0.02}
    for name, workload in harness.WORKLOADS.items():
        repetition = harness.run_repetition(workload, workload.seed, scales[name])
        if repetition.delivered != repetition.requested or repetition.violations:
            raise SystemExit(f"reachability: workload {name} did not run clean")
    harness.measure_codec()


def experiments(out: str) -> None:
    """The experiment table and the other commands CI runs, and the
    documented variants nothing else covers (a sharded travel workload, the
    sweep's default worker count)."""
    for argv in (
        ("experiment",),
        ("soak", "--requests", "2000", "--json", os.path.join(out, "soak.json")),
        ("sweep", "etx://d1?workload=bank", "--axis", "protocol=etx,2pc,pb",
         "--axis", "clients=1,4", "--workers", "1"),
        ("sweep", "etx://d1?workload=bank", "--axis", "clients=2", "--requests", "2"),
        ("campaign", "baseline://a1.d1.c1?workload=bank&timing=paper&seed=3",
         "--budget", "48", "--out", out, "--expect", "violation"),
        ("campaign", "etx://a3.d1.c1?workload=bank&timing=paper&seed=3&detect=10",
         "--budget", "48", "--expect", "clean"),
        ("campaign", "etx://a3.d4.c8?rate=6&seed=7&workload=bank&placement=hash"
         "&fault=reshard@500:d4->d8", "--budget", "12", "--expect", "clean"),
        ("replay", "etx://a3.d1.c1?workload=bank&seed=3"),
        ("run", "etx://a3.d1.c1"),
        ("run", "etx://a3.d1.c4?rate=40&arrival=poisson&seed=7", "--requests", "2"),
        ("run", "etx://a3.d1.c1?fd=heartbeat&seed=7"),
        ("run", "etx://a3.d1.c1?detect=10&fault=crash@244:a1&timing=paper&workload=bank"),
        ("run", "etx://a3.d2.c2?workload=travel&placement=mod&xshard=0.5&seed=3",
         "--requests", "3"),
    ):
        _expect(_cli(*argv), 0, " ".join(argv[:1]))
    _sidecar_replay(out)


def _sidecar_replay(out: str) -> None:
    """A fault schedule carried in a ``faults=@file`` sidecar next to its
    artifact, replayed from another directory."""
    from repro import api, campaign

    scenario = api.Scenario.from_dsn(
        "etx://a3.d1.c1?workload=bank&seed=3&detect=10&fault=crash_for@100:a2:400"
        "&fault=false_suspicion@150:a3:a1:50&fault=partition@300:a1|a2~a3~d1~c1"
        "&fault=heal@500")
    folder = os.path.join(out, "sidecar")
    os.makedirs(folder)
    dsn = campaign.write_sidecar(scenario, os.path.join(folder, "long.faults.json"))
    relative = dsn.replace(f"@{folder}/", "@")
    artifact = campaign.Counterexample(dsn=relative, kind="certificate", requests=1)
    _expect(_cli("replay", artifact.save(os.path.join(folder, "long.json"))), 0,
            "replay with a sidecar")


def examples(out: str) -> None:
    """The shipped ``examples/`` scripts."""
    import runpy

    for path in sorted((ROOT / "examples").glob("*.py")):
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(path), run_name="__main__")


def refusals(out: str) -> None:
    """Bad input the CLI must refuse with ``error: ...`` and exit 2."""
    for argv in (
        ("run", "nosuch://a1"),
        ("run", "etx://a3.d1.c1?jobs=2"),
        ("run", "etx://a3.d1.c1?reliable=1"),
        ("run", "etx://a3.d1.c1?seed=1&seed=2"),
        ("run", "etx://a3.d1.c1?workload=nosuch"),
        ("run", "pb://a1"),
        ("run", "etx://a3.d1.c1?fault=crash@x:a1"),
        ("run", "etx://a3.d1.c1", "--only", "a1"),
        ("sweep", "etx://d1", "--axis", "clients"),
        # Each parameter row's check refuses its bad values at parse time.
        ("run", "etx://a3.d1.c1?detect=-1"),
        ("run", "2pc://a1.d1.c1?log=-3"),
        ("run", "etx://a3.d1.c1?rate=nan"),
        ("run", "etx://a3.d1.c1?hb_interval=0"),
        ("run", "etx://a3.d1.c1?fd=psychic"),
        ("run", "etx://a3.d1.c1?runtime=asyncio&port=70000"),
        ("run", "etx://a3.d1.c1?runtime=asyncio&host=a:1"),
        ("sweep", "etx://d1", "--axis", "seed=1.5"),
        ("sweep", "etx://d1", "--axis", "trace=5"),
    ):
        _expect(_cli(*argv), 2, " ".join(argv))


TCP_DSN = "etx://a3.d1.c1?runtime=asyncio&pace=0.05&seed=7"
# The pair reads its base port from the environment (the ``port_env`` form of
# the DSN) and crashes and recovers a2, which only the serving side injects.
PAIR_DSN = ("etx://a2.d1.c1?runtime=asyncio&port_env=REPRO_PAIR_PORT&pace=0.05&seed=7"
            "&fault=crash@200:a2&fault=recover@600:a2")
# Frames a hostile peer might send: a non-finite number, a field of the wrong
# shape, and a type this build no longer speaks.  Each must close its connection.
HOSTILE_FRAMES = (b'[2,"Ready","c1","a1",1,NaN]',
                  b'[2,"Vote","d1","a1",1,0.0,["c1",1],5]',
                  b'[2,"_rc_ack","a2","a1",1,0.0,1,"a2"]')


def tcp_steps(out: str) -> None:
    """CI's real-runtime steps: TCP runs, a ``serve --only`` / ``run --only``
    pair, and hostile frames sent to the serving side."""
    _expect(_cli("run", "etx://a3.d1.c2?runtime=asyncio&pace=0.05&seed=7",
                 "--requests", "2", "--settle", "400"), 0, "run over TCP")
    _expect(_cli("run", TCP_DSN + "&fd=heartbeat", "--requests", "2", "--settle", "200"),
            0, "run over TCP with heartbeats")
    port = _free_port()
    os.environ["REPRO_PAIR_PORT"] = str(port)
    seen_file = os.path.join(out, "serve.json")
    server = subprocess.Popen(
        [sys.executable, __file__, "--child", seen_file, "--",
         "serve", PAIR_DSN, "--only", "a1,a2,d1"],
        stdout=subprocess.PIPE, text=True)
    try:
        for line in server.stdout:
            if line.startswith("serving"):
                break
        _expect(_cli("run", PAIR_DSN, "--only", "c1", "--settle", "400", "--requests", "1"),
                0, "run --only c1")
        for body in HOSTILE_FRAMES:
            _send_frame(port, body)     # a1 listens on the base port
        server.send_signal(signal.SIGINT)   # serve runs until interrupted
        server.stdout.read()
        _expect(server.wait(timeout=60), 0, "serve --only")
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
    with open(seen_file, encoding="utf-8") as handle:
        child = json.load(handle)
    _child_seen.update(tuple(key) for key in child["entered"])
    _recorder.set_kwargs.update(tuple(key) for key in child["kwargs"])
    _recorder.set_flags.update(child["flags"])


def _send_frame(port: int, body: bytes) -> None:
    """Write one length-prefixed frame and wait for the peer to hang up."""
    import socket
    import struct

    with socket.create_connection(("127.0.0.1", port), timeout=10) as connection:
        connection.sendall(struct.pack(">I", len(body)) + body)
        if connection.recv(1):
            raise SystemExit("reachability: a hostile frame was answered")


def _free_port() -> int:
    import socket

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


_child_seen: set[tuple[str, int]] = set()
_recorder = OptionRecorder({})

SCENARIOS = (golden_traces, benchmark_workloads, experiments, examples, refusals, tcp_steps)


# ---------------------------------------------------------------- report


def read_allowlist() -> dict[str, str]:
    """The committed report as ``{key: reason}`` (a reason may be empty)."""
    allowlist: dict[str, str] = {}
    for line in REPORT.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            key, _, reason = line.partition(" # ")
            allowlist[key.strip()] = reason.strip()
    return allowlist


def report_text(unreached: list[str], allowlist: dict[str, str]) -> str:
    width = max((len(key) for key in unreached), default=0)
    lines = [f"{key:<{width}}  # {allowlist[key]}" if allowlist.get(key) else key
             for key in unreached]
    return HEADER + "".join(line + "\n" for line in lines)


def _entered() -> set[tuple[str, int]]:
    """``(file, first line)`` of every function entered so far."""
    return {(code.co_filename, code.co_firstlineno) for code in _recorder.seen}


def _record_flags() -> None:
    """Note the flags of every CLI command parsed from now on."""
    from repro import cli

    build_parser = cli.build_parser
    cli.build_parser = lambda: _recorder.wrap_parser(build_parser())


def main(argv: list[str]) -> int:
    global _recorder

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--child", metavar="OUT", help=argparse.SUPPRESS)
    parser.add_argument("cli", nargs="*", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    defs, defaulted = _defs()
    _recorder = OptionRecorder(defaulted)
    sys.settrace(_recorder.tracer)
    threading.settrace(_recorder.tracer)
    sys.path.insert(0, str(SRC))
    _record_flags()
    if args.child:
        # One CLI command in this process; the reached (file, line) pairs and
        # the arguments and flags it set go to OUT.  SIGINT stops it even
        # when started with SIGINT ignored.
        from repro import cli

        signal.signal(signal.SIGINT, signal.default_int_handler)
        status = cli.main(args.cli)
        sys.settrace(None)
        with open(args.child, "w", encoding="utf-8") as handle:
            json.dump({"entered": sorted(_entered()),
                       "kwargs": sorted(_recorder.set_kwargs),
                       "flags": sorted(_recorder.set_flags)}, handle)
        return status

    _record_scenarios()
    started = time.monotonic()
    with tempfile.TemporaryDirectory() as out:
        for scenario in SCENARIOS:
            scenario(out)
            print(f"{scenario.__name__:<20} {time.monotonic() - started:6.1f} s",
                  file=sys.stderr)
    sys.settrace(None)
    threading.settrace(None)
    reached = {defs[key] for key in _entered() | _child_seen if key in defs}
    unreached_defs = sorted(set(defs.values()) - reached)
    unset = _unset_params()
    from repro import cli

    kwargs = _recorder.unset_kwargs(defs)
    flags = _recorder.unset_flags(cli.build_parser())
    unreached = unreached_defs + unset + kwargs + flags
    allowlist = read_allowlist()
    REPORT.write_text(report_text(unreached, allowlist), encoding="utf-8")
    every_kwarg = sum(len(names) for names in defaulted.values())
    every_flag = len(list(_flags(cli.build_parser())))
    print(f"{len(unreached_defs)} of {len(defs)} defs unreached, {len(unset)} "
          "parameter rows or values unset", file=sys.stderr)
    print(f"{every_kwarg - len(kwargs)} of {every_kwarg} defaulted keyword parameters "
          f"set off their default, {every_flag - len(flags)} of {every_flag} CLI flags",
          file=sys.stderr)
    problems = [f"reached now (or gone), entry dropped: {key}" for key in allowlist
                if key not in unreached]
    problems += [f"unreached, with no reason to stay: {key}" for key in unreached
                 if not allowlist.get(key)]
    for problem in problems:
        print(f"reachability: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

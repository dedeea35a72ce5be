"""The option recorder of ``tools/reachability.py``: which defaulted keyword
parameters and which CLI flags some call sets off their default.

A toy module and a toy parser stand in for ``src/repro`` and the CLI, so the
check runs in-process in well under a second.
"""

import argparse
import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "reachability.py"

TOY = '''
def toy(a, b=1, *, c=None):
    return a


def counted(n=3):
    n = n + 1       # a resume sees the rebound value, not an argument
    yield n
    yield n
'''


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reachability = _load(TOOL, "reachability_tool")


def test_a_kwarg_row_is_listed_until_a_call_passes_another_value(tmp_path):
    package = tmp_path / "src" / "toy"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(TOY, encoding="utf-8")
    defs, defaulted = reachability._defs(package)
    assert sorted(defaulted.values()) == [("b", "c"), ("n",)]
    toy = _load(package / "mod.py", "toy_mod")

    recorder = reachability.OptionRecorder(defaulted)
    previous = sys.gettrace()
    sys.settrace(recorder.tracer)
    try:
        toy.toy(1)
        toy.toy(2, 1)           # b passed, but at its default
        toy.toy(3, c="set")     # c set
        assert list(toy.counted()) == [4, 4]
    finally:
        sys.settrace(previous)

    assert recorder.unset_kwargs(defs) == ["kwarg src/toy/mod.py::counted(n)",
                                           "kwarg src/toy/mod.py::toy(b)"]


def test_a_flag_row_is_listed_until_an_argv_sets_it_off_its_default():
    parser = argparse.ArgumentParser(prog="toy")
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    go = sub.add_parser("go")
    go.add_argument("--fast", action="store_true")
    go.add_argument("--times", type=int, default=1)
    sub.add_parser("stop").add_argument("--now", action="store_true")

    recorder = reachability.OptionRecorder({})
    recorder.wrap_parser(parser)
    parser.parse_args(["go", "--fast", "--times", "1"])     # --times at its default
    parser.parse_args(["stop"])

    assert recorder.unset_flags(parser) == ["flag go --times", "flag stop --now",
                                            "flag toy --verbose"]

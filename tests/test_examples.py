"""Smoke tests: every shipped example runs to completion on the public API."""

import runpy
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


@pytest.mark.parametrize("example", [
    "quickstart.py",
    "travel_booking.py",
    "bank_failover.py",
])
def test_example_runs(example, capsys):
    path = EXAMPLES_DIR / example
    assert path.exists(), f"missing example {example}"
    runpy.run_path(str(path), run_name="__main__")
    output = capsys.readouterr().out
    assert output.strip(), "examples should print something"


def test_reproduce_figure8_example_runs(capsys):
    # The heaviest example: run it with the module functions it wraps, but
    # still through its main() so the script itself is exercised.
    path = EXAMPLES_DIR / "reproduce_figure8.py"
    runpy.run_path(str(path), run_name="__main__")
    output = capsys.readouterr().out
    assert "cost of rel." in output
    assert "Figure 7" in output
    assert "Figure 1" in output


def test_examples_directory_is_complete():
    names = {path.name for path in EXAMPLES_DIR.glob("*.py")}
    assert {"quickstart.py", "travel_booking.py", "bank_failover.py",
            "reproduce_figure8.py"} <= names

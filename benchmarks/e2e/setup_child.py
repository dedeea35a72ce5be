"""Fresh-interpreter set-up probe: import -> ``from_dsn`` -> ``build()``.

Run as ``python setup_child.py <dsn>`` by :func:`harness.measure_setup`.
Prints one JSON object of CPU seconds per phase; ``total_s`` is the CPU this
process used since the interpreter started, so interpreter start-up is in it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import process_time


def main(dsn: str) -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    started = process_time()
    from repro.api import Scenario, build

    imported = process_time()
    scenario = Scenario.from_dsn(dsn)
    parsed = process_time()
    system = build(scenario)
    built = process_time()
    system.close()
    print(json.dumps({"total_s": built, "import_s": imported - started,
                      "parse_s": parsed - imported, "build_s": built - parsed}))


if __name__ == "__main__":
    main(sys.argv[1])

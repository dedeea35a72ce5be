"""Roll a ``cProfile`` run up to the layers of this repository.

The traced repetition runs under ``cProfile`` enabled from the harness, so a
*span* is one function activation, its boundaries are function entry and
exit, and the span that caused it is its caller (``pstats`` keeps, for every
function, the calls and self time received from each caller).  Functions are
assigned to a layer by the path of their source file; C builtins, which have
no file, count as ``stdlib``.
"""

from __future__ import annotations

import cProfile
import pstats
from pathlib import Path
from typing import Any, Optional

#: Source path under ``repro/`` -> layer.  First match wins; a directory entry
#: ends in ``/`` and catches what no file entry of that package named.
_REPRO_LAYERS = (
    ("sim/wheel.py", "sim.wheel"),
    ("sim/process.py", "sim.process"),
    ("sim/waits.py", "sim.waits"),
    ("sim/tracing.py", "sim.tracing"),
    ("sim/", "sim.scheduler"),
    ("net/", "net"),
    ("core/appserver.py", "core.appserver"),
    ("core/dataserver.py", "core.dataserver"),
    ("core/client.py", "core.client"),
    ("core/spec.py", "core.spec"),
    ("core/", "core.other"),
    ("consensus/", "consensus"),
    ("registers/", "registers"),
    ("storage/", "storage"),
    ("failure/", "failure"),
    ("workload/", "workload"),
    ("baselines/", "baselines"),
    ("runtime/tcp.py", "runtime.tcp"),
    ("runtime/endpoints.py", "runtime.tcp"),
    ("runtime/", "runtime.loop"),
    ("api/", "api"),
    ("metrics/", "metrics"),
)

LAYERS = tuple(dict.fromkeys(layer for _path, layer in _REPRO_LAYERS)) + (
    "stdlib", "asyncio")

_TOP_FUNCTIONS = 60


def layer_of(filename: str, benchmark_dir: str) -> Optional[str]:
    """The layer a source file belongs to; ``None`` for the benchmark's own files."""
    path = filename.replace("\\", "/")
    if path.startswith(benchmark_dir):
        return None
    marker = path.rfind("/repro/")
    if marker >= 0:
        relative = path[marker + len("/repro/"):]
        for prefix, layer in _REPRO_LAYERS:
            if relative.startswith(prefix):
                return layer
        return "api"    # repro/__init__.py, cli.py: the package's front door
    if "/asyncio/" in path:
        return "asyncio"
    return "stdlib"


def roll_up(profile: cProfile.Profile, delivered: int,
            benchmark_dir: str) -> tuple[dict[str, float], dict[str, Any]]:
    """Per-layer metrics and the trace document of one profiled repetition."""
    stats = pstats.Stats(profile).stats   # type: ignore[attr-defined]
    root = str(Path(benchmark_dir).parents[1]) + "/"

    def shown(filename: str) -> str:
        return filename.removeprefix(root)

    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    edges: dict[tuple[str, str], list[float]] = {}
    functions = []
    for (filename, line, name), (_prim, ncalls, tottime, cumtime, callers) in stats.items():
        layer = layer_of(filename, benchmark_dir)
        if layer is None:
            continue
        self_s[layer] += tottime
        calls[layer] += ncalls
        for (caller_file, _line, _name), (caller_calls, _p, caller_self, _c) in callers.items():
            caller_layer = layer_of(caller_file, benchmark_dir) or "benchmark"
            edge = edges.setdefault((caller_layer, layer), [0, 0.0])
            edge[0] += caller_calls
            edge[1] += caller_self
        functions.append((tottime, layer, name, filename, line, ncalls, cumtime, callers))
    total = sum(self_s.values())
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = self_s[layer] / total if total else 0.0
        metrics[f"{layer}.calls_per_req"] = calls[layer] / delivered
    functions.sort(key=lambda entry: (-entry[0], entry[2], entry[3], entry[4]))
    document = {
        "how_to_read": (
            "layers: self time and calls of every profiled function, summed by the "
            "layer its source file belongs to (self_share is of profiled_self_s). "
            "edges: calls and callee self time a callee layer received from a caller "
            "layer -- the span that caused the work. functions: the hottest "
            f"{_TOP_FUNCTIONS} by self time with their three busiest callers. Times "
            "are seconds under cProfile, which inflates Python calls but not C code: "
            "read shares and counts, not absolute times."),
        "delivered": delivered,
        "profiled_self_s": total,
        "layers": {layer: {"self_s": self_s[layer],
                           "self_share": metrics[f"{layer}.self_share"],
                           "calls": calls[layer],
                           "calls_per_req": metrics[f"{layer}.calls_per_req"]}
                   for layer in LAYERS},
        "edges": [{"caller": caller, "callee": callee, "calls": count, "callee_self_s": seconds}
                  for (caller, callee), (count, seconds) in sorted(
                      edges.items(), key=lambda item: -item[1][1])],
        "functions": [
            {"layer": layer, "function": name, "file": shown(filename), "line": line,
             "calls": ncalls, "self_s": tottime, "cum_s": cumtime,
             "callers": [{"function": caller[2], "file": shown(caller[0]),
                          "calls": counts[0]}
                         for caller, counts in sorted(
                             callers.items(), key=lambda item: -item[1][0])[:3]]}
            for tottime, layer, name, filename, line, ncalls, cumtime, callers
            in functions[:_TOP_FUNCTIONS]],
    }
    return metrics, document

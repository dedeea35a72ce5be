"""Shared latency-percentile helpers.

Every place that summarises a latency sample (the load generators, the
scenario runner, the figure harnesses, the sweep tables) uses the same
linear-interpolation percentile so the numbers are comparable across layers.
The previous nearest-rank rule jumped between samples; linear interpolation
(the same method as ``statistics.quantiles(..., method="inclusive")`` and
numpy's default) changes continuously with the data and is exact at the
sample points.
"""

from __future__ import annotations

from typing import Sequence


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolation percentile of ``values`` (``fraction`` in [0, 1]).

    Returns 0.0 for an empty sample.  The rank ``fraction * (n - 1)`` is
    interpolated between the two neighbouring order statistics, so
    ``percentile(v, 0.0) == min(v)`` and ``percentile(v, 1.0) == max(v)``.
    """
    ordered = sorted(values)
    if not ordered:
        return 0.0
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"percentile fraction must be within [0, 1], got {fraction}")
    if len(ordered) == 1:
        return ordered[0]
    rank = fraction * (len(ordered) - 1)
    lower = int(rank)
    upper = min(lower + 1, len(ordered) - 1)
    weight = rank - lower
    return ordered[lower] * (1.0 - weight) + ordered[upper] * weight

"""Measurement: percentiles, latency-component accounting, step profiles and
the one text-table renderer.

Every accumulator streams: it subscribes to the trace event bus before the
run (the deployment attaches its own at build time) and folds each event in
as it happens, so it works under any trace retention policy."""

from repro.metrics.latency import (
    COMPONENT_ORDER,
    LatencyBreakdown,
    LatencyComponentStream,
    breakdown_from_run,
)
from repro.metrics.percentiles import percentile
from repro.metrics.table import render_table
from repro.metrics.steps import (
    PROTOCOL_MESSAGE_TYPES,
    CommunicationProfile,
    Step,
    StreamingProfile,
)

__all__ = [
    "percentile",
    "render_table",
    "LatencyBreakdown",
    "LatencyComponentStream",
    "breakdown_from_run",
    "COMPONENT_ORDER",
    "CommunicationProfile",
    "Step",
    "StreamingProfile",
    "PROTOCOL_MESSAGE_TYPES",
]

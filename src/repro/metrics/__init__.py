"""Measurement: percentiles, latency-component accounting and step profiles.

Every accumulator streams: it subscribes to the trace event bus before the
run (the deployment attaches its own at build time) and folds each event in
as it happens, so it works under any trace retention policy."""

from repro.metrics.latency import (
    COMPONENT_ORDER,
    LatencyBreakdown,
    LatencyComponentStream,
    LatencyTable,
    breakdown_from_run,
)
from repro.metrics.percentiles import percentile
from repro.metrics.steps import (
    PROTOCOL_MESSAGE_TYPES,
    CommunicationProfile,
    Step,
    StepComparison,
    StreamingProfile,
)

__all__ = [
    "percentile",
    "LatencyBreakdown",
    "LatencyComponentStream",
    "LatencyTable",
    "breakdown_from_run",
    "COMPONENT_ORDER",
    "CommunicationProfile",
    "Step",
    "StepComparison",
    "StreamingProfile",
    "PROTOCOL_MESSAGE_TYPES",
]

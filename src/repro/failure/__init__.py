"""Failure detection and fault injection.

The detectors decide who a process suspects; :func:`schedule_faults` puts a
run's faults -- the DSN's :class:`~repro.api.scenario.FaultSpec` values -- on
the simulator's event queue.
"""

from repro.failure.detectors import (
    EventuallyPerfectFailureDetector,
    FailureDetector,
    HeartbeatFailureDetector,
    PerfectFailureDetector,
)
from repro.failure.injection import schedule_faults

__all__ = [
    "FailureDetector",
    "PerfectFailureDetector",
    "EventuallyPerfectFailureDetector",
    "HeartbeatFailureDetector",
    "schedule_faults",
]

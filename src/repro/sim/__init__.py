"""Discrete-event simulation kernel.

The kernel provides deterministic virtual time, crashable processes hosting
generator-coroutine threads, wait primitives (sleep / receive / future), and a
structured trace recorder.  All higher layers (network, failure detectors,
consensus, the e-Transaction protocol and its baselines) are built on it.
"""

from repro.sim.errors import (
    InvalidScheduling,
    ProcessNotRunning,
    SimulationError,
    SimulationLimitExceeded,
    ThreadError,
)
from repro.sim.process import Process, Thread
from repro.sim.scheduler import ScheduledEvent, Simulator
from repro.sim.tracing import TraceEvent, TraceRecorder
from repro.sim.waits import ANY, TIMEOUT, Receive, SimFuture, Sleep, WaitFuture

__all__ = [
    "Simulator",
    "ScheduledEvent",
    "Process",
    "Thread",
    "TraceEvent",
    "TraceRecorder",
    "Sleep",
    "Receive",
    "WaitFuture",
    "SimFuture",
    "TIMEOUT",
    "ANY",
    "SimulationError",
    "SimulationLimitExceeded",
    "ProcessNotRunning",
    "InvalidScheduling",
    "ThreadError",
]

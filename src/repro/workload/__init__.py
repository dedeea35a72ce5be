"""Workloads and traffic shapes: what to run and how hard to push it."""

from repro.workload.bank import BankWorkload
from repro.workload.generator import (
    ClosedLoop,
    LoadGenerator,
    OpenLoop,
    RunStatistics,
)
from repro.workload.travel import TravelWorkload

__all__ = [
    "BankWorkload",
    "TravelWorkload",
    "RunStatistics",
    "LoadGenerator",
    "ClosedLoop",
    "OpenLoop",
]

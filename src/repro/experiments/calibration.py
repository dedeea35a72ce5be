"""Calibration data: the paper's measured numbers and our standard scenarios.

``PAPER_FIGURE8`` is the table of Appendix 3 (Figure 8) verbatim, in
milliseconds.  :func:`paper_scenario` describes every protocol stack with
identical database timing and network topology, so that the *only*
differences between the measured columns are the protocols themselves --
exactly the paper's methodology (same SQL work, same machines, same network).
"""

from __future__ import annotations

from typing import Any

from repro import api
from repro.core.timing import DatabaseTiming

PAPER_FIGURE8: dict[str, dict[str, float]] = {
    "baseline": {"start": 3.4, "end": 3.4, "commit": 18.6, "prepare": 0.0, "SQL": 187.0,
                 "log-start": 0.0, "log-outcome": 0.0, "other": 5.0, "total": 217.4},
    "AR": {"start": 3.5, "end": 3.5, "commit": 18.8, "prepare": 19.0, "SQL": 193.2,
           "log-start": 4.5, "log-outcome": 4.7, "other": 5.1, "total": 252.3},
    "2PC": {"start": 3.5, "end": 3.4, "commit": 17.5, "prepare": 21.2, "SQL": 190.6,
            "log-start": 12.5, "log-outcome": 12.7, "other": 5.1, "total": 266.5},
}
"""Figure 8 of the paper, milliseconds, HP C180 + Orbix 2.3 + Oracle 8.0.3."""

PAPER_OVERHEAD = {"baseline": 0.0, "AR": 0.16, "2PC": 0.23}
"""The paper's headline 'cost of reliability' percentages."""


def paper_database_timing() -> DatabaseTiming:
    """Database timing calibrated to the paper's baseline column."""
    return DatabaseTiming(start=3.4, sql=187.0, end=3.4, prepare_cpu=6.5,
                          commit_cpu=6.1, abort_cpu=1.0, forced_write=12.5)


def paper_scenario(protocol: str, seed: int = 0, num_app_servers: int = 0,
                   num_db_servers: int = 1, **fields: Any) -> api.Scenario:
    """A paper-calibrated scenario for ``protocol`` (bank workload, Figure 8
    timing); ``num_app_servers=0`` keeps the protocol's standard tier size."""
    return api.Scenario(protocol=protocol, seed=seed,
                        num_app_servers=num_app_servers,
                        num_db_servers=num_db_servers,
                        workload="bank", timing="paper", **fields)

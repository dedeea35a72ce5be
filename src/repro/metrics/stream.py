"""Streaming per-database outcome accounting.

:class:`DatabaseOutcomeStream` subscribes to the trace bus and maintains the
per-database committed/aborted transaction sets that
``RunStatistics.by_database`` used to recover by re-scanning the whole trace
after every run.  The deployments attach one at build time, so the statistics
work under any trace retention policy and cost O(transactions) instead of
O(events) to produce.
"""

from __future__ import annotations

from repro.core.types import ABORT, COMMIT
from repro.sim.tracing import TraceRecorder


class DatabaseOutcomeStream:
    """Distinct committed/aborted transactions per database, fed by the bus.

    Counts distinct *transactions*, not ``Decide`` applications: a lost
    acknowledgement or a database recovery makes the protocol re-send the
    same decision, and each re-application records another ``db_decide``
    event.  A transaction that was first refused (abort) and later, after
    re-execution, committed counts once, as a commit.
    """

    def __init__(self, trace: TraceRecorder, db_server_names: list[str]):
        self._committed: dict[str, set] = {name: set() for name in db_server_names}
        self._aborted: dict[str, set] = {name: set() for name in db_server_names}
        trace.subscribe("db_decide", self._on_decide)

    def _on_decide(self, event) -> None:
        committed = self._committed.get(event.process)
        if committed is None:
            return
        outcome = event.data.get("outcome")
        key = event.data.get("j")
        if outcome == COMMIT:
            committed.add(key)
        elif outcome == ABORT:
            self._aborted[event.process].add(key)

    def commits(self, db: str) -> int:
        """Distinct committed transactions at ``db``."""
        return len(self._committed.get(db, ()))

    def aborts(self, db: str) -> int:
        """Distinct transactions that ended aborted (and never committed)."""
        return len(self._aborted.get(db, set()) - self._committed.get(db, set()))

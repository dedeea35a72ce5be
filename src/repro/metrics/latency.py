"""Latency-component accounting (the rows of the paper's Figure 8).

The paper attributes the client-observed response time to the components
``start``, ``end``, ``commit``, ``prepare``, ``SQL``, ``log-start``,
``log-outcome`` and ``other``.  We do the same:

* the database-phase components come from the run's
  :class:`~repro.core.timing.DatabaseTiming` (they are what the database
  actually slept for),
* ``log-start``/``log-outcome`` come from the trace -- the measured duration
  of the ``regA``/``regD`` register writes for the asynchronous-replication
  protocol, the measured forced log writes for the 2PC coordinator, and zero
  for the unreliable baseline,
* ``other`` is whatever part of the measured client latency the named
  components do not explain (client/server communication, scheduling).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.timing import DatabaseTiming
from repro.sim.tracing import TraceRecorder

COMPONENT_ORDER = [
    "start", "end", "commit", "prepare", "SQL", "log-start", "log-outcome", "other",
]


@dataclass
class LatencyBreakdown:
    """One protocol's latency split into the paper's components (milliseconds)."""

    protocol: str
    components: dict[str, float] = field(default_factory=dict)
    total: float = 0.0
    samples: int = 0

    def component(self, name: str) -> float:
        """Value of one component (0 if absent)."""
        return self.components.get(name, 0.0)

    def overhead_versus(self, baseline: "LatencyBreakdown") -> float:
        """Relative latency overhead versus ``baseline`` (e.g. 0.16 for +16 %)."""
        if baseline.total <= 0:
            return 0.0
        return (self.total - baseline.total) / baseline.total


class LatencyComponentStream:
    """Streaming accumulator of the trace-derived latency components.

    Subscribes to ``as_prepare``/``as_phase``/``tm_log`` and maintains the
    running mean durations :func:`breakdown_from_run` reads.  Attach at build
    time (every deployment does), before the events of interest are
    recorded; works under any trace retention policy.
    """

    _PHASES = ("regA_write", "regD_write")
    _LOGS = ("start", "outcome")

    def __init__(self, trace: TraceRecorder):
        self.prepare_events = 0
        self._sums: dict[str, float] = {}
        self._counts: dict[str, int] = {}
        trace.subscribe("as_prepare", self._on_prepare)
        trace.subscribe("as_phase", self._on_phase)
        trace.subscribe("tm_log", self._on_log)

    def _on_prepare(self, event) -> None:
        self.prepare_events += 1

    def _accumulate(self, bucket: str, event) -> None:
        self._sums[bucket] = self._sums.get(bucket, 0.0) + event.data.get("duration", 0.0)
        self._counts[bucket] = self._counts.get(bucket, 0) + 1

    def _on_phase(self, event) -> None:
        phase = event.data.get("phase")
        if phase in self._PHASES:
            self._accumulate(f"phase:{phase}", event)

    def _on_log(self, event) -> None:
        which = event.data.get("which")
        if which in self._LOGS:
            self._accumulate(f"log:{which}", event)

    def mean(self, bucket: str) -> float:
        """Mean duration of one accumulator bucket (0 when empty)."""
        count = self._counts.get(bucket, 0)
        return self._sums.get(bucket, 0.0) / count if count else 0.0

def breakdown_from_run(protocol: str, components: LatencyComponentStream,
                       timing: DatabaseTiming, mean_latency: float, samples: int,
                       committed_requests: Optional[int] = None) -> LatencyBreakdown:
    """Build a :class:`LatencyBreakdown` for one protocol run.

    Parameters
    ----------
    protocol:
        Label: ``"baseline"``, ``"AR"``, ``"2PC"`` or ``"PB"``.
    components:
        The :class:`LatencyComponentStream` that was subscribed to the run's
        trace from the start (every deployment attaches one); source of the
        replication/log components.
    timing:
        The database timing configuration used by the run.
    mean_latency:
        Mean client-observed latency over the run's committed requests.
    samples:
        Number of committed requests measured.
    committed_requests:
        Denominator for per-request averaging of trace durations; defaults to
        ``samples``.
    """
    denominator = committed_requests if committed_requests else max(samples, 1)
    reg_a = components.mean("phase:regA_write")
    reg_d = components.mean("phase:regD_write")
    breakdown_components = {
        "start": timing.start,
        "end": timing.end,
        "commit": timing.commit_cpu + timing.forced_write,
        "SQL": timing.sql,
        "prepare": (timing.prepare_cpu + timing.forced_write)
        if components.prepare_events > 0 else 0.0,
        "log-start": reg_a if reg_a > 0 else components.mean("log:start"),
        "log-outcome": reg_d if reg_d > 0 else components.mean("log:outcome"),
    }
    named = sum(breakdown_components.values())
    breakdown_components["other"] = max(mean_latency - named, 0.0)
    return LatencyBreakdown(protocol=protocol, components=breakdown_components,
                            total=mean_latency, samples=denominator)


@dataclass
class LatencyTable:
    """A Figure 8 style table: one column per protocol."""

    columns: list[LatencyBreakdown] = field(default_factory=list)
    baseline_name: str = "baseline"

    def add(self, breakdown: LatencyBreakdown) -> None:
        """Add one protocol column."""
        self.columns.append(breakdown)

    def column(self, protocol: str) -> Optional[LatencyBreakdown]:
        """Look up a column by protocol name."""
        for breakdown in self.columns:
            if breakdown.protocol == protocol:
                return breakdown
        return None

    def overheads(self) -> dict[str, float]:
        """Relative overhead of every column versus the baseline column."""
        baseline = self.column(self.baseline_name)
        if baseline is None:
            return {}
        return {b.protocol: b.overhead_versus(baseline) for b in self.columns}

    def to_table(self) -> str:
        """Fixed-width text rendering in the layout of the paper's Figure 8."""
        protocols = [b.protocol for b in self.columns]
        width = max(12, *(len(p) + 2 for p in protocols))
        header = "protocol".ljust(14) + "".join(p.rjust(width) for p in protocols)
        lines = [header]
        for name in COMPONENT_ORDER:
            row = name.ljust(14)
            for breakdown in self.columns:
                row += f"{breakdown.component(name):.1f}".rjust(width)
            lines.append(row)
        total_row = "total".ljust(14)
        for breakdown in self.columns:
            total_row += f"{breakdown.total:.1f}".rjust(width)
        lines.append(total_row)
        overhead_row = "cost of rel.".ljust(14)
        overheads = self.overheads()
        for breakdown in self.columns:
            overhead = overheads.get(breakdown.protocol, 0.0)
            overhead_row += f"+{overhead * 100:.0f}%".rjust(width) if overhead > 0 \
                else "0%".rjust(width)
        lines.append(overhead_row)
        return "\n".join(lines)

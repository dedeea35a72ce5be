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


class LatencyComponentStream:
    """Streaming accumulator of the trace-derived latency components.

    Subscribes to ``as_prepare``/``as_phase``/``tm_log`` and maintains the
    running mean durations :func:`breakdown_from_run` reads.  Attach before
    the run's load (the experiment executor does), so it sees the events of
    interest; works under any trace retention policy.
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
                       timing: DatabaseTiming, mean_latency: float,
                       samples: int) -> LatencyBreakdown:
    """Build a :class:`LatencyBreakdown` for one protocol run.

    Parameters
    ----------
    protocol:
        Label: ``"baseline"``, ``"AR"``, ``"2PC"`` or ``"PB"``.
    components:
        The :class:`LatencyComponentStream` that was subscribed to the run's
        trace before its load; source of the replication/log components.
    timing:
        The database timing configuration used by the run.
    mean_latency:
        Mean client-observed latency over the run's committed requests.
    samples:
        Number of committed requests measured.
    """
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
                            total=mean_latency, samples=max(samples, 1))


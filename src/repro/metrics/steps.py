"""Communication-step profiles (the paper's Figures 1 and 7).

Figures 1 and 7 are message-sequence diagrams.  We regenerate their content as

* an ordered list of the protocol-relevant messages of a run (sender, receiver,
  type, time) -- consensus-internal traffic is collapsed into the logical
  ``regA.write``/``regD.write`` steps it implements, matching how the paper
  draws them;
* per-type message counts, the quantity the paper's analytic comparison
  discusses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.sim.tracing import TraceRecorder

PROTOCOL_MESSAGE_TYPES = (
    "Request", "Result", "Execute", "ExecuteResult", "Prepare", "Vote",
    "Decide", "AckDecide", "Ready", "CommitOnePhase", "AckCommit",
    "PBStart", "PBStartAck", "PBOutcome", "PBOutcomeAck",
)


@dataclass(frozen=True)
class Step:
    """One arrow of the message-sequence diagram."""

    time: float
    sender: str
    receiver: str
    msg_type: str

    def render(self) -> str:
        """``t=12.3  a1 -> d1  Prepare``"""
        return f"t={self.time:8.1f}  {self.sender:>4} -> {self.receiver:<4}  {self.msg_type}"


@dataclass
class CommunicationProfile:
    """Message-level profile of one run (or one scenario)."""

    label: str
    steps: list[Step] = field(default_factory=list)
    register_writes: list[tuple[float, str, str]] = field(default_factory=list)
    total_messages: int = 0
    consensus_messages: int = 0

    def count(self, msg_type: str) -> int:
        """Number of messages of one type."""
        return sum(1 for step in self.steps if step.msg_type == msg_type)

    def counts_by_type(self) -> dict[str, int]:
        """Histogram of protocol message types."""
        histogram: dict[str, int] = {}
        for step in self.steps:
            histogram[step.msg_type] = histogram.get(step.msg_type, 0) + 1
        return histogram

    def sequence_diagram(self, limit: Optional[int] = None) -> str:
        """Multi-line text rendering of the message sequence."""
        steps = self.steps if limit is None else self.steps[:limit]
        lines = [f"== {self.label} =="]
        lines.extend(step.render() for step in steps)
        for time, server, register in self.register_writes:
            lines.append(f"t={time:8.1f}  {server:>4} writes {register}")
        return "\n".join(lines)


class StreamingProfile:
    """Streaming builder of a :class:`CommunicationProfile`.

    Subscribes to the ``msg_send``/``consensus_decide`` bus categories and
    folds each event in as it happens, independent of the retention policy.
    Attach *before* the run (typically right after building the deployment)
    and :meth:`detach` after it.
    """

    def __init__(self, trace: TraceRecorder, label: str,
                 include_types: Iterable[str] = PROTOCOL_MESSAGE_TYPES):
        self._allowed = set(include_types)
        self.profile = CommunicationProfile(label=label)
        self._unsubscribers = [
            trace.subscribe("msg_send", self._on_send),
            trace.subscribe("consensus_decide", self._on_consensus_decide),
        ]

    def _on_send(self, event) -> None:
        msg_type = event.data.get("msg_type")
        profile = self.profile
        profile.total_messages += 1
        if msg_type == "Consensus":
            profile.consensus_messages += 1
        if msg_type in self._allowed:
            profile.steps.append(Step(time=event.time, sender=event.process,
                                      receiver=event.data.get("destination", "?"),
                                      msg_type=msg_type))

    def _on_consensus_decide(self, event) -> None:
        instance = event.data.get("instance")
        if isinstance(instance, tuple) and len(instance) == 2:
            self.profile.register_writes.append(
                (event.time, event.process, f"{instance[0]}[{instance[1]}]"))

    def detach(self) -> "CommunicationProfile":
        """Stop consuming events and return the accumulated profile."""
        for unsubscribe in self._unsubscribers:
            unsubscribe()
        self._unsubscribers.clear()
        return self.profile


@dataclass
class StepComparison:
    """Figure 7 as data: one profile per protocol, plus derived counts."""

    profiles: dict[str, CommunicationProfile] = field(default_factory=dict)

    def add(self, profile: CommunicationProfile) -> None:
        """Add one protocol's profile."""
        self.profiles[profile.label] = profile

    def to_table(self) -> str:
        """Text table: one row per protocol with its message counts by type,
        its consensus messages and every message it sent; each column as wide
        as its widest cell."""
        types = ["Request", "Execute", "Prepare", "Vote", "Decide", "AckDecide",
                 "CommitOnePhase", "Result"]
        rows = [["protocol", *types, "Consensus", "total"]]
        for label, profile in self.profiles.items():
            counts = profile.counts_by_type()
            rows.append([label, *(str(counts.get(msg_type, 0)) for msg_type in types),
                         str(profile.consensus_messages), str(profile.total_messages)])
        widths = [max(map(len, column)) for column in zip(*rows)]
        return "\n".join(
            "  ".join([row[0].ljust(widths[0])]
                      + [cell.rjust(width) for cell, width in zip(row[1:], widths[1:])])
            for row in rows)

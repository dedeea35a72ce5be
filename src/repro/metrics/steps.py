"""Communication-step profiles (the paper's Figures 1 and 7).

Figures 1 and 7 are message-sequence diagrams.  We regenerate their content as

* an ordered list of the protocol-relevant messages of a run (sender, receiver,
  type, time) -- consensus-internal traffic is collapsed into the logical
  ``regA.write``/``regD.write`` steps it implements, matching how the paper
  draws them;
* per-type message counts and a count of *client-visible communication steps*
  (the sequential message hops between the request leaving the client and the
  result arriving), which is the quantity the paper's analytic comparison
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

    def message_types(self) -> set[str]:
        """The set of message types observed."""
        return {step.msg_type for step in self.steps}

    def client_visible_steps(self, client: str = "c1") -> int:
        """Sequential hops between the client's request and its delivered result.

        Counts the distinct send times of protocol messages between the first
        ``Request`` leaving ``client`` and the first ``Result`` reaching it --
        an operational stand-in for the "communication steps" axis of Figure 7.
        """
        start: Optional[float] = None
        end: Optional[float] = None
        for step in self.steps:
            if start is None and step.msg_type == "Request" and step.sender == client:
                start = step.time
            if step.msg_type == "Result" and step.receiver == client:
                end = step.time
                break
        if start is None or end is None:
            return 0
        times = {step.time for step in self.steps if start <= step.time <= end}
        return len(times)

    def sequence_diagram(self, limit: Optional[int] = None) -> str:
        """Multi-line text rendering of the message sequence."""
        steps = self.steps if limit is None else self.steps[:limit]
        lines = [f"== {self.label} =="]
        lines.extend(step.render() for step in steps)
        for time, server, register in self.register_writes:
            lines.append(f"t={time:8.1f}  {server:>4} writes {register}")
        return "\n".join(lines)


def profile_from_trace(trace: TraceRecorder, label: str,
                       include_types: Iterable[str] = PROTOCOL_MESSAGE_TYPES,
                       start: float = 0.0, end: Optional[float] = None) -> CommunicationProfile:
    """Build a :class:`CommunicationProfile` from a run's *stored* trace.

    Needs ``full`` retention; for a profile that works under any retention
    policy subscribe a :class:`StreamingProfile` before the run instead.
    """
    allowed = set(include_types)
    profile = CommunicationProfile(label=label)
    for event in trace.select("msg_send"):
        if end is not None and event.time > end:
            continue
        if event.time < start:
            continue
        msg_type = event.data.get("msg_type")
        profile.total_messages += 1
        if msg_type == "Consensus":
            profile.consensus_messages += 1
        if msg_type not in allowed:
            continue
        profile.steps.append(Step(time=event.time, sender=event.process,
                                  receiver=event.data.get("destination", "?"),
                                  msg_type=msg_type))
    for event in trace.select("consensus_decide"):
        if end is not None and event.time > end:
            continue
        instance = event.data.get("instance")
        if isinstance(instance, tuple) and len(instance) == 2:
            profile.register_writes.append((event.time, event.process, f"{instance[0]}[{instance[1]}]"))
    profile.steps.sort(key=lambda step: step.time)
    return profile


class StreamingProfile:
    """Streaming builder of a :class:`CommunicationProfile`.

    Subscribes to the ``msg_send``/``consensus_decide`` bus categories and
    folds each event in as it happens, producing the same profile
    :func:`profile_from_trace` would extract from a fully retained trace --
    but independent of the retention policy.  Attach *before* the run
    (typically right after building the deployment).
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

    def message_counts(self) -> dict[str, int]:
        """Total protocol messages per protocol."""
        return {label: len(profile.steps) for label, profile in self.profiles.items()}

    def to_table(self) -> str:
        """Text table: one row per protocol with message counts by category."""
        categories = ["Request", "Execute", "Prepare", "Vote", "Decide", "AckDecide",
                      "CommitOnePhase", "Result"]
        header = "protocol".ljust(16) + "".join(c.rjust(9) for c in categories) + \
            "  total".rjust(9)
        lines = [header]
        for label, profile in self.profiles.items():
            counts = profile.counts_by_type()
            row = label.ljust(16)
            for category in categories:
                row += str(counts.get(category, 0)).rjust(9)
            row += str(len(profile.steps)).rjust(9)
            lines.append(row)
        return "\n".join(lines)

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

    def sequence_diagram(self) -> str:
        """Multi-line text rendering of the message sequence."""
        lines = [f"== {self.label} =="]
        lines.extend(step.render() for step in self.steps)
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

    def __init__(self, trace: TraceRecorder, label: str):
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
        if msg_type in PROTOCOL_MESSAGE_TYPES:
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


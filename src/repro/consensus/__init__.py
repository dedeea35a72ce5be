"""Consensus among application servers (substrate for write-once registers).

The paper builds its wo-registers on "a consensus protocol executed among the
application servers (e.g., [4])".  The one implementation is a single-decree
quorum protocol (:mod:`repro.consensus.synod`) with a one-round-trip fast path
for the default primary, matching the paper's analytic claim that "in a nice
run, it takes only a round trip message for the first primary to write into
the register".
"""

from repro.consensus.synod import AcceptorState, Ballot, ConsensusHost, InstanceId

__all__ = [
    "ConsensusHost",
    "AcceptorState",
    "Ballot",
    "InstanceId",
]

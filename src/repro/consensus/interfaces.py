"""Abstract interfaces of the consensus layer.

The paper builds its wo-registers on "a consensus protocol executed among the
application servers (e.g., [4])".  We expose consensus behind a small
interface so the wo-register layer does not care which protocol provides it;
the shipped implementation is a single-decree quorum protocol
(:mod:`repro.consensus.synod`) with a one-round-trip fast path for the default
primary, matching the paper's analytic claim that "in a nice run, it takes
only a round trip message for the first primary to write into the register".
"""

from __future__ import annotations

from typing import Any, Hashable, Optional

from repro.sim.waits import SimFuture

InstanceId = Hashable
"""Identifier of one consensus instance (one wo-register cell)."""


class ConsensusProtocol:
    """A multi-instance consensus service hosted on one application server."""

    def propose(self, instance: InstanceId, value: Any) -> SimFuture:
        """Propose ``value`` for ``instance``.

        Returns a future that resolves to the *decided* value, which is either
        ``value`` or a value proposed by another process.  Proposing again for
        a decided instance resolves immediately with the decision.
        """
        raise NotImplementedError

    def decision(self, instance: InstanceId) -> Optional[Any]:
        """The locally-known decision for ``instance``, or ``None``."""
        raise NotImplementedError

    def learned_since(self, cursor: int) -> list[InstanceId]:
        """Instances decided and learned here after the first ``cursor``, in learn order."""
        raise NotImplementedError

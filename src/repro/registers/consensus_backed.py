"""Consensus-backed wo-register arrays (the paper's construction).

Every application server holds a :class:`ConsensusRegisterArray` per logical
register array (``regA``, ``regD``).  Writing cell ``j`` proposes the value in
consensus instance ``(array_name, j)`` among the application servers; the
decided value is the register's content.  Reading returns the locally learned
decision or ⊥.  A server learns a decision when it takes the winning
``accept`` (groups of up to three), when a ``decide`` reaches it (larger
groups, or a server that refused that ``accept``), or by asking with
:meth:`refresh`; so once a value is written, repeated reads at a correct
server that was reachable, or that refreshes, eventually return it.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.consensus.synod import ConsensusHost
from repro.registers.base import BOTTOM, WriteOnceRegisterArray
from repro.sim.waits import SimFuture


class ConsensusRegisterArray(WriteOnceRegisterArray):
    """A named array of wo-registers backed by a :class:`ConsensusHost`."""

    def __init__(self, host: ConsensusHost, array_name: str):
        self.host = host
        self.array_name = array_name

    def _instance(self, index: int):
        return (self.array_name, index)

    def write(self, index: int, value: Any) -> SimFuture:
        return self.host.propose(self._instance(index), value)

    def read(self, index: int) -> Any:
        decision = self.host.decision(self._instance(index))
        return BOTTOM if decision is None else decision

    def refresh(self, index: int) -> None:
        """Ask peers for a possibly missed decision (helps recovered servers)."""
        self.host.request_decision(self._instance(index))

    def learned_since(self, cursor: int) -> tuple[list[tuple[Any, Any]], int]:
        instances = self.host.learned_since(cursor)  # the host's cursor: other arrays count
        mine, decision = self.array_name, self.host.decision
        return ([(i[1], decision(i)) for i in instances
                 if isinstance(i, tuple) and len(i) == 2 and i[0] == mine],
                cursor + len(instances))

    def on_learn(self, wake: Optional[Callable[[], None]]) -> None:
        self.host.on_learn = wake  # the host's slot: decisions of other arrays wake too

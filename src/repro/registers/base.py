"""Write-once register (wo-register) abstraction.

Section 4 of the paper introduces wo-registers as the synchronisation
primitive of the application-server tier:

* ``write(input)`` returns either ``input`` (the caller's value was written)
  or the value some other process already wrote;
* ``read()`` returns a written value or the initial value ⊥; once a value has
  been written, repeated reads eventually return it.

The protocol uses two *arrays* of registers indexed by the result identifier
``j``: ``regA[j]`` records which application server executes result ``j`` and
``regD[j]`` records the decision (result, outcome) for ``j``.

Two implementations are provided:

* :class:`~repro.registers.consensus_backed.ConsensusRegisterArray` -- the real
  thing, one consensus instance per cell (see ``repro.consensus``);
* :class:`~repro.registers.local.LocalRegisterArray` -- a single-copy wait-free
  reference implementation used to unit-test the protocol logic in isolation
  and to cross-check the consensus-backed one in property tests.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.waits import SimFuture


class _Bottom:
    """The initial register value ⊥ (distinct from ``None`` and falsy)."""

    _instance: Optional["_Bottom"] = None

    def __new__(cls) -> "_Bottom":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "⊥"

    def __bool__(self) -> bool:
        return False


BOTTOM = _Bottom()
"""The initial (unwritten) value of every wo-register."""


class WriteOnceRegisterArray:
    """An array of wo-registers indexed by a result identifier ``j``."""

    def write(self, index: int, value: Any) -> SimFuture:
        """Attempt to write ``value`` into register ``index``.

        Returns a future resolving to the value actually held by the register
        (the caller's value, or whatever was written first).
        """
        raise NotImplementedError

    def read(self, index: int) -> Any:
        """Return the value of register ``index`` or :data:`BOTTOM`."""
        raise NotImplementedError

    def learned_since(self, cursor: int) -> tuple[list[tuple[Any, Any]], int]:
        """The array as a feed: ``(index, value)`` of every register learned locally after
        ``cursor`` (0 = from the start), in learn order, and the next cursor.  O(new entries)."""
        raise NotImplementedError

    def on_learn(self, wake: Optional[Callable[[], None]]) -> None:
        """Arm ``wake()`` for whenever the feed grows (``None`` disarms); one slot per view."""
        raise NotImplementedError

    def is_written(self, index: int) -> bool:
        """Whether register ``index`` holds a (locally known) value."""
        return self.read(index) is not BOTTOM

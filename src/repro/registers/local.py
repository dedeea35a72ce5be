"""Single-copy reference implementation of wo-register arrays.

:class:`LocalRegisterArray` keeps all register cells in one shared in-memory
table (one object shared by every application server in a deployment).  It is
*wait-free and atomic by construction*, which makes it the ideal register the
paper assumes when it says "we simply assume here the existence of wait-free
wo-registers".  It is used to

* unit-test the e-Transaction protocol logic independently of consensus,
* cross-check the consensus-backed implementation in property tests
  (both must yield runs satisfying the same specification).

An optional per-operation latency makes it usable in latency experiments that
want to charge a register-access cost without running consensus.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.registers.base import BOTTOM, WriteOnceRegisterArray
from repro.sim.scheduler import Simulator
from repro.sim.waits import SimFuture


class LocalRegisterStore:
    """The shared table behind a group of :class:`LocalRegisterArray` views.

    A deployment creates one store per register array name (``"regA"``,
    ``"regD"``) and hands each application server a view onto it.
    """

    def __init__(self, sim: Simulator, name: str, operation_latency: float = 0.0):
        if operation_latency < 0:
            raise ValueError("operation_latency must be non-negative")
        self.sim = sim
        self.name = name
        self.operation_latency = operation_latency
        self._cells: dict[int, Any] = {}
        self._log: list[tuple[int, Any]] = []  # the items of _cells, sliceable
        self.wakes: dict[Any, Optional[Callable[[], None]]] = {}  # view -> armed wake-up

    def write(self, index: int, value: Any) -> SimFuture:
        """Write-once semantics: the first write wins, later writes observe it."""
        future = SimFuture()

        def apply() -> None:
            grew = index not in self._cells
            if grew:
                self._cells[index] = value
                self._log.append((index, value))
            self.sim.trace.record("woregister_write", "", register=self.name, index=index,
                                  requested=_short(value), stored=_short(self._cells[index]))
            future.resolve(self._cells[index])
            for wake in filter(None, list(self.wakes.values()) if grew else ()):
                wake()

        if self.operation_latency > 0:
            self.sim.schedule(self.operation_latency, apply, name=f"{self.name}[{index}].write")
        else:
            apply()
        return future

    def read(self, index: int) -> Any:
        return self._cells.get(index, BOTTOM)

    def learned_since(self, cursor: int) -> tuple[list[tuple[Any, Any]], int]:
        return self._log[cursor:], len(self._log)


class LocalRegisterArray(WriteOnceRegisterArray):
    """One application server's view of a :class:`LocalRegisterStore`."""

    def __init__(self, store: LocalRegisterStore, owner: Optional[str] = None):
        self.store = store
        self.owner = owner

    def write(self, index: int, value: Any) -> SimFuture:
        return self.store.write(index, value)

    def read(self, index: int) -> Any:
        return self.store.read(index)

    def learned_since(self, cursor: int) -> tuple[list[tuple[Any, Any]], int]:
        return self.store.learned_since(cursor)

    def on_learn(self, wake: Optional[Callable[[], None]]) -> None:
        self.store.wakes[self] = wake


def _short(value: Any) -> Any:
    return value if isinstance(value, (int, float, str, bool, tuple)) else repr(value)

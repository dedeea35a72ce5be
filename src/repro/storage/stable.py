"""Stable storage with explicit I/O cost accounting.

The paper's performance argument hinges on disk behaviour: the 2PC coordinator
performs two *forced* (synchronous) log writes per transaction (~12.5 ms each
in the paper's environment), while the asynchronous-replication protocol
performs none.  :class:`StableStorage` models a durable key/value device whose
write operations report their latency cost so the calling process can charge
that time to the simulation clock, and whose contents survive process crashes.

The storage object itself never advances the clock -- callers do, typically
with ``yield process.sleep(cost)`` -- which keeps the substrate usable from
both protocol code and plain unit tests.
"""

from __future__ import annotations

from typing import Any, Iterator


class StorageStats:
    """Counters of I/O operations performed on one storage device."""

    def __init__(self) -> None:
        self.forced_writes = 0
        self.lazy_writes = 0
        self.reads = 0
        self.total_write_cost = 0.0

class StableStorage:
    """A durable key/value device with forced and lazy writes.

    Parameters
    ----------
    name:
        Device name, used in traces (e.g. ``"oracle-1.disk"``).
    forced_write_latency:
        Cost (virtual milliseconds) of a synchronous write that must reach the
        platter before the call returns -- the paper's "eager IO".
    lazy_write_latency:
        Cost of a buffered write (defaults to 0: it only hits the OS cache).
    """

    def __init__(self, name: str, forced_write_latency: float = 12.5,
                 lazy_write_latency: float = 0.0):
        if forced_write_latency < 0 or lazy_write_latency < 0:
            raise ValueError("write latencies must be non-negative")
        self.name = name
        self.forced_write_latency = forced_write_latency
        self.lazy_write_latency = lazy_write_latency
        self.stats = StorageStats()
        self._data: dict[str, Any] = {}

    # ------------------------------------------------------------------ write

    def put(self, key: str, value: Any, forced: bool = True) -> float:
        """Durably store ``value`` under ``key`` and return the I/O cost."""
        self._data[key] = value
        return self._account(forced)

    def append(self, key: str, entry: Any, forced: bool = True) -> float:
        """Append ``entry`` to the list stored under ``key`` (creating it)."""
        self._data.setdefault(key, []).append(entry)
        return self._account(forced)

    def delete(self, key: str, forced: bool = False) -> float:
        """Remove ``key`` if present and return the I/O cost."""
        self._data.pop(key, None)
        return self._account(forced)

    def _account(self, forced: bool) -> float:
        if forced:
            self.stats.forced_writes += 1
            cost = self.forced_write_latency
        else:
            self.stats.lazy_writes += 1
            cost = self.lazy_write_latency
        self.stats.total_write_cost += cost
        return cost

    # ------------------------------------------------------------------- read

    def get(self, key: str, default: Any = None) -> Any:
        """Read the value stored under ``key`` (no cost model for reads)."""
        self.stats.reads += 1
        return self._data.get(key, default)

    def keys(self) -> Iterator[str]:
        """Iterate over stored keys."""
        return iter(list(self._data))

    # -------------------------------------------------------------- lifecycle

    def wipe(self) -> None:
        """Erase the device (used by tests; *not* called on crash -- crashes
        have no impact on stable storage, per the system model)."""
        self._data.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<StableStorage {self.name} entries={len(self._data)}>"

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

Every process owns one device (``Process.disk``), and every durable write
passes :meth:`StableStorage.write`, the one counter of forced and lazy writes.
"""

from __future__ import annotations

from typing import Any, Callable


class StorageStats:
    """Counters of I/O operations performed on one storage device."""

    def __init__(self) -> None:
        self.forced_writes = 0
        self.lazy_writes = 0

class StableStorage:
    """A durable key/value device with forced and lazy writes.

    Parameters
    ----------
    name:
        Device name, used in traces (e.g. ``"oracle-1.disk"``).
    forced_write_latency:
        Cost (virtual milliseconds) of a synchronous write that must reach the
        platter before the call returns -- the paper's "eager IO".  A lazy
        (buffered) write only hits the OS cache and costs nothing.
    """

    def __init__(self, name: str, forced_write_latency: float = 12.5):
        if forced_write_latency < 0:
            raise ValueError("write latencies must be non-negative")
        self.name = name
        self.forced_write_latency = forced_write_latency
        self.stats = StorageStats()
        self._data: dict[str, Any] = {}

    # ------------------------------------------------------------------ write

    def put(self, key: str, value: Any, forced: bool = True) -> float:
        """Durably store ``value`` under ``key`` and return the I/O cost."""
        self._data[key] = value
        return self.write(forced)

    def append(self, key: str, entry: Any, forced: bool = True) -> float:
        """Append ``entry`` to the list stored under ``key`` (creating it)."""
        self._data.setdefault(key, []).append(entry)
        return self.write(forced)

    def delete(self, key: str) -> float:
        """Remove ``key`` if present (a lazy write) and return the I/O cost."""
        self._data.pop(key, None)
        return self.write(forced=False)

    def table(self, key: str, factory: Callable[[], Any] = dict) -> Any:
        """The table stored under ``key`` (created empty: no write).  Its owner
        reads it in place and follows each change to it with one :meth:`write`."""
        table = self._data.get(key)
        if table is None:
            table = self._data[key] = factory()
        return table

    def write(self, forced: bool = True) -> float:
        """Count one durable write and return its I/O cost: forced (the
        caller waits for the platter) or lazy."""
        if forced:
            self.stats.forced_writes += 1
            return self.forced_write_latency
        self.stats.lazy_writes += 1
        return 0.0

    # ------------------------------------------------------------------- read

    def get(self, key: str, default: Any = None) -> Any:
        """Read the value stored under ``key`` (no cost model for reads)."""
        return self._data.get(key, default)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<StableStorage {self.name} entries={len(self._data)}>"

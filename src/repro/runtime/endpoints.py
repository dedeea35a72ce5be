"""Name -> TCP endpoint resolution for the asyncio backend.

Every OS process participating in a deployment derives the *same* endpoint
map from the scenario DSN alone -- no discovery service, no config file: the
process list is ordered (application servers, then databases, then clients)
and process *i* listens on ``base_port + i`` of the shared host.  A base
port of 0 means "bind ephemeral ports", which only works when all processes
live in one OS process (the map learns each actual port at bind time).
"""

from __future__ import annotations

from repro.runtime.base import MAX_PORT


class EndpointMap:
    """Deterministic mapping from process names to ``(host, port)`` pairs."""

    def __init__(self, assignments: dict[str, tuple[str, int]]):
        self._assignments = dict(assignments)

    @classmethod
    def for_names(cls, names: list[str], host: str, base_port: int) -> "EndpointMap":
        """Endpoint per name: ``base_port + index``, or all-ephemeral when 0."""
        if base_port:
            highest = base_port + len(names) - 1
            if highest > MAX_PORT:
                raise ValueError(
                    f"port range {base_port}..{highest} for {len(names)} processes "
                    f"exceeds {MAX_PORT}; pick a lower base port"
                )
        return cls({name: (host, base_port + i if base_port else 0)
                    for i, name in enumerate(names)})

    def get(self, name: str) -> tuple[str, int]:
        """The endpoint of ``name`` (port 0 until an ephemeral bind happened)."""
        try:
            return self._assignments[name]
        except KeyError:
            raise KeyError(f"no endpoint for unknown process {name!r}") from None

    def assign(self, name: str, host: str, port: int) -> None:
        """Record the actual endpoint once an ephemeral listener is bound."""
        self._assignments[name] = (host, port)

    def table(self) -> list[tuple[str, str, int]]:
        """``(name, host, port)`` rows for operator-facing output."""
        return [(name, host, port) for name, (host, port) in self._assignments.items()]

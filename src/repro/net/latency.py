"""Link-latency models.

The paper's testbed is a lightly-loaded 10 Mbit/s Ethernet where an Orbix RPC
round trip takes 3-5 ms.  We model one-way link latency with pluggable
distributions so experiments can use either the deterministic calibrated value
(for exact reproduction of the latency table) or a randomised one (for fault
and timing sweeps).
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

Sampler = Callable[[], float]
"""A zero-argument latency sampler bound to one directed link (see
:meth:`LatencyModel.sampler`)."""


class LatencyModel:
    """Base class: draws a one-way latency per message."""

    def sampler(self, rng: random.Random, source: str, destination: str) -> "Sampler":
        """A zero-argument sampler bound to one directed link and one RNG.

        The network resolves this once per link instead of re-resolving the
        model and re-binding the RNG on every message; each call is the
        latency (virtual-time units, milliseconds by convention) of one
        message.  Implementations pre-bind their RNG primitive so the
        per-message call does no attribute lookups at all, and draw from
        ``rng`` in message order only (load-bearing for byte-identical
        traces).
        """
        raise NotImplementedError


class FixedLatency(LatencyModel):
    """Every message takes exactly ``value`` time units."""

    def __init__(self, value: float):
        if value < 0:
            raise ValueError("latency must be non-negative")
        self.value = value

    def sampler(self, rng: random.Random, source: str, destination: str) -> "Sampler":
        value = self.value  # no RNG draw, no lookup: the link is constant
        return lambda: value

    def __repr__(self) -> str:
        return f"FixedLatency({self.value})"


class UniformLatency(LatencyModel):
    """Latency drawn uniformly from ``[low, high]``."""

    def __init__(self, low: float, high: float):
        if low < 0 or high < low:
            raise ValueError(f"invalid latency range [{low}, {high}]")
        self.low = low
        self.high = high

    def sampler(self, rng: random.Random, source: str, destination: str) -> "Sampler":
        # Identical arithmetic to random.Random.uniform (a + (b-a)*random()),
        # with the method resolution hoisted out of the per-message path.
        low, span, draw = self.low, self.high - self.low, rng.random
        return lambda: low + span * draw()

    def __repr__(self) -> str:
        return f"UniformLatency({self.low}, {self.high})"


CLIENT_APP_LATENCY = 2.5
"""One-way client <-> application-server latency, virtual ms (the Internet hop)."""
APP_APP_LATENCY = 2.25
"""One-way application-server <-> application-server latency, virtual ms."""
APP_DB_LATENCY = 0.5
"""One-way application-server <-> database latency, virtual ms (in the cluster)."""


def three_tier_latency(client_names: Sequence[str], app_server_names: Sequence[str],
                       db_server_names: Sequence[str]) -> "PerLinkLatency":
    """The paper's client <-> app <-> db latency topology.

    Client/app links cross the Internet, app/app and app/db links stay inside
    the cluster; app-to-app traffic uses the default.  Shared by every
    deployment builder so all protocol stacks run on an identical network.
    """
    latency = PerLinkLatency(FixedLatency(APP_APP_LATENCY))
    for client in client_names:
        for app in app_server_names:
            latency.set_link(client, app, FixedLatency(CLIENT_APP_LATENCY))
            latency.set_link(app, client, FixedLatency(CLIENT_APP_LATENCY))
    for app in app_server_names:
        for db in db_server_names:
            latency.set_link(app, db, FixedLatency(APP_DB_LATENCY))
            latency.set_link(db, app, FixedLatency(APP_DB_LATENCY))
    return latency


class PerLinkLatency(LatencyModel):
    """Different latency models per (source, destination) pair with a default.

    Used to model the three-tier topology where the client-to-server hop
    crosses the Internet while server-to-server and server-to-database hops
    stay inside the cluster.
    """

    def __init__(self, default: LatencyModel):
        self.default = default
        self.overrides: dict[tuple[str, str], LatencyModel] = {}

    def set_link(self, source: str, destination: str, model: LatencyModel) -> None:
        """Override the latency model for one directed link."""
        self.overrides[(source, destination)] = model

    def _resolve(self, source: str, destination: str) -> LatencyModel:
        return self.overrides.get((source, destination), self.default)

    def sampler(self, rng: random.Random, source: str, destination: str) -> "Sampler":
        # Resolving the per-link override happens once here, not per message.
        return self._resolve(source, destination).sampler(rng, source, destination)

    def __repr__(self) -> str:
        return f"PerLinkLatency(default={self.default!r}, overrides={len(self.overrides)})"

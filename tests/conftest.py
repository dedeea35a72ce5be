"""Shared pytest fixtures and helpers for the reproduction test suite."""

from __future__ import annotations

import pytest

from repro.net.latency import LatencyModel, PerLinkLatency
from repro.net.message import INT, STR, declare_message
from repro.net.network import Network
from repro.sim.scheduler import Simulator

# The ad-hoc traffic of the runtime tests crosses real sockets, so it declares
# its wire rows like any protocol message (once: a type has one schema).
declare_message("Ping", n=INT)
declare_message("Pong", n=INT)
declare_message("Gossip", n=INT)
declare_message("Blob", blob=STR)


@pytest.fixture
def sim() -> Simulator:
    """A fresh deterministic simulator."""
    return Simulator(seed=42)


@pytest.fixture
def network(sim: Simulator) -> Network:
    """A lossless network bound to the ``sim`` fixture."""
    return Network(sim)


def idle(kernel: Simulator) -> bool:
    """Whether nothing is scheduled on ``kernel``: running it fires no event.

    An idle kernel is left exactly as it was; a busy one fires one event.
    """
    fired = kernel.events_processed
    return not kernel.run_until(lambda: kernel.events_processed > fired)


def per_link(default: LatencyModel,
             links: dict[tuple[str, str], LatencyModel]) -> PerLinkLatency:
    """A :class:`PerLinkLatency` over ``default`` with ``links`` set."""
    model = PerLinkLatency(default)
    for (source, destination), link in links.items():
        model.set_link(source, destination, link)
    return model

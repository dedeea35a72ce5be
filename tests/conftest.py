"""Shared pytest fixtures and helpers for the reproduction test suite."""

from __future__ import annotations

import pytest

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

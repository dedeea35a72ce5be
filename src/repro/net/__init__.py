"""Message-passing network: latency models, loss, partitions."""

from repro.net.latency import (
    FixedLatency,
    LatencyModel,
    PerLinkLatency,
    UniformLatency,
)
from repro.net.message import Message
from repro.net.network import Network, NetworkStats

__all__ = [
    "Message",
    "Network",
    "NetworkStats",
    "LatencyModel",
    "FixedLatency",
    "UniformLatency",
    "PerLinkLatency",
]

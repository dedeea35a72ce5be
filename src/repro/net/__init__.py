"""Message-passing network: latency models, loss, partitions."""

from repro.net.latency import (
    FixedLatency,
    LatencyModel,
    PerLinkLatency,
    UniformLatency,
)
from repro.net.message import Message, any_of, from_senders, is_type, is_type_with
from repro.net.network import Network, NetworkStats

__all__ = [
    "Message",
    "is_type",
    "is_type_with",
    "any_of",
    "from_senders",
    "Network",
    "NetworkStats",
    "LatencyModel",
    "FixedLatency",
    "UniformLatency",
    "PerLinkLatency",
]

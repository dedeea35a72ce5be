"""TcpTransport: the real-socket implementation of the message fabric.

Subclasses :class:`repro.net.network.Network` and replaces only the
``_transmit`` seam: everything above it (destination validation, id stamping,
traffic counters, partition/loss drops, ``msg_send`` tracing) is shared with
the simulated fabric, so the trace bus and :class:`NetworkStats` mean the
same thing in both backends.

Topology: every *local* process gets its own ``asyncio`` TCP server (bound
from the deterministic :class:`~repro.runtime.endpoints.EndpointMap`), and
each destination gets one pooled outbound connection.  Frames are 4-byte
big-endian length prefixes followed by :meth:`Message.to_wire` JSON bodies.
All traffic -- including between processes in the same OS process -- goes
through real sockets; that is the point of this backend.

A message costs the loop exactly the work it is.  ``_transmit`` writes the
frame straight to the destination's connected transport (``transport.write``
never blocks), and the receiving :class:`_Receiver` cuts complete frames out
of what ``data_received`` hands it and delivers them synchronously: no reader
task, no writer pump, no queue hop.  The only native task is the connect
attempt of a link that is down; frames sent meanwhile wait in ``link.pending``.

Failure semantics mirror the paper's fair-lossy channels: a frame that
cannot be written (peer never listening, connection reset, crashed
destination) is *dropped*, never buffered indefinitely -- recovering the
message is the job of the protocol's retransmission logic, exactly as under
simulated loss.  For the same reason a link is bounded: a frame that would
take the bytes waiting for one peer past ``_LINK_LIMIT`` is shed with a
traced ``overload`` event.  A process crash closes its live
connections (the TCP analogue of losing volatile state); reconnection is
lazy on the next send.
"""

from __future__ import annotations

import asyncio
import struct
from typing import Optional

from repro.net.message import Message, WireFormatError
from repro.net.network import Network
from repro.runtime.endpoints import EndpointMap
from repro.runtime.loop import AsyncioKernel

_FRAME_HEADER = struct.Struct(">I")
_MAX_FRAME = 16 * 1024 * 1024

#: Wall-clock seconds between connection attempts to a not-yet-listening peer.
_RECONNECT_INTERVAL = 0.05
#: Wall-clock seconds to keep retrying a connection before dropping frames.
_CONNECT_TIMEOUT = 10.0
#: Bytes that may wait for one peer (while connecting, or in the write buffer
#: of a connection whose peer does not read) before further frames are shed.
_LINK_LIMIT = 4 * 1024 * 1024


class _Link:
    """One pooled outbound connection, or the frames waiting for it to open."""

    __slots__ = ("transport", "pending", "waiting", "task")

    def __init__(self) -> None:
        self.transport: Optional[asyncio.Transport] = None
        self.pending = bytearray()      # frames sent while ``task`` connects
        self.waiting = 0                # how many frames ``pending`` holds
        self.task: Optional[asyncio.Task] = None


class _Receiver(asyncio.Protocol):
    """One accepted connection: cuts frames out of the byte stream, delivers them."""

    def __init__(self, net: "TcpTransport", name: str):
        self._net = net
        self._name = name
        self._peers = net._inbound.setdefault(name, set())
        self._buffer = bytearray()
        self._transport: Optional[asyncio.Transport] = None

    def connection_made(self, transport) -> None:
        self._transport = transport
        self._peers.add(transport)

    def connection_lost(self, exc) -> None:
        self._peers.discard(self._transport)

    def data_received(self, data: bytes) -> None:
        transport = self._transport
        if transport.is_closing():
            return
        net = self._net
        buffer = self._buffer
        buffer += data
        start, size = 0, len(buffer)
        try:
            while size - start >= _FRAME_HEADER.size:
                (length,) = _FRAME_HEADER.unpack_from(buffer, start)
                if length > _MAX_FRAME:     # refused before any body is buffered
                    raise WireFormatError(f"frame of {length} bytes exceeds the limit")
                body = start + _FRAME_HEADER.size
                if body + length > size:
                    break
                message = Message.from_wire(bytes(buffer[body:body + length]))
                start = body + length
                # A frame for a process another host runs is misrouted; drop.
                if net.hosts(message.destination):
                    net._deliver(message)
        except WireFormatError as refusal:
            transport.close()
            start = size
            trace = net.sim.trace
            if trace.wants("wire_reject"):
                trace.record("wire_reject", self._name, reason=str(refusal))
        del buffer[:start]
        net.kernel.notify()


class TcpTransport(Network):
    """Message fabric carrying every send over a localhost/LAN TCP socket."""

    def __init__(self, kernel: AsyncioKernel, endpoints: EndpointMap, *,
                 latency=None, loss_probability: float = 0.0,
                 local_names: Optional[set[str]] = None):
        super().__init__(kernel, latency=latency, loss_probability=loss_probability)
        self.kernel = kernel
        self.endpoints = endpoints
        self._local_names = local_names
        self._servers: dict[str, asyncio.base_events.Server] = {}
        self._links: dict[str, _Link] = {}
        self._inbound: dict[str, set[asyncio.Transport]] = {}
        self._closed = False
        kernel.add_bootstrap(self._start_serving)
        kernel.add_closer(self.close)

    def hosts(self, name: str) -> bool:
        """Whether ``name`` executes in this OS process."""
        return self._local_names is None or name in self._local_names

    # ---------------------------------------------------------------- serving

    async def _start_serving(self) -> None:
        """Bind one TCP server per local process (kernel bootstrap hook)."""
        for name in self.processes:
            if not self.hosts(name) or name in self._servers:
                continue
            host, port = self.endpoints.get(name)
            server = await self.kernel._loop.create_server(
                lambda name=name: _Receiver(self, name), host, port)
            # An ephemeral bind (port 0) fixes the real port only now; record
            # it so local links can connect.
            actual_port = server.sockets[0].getsockname()[1]
            self.endpoints.assign(name, host, actual_port)
            self._servers[name] = server

    # --------------------------------------------------------------- sending

    def _transmit(self, message: Message, destination: str) -> None:
        """Frame the message and write it to the destination's connection.

        The latency model is unused here: the real network provides the
        latency.  Loss and partitions were already applied by ``send``.
        """
        if self._closed:    # a timer that fires during teardown: nowhere to send, nothing to spawn
            return
        body = message.to_wire()
        frame = _FRAME_HEADER.pack(len(body)) + body
        link = self._links.get(destination)
        if link is None:
            link = self._links[destination] = _Link()
        transport = link.transport
        if transport is not None and transport.is_closing():
            # Closed by a crash hook, the peer or an error: reconnect lazily.
            transport = link.transport = None
        backlog = (len(link.pending) if transport is None
                   else transport.get_write_buffer_size())
        if backlog + len(frame) > _LINK_LIMIT:
            self.stats.dropped_overload += 1
            trace = self.sim.trace
            if trace.wants("overload"):
                trace.record("overload", message.sender, msg_type=message.msg_type,
                             destination=destination, backlog=backlog)
        elif transport is not None:
            transport.write(frame)
        else:
            link.pending += frame
            link.waiting += 1
            if link.task is None:
                link.task = self.kernel.spawn_task(self._connect(destination, link))

    async def _connect(self, destination: str, link: _Link) -> None:
        """Open ``link`` and flush what waited for it, or give up and drop that."""
        loop = self.kernel._loop
        deadline = loop.time() + _CONNECT_TIMEOUT
        try:
            while True:
                host, port = self.endpoints.get(destination)
                if port:
                    try:
                        transport, _ = await loop.create_connection(
                            asyncio.Protocol, host, port)
                    except OSError:
                        pass
                    else:
                        transport.write(bytes(link.pending))
                        link.transport = transport
                        return
                # Peer not bound yet (startup race, recovery, port still
                # ephemeral-unknown): retry until the timeout, then give up.
                if loop.time() >= deadline:
                    self.stats.dropped_dest_down += link.waiting
                    return
                await asyncio.sleep(_RECONNECT_INTERVAL)
        finally:
            link.pending = bytearray()
            link.waiting = 0
            link.task = None

    # ------------------------------------------------------------ crash hooks

    def on_process_crash(self, name: str) -> None:
        """Drop the crashed process's live connections (volatile-state loss)."""
        for transport in list(self._inbound.get(name, ())):
            transport.close()
        link = self._links.get(name)
        if link is not None and link.transport is not None:
            link.transport.abort()      # unsent frames are volatile state too

    # ---------------------------------------------------------------- closing

    def close(self) -> None:
        """Close servers and connections; a connect task dies with the kernel."""
        if self._closed:
            return
        self._closed = True
        for server in self._servers.values():
            server.close()
        for link in self._links.values():
            if link.transport is not None:
                link.transport.abort()
        for transports in self._inbound.values():
            for transport in list(transports):
                transport.close()

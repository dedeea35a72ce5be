"""Reliable channels built over a lossy network.

The paper assumes *reliable channels*: if ``pi`` sends ``m`` to ``pj`` then,
unless one of them crashes, ``pj`` eventually delivers ``m``, and every message
is delivered at most once (Section 4, and Section 5: "the abstraction of
reliable channels is implemented by retransmitting messages and tracking
duplicates").

:class:`ReliableChannelLayer` is exactly that implementation: it interposes on
every registered process, numbers outgoing messages per (source, destination)
pair, retransmits unacknowledged messages on a timer while the sender is up,
acknowledges every received data message, and suppresses duplicates at the
receiver.  Protocol code above it is unchanged -- it still calls
``process.send`` and receives the original :class:`~repro.net.message.Message`.
"""

from __future__ import annotations

from typing import Optional

from repro.net.message import INT, MESSAGE, STR, Message, declare_message
from repro.net.network import Network
from repro.sim.process import Process
from repro.sim.scheduler import ScheduledEvent

DATA_TYPE = "_rc_data"
ACK_TYPE = "_rc_ack"
declare_message(DATA_TYPE, seq=INT, inner=MESSAGE, origin=STR)
declare_message(ACK_TYPE, seq=INT, acker=STR)


class _PendingTransmission:
    """Book-keeping for one unacknowledged message at the sender."""

    __slots__ = ("message", "sequence", "timer", "attempts")

    def __init__(self, message: Message, sequence: int):
        self.message = message
        self.sequence = sequence
        self.timer: Optional[ScheduledEvent] = None
        self.attempts = 0


class ReliableChannelLayer:
    """Retransmission + duplicate-suppression layer over a :class:`Network`.

    Parameters
    ----------
    network:
        The (possibly lossy) underlying network.  All processes registered on
        it at wrap time are interposed; processes registered later can be added
        with :meth:`wrap_process`.
    retransmit_interval:
        Virtual-time delay between retransmissions of an unacknowledged
        message.
    max_attempts:
        Optional bound on retransmissions (``None`` retries forever, which is
        what the reliable-channel abstraction requires; a bound is useful in
        tests).
    """

    def __init__(self, network: Network, retransmit_interval: float = 10.0,
                 max_attempts: Optional[int] = None):
        if retransmit_interval <= 0:
            raise ValueError("retransmit_interval must be positive")
        self.network = network
        self.sim = network.sim
        self.retransmit_interval = retransmit_interval
        self.max_attempts = max_attempts
        # sender name -> destination name -> next sequence number
        self._next_seq: dict[str, dict[str, int]] = {}
        # sender name -> (destination, seq) -> pending transmission
        self._pending: dict[str, dict[tuple[str, int], _PendingTransmission]] = {}
        # receiver name -> set of (sender, seq) already delivered
        self._seen: dict[str, set[tuple[str, int]]] = {}
        self._wrapped: set[str] = set()
        for process in list(network.processes.values()):
            self.wrap_process(process)

    # ------------------------------------------------------------------ setup

    def wrap_process(self, process: Process) -> None:
        """Interpose this layer between ``process`` and the raw network."""
        if process.name in self._wrapped:
            return
        self._wrapped.add(process.name)
        self._next_seq[process.name] = {}
        self._pending[process.name] = {}
        self._seen[process.name] = set()
        process.attach_transport(_ReliableTransport(self, process.name))
        original_deliver = process.deliver

        def filtered_deliver(message: Message, _original=original_deliver,
                             _name=process.name) -> None:
            self._on_deliver(_name, message, _original)

        process.deliver = filtered_deliver  # type: ignore[method-assign]

    # ---------------------------------------------------------------- sending

    def send(self, source: str, destination: str, message: Message) -> None:
        """Send ``message`` reliably from ``source`` to ``destination``."""
        seqs = self._next_seq[source]
        sequence = seqs.get(destination, 0) + 1
        seqs[destination] = sequence
        pending = _PendingTransmission(message, sequence)
        self._pending[source][(destination, sequence)] = pending
        self._transmit(source, destination, pending)

    def _transmit(self, source: str, destination: str, pending: _PendingTransmission) -> None:
        key = (destination, pending.sequence)
        if key not in self._pending[source]:
            return  # already acknowledged
        sender = self.network.processes.get(source)
        if sender is None or not sender.up:
            # A crashed sender performs no actions; the reliable-channel
            # obligation is void once the sender has crashed.
            return
        if self.max_attempts is not None and pending.attempts >= self.max_attempts:
            self._pending[source].pop(key, None)
            return
        pending.attempts += 1
        envelope = Message(
            DATA_TYPE,
            payload={"seq": pending.sequence, "inner": pending.message, "origin": source},
        )
        self.network.send(source, destination, envelope)
        pending.timer = self.sim.schedule(
            self.retransmit_interval,
            lambda: self._transmit(source, destination, pending),
            name=f"rc-retransmit:{source}->{destination}#{pending.sequence}",
        )

    # --------------------------------------------------------------- receiving

    def _on_deliver(self, receiver: str, message: Message, original_deliver) -> None:
        if not isinstance(message, Message):
            original_deliver(message)
            return
        if message.msg_type == ACK_TYPE:
            self._handle_ack(receiver, message)
            return
        if message.msg_type != DATA_TYPE:
            # Raw traffic (e.g. from components bypassing the layer).
            original_deliver(message)
            return
        origin = message["origin"]
        sequence = message["seq"]
        ack = Message(ACK_TYPE, payload={"seq": sequence, "acker": receiver})
        self.network.send(receiver, origin, ack)
        seen = self._seen[receiver]
        if (origin, sequence) in seen:
            self.sim.trace.record("rc_duplicate_suppressed", receiver,
                                  origin=origin, seq=sequence)
            return
        seen.add((origin, sequence))
        inner: Message = message["inner"]
        inner.sender = origin
        inner.destination = receiver
        original_deliver(inner)

    def _handle_ack(self, receiver: str, message: Message) -> None:
        sequence = message["seq"]
        acker = message["acker"]
        pending = self._pending.get(receiver, {}).pop((acker, sequence), None)
        if pending is not None and pending.timer is not None:
            pending.timer.cancel()

    # ------------------------------------------------------------------ stats

    def unacknowledged(self, source: str) -> int:
        """Number of messages ``source`` is still retransmitting."""
        return len(self._pending.get(source, {}))


class _ReliableTransport:
    """Per-process transport facade installed by :class:`ReliableChannelLayer`."""

    __slots__ = ("_layer", "_name")

    def __init__(self, layer: ReliableChannelLayer, name: str):
        self._layer = layer
        self._name = name

    def send(self, source: str, destination: str, message: Message) -> None:
        self._layer.send(source, destination, message)

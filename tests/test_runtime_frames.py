"""Hostile input for the TCP transport's frame cutter.

:class:`repro.runtime.tcp._Receiver` turns whatever bytes a peer sends into
delivered messages.  These tests drive it directly -- a fake transport, no
sockets -- with byte streams a well-behaved sender would never produce: valid
frames re-split at arbitrary boundaries (one byte at a time, inside the 4-byte
header), oversized length prefixes, truncated tails, bodies that are not
UTF-8, not JSON, not a frame array, of another version, of an unknown type, or
with a routing or payload field of the wrong shape.  The contract: every frame
before a bad one is delivered, in order; the bad one closes the connection and
leaves a ``wire_reject`` event saying why; nothing after it is delivered; no
exception reaches the event loop; and the buffer never holds more than one
frame of at most ``_MAX_FRAME`` bytes.

What ``Message.from_wire`` itself makes of hostile documents is fuzzed in
``test_message_wire.py``; here the same escapes arrive over a connection.
"""

import asyncio
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import api  # noqa: F401  (importing the protocols declares their wire rows)
from repro.net.message import Message
from repro.sim.tracing import TraceRecorder
from repro.runtime import tcp
from repro.runtime.tcp import _FRAME_HEADER, _Receiver

LOCAL = ("a1", "a2", "d1")


class FakeTransport:
    def __init__(self):
        self.closed = False

    def is_closing(self) -> bool:
        return self.closed

    def close(self) -> None:
        self.closed = True


class FakeNet:
    """What a :class:`_Receiver` uses of its transport and kernel."""

    def __init__(self):
        self._inbound: dict[str, set] = {}
        self.kernel = self.sim = self
        self.trace = TraceRecorder()
        self.delivered: list[Message] = []
        self.notified = 0

    def hosts(self, name: str) -> bool:
        return name in LOCAL

    def _deliver(self, message: Message) -> None:
        self.delivered.append(message)

    def notify(self) -> None:
        self.notified += 1


def connect() -> tuple[FakeNet, _Receiver, FakeTransport]:
    net, transport = FakeNet(), FakeTransport()
    receiver = _Receiver(net, "a1")
    receiver.connection_made(transport)
    assert net._inbound == {"a1": {transport}}
    return net, receiver, transport


def drive(receiver: _Receiver, chunks: list[bytes], limit: int = tcp._MAX_FRAME) -> None:
    """Feed ``chunks`` from a real loop whose exception handler must stay silent."""
    loop = asyncio.new_event_loop()
    seen: list[dict] = []
    loop.set_exception_handler(lambda _loop, context: seen.append(context))

    def feed(chunk: bytes) -> None:
        receiver.data_received(chunk)
        # Less than one whole frame ever waits: a complete one is cut at once.
        assert len(receiver._buffer) < _FRAME_HEADER.size + limit

    try:
        for chunk in chunks:
            loop.call_soon(feed, chunk)
        loop.run_until_complete(asyncio.sleep(0))
    finally:
        loop.close()
    assert seen == []


def frame(body: bytes) -> bytes:
    return _FRAME_HEADER.pack(len(body)) + body


def split(stream: bytes, sizes: list[int]) -> list[bytes]:
    """Cut ``stream`` into chunks whose lengths cycle through ``sizes``."""
    chunks, position, index = [], 0, 0
    while position < len(stream):
        size = sizes[index % len(sizes)]
        chunks.append(stream[position:position + size])
        position, index = position + size, index + 1
    return chunks


# The cutter does not care what a frame says: conftest.py's one-integer test
# vocabulary and two protocol messages are payload enough.
messages = st.one_of(
    st.builds(
        Message,
        msg_type=st.sampled_from(["Ping", "Pong", "Gossip"]),
        sender=st.sampled_from(["c1", "a2", "d1"]),
        destination=st.sampled_from(LOCAL),
        payload=st.fixed_dictionaries({"n": st.integers(-2**40, 2**40)}),
        msg_id=st.integers(0, 2**40)),
    st.builds(
        Message, msg_type=st.just("Vote"), sender=st.just("d1"),
        destination=st.sampled_from(LOCAL),
        payload=st.fixed_dictionaries({"j": st.tuples(st.text(max_size=12), st.integers(0, 99)),
                                       "vote": st.sampled_from(["yes", "no"])})),
)

chunk_sizes = st.lists(st.integers(1, 48), min_size=1, max_size=8)


# ------------------------------------------------------------ well-formed input


@settings(max_examples=150, deadline=None)
@given(st.lists(messages, max_size=6), chunk_sizes)
@example([Message("Ping", "c1", "a1", {"n": 1}), Message("Ready", "d1", "a2")], [1])
@example([Message("Ping", "c1", "a1", {"n": 1}), Message("Ready", "d1", "a2")], [3])
def test_any_split_delivers_exactly_the_messages_in_order(sent, sizes):
    net, receiver, transport = connect()
    bodies = [message.to_wire() for message in sent]
    chunks = split(b"".join(map(frame, bodies)), sizes)
    drive(receiver, chunks, limit=max(map(len, bodies), default=0))
    assert net.delivered == sent
    assert not transport.closed
    assert len(receiver._buffer) == 0
    assert net.notified == len(chunks)   # one predicate check per batch, not per frame
    assert not net.trace.select("wire_reject")


def test_misrouted_frames_are_dropped_and_the_connection_lives():
    net, receiver, transport = connect()
    elsewhere = Message("Ping", "c1", "a9", {"n": 1})
    here = Message("Ping", "c1", "a2", {"n": 2})
    drive(receiver, [frame(elsewhere.to_wire()) + frame(here.to_wire())])
    assert net.delivered == [here]
    assert not transport.closed


# ----------------------------------------------------------------- hostile input


def body(*fields, version=2, tag="Ping", sender="c1", destination="a1", msg_id=7, ts=1.5) -> bytes:
    return json.dumps([version, tag, sender, destination, msg_id, ts, *fields]).encode("utf-8")


DEEP = 5_000
BAD_BODIES = {
    "zero-length body": b"",
    "not UTF-8": b"\xff\xfe\x00[",
    "not JSON": b"Ping c1 a1",
    "not a frame array": b'{"t": "Ping"}',
    "a bare string": b'"just a string"',
    "too short to route": b'[2,"Ping","c1"]',
    "bytes after the frame": body(1) + b" []",
    "version 1": b'{"v":1,"t":"Request","s":"c1","d":"a1","id":7,"ts":1.5,"p":{}}',
    "version 3": body(1, version=3),
    "unknown type": body(1, tag="Teapot"),
    "unknown consensus kind": body(1, tag="Consensus:gossip"),
    "list for a type": body(1, tag=["Ping"]),
    "null sender": body(1, sender=None),
    "list destination": body(1, destination=["a1"]),
    "a string for the id": body(1, msg_id="seven"),
    "NaN for the send time": body(1, ts=float("nan")),
    "an overflowing send time": b'[2,"Ping","c1","a1",7,1e999,1]',
    "a field missing": body(),
    "a field too many": body(1, 2),
    "a string for an int": body("1"),
    "a bool for an int": body(True),
    "an object for an identifier": body({"k": "imap", "v": [[1]]}, "yes", tag="Vote"),
    "a float hidden in an identifier": b'[2,"Vote","d1","a1",7,1.5,["c1",Infinity],"yes"]',
    "an outcome that is none": body(1, [None, "maybe"], tag="Result"),
    "a record of the wrong arity": body(1, [None], tag="Result"),
    "an identifier 5 000 deep":
        b'[2,"AckDecide","d1","a1",7,1.5,' + b"[" * DEEP + b"]" * DEEP + b"]",
    "a value 40 deep": body(("c1", 1), json.loads("[" * 40 + "]" * 40), True,
                            tag="ExecuteResult"),
    "an envelope in an envelope": body(
        1, [2, "_rc_data", "a2", "a1", 1, 0.0, 1, [2, "Ready", "d1", "a1", 1, 0.0], "a2"], "a2",
        tag="_rc_data"),
}


@pytest.mark.parametrize("bad", BAD_BODIES.values(), ids=BAD_BODIES.keys())
@settings(max_examples=25, deadline=None)
@given(before=st.lists(messages, max_size=3),
       after=st.lists(messages, min_size=1, max_size=3), sizes=chunk_sizes)
def test_a_bad_frame_closes_the_connection_and_ends_delivery(bad, before, after, sizes):
    net, receiver, transport = connect()
    stream = b"".join([*(frame(message.to_wire()) for message in before), frame(bad),
                       *(frame(message.to_wire()) for message in after)])
    drive(receiver, split(stream, sizes))
    assert net.delivered == before
    assert transport.closed
    assert len(receiver._buffer) == 0
    # The refusal is on the trace bus, once, at the process that refused.
    (rejected,) = net.trace.select("wire_reject")
    assert rejected.process == "a1" and rejected.data["reason"]
    # A peer that keeps talking after the close is not listened to.
    drive(receiver, [frame(message.to_wire()) for message in after])
    assert net.delivered == before
    assert len(net.trace.select("wire_reject")) == 1


@given(st.integers(tcp._MAX_FRAME + 1, 2**32 - 1), st.integers(1, 4))
def test_an_oversized_length_is_refused_on_the_header_alone(length, first):
    net, receiver, transport = connect()
    header = _FRAME_HEADER.pack(length)
    # The header arrives split; the body that follows is never buffered.
    drive(receiver, [header[:first], header[first:] + b"x" * 4096, b"y" * 4096])
    assert transport.closed
    assert net.delivered == []
    assert len(receiver._buffer) == 0


def test_the_frame_limit_is_inclusive(monkeypatch):
    message = Message("Ping", "c1", "a1", {"n": 1})
    wire = message.to_wire()
    monkeypatch.setattr(tcp, "_MAX_FRAME", len(wire))
    net, receiver, transport = connect()
    drive(receiver, [frame(wire)], limit=len(wire))
    assert net.delivered == [message] and not transport.closed
    monkeypatch.setattr(tcp, "_MAX_FRAME", len(wire) - 1)
    drive(receiver, [frame(wire)], limit=len(wire))
    assert net.delivered == [message] and transport.closed


@settings(max_examples=50, deadline=None)
@given(messages, messages, st.integers(1, 200))
def test_a_truncated_tail_at_close_delivers_nothing_more(whole, cut, keep):
    net, receiver, transport = connect()
    tail = frame(cut.to_wire())
    drive(receiver, [frame(whole.to_wire()) + tail[:min(keep, len(tail) - 1)]])
    assert net.delivered == [whole]
    # The peer hangs up mid-frame: asyncio reports EOF, then the loss.
    assert not receiver.eof_received()   # falsy: let the transport close itself
    receiver.connection_lost(None)
    assert net.delivered == [whole]
    assert net._inbound == {"a1": set()}

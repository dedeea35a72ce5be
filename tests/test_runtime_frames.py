"""Hostile input for the TCP transport's frame cutter.

:class:`repro.runtime.tcp._Receiver` turns whatever bytes a peer sends into
delivered messages.  These tests drive it directly -- a fake transport, no
sockets -- with byte streams a well-behaved sender would never produce: valid
frames re-split at arbitrary boundaries (one byte at a time, inside the 4-byte
header), oversized length prefixes, truncated tails, bodies that are not
UTF-8, not JSON, not an envelope, of the wrong version or with type-confused
envelope fields.  The contract: every frame before a bad one is delivered, in
order; the bad one closes the connection; nothing after it is delivered; no
exception reaches the event loop; and the buffer never holds more than one
frame of at most ``_MAX_FRAME`` bytes.

``Message.from_wire`` is exercised only as far as the envelope goes; fuzzing
the payload decoder itself is ROADMAP item 5(b)'s remaining half.
"""

import asyncio
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.net.message import Message
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
        self.kernel = self
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


values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2**40, 2**40), st.text(max_size=12)),
    lambda children: st.one_of(st.lists(children, max_size=3),
                               st.tuples(children, children),
                               st.dictionaries(st.text(max_size=5), children, max_size=3)),
    max_leaves=6)

messages = st.builds(
    Message,
    msg_type=st.sampled_from(["Request", "Consensus", "Decide", "Result"]),
    sender=st.sampled_from(["c1", "a2", "d1"]),
    destination=st.sampled_from(LOCAL),
    payload=st.dictionaries(st.text(min_size=1, max_size=6), values, max_size=3),
    msg_id=st.integers(0, 2**40),
)

chunk_sizes = st.lists(st.integers(1, 48), min_size=1, max_size=8)


# ------------------------------------------------------------ well-formed input


@settings(max_examples=150, deadline=None)
@given(st.lists(messages, max_size=6), chunk_sizes)
@example([Message("Request", "c1", "a1", {"n": 1}), Message("Decide", "a2", "d1")], [1])
@example([Message("Request", "c1", "a1", {"n": 1}), Message("Decide", "a2", "d1")], [3])
def test_any_split_delivers_exactly_the_messages_in_order(sent, sizes):
    net, receiver, transport = connect()
    bodies = [message.to_wire() for message in sent]
    chunks = split(b"".join(map(frame, bodies)), sizes)
    drive(receiver, chunks, limit=max(map(len, bodies), default=0))
    assert net.delivered == sent
    assert not transport.closed
    assert len(receiver._buffer) == 0
    assert net.notified == len(chunks)   # one predicate check per batch, not per frame


def test_misrouted_frames_are_dropped_and_the_connection_lives():
    net, receiver, transport = connect()
    elsewhere = Message("Request", "c1", "a9", {"n": 1})
    here = Message("Request", "c1", "a2", {"n": 2})
    drive(receiver, [frame(elsewhere.to_wire()) + frame(here.to_wire())])
    assert net.delivered == [here]
    assert not transport.closed


# ----------------------------------------------------------------- hostile input


def envelope(**overrides) -> bytes:
    fields = {"v": 1, "t": "Request", "s": "c1", "d": "a1", "id": 7, "ts": 1.5, "p": {}}
    fields.update(overrides)
    return json.dumps({key: value for key, value in fields.items()
                       if value is not ...}).encode("utf-8")


BAD_BODIES = {
    "zero-length body": b"",
    "not UTF-8": b"\xff\xfe\x00{",
    "not JSON": b"Request c1 a1",
    "not an envelope": b'["v", 1]',
    "a bare string": b'"just a string"',
    "wrong version": envelope(v=2),
    "no version": envelope(v=...),
    "missing field": envelope(p=...),
    "numeric type tag": envelope(t=5),
    "null sender": envelope(s=None),
    "list destination": envelope(d=["a1"]),
    "payload is a number": envelope(p=7),
    "payload is a list": envelope(p=[["n", 1]]),
    "payload is null": envelope(p=None),
    "payload key of unknown kind": envelope(p={"x": {"k": "closure"}}),
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
    # A peer that keeps talking after the close is not listened to.
    drive(receiver, [frame(message.to_wire()) for message in after])
    assert net.delivered == before


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
    message = Message("Request", "c1", "a1", {"n": 1})
    body = message.to_wire()
    monkeypatch.setattr(tcp, "_MAX_FRAME", len(body))
    net, receiver, transport = connect()
    drive(receiver, [frame(body)], limit=len(body))
    assert net.delivered == [message] and not transport.closed
    monkeypatch.setattr(tcp, "_MAX_FRAME", len(body) - 1)
    drive(receiver, [frame(body)], limit=len(body))
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

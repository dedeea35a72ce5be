"""Message representation and matching helpers.

All protocol traffic is carried by :class:`Message` objects.  A message has a
``msg_type`` (the tag in the paper's pseudo-code, e.g. ``"Request"``,
``"Prepare"``, ``"Vote"``, ``"Decide"``, ``"AckDecide"``, ``"Ready"``,
``"Result"``), a ``sender``/``destination`` pair and a free-form payload
dictionary.  Every message carries a globally unique ``msg_id`` so that
duplicate suppression (the paper's channel *integrity* property) is possible;
the network re-stamps it at send time from a per-source counter, so the id a
message ends up with depends only on its sender's own send history.
"""

from __future__ import annotations

import json
from sys import intern as _intern
from typing import Any, Callable, Iterable, Optional

WIRE_VERSION = 1
"""Current version of the :meth:`Message.to_wire` encoding."""


class WireFormatError(ValueError):
    """A value cannot be encoded for / decoded from the wire."""


# The wire encoding must restore payload values *exactly*: protocol code uses
# tuples from payloads as dict keys (consensus instance ids, result keys), so
# the JSON tuple->list collapse would break it.  Every container is therefore
# written as a tagged object ({"k": <kind>, ...}); plain JSON arrays carry
# lists and scalars travel as themselves, so there is nothing to escape.

def _encode_value(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise WireFormatError(f"non-finite float {value!r} is not wire-encodable")
        return value
    if isinstance(value, list):
        return [_encode_value(item) for item in value]
    if isinstance(value, tuple):
        return {"k": "tuple", "v": [_encode_value(item) for item in value]}
    if isinstance(value, dict):
        if all(isinstance(key, str) for key in value):
            return {"k": "map", "v": {key: _encode_value(item) for key, item in value.items()}}
        return {"k": "imap",
                "v": [[_encode_value(key), _encode_value(item)] for key, item in value.items()]}
    # Lazy imports: repro.core imports this module at package-init time.
    from repro.core.types import Decision, Request, Result

    if isinstance(value, Request):
        return {"k": "request", "op": value.operation, "params": _encode_value(value.params),
                "id": value.request_id, "parts": [_encode_value(p) for p in value.participants]}
    if isinstance(value, Decision):
        return {"k": "decision", "outcome": value.outcome,
                "result": _encode_value(value.result)}
    if isinstance(value, Result):
        return {"k": "result", "value": _encode_value(value.value),
                "request_id": value.request_id, "by": value.computed_by}
    raise WireFormatError(f"type {type(value).__name__!r} is not wire-encodable")


def _decode_value(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, list):
        return [_decode_value(item) for item in value]
    if isinstance(value, dict):
        kind = value.get("k")
        if kind == "tuple":
            return tuple(_decode_value(item) for item in value["v"])
        if kind == "map":
            return {key: _decode_value(item) for key, item in value["v"].items()}
        if kind == "imap":
            return {_decode_value(key): _decode_value(item) for key, item in value["v"]}
        from repro.core.types import Decision, Request, Result

        if kind == "request":
            return Request(operation=value["op"], params=_decode_value(value["params"]),
                           request_id=value["id"],
                           participants=tuple(_decode_value(p) for p in value["parts"]))
        if kind == "decision":
            return Decision(result=_decode_value(value["result"]), outcome=value["outcome"])
        if kind == "result":
            return Result(value=_decode_value(value["value"]),
                          request_id=value["request_id"], computed_by=value["by"])
        raise WireFormatError(f"unknown wire value kind {kind!r}")
    raise WireFormatError(f"cannot decode wire value {value!r}")


class Message:
    """A single protocol message.

    Attributes
    ----------
    msg_type:
        The message tag (``"Request"``, ``"Prepare"``, ...).
    sender / destination:
        Process names.
    payload:
        Message contents; keys are protocol specific (``request``, ``j``,
        ``vote``, ``outcome``, ``decision``...).
    msg_id:
        Unique identifier; ``0`` until the network stamps it at send time
        from the sender's per-source counter.
    send_time:
        Virtual time at which the network accepted the message (filled by the
        network).

    The payload dict is shared copy-on-write between a message and its
    :meth:`copy` siblings: reads go through ``get``/``__getitem__`` without
    copying, and the ``payload`` property materializes a private dict the
    first time a potentially shared one is exposed for mutation.
    """

    __slots__ = ("msg_type", "sender", "destination", "msg_id", "send_time",
                 "_payload", "_shared")

    def __init__(self, msg_type: str, sender: str = "", destination: str = "",
                 payload: Optional[dict[str, Any]] = None, msg_id: int = 0,
                 send_time: float = 0.0) -> None:
        self.msg_type = msg_type
        self.sender = sender
        self.destination = destination
        self._payload = {} if payload is None else payload
        self._shared = False
        self.msg_id = msg_id
        self.send_time = send_time

    @property
    def payload(self) -> dict[str, Any]:
        """The payload dict, private to this message.

        If the dict is currently shared with :meth:`copy` siblings it is
        duplicated first, so callers may mutate the result freely.
        """
        payload = self._payload
        if self._shared:
            payload = dict(payload)
            self._payload = payload
            self._shared = False
        return payload

    def get(self, key: str, default: Any = None) -> Any:
        """Shorthand for ``message.payload.get(key, default)`` (no copy)."""
        return self._payload.get(key, default)

    def copy(self) -> "Message":
        """A fresh, unstamped message with the same type and payload.

        Used by multicast so each recipient gets its own message instance, as
        the network mutates routing fields in place.  The payload dict is
        shared copy-on-write rather than eagerly duplicated; either side
        copies it lazily if its ``payload`` property is touched.
        """
        sibling = Message.__new__(Message)
        sibling.msg_type = self.msg_type
        sibling.sender = ""
        sibling.destination = ""
        payload = self._payload
        sibling._payload = payload
        if payload:
            sibling._shared = True
            self._shared = True
        else:
            sibling._shared = False
        sibling.msg_id = 0
        sibling.send_time = 0.0
        return sibling

    def __eq__(self, other: Any) -> Any:
        if not isinstance(other, Message):
            return NotImplemented
        return (self.msg_type == other.msg_type and self.sender == other.sender
                and self.destination == other.destination
                and self._payload == other._payload
                and self.msg_id == other.msg_id
                and self.send_time == other.send_time)

    __hash__ = None  # type: ignore[assignment]  # mutable, like the dataclass it replaced

    # ------------------------------------------------------------ wire codec

    def to_wire(self) -> bytes:
        """Stable, versioned serialization of this message (UTF-8 JSON).

        The encoding round-trips everything protocol payloads contain --
        tuples (restored as tuples, not lists), dicts with non-string keys,
        and the :mod:`repro.core.types` dataclasses.  Used by the TCP
        transport (inside length-prefixed frames) and usable for trace
        artifacts.  Raises :class:`WireFormatError` on unsupported values.
        """
        envelope = {
            "v": WIRE_VERSION,
            "t": self.msg_type,
            "s": self.sender,
            "d": self.destination,
            "id": self.msg_id,
            "ts": self.send_time,
            "p": {key: _encode_value(value) for key, value in self._payload.items()},
        }
        return json.dumps(envelope, separators=(",", ":"), allow_nan=False).encode("utf-8")

    @classmethod
    def from_wire(cls, data: bytes) -> "Message":
        """Decode a :meth:`to_wire` frame; rejects unknown wire versions."""
        try:
            envelope = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise WireFormatError(f"undecodable wire frame: {exc}") from None
        if not isinstance(envelope, dict):
            raise WireFormatError(f"wire frame is not an envelope: {envelope!r}")
        version = envelope.get("v")
        if version != WIRE_VERSION:
            raise WireFormatError(
                f"unsupported wire version {version!r} (this build speaks {WIRE_VERSION})"
            )
        try:
            # Interning collapses the handful of hot strings (message tags,
            # payload keys, process names) that every decoded frame repeats,
            # so long TCP runs do not accumulate duplicate immortal strings
            # and type/key comparisons hit the pointer fast path.
            return cls(
                msg_type=_intern(envelope["t"]),
                sender=_intern(envelope["s"]),
                destination=_intern(envelope["d"]),
                payload={_intern(key): _decode_value(value)
                         for key, value in envelope["p"].items()},
                msg_id=envelope["id"],
                send_time=envelope["ts"],
            )
        except KeyError as exc:
            raise WireFormatError(f"wire envelope missing field {exc}") from None
        except (TypeError, AttributeError) as exc:  # e.g. a payload that is no object
            raise WireFormatError(f"malformed wire envelope field: {exc}") from None

    def __getitem__(self, key: str) -> Any:
        return self._payload[key]

    def __repr__(self) -> str:
        return (
            f"Message({self.msg_type!r}, {self.sender!r}->{self.destination!r}, "
            f"{self._payload!r})"
        )


# Matchers built by the helpers below carry two *hint* attributes the process
# layer uses to index receive-blocked threads and the mailbox:
#
# * ``msg_types`` -- the frozenset of message types the matcher could accept;
# * ``msg_corr``  -- per accepted type, either :data:`ANY_CORRELATION` or the
#   frozenset of ``j`` payload values (the protocol's correlation id) the
#   matcher requires.  A thread waiting for ``Vote`` with ``j=key`` is indexed
#   under ``("Vote", key)``, so delivering a vote consults exactly the threads
#   of that transaction instead of every in-flight handler.
#
# Both hints must be *sound*: a matcher must reject every message outside
# them.  Hand-written matcher functions without the attributes are treated as
# wildcards (checked against everything).

ANY_CORRELATION = object()
"""Correlation hint meaning "any ``j`` value" for a message type."""


def matcher_types(matcher: Optional[Callable[[Any], bool]]) -> Optional[frozenset[str]]:
    """The message-type hint of ``matcher`` (``None`` = could match any type)."""
    if matcher is None:
        return None
    return getattr(matcher, "msg_types", None)


def matcher_correlation(matcher: Optional[Callable[[Any], bool]]) -> Optional[dict]:
    """The per-type correlation hint of ``matcher`` (``None`` = no hint)."""
    if matcher is None:
        return None
    return getattr(matcher, "msg_corr", None)


def is_type(*msg_types: str) -> Callable[[Any], bool]:
    """Matcher accepting any message whose ``msg_type`` is in ``msg_types``.

    Matchers are stateless, so calls with the same type tuple share one
    cached instance: receive loops build a matcher per iteration, and the
    closure allocation was measurable on the delivery hot path.
    """
    cached = _IS_TYPE_CACHE.get(msg_types)
    if cached is not None:
        return cached
    allowed = set(msg_types)

    def matcher(message: Any) -> bool:
        return isinstance(message, Message) and message.msg_type in allowed

    matcher.msg_types = frozenset(allowed)
    matcher.msg_corr = {t: ANY_CORRELATION for t in allowed}
    _IS_TYPE_CACHE[msg_types] = matcher
    return matcher


_IS_TYPE_CACHE: dict[tuple, Callable[[Any], bool]] = {}


def _hashable(value: Any) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


def is_type_with(msg_type: str, **expected: Any) -> Callable[[Any], bool]:
    """Matcher for a message type with specific payload values.

    Example: ``is_type_with("Vote", j=3)`` matches vote messages for result 3.

    Deliberately *not* cached by value: correlation ids are transaction
    scoped, so a value-keyed cache retains a closure (plus its hint sets)
    per transaction for the lifetime of the run -- measurably worse than the
    transient closure, which dies with the receive that used it.  Callers
    with retry loops should build the matcher once, before the loop.
    """
    if len(expected) == 1:
        # The overwhelmingly common shape (e.g. ``j=key``): avoid building a
        # generator per probe on the delivery hot path.
        (key, value), = expected.items()

        def matcher(message: Any) -> bool:
            return (isinstance(message, Message) and message.msg_type == msg_type
                    and message._payload.get(key) == value)
    else:
        def matcher(message: Any) -> bool:
            if not isinstance(message, Message) or message.msg_type != msg_type:
                return False
            return all(message._payload.get(k) == v for k, v in expected.items())

    matcher.msg_types = frozenset((msg_type,))
    correlation = expected.get("j", ANY_CORRELATION)
    matcher.msg_corr = {msg_type: frozenset((correlation,))
                        if correlation is not ANY_CORRELATION and _hashable(correlation)
                        else ANY_CORRELATION}
    return matcher


def any_of(*matchers: Callable[[Any], bool]) -> Callable[[Any], bool]:
    """Matcher accepting a message accepted by any of ``matchers``.

    Uncached for the same reason as :func:`is_type_with`: combinations
    usually embed a transaction-scoped inner matcher, so retaining them
    would leak one combined closure per transaction.
    """
    def matcher(message: Any) -> bool:
        for m in matchers:
            if m(message):
                return True
        return False

    hints = [matcher_types(m) for m in matchers]
    if all(hint is not None for hint in hints):
        matcher.msg_types = frozenset().union(*hints)
        merged: dict = {}
        for m, types in zip(matchers, hints):
            corr = matcher_correlation(m) or {}
            # A type the inner matcher accepts without a correlation entry
            # (msg_types-only hint) must stay reachable: it merges as ANY.
            for msg_type in types:
                value = corr.get(msg_type, ANY_CORRELATION)
                existing = merged.get(msg_type)
                if value is ANY_CORRELATION or existing is ANY_CORRELATION:
                    merged[msg_type] = ANY_CORRELATION
                elif existing is None:
                    merged[msg_type] = value
                else:
                    merged[msg_type] = existing | value
        matcher.msg_corr = merged
    return matcher


def from_senders(senders: Iterable[str],
                 inner: Optional[Callable[[Any], bool]] = None) -> Callable[[Any], bool]:
    """Matcher restricting ``inner`` (or any message) to a set of senders."""
    allowed = set(senders)

    def matcher(message: Any) -> bool:
        if not isinstance(message, Message) or message.sender not in allowed:
            return False
        return True if inner is None else inner(message)

    hint = matcher_types(inner)
    if hint is not None:
        matcher.msg_types = hint
        corr = matcher_correlation(inner)
        if corr is not None:
            matcher.msg_corr = corr
    return matcher

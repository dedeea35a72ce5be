"""Message representation and its wire codec.

All protocol traffic is carried by :class:`Message` objects.  A message has a
``msg_type`` (the tag in the paper's pseudo-code, e.g. ``"Request"``,
``"Prepare"``, ``"Vote"``, ``"Decide"``, ``"AckDecide"``, ``"Ready"``,
``"Result"``), a ``sender``/``destination`` pair and a free-form payload
dictionary.  Every message carries a globally unique ``msg_id`` so that
duplicate suppression (the paper's channel *integrity* property) is possible;
the network re-stamps it at send time from a per-source counter, so the id a
message ends up with depends only on its sender's own send history.  A
receiving process files a message under ``(msg_type, payload["j"])``, or
``(msg_type, sender)`` when the payload has no ``j``, and a ``receive`` waits
on such keys (:class:`repro.sim.waits.Receive`).
"""

from __future__ import annotations

import json
from math import isfinite
from operator import attrgetter
from sys import intern as _intern
from typing import Any, Callable, NamedTuple, Optional

WIRE_VERSION = 2
"""Current version of the :meth:`Message.to_wire` encoding."""


class WireFormatError(ValueError):
    """A value cannot be encoded for / decoded from the wire."""


# The wire codec knows the vocabulary.  Every message type that may cross a
# socket is declared (:func:`declare_message`, beside its constructor) as a row
# of named fields, each with a :class:`Shape`, and both directions are derived
# from the row.  A frame is one positional JSON array
# ``[WIRE_VERSION, tag, sender, destination, msg_id, send_time, field...]``:
# nothing names its fields or tags its containers, and decoding checks arity
# and every field's shape *while it builds the payload*, so what comes out is a
# well-typed message of a declared type or a WireFormatError.  Only free-form
# business data (``Request.params``, result values) goes through a tagged walker.


class Shape(NamedTuple):
    """How one kind of field travels: ``encode`` is ``None`` where JSON carries it as is."""

    name: str
    encode: Optional[Callable[[Any], Any]]
    decode: Callable[[Any], Any]


def _brief(value: Any) -> str:
    """``value`` for an error message; never the repr of a container (it may be 900 deep)."""
    return type(value).__name__ if type(value) in (list, dict) else repr(value)[:40]


def _refuse(value: Any, expected: str) -> WireFormatError:
    return WireFormatError(f"expected {expected}, got {_brief(value)}")


def _scalar(expected: type) -> Callable[[Any], Any]:
    def decode(value: Any) -> Any:
        if type(value) is not expected:     # exact: JSON ``true`` is no int
            raise _refuse(value, expected.__name__)
        return value
    return decode


def _ids(value: Any, depth: int = 4) -> Any:
    """Scalars and nested tuples of them, e.g. the instance ``("regA", ("c1", 3))``."""
    kind = type(value)
    if kind is list and depth:      # JSON carried the tuple as an array
        return tuple([item if type(item) is str or type(item) is int
                      else _ids(item, depth - 1) for item in value])
    if (kind is str or kind is int or value is None or kind is bool
            or kind is float and isfinite(value)):
        return value
    raise _refuse(value, "a scalar or a tuple of bounded depth")


def _strs(value: Any) -> tuple[str, ...]:
    if type(value) is not list or any(type(item) is not str for item in value):
        raise _refuse(value, "a tuple of str")
    return tuple(value)


def _pack(value: Any, depth: int = 16) -> Any:
    """Free-form data, containers tagged so that tuples and non-str keys survive JSON."""
    kind = type(value)
    if kind is str or kind is int or value is None or kind is bool or kind is float:
        return value    # a non-finite float is refused by the encoder itself
    if kind is list and depth:
        return [_pack(item, depth - 1) for item in value]
    if kind is tuple and depth:
        return {"t": [_pack(item, depth - 1) for item in value]}
    if kind is dict and depth:
        if all(type(key) is str for key in value):
            return {"m": {key: _pack(item, depth - 1) for key, item in value.items()}}
        return {"i": [[key, _pack(item, depth - 1)] for key, item in value.items()]}
    raise WireFormatError(f"a {kind.__name__} (or nesting this deep) is not wire-encodable")


def _unpack(value: Any, depth: int = 16) -> Any:
    kind = type(value)
    if (kind is str or kind is int or value is None or kind is bool
            or kind is float and isfinite(value)):
        return value
    if kind is list and depth:
        return [_unpack(item, depth - 1) for item in value]
    if kind is dict and depth and len(value) == 1:
        (tag, body), = value.items()
        if tag == "t" and type(body) is list:
            return tuple([_unpack(item, depth - 1) for item in body])
        if tag == "m" and type(body) is dict:
            return {key: _unpack(item, depth - 1) for key, item in body.items()}
        if tag == "i" and type(body) is list and all(
                type(pair) is list and len(pair) == 2 for pair in body):
            return {_ids(key): _unpack(item, depth - 1) for key, item in body}
    raise _refuse(value, "a tagged value of bounded depth")


IDS = Shape("ids", None, _ids)
STR = Shape("str", None, _scalar(str))
INT = Shape("int", None, _scalar(int))
BOOL = Shape("bool", None, _scalar(bool))
STRS = Shape("strs", None, _strs)
VALUE = Shape("value", _pack, _unpack)

_RECORDS: dict[Any, Shape] = {}     # record class, and its name on the wire -> shape


def optional(shape: Shape) -> Shape:
    """``None``, or what ``shape`` describes (which must have an encoder)."""
    return Shape(f"{shape.name}?", lambda value: None if value is None else shape.encode(value),
                 lambda value: None if value is None else shape.decode(value))


def declare_record(cls: type, /, **fields: Shape) -> Shape:
    """The shape of a dataclass that travels as the positional array of ``fields``.

    ``fields`` are the constructor's parameters, in order.  The record also
    joins the :data:`IDS_OR_RECORD` union under its class name.
    """
    read, shapes = attrgetter(*fields), tuple(fields.values())

    def encode(record: Any) -> list:
        return [value if shape.encode is None else shape.encode(value)
                for shape, value in zip(shapes, read(record))]

    def decode(value: Any) -> Any:
        if type(value) is not list or len(value) != len(shapes):
            raise _refuse(value, f"the {len(shapes)} fields of a {cls.__name__}")
        try:
            return cls(*[shape.decode(item) for shape, item in zip(shapes, value)])
        except ValueError as exc:   # the record's own validation, e.g. an unknown outcome
            raise WireFormatError(str(exc)) from None

    shape = _RECORDS[cls] = _RECORDS[cls.__name__] = Shape(cls.__name__, encode, decode)
    return shape


def _pack_either(value: Any) -> Any:
    shape = _RECORDS.get(type(value))   # inside an object, so that it is no tuple
    return value if shape is None else {shape.name: shape.encode(value)}


def _unpack_either(value: Any) -> Any:
    if type(value) is not dict:
        return _ids(value)
    shape = _RECORDS.get(next(iter(value))) if len(value) == 1 else None
    if shape is None:
        raise _refuse(value, "a declared record")
    return shape.decode(value[shape.name])


IDS_OR_RECORD = Shape("ids or record", _pack_either, _unpack_either)
"""What a wo-register holds: identifiers (a ``regA`` claim) or a record (a ``regD`` decision)."""


class WireSchema(NamedTuple):
    """One row of the vocabulary: a message type, or one ``kind`` of it, and its fields."""

    msg_type: str
    kind: Optional[str]
    fields: tuple[tuple[str, Shape], ...]   # in wire order


WIRE_SCHEMAS: dict[str, WireSchema] = {}
"""Wire tag -> row; the tag is the message type, or ``type:kind``."""


def declare_message(msg_type: str, /, kind: Optional[str] = None,
                    **fields: Shape) -> Callable[[Any], Any]:
    """Declare the payload of ``msg_type``: ``name=Shape`` per field, in wire order.

    With ``kind``, the row describes only the messages whose payload says so
    under ``"kind"`` (the synod's ``prepare``, ``promise``, ...), and the type
    is declared once per kind.  Returns the identity, so that a declaration
    can sit on the type's constructor as a decorator.
    """
    tag = msg_type if kind is None else f"{msg_type}:{kind}"
    if tag in WIRE_SCHEMAS:
        raise ValueError(f"{tag!r} already has a wire schema")
    WIRE_SCHEMAS[tag] = WireSchema(msg_type, kind, tuple(fields.items()))
    return lambda constructor: constructor


def _reject_constant(name: str) -> None:
    raise WireFormatError(f"non-finite number {name}")


_UNSUPPORTED = f"unsupported wire version %s (this build speaks {WIRE_VERSION})"
_ENCODE = json.JSONEncoder(separators=(",", ":"), allow_nan=False, check_circular=False).encode
_DECODE = json.JSONDecoder(parse_constant=_reject_constant).raw_decode


class Message:
    """A single protocol message.

    Attributes
    ----------
    msg_type:
        The message tag (``"Request"``, ``"Prepare"``, ...).
    sender / destination:
        Process names.
    payload:
        Message contents (the constructor's ``payload``, read back through
        ``get``/``__getitem__``); keys are protocol specific (``request``,
        ``j``, ``vote``, ``outcome``, ``decision``...).
    msg_id:
        Unique identifier; ``0`` until the network stamps it at send time
        from the sender's per-source counter.
    send_time:
        Virtual time at which the network accepted the message (filled by the
        network).

    A sent payload is read-only: it is read through ``get``/``__getitem__``,
    and a message shares its dict with its :meth:`copy` siblings.
    """

    __slots__ = ("msg_type", "sender", "destination", "msg_id", "send_time", "_payload")

    def __init__(self, msg_type: str, sender: str = "", destination: str = "",
                 payload: Optional[dict[str, Any]] = None, msg_id: int = 0,
                 send_time: float = 0.0) -> None:
        self.msg_type = msg_type
        self.sender = sender
        self.destination = destination
        self._payload = {} if payload is None else payload
        self.msg_id = msg_id
        self.send_time = send_time

    def get(self, key: str, default: Any = None) -> Any:
        """The payload's value for ``key``, or ``default``."""
        return self._payload.get(key, default)

    def copy(self) -> "Message":
        """A fresh, unstamped message with the same type and payload.

        Used by multicast so each recipient gets its own message instance, as
        the network mutates routing fields in place.  The payload dict is
        shared, not duplicated: nobody writes to a sent payload.
        """
        sibling = Message.__new__(Message)
        sibling.msg_type = self.msg_type
        sibling.sender = ""
        sibling.destination = ""
        sibling._payload = self._payload
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

        The positional array laid out by the type's :func:`declare_message`
        row, so tuples and the :mod:`repro.core.types` records come back
        exactly as sent.  Used by the TCP transport (inside
        length-prefixed frames).  Raises :class:`WireFormatError` for an
        undeclared type or a payload that does not fit its row.
        """
        payload = self._payload
        tag = self.msg_type
        row = WIRE_SCHEMAS.get(tag)
        if row is None:     # undeclared, or declared kind by kind
            tag = f"{tag}:{payload.get('kind')}"
            row = WIRE_SCHEMAS.get(tag)
        if row is None or len(payload) != len(row.fields) + (row.kind is not None):
            raise WireFormatError(
                f"{self.msg_type!r} with fields {sorted(payload)} fits no declared wire schema")
        try:
            frame = [WIRE_VERSION, tag, self.sender, self.destination, self.msg_id,
                     self.send_time] + [
                payload[name] if shape.encode is None else shape.encode(payload[name])
                for name, shape in row.fields]
        except (KeyError, AttributeError) as exc:   # a field missing, a record of another type
            raise WireFormatError(f"{tag!r} does not fit its wire schema: {exc!r}") from None
        try:
            return _ENCODE(frame).encode("ascii")
        except (TypeError, ValueError, RecursionError) as exc:
            raise WireFormatError(f"{self.msg_type!r} is not wire-encodable: {exc}") from None

    @classmethod
    def from_wire(cls, data: bytes) -> "Message":
        """Decode a :meth:`to_wire` frame into a message of a declared type.

        Anything else -- another wire version, an unknown type or kind, wrong
        arity, a field of the wrong shape, a non-finite number, nesting beyond
        a shape's depth -- raises :class:`WireFormatError`.
        """
        try:
            text = data.decode("utf-8")
            frame, end = _DECODE(text)
        except (ValueError, RecursionError) as exc:
            raise WireFormatError(f"undecodable wire frame: {exc}") from None
        if end != len(text):
            raise WireFormatError("bytes after the end of the wire frame")
        if type(frame) is dict:     # how version 1 framed a message
            raise WireFormatError(_UNSUPPORTED % _brief(frame.get("v")))
        if type(frame) is not list or len(frame) < 6:
            raise WireFormatError("a wire frame is an array of at least six elements")
        version, tag, sender, destination, msg_id, send_time, *values = frame
        if version != WIRE_VERSION:
            raise WireFormatError(_UNSUPPORTED % _brief(version))
        row = WIRE_SCHEMAS.get(tag) if type(tag) is str else None
        if row is None:
            raise WireFormatError(f"unknown message type {_brief(tag)}")
        fields = row.fields
        if len(values) != len(fields):
            raise WireFormatError(f"{tag!r} takes {len(fields)} fields, got {len(values)}")
        timed = type(send_time) is float and isfinite(send_time) or type(send_time) is int
        if (type(sender) is not str or type(destination) is not str or type(msg_id) is not int
                or not timed):
            raise WireFormatError(f"malformed routing fields in a {tag!r} frame")
        payload = {name: shape.decode(value) for (name, shape), value in zip(fields, values)}
        if row.kind is not None:
            payload["kind"] = row.kind
        # Interning collapses the process names every decoded frame repeats
        # (the type and the payload keys are the row's own strings already).
        return cls(row.msg_type, _intern(sender), _intern(destination), payload, msg_id, send_time)

    def __getitem__(self, key: str) -> Any:
        return self._payload[key]

    def __repr__(self) -> str:
        return (
            f"Message({self.msg_type!r}, {self.sender!r}->{self.destination!r}, "
            f"{self._payload!r})"
        )

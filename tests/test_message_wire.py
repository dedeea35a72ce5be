"""The wire codec, tested through its schema table.

``Message.to_wire``/``from_wire`` is what the TCP transport frames, so its
fidelity is a correctness property (consensus keys instances by *tuples*, the
client/decision path ships :mod:`repro.core.types` records) and its decoder
is where a hostile peer gets in.  Both directions are derived from one table
(:data:`repro.net.message.WIRE_SCHEMAS`), so the tests are too:

* every declared type, built from its row's shapes, round-trips to an ``==``
  message with tuples still tuples;
* one golden frame pins the layout of the current version, and a frame of
  another version is refused;
* what is *not* in the table cannot be sent, and what a run of every scheme
  sends *is* in the table -- a new message without a row fails here;
* ``from_wire`` over arbitrary JSON and over valid frames with one element
  mutated returns a ``Message`` or raises ``WireFormatError``, nothing else.
"""

import json
import math
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import api
from repro.core import messages as msg
from repro.core.types import ABORT, COMMIT, Decision, Request, Result
from repro.net import message as wire
from repro.net.message import WIRE_SCHEMAS, WIRE_VERSION, Message, WireFormatError

# Everything that declares rows is imported by now (``api`` pulls the protocol
# drivers in); conftest.py added the runtime tests' Ping/Pong/Gossip/Blob.
TAGS = sorted(WIRE_SCHEMAS)

# ----------------------------------------------------------------- strategies

names = st.sampled_from(["c1", "a1", "a2", "d1", "d2", "acct-{1}-3", "", "é☃"])
integers = st.integers(-(2**53), 2**53)
scalars = st.one_of(st.none(), st.booleans(), integers, names,
                    st.floats(allow_nan=False, allow_infinity=False))
ids = st.recursive(scalars, lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=6)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.tuples(inner, inner),
                            st.dictionaries(names, inner, max_size=3),
                            st.dictionaries(st.one_of(integers, st.tuples(names, integers)),
                                            inner, min_size=1, max_size=3)),
    max_leaves=8)
requests = st.builds(Request, operation=names, params=st.dictionaries(names, values, max_size=3),
                     request_id=names, participants=st.lists(names, max_size=3),
                     keys=st.lists(names, max_size=3))
results = st.builds(Result, value=values, request_id=names, computed_by=names)
decisions = st.builds(Decision, result=st.none() | results,
                      outcome=st.sampled_from([COMMIT, ABORT]))

BY_SHAPE = {
    "ids": ids, "str": names, "int": integers, "bool": st.booleans(),
    "strs": st.lists(names, max_size=3).map(tuple), "value": values,
    "Request": requests, "Result": results, "Decision": decisions,
    "ids or record": st.one_of(ids, decisions, results, requests),
}


def messages_of(tag: str):
    """Messages of one declared type, every field drawn from its shape."""
    row = WIRE_SCHEMAS[tag]
    fields = {name: BY_SHAPE[shape.name] for name, shape in row.fields}
    if row.kind is not None:
        fields["kind"] = st.just(row.kind)
    return st.builds(Message, msg_type=st.just(row.msg_type), sender=names, destination=names,
                     payload=st.fixed_dictionaries(fields), msg_id=st.integers(0, 2**40),
                     send_time=st.floats(0, 1e9))


any_message = st.sampled_from(TAGS).flatmap(messages_of)


def same_types(a, b) -> bool:
    """``a == b`` already holds; this catches a tuple that came back as a list."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Message):
        return same_types(a._payload, b._payload)
    if isinstance(a, dict):
        return all(any(ka == kb and same_types(ka, kb) and same_types(a[ka], b[kb]) for kb in b)
                   for ka in a)
    if isinstance(a, (list, tuple)):
        return all(map(same_types, a, b))
    if isinstance(a, (Request, Result, Decision)):   # slotted: no ``vars()``
        return all(same_types(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    return True


# ----------------------------------------------------------------- round-trip


def test_the_table_covers_the_vocabulary():
    kinds = {"prepare", "promise", "accept", "accepted", "decide", "nack_prepare",
             "nack_accept"}
    assert {tag for tag in TAGS if tag.startswith("Consensus:")} == {
        f"Consensus:{kind}" for kind in kinds}
    assert {"Request", "Result", "Prepare", "Vote", "Decide", "AckDecide", "Ready", "Execute",
            "ExecuteResult", "MigrateSnapshot", "MigrateSnapshotReply", "MigrateInstall",
            "MigrateRelease", "MigrateAck", "Heartbeat", "CommitOnePhase", "AckCommit",
            "PBStart", "PBStartAck", "PBOutcome", "PBOutcomeAck"} <= set(TAGS)
    # Every field is flat data: no row nests another frame.
    assert {shape.name for row in WIRE_SCHEMAS.values() for _, shape in row.fields} <= set(
        BY_SHAPE)


@pytest.mark.parametrize("tag", TAGS)
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_every_declared_type_round_trips(tag, data):
    message = data.draw(messages_of(tag))
    decoded = Message.from_wire(message.to_wire())
    assert decoded == message
    assert same_types(decoded, message)
    assert decoded.msg_type == WIRE_SCHEMAS[tag].msg_type


@settings(max_examples=100, deadline=None)
@given(requests, results, decisions)
def test_core_records_round_trip_by_equality(request, result, decision):
    # Every field of every record: ``Request.keys`` used to be dropped here,
    # so an app server over TCP re-derived participants from no keys at all.
    assert Message.from_wire(msg.request_message(request, 1).to_wire())["request"] == request
    assert Message.from_wire(msg.result_message(2, decision).to_wire())["decision"] == decision
    pb_outcome = Message("PBOutcome", payload={"j": ("c1", 1), "outcome": COMMIT,
                                                "result": result, "client": "c1"})
    assert Message.from_wire(pb_outcome.to_wire())["result"] == result


def test_consensus_payloads_stay_usable_as_keys():
    # The synod uses instance and ballot tuples as dict keys and compares
    # ballots lexicographically; lists would KeyError deep inside the protocol.
    message = Message("Consensus", "a1", "a2", {
        "instance": ("regA", ("c1", 4)), "kind": "promise", "ballot": (2, 1),
        "accepted_ballot": None, "accepted_value": ("a2", ("d1", "d2"))})
    decoded = Message.from_wire(message.to_wire())
    assert decoded == message
    assert {decoded["instance"]: 1}[("regA", ("c1", 4))] == 1
    assert decoded["ballot"] > (2, 0)
    decision = Decision(Result({"balance": 70}, "req-9", "a2"), COMMIT)
    decided = Message("Consensus", "a1", "a2", {"instance": ("regD", ("c1", 4)),
                                                "kind": "decide", "value": decision})
    assert Message.from_wire(decided.to_wire())["value"] == decision


# ------------------------------------------------------------------ stability

GOLDEN = {
    # wire version -> (message, frame).  A layout change adds a version here;
    # it never edits an entry, because deployed peers speak the old layout.
    2: (Message("Execute", "a1", "d1",
                {"j": ("c1", 1), "request": Request("pay", {"amount": (1, 2)}, "req-7",
                                                    ("d1",), ("acct-1",))},
                msg_id=7, send_time=1.5),
        b'[2,"Execute","a1","d1",7,1.5,["c1",1],'
        b'["pay",{"m":{"amount":{"t":[1,2]}}},"req-7",["d1"],["acct-1"]]]'),
}


def test_wire_format_is_stable():
    assert set(GOLDEN) == {WIRE_VERSION}
    message, frame = GOLDEN[WIRE_VERSION]
    assert message.to_wire() == frame
    assert Message.from_wire(frame) == message


def test_other_wire_versions_are_refused():
    version_1 = (b'{"v":1,"t":"Execute","s":"a1","d":"d1","id":7,"ts":1.5,'
                 b'"p":{"j":{"k":"tuple","v":["c1",1]},"n":3}}')
    with pytest.raises(WireFormatError,
                       match=r"unsupported wire version 1 \(this build speaks 2\)"):
        Message.from_wire(version_1)
    _message, frame = GOLDEN[WIRE_VERSION]
    with pytest.raises(WireFormatError, match="unsupported wire version 3"):
        Message.from_wire(frame.replace(b"[2,", b"[3,", 1))


def test_only_the_declared_vocabulary_can_be_sent():
    with pytest.raises(WireFormatError, match="fits no declared wire schema"):
        Message("Undeclared", payload={"n": 1}).to_wire()
    with pytest.raises(WireFormatError, match="fits no declared wire schema"):
        Message("Consensus", payload={"instance": 1, "kind": "gossip"}).to_wire()
    for misfit in ({"j": ("c1", 1)},                                       # a field missing
                   {"j": ("c1", 1), "vote": "yes", "extra": 1},            # one too many
                   {"j": ("c1", 1), "ballot": "yes"}):                     # the wrong one
        with pytest.raises(WireFormatError):
            Message("Vote", payload=misfit).to_wire()
    with pytest.raises(WireFormatError):
        Message("Result", payload={"j": 1, "decision": ("not", "a", "Decision")}).to_wire()
    with pytest.raises(WireFormatError):
        msg.execute_result_message(("c1", 1), object()).to_wire()
    with pytest.raises(WireFormatError):
        # Non-finite floats have no JSON spelling: the sender fails loudly
        # instead of emitting a frame its peers cannot parse.
        msg.execute_result_message(("c1", 1), math.inf).to_wire()


def test_a_type_has_one_schema():
    with pytest.raises(ValueError, match="already has a wire schema"):
        wire.declare_message("Vote", j=wire.IDS)
    with pytest.raises(ValueError, match="already has a wire schema"):
        wire.declare_message("Consensus", kind="prepare", instance=wire.IDS)


# --------------------------------------------------- the table stays complete

SCHEME_RUNS = {
    "etx://a3.d1.c1?fd=heartbeat&seed=7": {"Consensus", "Heartbeat", "Execute", "Result"},
    "2pc://a1.d2.c1?seed=7": {"Prepare", "Vote", "Decide", "AckDecide"},
    "pb://a2.d1.c1?seed=7": {"PBStart", "PBStartAck", "PBOutcome", "PBOutcomeAck"},
    "baseline://a1.d1.c1?seed=7": {"CommitOnePhase", "AckCommit"},
    "etx://a3.d2.c2?rate=40&workload=bank&placement=hash&seed=3&faults=reshard@300:d2->d4":
        {"MigrateSnapshot", "MigrateSnapshotReply", "MigrateInstall", "MigrateRelease",
         "MigrateAck"},
}


@pytest.mark.parametrize("dsn", SCHEME_RUNS)
def test_everything_a_run_sends_has_a_schema(dsn):
    result = api.run_scenario(dsn, requests=4, settle=4_000.0)
    assert result.ok, result.spec.summary()
    sent = set(result.message_counts)
    assert SCHEME_RUNS[dsn] <= sent      # the run exercised what it is here for
    declared = {row.msg_type for row in WIRE_SCHEMAS.values()}
    assert sent <= declared, f"no wire schema for {sorted(sent - declared)}"


def test_the_readme_documents_the_table():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    for tag, row in WIRE_SCHEMAS.items():
        if row.msg_type in ("Ping", "Pong", "Gossip", "Blob"):
            continue    # conftest.py's test traffic
        fields = ", ".join(f"`{name}` {shape.name}" for name, shape in row.fields) or "—"
        assert f"| `{tag}` | {fields} |" in readme, f"README lacks the row of {tag}"
    assert f"[{WIRE_VERSION}, tag, sender, destination, msg_id, send_time, field…]" in readme


# ------------------------------------------------------------- hostile input

json_documents = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=8),
              st.floats(allow_nan=True, allow_infinity=True)),
    lambda inner: st.one_of(st.lists(inner, max_size=6),
                            st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=20)

DEEP = 5_000
HOSTILE = [
    json.loads('"seven"'), 1, None, True, [], {}, [[1], 2], {"k": "imap", "v": [[1]]},
    float("nan"), float("inf"), 2**70, 10**400, "x" * 100, ["Request"],
    {"Decision": [None, "maybe"]},
]


def decodes_or_refuses(body: bytes) -> None:
    try:
        decoded = Message.from_wire(body)
    except WireFormatError:
        return
    assert type(decoded) is Message
    assert decoded.msg_type in {row.msg_type for row in WIRE_SCHEMAS.values()}
    hash((decoded.sender, decoded.destination, decoded.msg_id))


@settings(max_examples=300, deadline=None)
@given(json_documents)
# The escapes the version-1 walker had: bare ValueError, RecursionError, or a
# type-confused message delivered to protocol code.
@example({"k": "imap", "v": [[1]]})
@example({"v": 1, "t": "Result", "s": "a1", "d": "c1", "id": 1, "ts": 0.0,
          "p": {"decision": {"k": "decision", "outcome": "maybe", "result": None}}})
@example([2, "Result", "a1", "c1", 1, 0.0, 1, [None, "maybe"]])
@example([2, "Ready", "a1", "c1", "seven", 0.0])
@example([2, "Ready", "a1", "c1", 1, float("nan")])
@example([2, "Ready", "a1", "c1", 1, 10**400])      # isfinite() of it overflows
@example([2, "NoSuchType", "a1", "c1", 1, 0.0])
@example([2, "Consensus:gossip", "a1", "a2", 1, 0.0, 1])
@example([2, ["Ready"], "a1", "c1", 1, 0.0])
@example([2, "AckDecide", "a1", "d1", 1, 0.0, {"unhashable": [[1], 2]}])
def test_arbitrary_json_is_a_message_or_a_wire_format_error(document):
    decodes_or_refuses(json.dumps(document).encode("utf-8"))


def test_deep_nesting_is_a_wire_format_error_not_a_recursion_error():
    for opener, closer in ((b"[", b"]"), (b'{"m":', b"}")):
        with pytest.raises(WireFormatError):
            Message.from_wire(opener * DEEP + b"1" + closer * DEEP)
    # Inside the parser's own limit each shape still has its fixed depth -- and
    # saying so must not recurse either (the repr of a 990-deep list does).
    for depth in (40, 400, 900, 950, 980, 990, 995):
        deep = b"[" * depth + b"1" + b"]" * depth
        for frame in (b'[2,"AckDecide","a1","d1",1,0.0,%s]', b'[2,%s,"a1","d1",1,0.0]',
                      b'[%s,"AckDecide","a1","d1",1,0.0,1]', b'[2,"AckDecide",%s,"d1",1,0.0,1]',
                      b'[2,"ExecuteResult","a1","d1",1,0.0,1,%s,true]',
                      b'[2,"ExecuteResult","a1","d1",1,0.0,1,{"i":[[%s,1]]},true]',
                      b'[2,"Result","a1","c1",1,0.0,1,%s]', b'{"v":%s}'):
            with pytest.raises(WireFormatError):
                Message.from_wire(frame % deep)
    assert Message.from_wire(b'[2,"AckDecide","a1","d1",1,0.0,[[[[1]]]]]')["j"] == ((((1,),),),)
    with pytest.raises(WireFormatError, match="bounded depth"):
        Message.from_wire(b'[2,"AckDecide","a1","d1",1,0.0,[[[[[1]]]]]]')


def test_non_finite_numbers_are_refused_wherever_they_hide():
    for spelling in (b"NaN", b"Infinity", b"-Infinity", b"1e999"):
        for frame in (b'[2,"Ready","a1","c1",1,%s]', b'[2,"AckDecide","a1","d1",1,0.0,%s]',
                      b'[2,"ExecuteResult","a1","d1",1,0.0,1,{"t":[%s]},true]'):
            with pytest.raises(WireFormatError):
                Message.from_wire(frame % spelling)


def mutations(frame: list, draw) -> list:
    """One element of a valid frame replaced, dropped, doubled or buried."""
    paths = [()]
    def walk(node, path):
        if isinstance(node, list):
            for index, child in enumerate(node):
                paths.append(path + (index,))
                walk(child, path + (index,))
        elif isinstance(node, dict):
            for key, child in node.items():
                paths.append(path + (key,))
                walk(child, path + (key,))
    walk(frame, ())
    path = draw(st.sampled_from(paths[1:]))
    parent = frame
    for step in path[:-1]:
        parent = parent[step]
    last = path[-1]
    action = draw(st.sampled_from(["confuse", "drop", "double", "bury"]))
    if action == "confuse":
        parent[last] = draw(st.sampled_from(HOSTILE))
    elif action == "drop":
        del parent[last]
    elif action == "double" and isinstance(parent, list):
        parent.insert(last, parent[last])
    else:
        buried = parent[last]
        for _ in range(draw(st.sampled_from([1, 3, 20, 200]))):
            buried = [buried]
        parent[last] = buried
    return frame


@settings(max_examples=600, deadline=None)
@given(any_message, st.data())
def test_a_mutated_frame_is_a_message_or_a_wire_format_error(message, data):
    frame = mutations(json.loads(message.to_wire()), data.draw)
    # json.dumps spells NaN/Infinity the way a hostile peer could.
    decodes_or_refuses(json.dumps(frame).encode("utf-8"))


# ------------------------------------------------------------ shared payloads


def test_wire_round_trip_of_shared_payload():
    original = msg.execute_result_message(("c1", 4), [1, 2])
    original.sender, original.destination, original.msg_id = "a1", "d1", 9
    sibling = original.copy()
    # Serialising a message whose payload a sibling shares must neither
    # unshare nor alter it; the decoded message has a dict of its own.
    decoded = Message.from_wire(original.to_wire())
    assert decoded._payload == original._payload
    assert decoded._payload is not original._payload
    assert decoded.get("value") == original.get("value") == [1, 2]
    assert sibling._payload is original._payload
    assert sibling.get("value") == [1, 2]

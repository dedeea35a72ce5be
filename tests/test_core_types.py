"""Tests for the protocol domain types and message constructors."""

import pytest

from repro.core import messages as msg
from repro.core.types import (
    ABORT,
    ABORT_DECISION,
    COMMIT,
    Decision,
    Request,
    Result,
)


def test_request_ids_are_unique():
    first = Request("book", {"city": "SFO"})
    second = Request("book", {"city": "SFO"})
    assert first.request_id != second.request_id


def test_result_holds_provenance():
    result = Result(value={"seat": "12A"}, request_id="req-1", computed_by="a1")
    assert result.value == {"seat": "12A"}
    assert result.computed_by == "a1"


def test_decision_outcome_validation():
    result = Result(value=1, request_id="r", computed_by="a1")
    assert Decision(result, COMMIT).outcome == COMMIT
    assert Decision(result, ABORT).outcome == ABORT
    with pytest.raises(ValueError):
        Decision(result, "maybe")


def test_abort_decision_constant():
    assert ABORT_DECISION.result is None
    assert ABORT_DECISION.outcome == ABORT


def test_message_constructors_round_trip():
    request = Request("pay", {"amount": 10})
    m = msg.request_message(request, 3)
    assert m.msg_type == msg.REQUEST
    assert m["request"] is request
    assert m["j"] == 3

    decision = Decision(Result(1, "r", "a1"), COMMIT)
    m = msg.result_message(3, decision)
    assert m.msg_type == msg.RESULT and m["decision"] is decision

    assert msg.prepare_message(("c1", 1))["j"] == ("c1", 1)
    assert msg.vote_message(("c1", 1), "yes")["vote"] == "yes"
    assert msg.decide_message(("c1", 1), COMMIT)["outcome"] == COMMIT
    assert msg.ack_decide_message(("c1", 1)).msg_type == msg.ACK_DECIDE
    assert msg.ready_message().msg_type == msg.READY
    execute = msg.execute_message(("c1", 1), request)
    assert execute["request"] is request
    reply = msg.execute_result_message(("c1", 1), {"ok": 1}, ok=True)
    assert reply["value"] == {"ok": 1} and reply["ok"] is True

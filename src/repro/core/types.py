"""Domain types of the e-Transaction protocol.

The paper's model (Section 2) uses a ``Request`` domain (what the client
issues), a ``Result`` domain (what the business logic computes and the client
eventually delivers), ``Vote = {yes, no}`` and ``Outcome = {commit, abort}``,
plus the pair ``Decision = (result, outcome)`` stored in the ``regD``
wo-registers.  Result identifiers ``j`` number the (possibly aborted)
intermediate results of one client; we scope them by client name so several
clients can share a deployment (the paper's single-client presentation is the
special case of one client).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.net.message import STR, STRS, VALUE, declare_record, optional

COMMIT = "commit"
ABORT = "abort"

VOTE_YES = "yes"
VOTE_NO = "no"

_request_counter = itertools.count(1)


def reset_request_counter(start: int = 1) -> None:
    """Restart the auto-assigned ``request_id`` sequence at ``start``.

    Request identifiers only need to be unique within one deployment's trace;
    :func:`repro.api.build` resets the counter before every deployment, so a
    run's identifiers do not depend on how many requests earlier runs in the
    same process happened to create -- that is what makes two builds of one
    scenario, and a serial and a process-pool sweep of one grid, identical.
    """
    global _request_counter
    _request_counter = itertools.count(start)


@dataclass(frozen=True, slots=True)
class Request:
    """A client request (e.g. one travel booking or one account payment).

    ``operation`` and ``params`` are interpreted by the workload's business
    logic; the protocol never looks inside them.  ``participants`` is the set
    of database servers (shards) the request touches: the empty tuple means
    "every database" (the protocol's historical full fan-out), a non-empty
    tuple restricts execution, voting and decision to exactly those shards --
    the application servers route the whole commit protocol through it.

    ``keys`` optionally names the storage keys the request touches.  Under a
    static placement it is redundant with ``participants``; under online
    resharding it is what lets an application server *re-derive* the
    participant set against the placement epoch that is current at claim
    time, instead of trusting a routing decision taken an epoch ago.
    """

    operation: str
    params: dict[str, Any] = field(default_factory=dict)
    request_id: str = field(default_factory=lambda: f"req-{next(_request_counter)}")
    participants: tuple[str, ...] = ()
    keys: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "participants", tuple(self.participants))
        object.__setattr__(self, "keys", tuple(self.keys))

REQUEST_REC = declare_record(Request, operation=STR, params=VALUE, request_id=STR,
                             participants=STRS, keys=STRS)


@dataclass(frozen=True, slots=True)
class Result:
    """A result computed by an application server for one request.

    ``value`` is the business payload (reservation number, new balance, ...);
    user-level aborts are regular values here, as in the paper's model.
    """

    value: Any
    request_id: str
    computed_by: str

    def __repr__(self) -> str:
        return f"Result({self.value!r}, request={self.request_id}, by={self.computed_by})"


RESULT_REC = declare_record(Result, value=VALUE, request_id=STR, computed_by=STR)


@dataclass(frozen=True, slots=True)
class Decision:
    """The pair (result, outcome) stored in ``regD`` and returned to the client."""

    result: Optional[Result]
    outcome: str

    def __post_init__(self) -> None:
        if self.outcome not in (COMMIT, ABORT):
            raise ValueError(f"invalid outcome {self.outcome!r}")

DECISION_REC = declare_record(Decision, result=optional(RESULT_REC), outcome=STR)

ABORT_DECISION = Decision(result=None, outcome=ABORT)
"""The decision written by the cleaning thread (the paper's ``(nil, abort)``)."""


ResultKey = tuple[str, int]
"""Identifier of one intermediate result: ``(client name, j)``."""

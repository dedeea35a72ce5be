"""Message vocabulary of the e-Transaction protocol.

These are exactly the message types of the paper's pseudo-code (Figures 2-6):
``Request``, ``Result``, ``Prepare``, ``Vote``, ``Decide``, ``AckDecide`` and
``Ready``, plus the ``Execute``/``ExecuteResult`` pair that carries the
transient data manipulation the paper abstracts behind ``compute()`` (in the
paper's prototype this is the SQL traffic on the database connection).
"""

from __future__ import annotations

from typing import Any

from repro.core.types import DECISION_REC, REQUEST_REC, Decision, Request
from repro.net.message import BOOL, IDS, INT, STR, STRS, VALUE, Message, declare_message

REQUEST = "Request"
RESULT = "Result"
PREPARE = "Prepare"
VOTE = "Vote"
DECIDE = "Decide"
ACK_DECIDE = "AckDecide"
READY = "Ready"
EXECUTE = "Execute"
EXECUTE_RESULT = "ExecuteResult"

# Online-reconfiguration traffic (no counterpart in the paper): the
# coordinator snapshots moving keys off their old owner, installs them at the
# new owner, then releases them from the old owner.  Every exchange is
# idempotent per epoch, so the coordinator can retransmit under loss.
MIGRATE_SNAPSHOT = "MigrateSnapshot"
MIGRATE_SNAPSHOT_REPLY = "MigrateSnapshotReply"
MIGRATE_INSTALL = "MigrateInstall"
MIGRATE_RELEASE = "MigrateRelease"
MIGRATE_ACK = "MigrateAck"


@declare_message(REQUEST, request=REQUEST_REC, j=INT)
def request_message(request: Request, j: int) -> Message:
    """``[Request, request, j]`` from the client to an application server."""
    return Message(REQUEST, payload={"request": request, "j": j})


@declare_message(RESULT, j=INT, decision=DECISION_REC)
def result_message(j: int, decision: Decision) -> Message:
    """``[Result, j, decision]`` from an application server to the client."""
    return Message(RESULT, payload={"j": j, "decision": decision})


@declare_message(PREPARE, j=IDS, participants=STRS)
def prepare_message(key: Any, participants: tuple[str, ...] = ()) -> Message:
    """``[Prepare, j]`` from an application server to a database server.

    ``participants`` names the shards taking part in the commit of this
    result (empty = every database); it rides along so a database can trace
    and sanity-check which participant set it is voting within.
    """
    return Message(PREPARE, payload={"j": key, "participants": tuple(participants)})


@declare_message(VOTE, j=IDS, vote=STR)
def vote_message(key: Any, vote: str) -> Message:
    """``[Vote, j, vote]`` from a database server back to the application server."""
    return Message(VOTE, payload={"j": key, "vote": vote})


@declare_message(DECIDE, j=IDS, outcome=STR, participants=STRS)
def decide_message(key: Any, outcome: str,
                   participants: tuple[str, ...] = ()) -> Message:
    """``[Decide, j, outcome]`` from an application server to a database server.

    Carries the same participant metadata as :func:`prepare_message`.
    """
    return Message(DECIDE, payload={"j": key, "outcome": outcome,
                                    "participants": tuple(participants)})


@declare_message(ACK_DECIDE, j=IDS)
def ack_decide_message(key: Any) -> Message:
    """``[AckDecide, j]`` from a database server back to the application server."""
    return Message(ACK_DECIDE, payload={"j": key})


@declare_message(READY)
def ready_message() -> Message:
    """``[Ready]`` recovery notification from a database server to all app servers."""
    return Message(READY)


@declare_message(EXECUTE, j=IDS, request=REQUEST_REC)
def execute_message(key: Any, request: Request) -> Message:
    """Transient data manipulation request (the SQL work inside ``compute()``)."""
    return Message(EXECUTE, payload={"j": key, "request": request})


@declare_message(EXECUTE_RESULT, j=IDS, value=VALUE, ok=BOOL)
def execute_result_message(key: Any, value: Any, ok: bool = True) -> Message:
    """Reply to :func:`execute_message` carrying the computed business value."""
    return Message(EXECUTE_RESULT, payload={"j": key, "value": value, "ok": ok})


@declare_message(MIGRATE_SNAPSHOT, j=INT, keys=STRS)
def migrate_snapshot_message(epoch: int, keys: tuple[str, ...]) -> Message:
    """Coordinator -> old owner: send me the committed values of ``keys``."""
    return Message(MIGRATE_SNAPSHOT, payload={"j": epoch, "keys": tuple(keys)})


@declare_message(MIGRATE_SNAPSHOT_REPLY, j=INT, shard=STR, data=VALUE, busy=BOOL)
def migrate_snapshot_reply_message(epoch: int, sender_shard: str,
                                   data: dict[str, Any],
                                   busy: bool = False) -> Message:
    """Old owner -> coordinator: the committed values of the moving keys.

    ``busy`` means a moving key is still pinned by an in-flight or in-doubt
    transaction; the coordinator must let it drain and ask again.
    """
    return Message(MIGRATE_SNAPSHOT_REPLY,
                   payload={"j": epoch, "shard": sender_shard, "data": dict(data),
                            "busy": busy})


@declare_message(MIGRATE_INSTALL, j=INT, data=VALUE)
def migrate_install_message(epoch: int, data: dict[str, Any]) -> Message:
    """Coordinator -> new owner: durably install these committed values."""
    return Message(MIGRATE_INSTALL, payload={"j": epoch, "data": dict(data)})


@declare_message(MIGRATE_RELEASE, j=INT, keys=STRS)
def migrate_release_message(epoch: int, keys: tuple[str, ...]) -> Message:
    """Coordinator -> old owner: durably drop the migrated keys."""
    return Message(MIGRATE_RELEASE, payload={"j": epoch, "keys": tuple(keys)})


@declare_message(MIGRATE_ACK, j=INT, shard=STR, stage=STR)
def migrate_ack_message(epoch: int, sender_shard: str, stage: str) -> Message:
    """Database -> coordinator: the install/release for ``epoch`` is durable."""
    return Message(MIGRATE_ACK, payload={"j": epoch, "shard": sender_shard,
                                         "stage": stage})

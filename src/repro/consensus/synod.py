"""Single-decree quorum consensus among the application servers.

Each application server hosts a :class:`ConsensusHost`.  A host plays three
roles for every consensus *instance* (one instance per wo-register cell):

* **acceptor** -- answers prepare/accept requests under the classic quorum
  rules (never accept below a promise, report previously accepted values),
* **proposer** -- drives an instance to a decision when the local server calls
  :meth:`ConsensusHost.propose`,
* **learner** -- records decisions and resolves the futures returned to
  proposers; decisions are learned on ``accept`` where the group allows it
  (below), sent as ``decide`` where it does not, and sent again to a peer
  that proposes on an instance already decided.

Messages reach the host through a synchronous handler (``Process.on_message``),
not a thread, and the roles of one host talk by a call: a proposer is one of
its own acceptors and never mails itself, so a fast-path write in a group of
three costs 2 ``accept`` + 2 ``accepted`` messages and no ``decide``.

Learning on accept.  An ``accept`` leaves a proposer only after the proposer's
own acceptor has taken it.  In a group of at most three (``quorum <= 2``) the
proposer and any one peer are a majority, so a peer that takes a peer's
``accept`` for (ballot, value) knows a majority accepted that pair -- the value
is chosen -- and learns it on the spot.  The proposer learns at its quorum of
``accepted`` and sends ``decide`` only to the peers that answered
``nack_accept``, the only ones that cannot have learned alone (a nack that
arrives once the proposer has moved on to a later ballot is dropped like a
lost ``decide``).  Such a peer -- or one that was down or partitioned away --
learns the value when it next proposes on the instance: an acceptor that knows
the decision answers ``prepare`` or ``accept`` with ``decide``
(``_send_decision``).  A larger group broadcasts ``decide`` at the quorum, as
the read is not safe there.

Safety rests on one value per (instance, ballot): ballot ``(n, i)`` belongs to
proposer ``i`` alone, which sends one ``accept`` per attempt and never reuses
a round -- ballot 0 included, because ``_attempt_counters`` is durable.
Then, by the classic argument, every ``accept`` above a chosen pair's ballot
carries the chosen value (its prepare quorum meets the accepting majority and
adopts the highest accepted ballot), so whatever is learned -- on ``accept``,
at a quorum or by ``decide`` -- is the one chosen value.

Fast path.  The paper's analytic evaluation assumes that "in a nice run, it
takes only a round trip message for the first primary to write into the
register" (Appendix 3).  We reproduce that with a reserved ballot 0 that only
the instance's *fast-path owner* (the default primary application server) may
use: it skips the prepare phase and sends ``accept`` directly.  Safety is
preserved because ballot 0 belongs to exactly one proposer, and any acceptor
that has promised a higher ballot rejects it.

Liveness.  Competing proposers (several servers cleaning the same result after
a suspicion) retry with strictly increasing ballots and randomised backoff;
with a majority of application servers up, some proposal eventually goes
uncontested and decides.  This matches the paper's assumption set: a majority
of correct application servers and finitely many false suspicions.

Acceptor promises, learned decisions and the proposer's round counters are
tables on the host process's device: each change is one lazy (0 ms) write,
made before the host answers anyone, as a crash-recovery acceptor must.
In-flight attempts and their futures are volatile: :meth:`install` builds
them fresh for every incarnation, and a crash cancels their time-outs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Optional

from repro.consensus.interfaces import ConsensusProtocol, InstanceId
from repro.net.message import IDS, IDS_OR_RECORD, Message, declare_message
from repro.sim.process import Process
from repro.sim.scheduler import ScheduledEvent
from repro.sim.waits import SimFuture

Ballot = tuple[int, int]
"""(round number, proposer index); compared lexicographically."""

_NO_BALLOT: Ballot = (-1, -1)


@dataclass(slots=True)
class AcceptorState:
    """Durable acceptor-side state of one instance."""

    promised: Ballot = _NO_BALLOT
    accepted_ballot: Optional[Ballot] = None
    accepted_value: Any = None


@dataclass(slots=True)
class _ProposalAttempt:
    """Volatile proposer-side state of one in-flight attempt."""

    instance: InstanceId
    value: Any
    ballot: Ballot
    phase: str = "prepare"  # "prepare" | "accept"
    promises: dict[str, tuple[Optional[Ballot], Any]] = field(default_factory=dict)
    accepted_from: set[str] = field(default_factory=set)
    chosen_value: Any = None
    retry_timer: Optional[ScheduledEvent] = None  # armed by ``Process.after``
    attempt_number: int = 0
    highest_rejection: int = 0
    refused_by: tuple[str, ...] = ()  # peers that answered this ballot's accept with a nack


class ConsensusHost(ConsensusProtocol):
    """Multi-instance consensus endpoint hosted on one application server.

    Parameters
    ----------
    process:
        The hosting application-server process.
    members:
        Names of *all* application servers (the acceptor group).
    fast_path_owner:
        The server allowed to use the reserved ballot 0 (the default primary);
        ``None`` disables the fast path entirely.
    retry_backoff:
        Base backoff (virtual time) between proposal attempts; the actual
        delay is randomised and grows linearly with the attempt number.
    attempt_timeout:
        Time after which an attempt that gathered no quorum is abandoned and
        retried with a higher ballot.
    """

    MSG_TYPE = "Consensus"

    def __init__(self, process: Process, members: list[str],
                 fast_path_owner: Optional[str] = None,
                 retry_backoff: float = 8.0, attempt_timeout: float = 40.0):
        if process.name not in members:
            raise ValueError(f"host {process.name!r} must be one of the members {members!r}")
        self.process = process
        self.members = list(members)
        self.fast_path_owner = fast_path_owner
        self.retry_backoff = retry_backoff
        self.attempt_timeout = attempt_timeout
        self._index = self.members.index(process.name)
        self._peers = [member for member in self.members if member != process.name]
        self._rng = process.rng(f"consensus:{process.name}")

    # ------------------------------------------------------------------ setup

    def install(self) -> None:
        """Start this incarnation (call from ``on_start``): read the durable
        tables off the device, build the volatile state fresh and register the
        ``Consensus`` message handler."""
        disk = self._disk = self.process.disk
        # Durable: tables on the device, read in place, each change one write.
        self._acceptors: dict[InstanceId, AcceptorState] = disk.table("consensus.acceptors")
        self._decisions: dict[InstanceId, Any] = disk.table("consensus.decisions")
        # The keys of _decisions in learning order, sliceable.
        self._learned: list[InstanceId] = disk.table("consensus.learned", list)
        # The highest round this host has proposed in: a recovered fast-path
        # owner must not reuse ballot 0 with another value (learning on accept
        # rests on one value per ballot).
        self._attempt_counters: dict[InstanceId, int] = disk.table("consensus.rounds")
        # Volatile.
        self.on_learn: Optional[Callable[[], None]] = None  # armed while ``_learned`` is followed
        self._attempts: dict[InstanceId, _ProposalAttempt] = {}
        self._futures: dict[InstanceId, SimFuture] = {}
        self.process.on_message(self.MSG_TYPE, self._handle)

    # ------------------------------------------------------------ public API

    @property
    def quorum(self) -> int:
        """Majority size of the acceptor group."""
        return len(self.members) // 2 + 1

    def propose(self, instance: InstanceId, value: Any) -> SimFuture:
        if instance in self._decisions:
            # Already decided: hand back a pre-resolved future without
            # parking it in ``_futures`` (``_learn`` already drained the
            # instance's entry, and re-adding one would retain it forever).
            future = self._futures.pop(instance, SimFuture())
            future.resolve(self._decisions[instance])
            return future
        future = self._futures.get(instance)
        if future is None:
            future = SimFuture()
            self._futures[instance] = future
        if instance not in self._attempts:
            self._start_attempt(instance, value)
        return future

    def decision(self, instance: InstanceId) -> Optional[Any]:
        return self._decisions.get(instance)

    def learned_since(self, cursor: int) -> list[InstanceId]:
        return self._learned[cursor:]

    # -------------------------------------------------------------- proposer

    def _start_attempt(self, instance: InstanceId, value: Any) -> None:
        counter = self._attempt_counters.get(instance, 0)
        use_fast_path = (counter == 0 and self.fast_path_owner == self.process.name)
        if use_fast_path:
            ballot: Ballot = (0, self._index)
        else:
            counter = max(counter, 0) + 1
            ballot = (counter, self._index)
        self._attempt_counters[instance] = max(counter, 1) if not use_fast_path else 1
        self._disk.write(forced=False)
        attempt = _ProposalAttempt(instance=instance, value=value, ballot=ballot,
                                   attempt_number=counter)
        self._attempts[instance] = attempt
        trace = self.process.trace
        if trace.wants("consensus_propose"):
            trace.record("consensus_propose", self.process.name,
                         instance=_printable(instance), ballot=ballot,
                         fast_path=use_fast_path)
        # Armed before the broadcast: the host's own acceptor answers inside
        # it and may already decide (a group of one) or refuse the attempt.
        self._arm_attempt_timeout(attempt)
        if use_fast_path:
            attempt.chosen_value = value
            self._send_accept(attempt)
        else:
            attempt.phase = "prepare"
            self._broadcast({"instance": instance, "kind": "prepare", "ballot": ballot})

    def _arm_attempt_timeout(self, attempt: _ProposalAttempt) -> None:
        instance = attempt.instance

        def timeout() -> None:
            current = self._attempts.get(instance)
            if current is not attempt or instance in self._decisions:
                return
            self._retry(instance, attempt)

        attempt.retry_timer = self.process.after(
            self.attempt_timeout, timeout, name=f"consensus-timeout:{self.process.name}"
        )

    def _retry(self, instance: InstanceId, failed: _ProposalAttempt) -> None:
        self.process.cancel(failed.retry_timer)
        if instance in self._decisions:
            return
        # Choose a ballot above both our own counter and any rejection we saw.
        counter = max(self._attempt_counters.get(instance, 0), failed.highest_rejection) + 1
        self._attempt_counters[instance] = counter
        self._disk.write(forced=False)
        delay = self._rng.uniform(0.5, 1.5) * self.retry_backoff * max(1, failed.attempt_number)

        def launch() -> None:
            if instance in self._decisions or self._attempts.get(instance) is not failed:
                return
            ballot = (counter, self._index)
            attempt = _ProposalAttempt(instance=instance, value=failed.value, ballot=ballot,
                                       attempt_number=counter)
            self._attempts[instance] = attempt
            attempt.phase = "prepare"
            trace = self.process.trace
            if trace.wants("consensus_retry"):
                trace.record("consensus_retry", self.process.name,
                             instance=_printable(instance), ballot=ballot)
            self._arm_attempt_timeout(attempt)
            self._broadcast({"instance": instance, "kind": "prepare", "ballot": ballot})

        self.process.after(delay, launch, name=f"consensus-retry:{self.process.name}")

    # ------------------------------------------------------------ dispatcher

    def _handle(self, message: Message) -> None:
        self._step(message.sender, message._payload)

    def _step(self, sender: str, payload: dict) -> None:
        """One role's step on a payload, off the network or from this host."""
        kind = payload["kind"]
        instance = payload["instance"]
        if kind == "prepare":
            self._on_prepare(instance, sender, tuple(payload["ballot"]))
        elif kind == "accept":
            self._on_accept(instance, sender, tuple(payload["ballot"]), payload["value"])
        elif kind == "promise":
            self._on_promise(instance, sender, payload)
        elif kind == "accepted":
            self._on_accepted(instance, sender, tuple(payload["ballot"]))
        elif kind in ("nack_prepare", "nack_accept"):
            self._on_nack(instance, sender, kind, tuple(payload["ballot"]),
                          tuple(payload["promised"]))
        elif kind == "decide":
            self._learn(instance, payload["value"])

    # --------------------------------------------------------------- acceptor

    def _acceptor(self, instance: InstanceId) -> AcceptorState:
        state = self._acceptors.get(instance)
        if state is None:
            state = AcceptorState()
            self._acceptors[instance] = state
        return state

    def _on_prepare(self, instance: InstanceId, sender: str, ballot: Ballot) -> None:
        if instance in self._decisions:
            self._send_decision(sender, instance)
            return
        state = self._acceptor(instance)
        if ballot > state.promised:
            state.promised = ballot
            self._disk.write(forced=False)
            self._send(sender, {
                "instance": instance, "kind": "promise", "ballot": ballot,
                "accepted_ballot": state.accepted_ballot,
                "accepted_value": state.accepted_value,
            })
        else:
            self._send(sender, {"instance": instance, "kind": "nack_prepare",
                                "ballot": ballot, "promised": state.promised})

    def _on_accept(self, instance: InstanceId, sender: str, ballot: Ballot, value: Any) -> None:
        if instance in self._decisions:
            self._send_decision(sender, instance)
            return
        state = self._acceptor(instance)
        if ballot >= state.promised:
            state.promised = ballot
            state.accepted_ballot = ballot
            state.accepted_value = value
            self._disk.write(forced=False)
            self._send(sender, {"instance": instance, "kind": "accepted", "ballot": ballot})
            if sender != self.process.name and self.quorum <= 2:
                # The sender's own acceptor took this (ballot, value) before
                # sending it: with this host that is a majority, so it is chosen.
                self._learn(instance, value)
        else:
            self._send(sender, {"instance": instance, "kind": "nack_accept",
                                "ballot": ballot, "promised": state.promised})

    # ----------------------------------------------------- proposer responses

    def _current_attempt(self, instance: InstanceId, ballot: Ballot) -> Optional[_ProposalAttempt]:
        attempt = self._attempts.get(instance)
        if attempt is None or attempt.ballot != ballot:
            return None
        return attempt

    def _on_promise(self, instance: InstanceId, sender: str, payload: dict) -> None:
        ballot = tuple(payload["ballot"])
        attempt = self._current_attempt(instance, ballot)
        if attempt is None or attempt.phase != "prepare":
            return
        accepted_ballot = payload.get("accepted_ballot")
        accepted_ballot = tuple(accepted_ballot) if accepted_ballot is not None else None
        attempt.promises[sender] = (accepted_ballot, payload.get("accepted_value"))
        if len(attempt.promises) < self.quorum:
            return
        # Quorum of promises: adopt the value accepted at the highest ballot, if any.
        best_ballot: Optional[Ballot] = None
        chosen = attempt.value
        for prior_ballot, prior_value in attempt.promises.values():
            if prior_ballot is not None and (best_ballot is None or prior_ballot > best_ballot):
                best_ballot = prior_ballot
                chosen = prior_value
        attempt.chosen_value = chosen
        attempt.accepted_from.clear()
        self._send_accept(attempt)

    def _send_accept(self, attempt: _ProposalAttempt) -> None:
        """Phase 2: this host's own acceptor first, the peers only if it took
        the ballot (a refusal has already retried inside the step)."""
        attempt.phase = "accept"
        payload = {"instance": attempt.instance, "kind": "accept",
                   "ballot": attempt.ballot, "value": attempt.chosen_value}
        self._step(self.process.name, payload)
        if self.process.name in attempt.accepted_from:
            self._send_peers(payload)

    def _on_accepted(self, instance: InstanceId, sender: str, ballot: Ballot) -> None:
        attempt = self._current_attempt(instance, ballot)
        if attempt is None or attempt.phase != "accept":
            return
        attempt.accepted_from.add(sender)
        if len(attempt.accepted_from) < self.quorum:
            return
        value = attempt.chosen_value
        if self.quorum > 2:  # proposer + one acceptor is no majority: nobody learned alone
            self._send_peers({"instance": instance, "kind": "decide", "value": value})
        else:
            for peer in attempt.refused_by:  # every other peer learned as it accepted
                self._send(peer, {"instance": instance, "kind": "decide", "value": value})
        self._learn(instance, value)

    def _on_nack(self, instance: InstanceId, sender: str, kind: str, ballot: Ballot,
                 promised: Ballot) -> None:
        attempt = self._current_attempt(instance, ballot)
        if attempt is None:
            if kind == "nack_accept" and self.quorum <= 2 and instance in self._decisions:
                self._send_decision(sender, instance)  # refused after the decision
            return
        if kind == "nack_accept":
            attempt.refused_by += (sender,)
        attempt.highest_rejection = max(attempt.highest_rejection, promised[0])
        self._retry(instance, attempt)

    # ---------------------------------------------------------------- learner

    def _learn(self, instance: InstanceId, value: Any) -> None:
        grew = instance not in self._decisions
        if grew:
            # One write: the decision is the only durable fact a decided
            # instance still needs.  Every acceptor/proposer path checks
            # ``_decisions`` before touching the other two tables, so keeping
            # their rows would only grow the device for the rest of the run.
            self._decisions[instance] = value
            self._learned.append(instance)
            self._acceptors.pop(instance, None)
            self._attempt_counters.pop(instance, None)
            self._disk.write(forced=False)
            trace = self.process.trace
            if trace.wants("consensus_decide"):
                trace.record("consensus_decide", self.process.name,
                             instance=_printable(instance), value=_printable(value))
        attempt = self._attempts.pop(instance, None)
        if attempt is not None:
            self.process.cancel(attempt.retry_timer)
        future = self._futures.pop(instance, None)
        if future is not None:
            future.resolve(self._decisions[instance])
        if grew and self.on_learn is not None:
            self.on_learn()  # last: the follower may call back into this host

    # -------------------------------------------------------------- messaging

    def _send(self, destination: str, payload: dict) -> None:
        # Takes ownership of ``payload``: every call site passes a freshly
        # built dict, so there is nothing to defensively copy.
        if destination == self.process.name:
            self._step(destination, payload)  # own co-located role: a call, no message
        else:
            self.process.send(destination, Message(self.MSG_TYPE, payload=payload))

    def _send_decision(self, destination: str, instance: InstanceId) -> None:
        self._send(destination, {"instance": instance, "kind": "decide",
                                 "value": self._decisions[instance]})

    def _send_peers(self, payload: dict) -> None:
        # One template message, a sibling per peer: the payload dict is
        # shared (a sent payload is read-only) instead of duplicated per
        # destination.
        template = Message(self.MSG_TYPE, payload=payload)
        send = self.process.send
        for peer in self._peers:
            send(peer, template.copy())

    def _broadcast(self, payload: dict) -> None:
        """A ``prepare`` to the whole group: the peers first, then this host's own step."""
        self._send_peers(payload)
        self._step(self.process.name, payload)


# What each kind of consensus message carries besides its instance (``_step`` reads them).
_kind = partial(declare_message, ConsensusHost.MSG_TYPE, instance=IDS)
_kind(kind="prepare", ballot=IDS)
_kind(kind="promise", ballot=IDS, accepted_ballot=IDS, accepted_value=IDS_OR_RECORD)
_kind(kind="accept", ballot=IDS, value=IDS_OR_RECORD)
_kind(kind="accepted", ballot=IDS)
_kind(kind="decide", value=IDS_OR_RECORD)
_kind(kind="nack_prepare", ballot=IDS, promised=IDS)
_kind(kind="nack_accept", ballot=IDS, promised=IDS)


def _printable(value: Any) -> Any:
    """Best-effort compact representation for the trace."""
    try:
        return value if isinstance(value, (int, float, str, bool, tuple)) else repr(value)
    except Exception:  # pragma: no cover - defensive
        return "<unprintable>"

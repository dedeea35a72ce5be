"""Protocol-phase tracking: where in a run faults hurt the most.

The e-Transaction proofs hinge on what happens at the boundaries between a
transaction's protocol phases -- a result computed but not yet voted on, a
vote cast but not yet decided, a decision made but not yet terminated.  The
:class:`FaultWindowObserver` subscribes to the trace event bus (the same bus
the online :class:`~repro.core.spec.SpecMonitor` rides) and tracks the live
phase of every transaction, recording a timestamped
:class:`PhaseTransition` for each protocol-critical instant.  A probe run's
transition list is the *injection-window map* the
:class:`~repro.campaign.adversarial.AdversarialFaultPlan` aims faults at.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.sim.tracing import TraceEvent, TraceRecorder

PHASE_EXECUTING = "executing"
PHASE_VOTING = "voting"
PHASE_DECIDING = "deciding"
PHASE_TERMINATING = "terminating"
PHASE_RESHARDING = "resharding"

_PHASE_ORDER = {PHASE_EXECUTING: 0, PHASE_VOTING: 1, PHASE_DECIDING: 2,
                PHASE_TERMINATING: 3}

#: Trace categories the observer consumes, and the phase a transaction is in
#: once that event has happened.  ``db_vote`` advances to *deciding*: the
#: moment a first vote exists, the outcome is being decided -- the window the
#: paper's blocking arguments (and 2PC's failure mode) revolve around.
WINDOW_CATEGORIES = {
    "client_issue": PHASE_EXECUTING,
    "as_compute": PHASE_VOTING,
    "db_vote": PHASE_DECIDING,
    "db_decide": PHASE_DECIDING,
    "client_deliver": PHASE_TERMINATING,
    "as_terminate": PHASE_TERMINATING,
    "reshard": PHASE_RESHARDING,
}


@dataclass(frozen=True)
class PhaseTransition:
    """One protocol-critical instant observed on the bus.

    ``phase`` is the phase the transaction is in *after* the event; ``event``
    is the trace category that marked it; ``process`` is the process the
    event is attributed to (the natural fault target for this window).
    """

    time: float
    request_id: Any
    phase: str
    process: str
    event: str


class FaultWindowObserver:
    """Streams the trace bus into a live per-transaction phase map.

    Attach to any run (probe runs, campaign evaluations, interactive
    experiments); afterwards :attr:`transitions` is the ordered list of
    injection windows and :meth:`phase_of` answers the live phase of any
    still-in-flight transaction.
    """

    def __init__(self) -> None:
        self.transitions: list[PhaseTransition] = []
        self._phase: dict[Any, str] = {}
        self._done: set[Any] = set()
        self._request_of_result: dict[tuple, Any] = {}
        self._unsubscribers: list[Callable[[], None]] = []

    # ----------------------------------------------------------- subscription

    @classmethod
    def attach(cls, trace: TraceRecorder) -> "FaultWindowObserver":
        """Create an observer and subscribe it to ``trace``'s event bus."""
        observer = cls()
        for category in WINDOW_CATEGORIES:
            observer._unsubscribers.append(
                trace.subscribe(category, observer._on_event))
        return observer

    def detach(self) -> None:
        """Unsubscribe from the bus (the recorded windows stay)."""
        for unsubscribe in self._unsubscribers:
            unsubscribe()
        self._unsubscribers.clear()

    # ---------------------------------------------------------------- folding

    @staticmethod
    def _result_key(event: TraceEvent) -> tuple:
        """Normalise an event's result reference to the ``(client, j)`` key.

        ``db_vote``/``db_decide`` carry the key as their ``j`` payload;
        ``as_compute``/``as_terminate`` carry ``client`` and the inner ``j``
        separately.
        """
        j = event.data.get("j")
        if isinstance(j, (list, tuple)):
            return tuple(j)
        return (event.data.get("client"), j)

    def _request_id_of(self, event: TraceEvent) -> Any:
        request_id = event.data.get("request_id")
        if request_id is not None:
            return request_id
        if event.data.get("j") is None:
            return None
        key = self._result_key(event)
        return self._request_of_result.get(key, key)

    def _on_event(self, event: TraceEvent) -> None:
        phase = WINDOW_CATEGORIES[event.category]
        if event.category == "reshard":
            # Reconfiguration instants are deployment-wide, not transaction-
            # scoped: record them directly (begin/commit of each epoch) so a
            # campaign can aim faults into the migration window.
            self.transitions.append(PhaseTransition(
                time=event.time, request_id=("reshard", event.data.get("epoch")),
                phase=phase, process=event.process, event=event.category))
            return
        request_id = self._request_id_of(event)
        if request_id is None:
            return
        if event.category == "as_compute":
            # Result keys (client, j) appear on db_vote/db_decide events;
            # remember which request they belong to.  The mapping is kept
            # for the run's lifetime so late cleanup events (decides after
            # delivery) still label with the right request -- the observer
            # is a probe/diagnostic tool over bounded runs, not a soak
            # component.
            self._request_of_result[self._result_key(event)] = event.data.get("request_id")
        if request_id in self._done:
            # Still a protocol instant worth targeting (cleanup traffic), but
            # it must not resurrect a retired transaction's live phase.
            phase = PHASE_TERMINATING
        else:
            previous = self._phase.get(request_id)
            # Phases only advance; a retransmitted vote after delivery must
            # not drag a terminating transaction back to "deciding".
            if previous is not None and _PHASE_ORDER[phase] < _PHASE_ORDER[previous]:
                phase = previous
            self._phase[request_id] = phase
        self.transitions.append(PhaseTransition(
            time=event.time, request_id=request_id, phase=phase,
            process=event.process, event=event.category))
        if event.category in ("as_terminate", "client_deliver"):
            # Terminally resolved for the client's purposes: retire the
            # live-phase entry (the window list keeps the history).  Both
            # events retire because protocols differ in which one exists and
            # in which order they arrive -- etx terminates server-side before
            # or after the delivery, the one-phase baseline never emits
            # as_terminate at all.
            self._retire(request_id)

    def _retire(self, request_id: Any) -> None:
        if request_id in self._done:
            return
        self._done.add(request_id)
        self._phase.pop(request_id, None)

    # ------------------------------------------------------------------ query

    def phase_of(self, request_id: Any) -> Optional[str]:
        """Live phase of ``request_id`` (``None`` once terminated/unknown)."""
        return self._phase.get(request_id)

    @property
    def in_flight(self) -> int:
        """Transactions currently tracked (begun, not yet terminated)."""
        return len(self._phase)

    @property
    def completed(self) -> int:
        """Transactions whose live-phase entry has been retired."""
        return len(self._done)

"""Client protocol (the paper's Figure 2).

The client's one durable value is its result counter, on its device: counting
from 1 again, a recovered client would be handed its old decisions.
``issue(request)`` sends the request to the client's primary application
server, falls back to broadcasting it to every application server after a
back-off period, and loops through intermediate result identifiers ``j`` until
one of them comes back *committed* -- at which point the result is delivered
(the future returned by :meth:`Client.issue` resolves).

The primary starts at the first application server and moves only to the
server that answered a broadcast, so after a primary's crash later requests
stop waiting out the back-off.  Any server may claim a result (Figure 5's
``regA``), so the first target only affects speed, never safety.  The
primary is volatile: a recovered client starts at the first server again.

The client keeps no history either: once a request is delivered it drops its
:class:`IssuedRequest`, and whoever needs the outcome keeps the handle
:meth:`Client.issue` returned.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.core import messages as msg
from repro.core.timing import ProtocolTiming
from repro.core.types import COMMIT, Decision, Request, Result
from repro.sim.errors import ProcessNotRunning
from repro.sim.process import Process
from repro.sim.scheduler import Simulator
from repro.sim.waits import SimFuture, TIMEOUT


class IssuedRequest:
    """Handle returned by :meth:`Client.issue`.

    ``future`` resolves to the committed :class:`~repro.core.types.Result`;
    ``attempts`` counts the intermediate results that were tried and
    ``aborted_results`` lists the identifiers that ended in an abort.
    """

    __slots__ = ("request", "future", "attempts", "aborted_results", "enqueued_at",
                 "issued_at", "delivered_at")

    def __init__(self, request: Request):
        self.request = request
        self.future: SimFuture = SimFuture()
        self.attempts = 0
        self.aborted_results: list[int] = []
        self.enqueued_at: Optional[float] = None
        self.issued_at: Optional[float] = None
        self.delivered_at: Optional[float] = None

    @property
    def delivered(self) -> bool:
        """Whether the committed result has been delivered."""
        return self.future.resolved

    @property
    def result(self) -> Optional[Result]:
        """The delivered result (``None`` until delivery)."""
        return self.future.value

    @property
    def latency(self) -> Optional[float]:
        """Service latency: from when the client started working on the
        request to delivery (excludes any wait in the client's queue)."""
        if self.issued_at is None or self.delivered_at is None:
            return None
        return self.delivered_at - self.issued_at

    @property
    def sojourn(self) -> Optional[float]:
        """Response time: from :meth:`Client.issue` (arrival) to delivery,
        including the time the request queued behind earlier ones."""
        if self.enqueued_at is None or self.delivered_at is None:
            return None
        return self.delivered_at - self.enqueued_at


class Client(Process):
    """A front-end client of the three-tier application.

    Parameters
    ----------
    sim, name:
        Simulator and process name.
    app_server_names:
        All application servers; each incarnation first sends to the first
        entry, then to whichever server last answered a broadcast
        (``primary``).
    timing:
        Protocol timing; only the client back-off and re-broadcast intervals
        are used here.
    """

    def __init__(self, sim: Simulator, name: str, app_server_names: list[str],
                 timing: Optional[ProtocolTiming] = None):
        super().__init__(sim, name)
        if not app_server_names:
            raise ValueError("a client needs at least one application server")
        self.app_server_names = list(app_server_names)
        self.timing = timing if timing is not None else ProtocolTiming()

    # ------------------------------------------------------------------ issue

    def issue(self, request: Request) -> IssuedRequest:
        """Issue a request on behalf of the end user.

        Requests are processed one at a time (the paper's model); issuing
        while another request is in flight queues the new one behind it.  The
        client holds the returned handle only while the request is queued or
        in flight.  A down client refuses the request: it could neither send
        it nor keep it, since ``on_start`` starts each incarnation with an
        empty queue.
        """
        if not self.up:
            raise ProcessNotRunning(f"client {self.name} is down; cannot issue "
                                    f"request {request.request_id}")
        issued = IssuedRequest(request)
        issued.enqueued_at = self.now
        self._queue.append(issued)
        self.trace.record("client_issue", self.name, request_id=request.request_id,
                          operation=request.operation)
        if not self._worker_running:
            self._worker_running = True
            self.spawn(self._issue_loop(), name="client-issue")
        return issued

    # ---------------------------------------------------------------- protocol

    # A finished result's late duplicates (a broadcast's other answers, a
    # cleaner's) are dropped at delivery, as if lost.
    _stale_types = frozenset((msg.RESULT,))

    @property
    def _terminated(self) -> range:
        """The result identifiers this client is done with, delivered or
        retried: they rise through ``next_j``, so those below the one in
        flight, or below the next one while none is -- no state of its own."""
        next_j = self.disk.get("next_j", 1)
        return range(next_j - 1 if self._worker_running else next_j)

    def on_start(self, recovery: bool) -> None:
        # A recovered client does NOT resume in-flight requests: pending ones
        # died with the crash, and it cannot know whether the old request was
        # executed.  Re-issuing it under a fresh result identifier would risk
        # executing it twice -- the paper's guarantee for a crashed client is
        # at-most-once, nothing more.
        self._queue: deque[IssuedRequest] = deque()
        self._worker_running = False
        self.primary = self.app_server_names[0]

    def _issue_loop(self):
        while self._queue:
            issued = self._queue[0]
            yield from self._issue_one(issued)
            self._queue.popleft()
        self._worker_running = False

    def _issue_one(self, issued: IssuedRequest):
        """Figure 2: loop over intermediate results until one commits."""
        issued.issued_at = self.now
        request = issued.request
        disk = self.disk
        while True:
            j = disk.get("next_j", 1)
            disk.put("next_j", j + 1, forced=False)
            issued.attempts += 1
            if self.trace.wants("client_send"):
                self.trace.record("client_send", self.name, j=j,
                                  request_id=request.request_id, broadcast=False)
            self.send(self.primary, msg.request_message(request, j))
            keys = [(msg.RESULT, j)]
            reply = yield self.receive(keys, timeout=self.timing.client_backoff)
            if reply is TIMEOUT:
                # Figure 2, lines 5-7: back-off expired, send to all servers.
                if self.trace.wants("client_send"):
                    self.trace.record("client_send", self.name, j=j,
                                      request_id=request.request_id, broadcast=True)
                self.multicast(self.app_server_names, msg.request_message(request, j))
                reply = yield self.receive(keys, timeout=self.timing.client_rebroadcast)
                while reply is TIMEOUT:
                    # Keep the request alive under message loss; the paper's
                    # pseudo-code waits forever here and relies on reliable
                    # channels -- re-broadcasting is the practical equivalent.
                    self.multicast(self.app_server_names, msg.request_message(request, j))
                    reply = yield self.receive(keys, timeout=self.timing.client_rebroadcast)
                # Follow the server that answered; a TCP frame's sender is
                # unchecked, so only a known server may become the target.
                if reply.sender in self.app_server_names:
                    self.primary = reply.sender
            decision: Decision = reply["decision"]
            # Delivered or retried, ``j`` is finished: drop its duplicates.
            self.discard_buffered(j)
            if decision.outcome == COMMIT and decision.result is not None:
                issued.delivered_at = self.now
                self.trace.record("client_deliver", self.name, j=j,
                                  request_id=request.request_id,
                                  result_request_id=decision.result.request_id,
                                  computed_by=decision.result.computed_by,
                                  value=repr(decision.result.value))
                issued.future.resolve(decision.result)
                return
            issued.aborted_results.append(j)
            self.trace.record("client_retry", self.name, j=j,
                              request_id=request.request_id)

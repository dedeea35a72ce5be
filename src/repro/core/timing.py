"""Timing parameters of the protocol actors.

Two groups of knobs:

* :class:`DatabaseTiming` -- how long the database engine spends in each phase
  (transaction start, SQL work, prepare, commit, abort, transaction end).  The
  defaults are calibrated so that the *baseline* column of the paper's
  Figure 8 comes out of the simulator: start 3.4 ms, SQL 187 ms, commit
  18.6 ms (6.1 ms CPU + one 12.5 ms forced log write), end 3.4 ms.
* :class:`ProtocolTiming` -- protocol-level delays: the client's back-off
  period before re-sending a request to all application servers and the
  retransmission intervals used while waiting for database votes and
  acknowledgements (the cleaning thread has none: a suspicion or a claim wakes it).

All values are virtual milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class DatabaseTiming:
    """Per-phase processing cost at a database server."""

    start: float = 3.4
    sql: float = 187.0
    end: float = 3.4
    prepare_cpu: float = 6.5
    commit_cpu: float = 6.1
    abort_cpu: float = 1.0
    forced_write: float = 12.5

@dataclass
class ProtocolTiming:
    """Protocol-level timeouts and intervals."""

    client_backoff: float = 2_000.0
    """The client's back-off period before re-sending the request to *all*
    application servers (Figure 2, line 7).  The paper expects Internet
    clients, hence a generous default."""

    client_rebroadcast: float = 4_000.0
    """Interval at which an already-broadcast request is re-sent while the
    client is still waiting.  Keeps the client live under message loss; set
    very large to match the paper's pseudo-code literally."""

    decide_retry: float = 250.0
    """Retransmission interval of ``Decide`` while waiting for ``AckDecide``
    from every database server (the repeat loop of Figure 4's terminate())."""

    prepare_retry: float = 500.0
    """Retransmission interval of ``Prepare`` while waiting for votes."""

    execute_retry: float = 500.0
    """Retransmission interval of ``Execute`` while waiting for the business
    logic's reply from a database server."""

    fast_write_latency: float = 4.5
    """Latency charged per wo-register write by the *local* (ideal) register
    implementation; the consensus-backed implementation derives its latency
    from real message exchanges instead and ignores this value."""

"""Reproduction of *Implementing e-Transactions with Asynchronous Replication*.

This package re-implements, from scratch and on top of a deterministic
discrete-event simulator, the exactly-once transaction (e-Transaction) protocol
of Frolund and Guerraoui (DSN 2000) together with every substrate the paper
depends on:

* ``repro.sim`` -- discrete-event simulation kernel (virtual time, processes,
  crash/recovery, coroutine threads, tracing).
* ``repro.net`` -- message-passing network with latency, loss and partitions,
  and the versioned wire codec of the real runtime.
* ``repro.failure`` -- failure detectors (perfect, eventually perfect,
  timeout-based) and the scheduling of a run's faults.
* ``repro.consensus`` -- single-decree quorum consensus with a one-round-trip
  fast path for the default primary.
* ``repro.registers`` -- write-once registers built on consensus.
* ``repro.storage`` -- stable storage, write-ahead log, lock manager,
  transactional key-value store and an XA-style resource manager.
* ``repro.core`` -- the e-Transaction protocol itself (client, application
  server, database server) and an executable version of its specification.
* ``repro.baselines`` -- the comparison protocols (unreliable baseline,
  presumed-nothing 2PC, primary-backup replication).
* ``repro.workload`` -- bank-account and travel-booking workloads.
* ``repro.metrics`` -- latency-component accounting and communication-step
  counting used to regenerate the paper's figures.
* ``repro.experiments`` -- one harness per table/figure plus ablations.
* ``repro.api`` -- the unified scenario API: declarative :class:`Scenario`
  objects with a DSN string form, a protocol-driver registry, and
  ``run_scenario`` -- the single entry point every experiment, example and
  CLI command builds through.

Quickstart::

    from repro import api
    print(api.run_scenario("etx://a3.d1.c1?fd=heartbeat&seed=7").summary())
"""

from repro.version import __version__

__all__ = ["__version__"]

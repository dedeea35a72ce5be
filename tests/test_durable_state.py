"""What survives a crash: durable state on the process's device, nothing else.

``Process.crash`` is the only code that runs at a crash, and ``on_start``
builds every incarnation's volatile state.  So a process crashed and
recovered mid-run must hold exactly the volatile state it held as it first
started, while its device holds exactly what it held before the crash.  The
second half pins how many durable writes each tier makes per request: every
one passes ``StableStorage.write``, the device's one counter.
"""

from __future__ import annotations

import copy
from collections import deque
from types import MethodType

import pytest

from repro import api
from repro.consensus.synod import ConsensusHost
from repro.sim.process import Process, Thread, _Server, _Ticker
from repro.sim.scheduler import ScheduledEvent

#: What a crash leaves in memory on purpose: kernel counters a run reports, a
#: cache of event names, and the application server's interning cache of
#: claim values.
_KEPT = {"crash_count", "mailbox_peak", "shed_messages", "unhandled_messages",
         "_thread_ids", "_mailbox_seq", "_thread_names", "_claims"}


def _on_device(process: Process) -> set[int]:
    return {id(process.disk), *map(id, process.disk._data.values())}


def _norm(value, device: set[int]):
    """A comparable form of one attribute: device-held objects and
    collaborators by identity, containers by content, activity by name."""
    if id(value) in device:
        return "<device>"
    if value is None or isinstance(value, (bool, int, float, str, bytes, tuple, frozenset)):
        return value
    if isinstance(value, dict) and value and all(
            isinstance(item, Thread) for item in value.values()):
        return [_norm(item, device) for item in value.values()]  # keyed by thread id
    if isinstance(value, dict):
        return {key: _norm(item, device) for key, item in value.items()}
    if isinstance(value, (list, deque)):
        return [_norm(item, device) for item in value]
    if isinstance(value, set):
        return sorted(repr(_norm(item, device)) for item in value)
    if isinstance(value, MethodType):
        return ("method", value.__func__.__qualname__)
    if isinstance(value, Thread):
        return ("thread", value.name, value.alive)
    if isinstance(value, (_Server, _Ticker)):
        return ("server", value.name)
    if isinstance(value, ScheduledEvent):
        return ("timer", value.name)
    if isinstance(value, ConsensusHost):
        return ("consensus", _volatile(value, device))
    return ("object", id(value))  # a collaborator: the same one after recovery


def _volatile(obj, device: set[int]) -> dict:
    return {name: _norm(value, device) for name, value in vars(obj).items()
            if name not in _KEPT}


# (DSN, process, the event of the first request that proves the run is mid-way)
CASES = [
    ("etx://a3.d1.c1?seed=1", "a1", ("as_compute", "a1")),
    ("etx://a3.d1.c1?seed=1&fd=heartbeat", "a1", ("as_compute", "a1")),
    ("etx://a3.d1.c1?seed=1", "a2", ("consensus_decide", "a2")),
    ("etx://a3.d1.c1?seed=1", "d1", ("db_vote", "d1")),
    ("etx://a3.d1.c1?seed=1", "c1", ("client_send", "c1")),
    ("2pc://a1.d1.c1?seed=1&workload=bank", "a1", ("as_compute", "a1")),
    ("pb://a2.d1.c1?seed=1", "a1", ("as_compute", "a1")),
    ("pb://a2.d1.c1?seed=1", "a2", ("as_compute", "a1")),
    ("baseline://a1.d1.c1?seed=1", "a1", ("as_compute", "a1")),
    ("baseline://a1.d1.c1?seed=1", "d1", ("db_execute", "d1")),
]


@pytest.mark.parametrize("dsn, name, busy", CASES,
                         ids=[f"{dsn.split(':')[0]}-{name}{'-hb' if 'heartbeat' in dsn else ''}"
                              for dsn, name, _ in CASES])
def test_a_recovered_process_equals_a_fresh_one(dsn, name, busy):
    system = api.build(api.Scenario.from_dsn(dsn))
    process = {**system.app_servers, **system.db_servers, **system.clients}[name]
    fresh = _volatile(process, _on_device(process))
    for _ in range(2):
        system.issue(system.standard_request())
    # Mid-run: the first request is in flight, the second queued at the client.
    assert system.sim.run_until(lambda: system.trace.count(*busy) > 0, until=10_000.0)
    device = copy.deepcopy(process.disk._data)
    # What a subclass changed while it ran must be built by on_start: the
    # recovered process holds a new one (the kernel clears its own in place).
    kernel = set(vars(Process(system.sim, "bare")))
    changed = {attr: value for attr, value in vars(process).items()
               if attr not in kernel | _KEPT and isinstance(value, (dict, list, set, deque))
               and _norm(value, _on_device(process)) != fresh[attr]}
    process.crash()
    process.recover()
    assert process.disk._data == device
    assert _volatile(process, _on_device(process)) == fresh
    for attr, value in changed.items():
        assert getattr(process, attr) is not value, f"{attr} outlived the crash"
    if name == "a1" and dsn.startswith("etx"):
        assert device["consensus.decisions"]  # the claim it wrote is durable


def _writes(processes) -> tuple[int, int]:
    return (sum(p.disk.stats.forced_writes for p in processes),
            sum(p.disk.stats.lazy_writes for p in processes))


@pytest.mark.parametrize("dsn, app, db, client", [
    # AR: per request, 2 round-counter writes at the owner, 6 accepts and 6
    # learned decisions across the three servers -- lazy, free -- and the
    # database's forced prepare and commit records.
    ("etx://a3.d1.c1?seed=1", (0, 14), (2, 0), (0, 1)),
    # 2PC: the coordinator's forced start and outcome records on top.
    ("2pc://a1.d1.c1?seed=1&workload=bank&timing=paper", (2, 0), (2, 0), (0, 1)),
])
def test_durable_writes_per_request_per_tier(dsn, app, db, client):
    """(forced, lazy) device writes per request, counted from after build."""
    system = api.build(api.Scenario.from_dsn(dsn))
    tiers = (system.app_servers.values(), system.db_servers.values(),
             system.clients.values())
    before = [_writes(tier) for tier in tiers]
    result = api.drive(system, requests=2)
    assert result.delivered == 2 and result.spec.ok
    per_request = [tuple((n - m) / 2 for n, m in zip(_writes(tier), start))
                   for tier, start in zip(tiers, before)]
    assert per_request == [app, db, client]

"""Acceptance tests for the asyncio/TCP runtime backend.

The issue's bar: the *unmodified* protocol generators must complete a
multi-client closed-loop run over real localhost TCP sockets, the trace-bus
events of that run must drive the existing online :class:`SpecMonitor` to a
clean report, and an injected middle-tier crash must be survived with zero
safety violations -- all selected purely by ``runtime=asyncio`` in the DSN.

Wall-clock budget: ``pace`` rescales protocol timers, so one request
(dominated by the 187 virtual ms of SQL time) costs about
``187 * pace`` wall milliseconds; at ``pace=0.05`` the whole module runs in
a few wall seconds while virtual timers keep their paper-true ratios.
"""

import asyncio
import gc
import select
import socket
from dataclasses import fields

import pytest

from repro import api
from repro.net.message import Message, WireFormatError
from repro.runtime import loop as loop_module, tcp
from repro.runtime.endpoints import EndpointMap
from repro.runtime.loop import AsyncioKernel
from repro.runtime.tcp import TcpTransport
from repro.sim.errors import SimulationLimitExceeded
from repro.sim.process import Process
from repro.workload.generator import RunStatistics

PACE = 0.05  # 20x faster than wall time; see module docstring
SETTLE = 400.0  # virtual ms of cleanup after the last delivery


def asyncio_dsn(base: str) -> str:
    separator = "&" if "?" in base else "?"
    return f"{base}{separator}runtime=asyncio&pace={PACE}"


# ------------------------------------------------------------- closed loop


def test_multi_client_etx_over_real_tcp():
    result = api.run_scenario(asyncio_dsn("etx://a3.d1.c2?seed=7"),
                              requests=2, settle=SETTLE)
    assert result.delivered == result.requested == 4
    # The same online monitor that checks simulated runs judged this one,
    # fed by the same trace bus -- and it saw a complete, clean execution.
    assert result.spec.ok, result.spec.summary()
    assert set(result.spec.checked_properties) >= {"A.1", "V.1", "S.1"}
    assert result.ok


def test_the_network_really_is_tcp():
    scenario = api.Scenario.from_dsn(asyncio_dsn("etx://a2.d1.c1"))
    system = api.build(scenario)
    try:
        assert isinstance(system.network, TcpTransport)
        assert system.sim.realtime
        issued = system.run_request(system.standard_request())
        assert issued.delivered
        # Every hop crossed a socket: the transport counts frames it wrote,
        # and an etx request takes several protocol messages.
        assert system.stats.delivered >= 5
    finally:
        system.close()


def test_middle_tier_crash_survived_over_tcp():
    # Crash one application server mid-protocol and bring it back later: the
    # remaining replicas must finish the transaction (the paper's headline
    # fail-over), with the spec monitor confirming zero safety violations.
    result = api.run_scenario(
        asyncio_dsn("etx://a3.d1.c1?seed=3&fault=crash@40:a1&fault=recover@2000:a1"),
        requests=1, settle=SETTLE)
    assert result.delivered == result.requested == 1
    assert result.spec.ok, result.spec.summary()


def test_2pc_baseline_runs_under_asyncio_too():
    # The runtime seam is protocol-agnostic: the comparison baselines run
    # over TCP through the very same deployment scaffolding.
    result = api.run_scenario(asyncio_dsn("2pc://a1.d2.c1?seed=5"),
                              requests=1, settle=SETTLE)
    assert result.delivered == result.requested == 1
    assert result.spec.ok, result.spec.summary()


# ------------------------------------------------------------- stats parity


def test_run_statistics_schema_matches_the_simulator():
    # Reports from the two runtimes must stay interchangeable: same type,
    # same fields, same per-client/per-database breakdown keys -- so sweep
    # tables, soak reports and the CLI summary need no per-runtime code.
    sim = api.run_scenario("etx://a2.d1.c2?seed=11", requests=1)
    real = api.run_scenario(asyncio_dsn("etx://a2.d1.c2?seed=11"),
                            requests=1, settle=SETTLE)
    assert type(sim.statistics) is type(real.statistics) is RunStatistics
    schema = [f.name for f in fields(RunStatistics)]
    assert [f.name for f in fields(real.statistics)] == schema
    assert sim.statistics.by_client.keys() == real.statistics.by_client.keys()
    assert sim.statistics.by_database.keys() == real.statistics.by_database.keys()
    assert sim.delivered == real.delivered == 2
    for stats in (sim.statistics, real.statistics):
        assert stats.count == 2
        assert stats.elapsed > 0
        assert stats.mean_latency > 0
        assert all(leaf.count == 1 for leaf in stats.by_client.values())


# ------------------------------------------------------------ failure modes


def test_closing_is_idempotent_and_frees_the_port():
    scenario = api.Scenario.from_dsn(asyncio_dsn("etx://a1.d1.c1"))
    system = api.build(scenario)
    system.close()
    system.close()  # second close must be a no-op, not an error


def test_a_send_during_teardown_spawns_nothing(capfd):
    # Heartbeat timers keep firing inside ``AsyncioKernel.close()``'s own loop
    # turns, after the transport closed and the kernel snapshot its tasks; a
    # connect task spawned then was destroyed pending, with a warning each.
    system = api.build(api.Scenario.from_dsn(asyncio_dsn("etx://a3.d1.c1?seed=7&fd=heartbeat")))
    try:
        assert system.run_request(system.standard_request()).delivered
    finally:
        system.close()
    kernel, network = system.sim, system.network
    assert all(task.done() for task in kernel._tasks)
    assert all(link.task is None for link in network._links.values())
    sent = network.stats.sent
    network.send("a1", "a2", Message("Ping", payload={"n": 1}))   # counted, then dropped
    assert network.stats.sent == sent + 1
    assert all(link.task is None and not link.pending for link in network._links.values())
    del system, kernel, network
    gc.collect()
    assert "Task was destroyed" not in capfd.readouterr().err


def test_an_undeclared_type_fails_at_the_sender():
    listener = listening_socket()
    kernel, network, source = lone_sender(listener.getsockname()[1])
    try:
        with pytest.raises(WireFormatError, match="fits no declared wire schema"):
            source.send("peer", Message("Teapot", payload={"n": 1}))
        assert not network._links    # nothing was framed, queued or connected
    finally:
        network.close()
        kernel.close()
        listener.close()


def test_runs_on_the_same_loop_after_an_earlier_system_closed():
    # Two back-to-back asyncio systems in one OS process: each owns a
    # private event loop, so the second is unaffected by the first's close.
    for seed in (1, 2):
        result = api.run_scenario(asyncio_dsn(f"etx://a1.d1.c1?seed={seed}"),
                                  requests=1, settle=SETTLE)
        assert result.ok, result.spec.summary()


def test_hang_detection_budget_is_enforced():
    kernel = AsyncioKernel(seed=0, pace=1.0, max_wall=0.05)
    try:
        with pytest.raises(SimulationLimitExceeded, match="budget"):
            kernel.run_until(lambda: False, until=10_000_000.0)
    finally:
        kernel.close()


# ------------------------------------------------- waiting without polling
#
# None of these reads a clock: they count what the loop was asked to do.


def counting(target, name: str) -> list[int]:
    """Wrap ``target.name`` so that every entry bumps the returned counter."""
    calls = [0]
    original = getattr(target, name)

    def wrapper(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    setattr(target, name, wrapper)
    return calls


def test_an_idle_wait_sleeps_instead_of_polling():
    kernel = AsyncioKernel(seed=0, pace=PACE)
    try:
        selects = counting(kernel._loop._selector, "select")
        # 2000 virtual ms = 100 wall ms with nothing to do: the 2 ms poll this
        # replaced entered select about fifty times.
        assert kernel.run_until(lambda: False, until=kernel.now + 2000.0) is False
        assert selects[0] <= 5
    finally:
        kernel.close()


def test_the_horizon_returns_what_the_predicate_says_then():
    kernel = AsyncioKernel(seed=0, pace=PACE)
    try:
        horizon = kernel.now + 40.0
        # No kernel event and no delivery ever flips this predicate; the
        # horizon itself evaluates it one last time.
        assert kernel.run_until(lambda: kernel.now >= horizon, until=horizon) is True
        assert kernel._parked is None
    finally:
        kernel.close()


def test_a_delivery_ends_the_wait_within_one_loop_pass():
    system = api.build(api.Scenario.from_dsn(asyncio_dsn("etx://a2.d1.c1")))
    try:
        system.run(until=None)   # bind the listeners, so the run below only waits
        passes = counting(system.sim._loop, "_run_once")
        resolved_in_pass: list[int] = []
        # The only thing that resolves the request is the Result frame the
        # client's connection delivers: no kernel timer is involved.
        issued = system.issue(system.standard_request())
        issued.future.on_resolve(lambda _result: resolved_in_pass.append(passes[0]))
        assert system.sim.run_until(lambda: issued.delivered, until=60_000.0)
        assert passes[0] - resolved_in_pass[0] <= 1
    finally:
        system.close()


def test_steady_state_runs_no_native_task():
    scenario = api.Scenario.from_dsn(asyncio_dsn("etx://a3.d1.c2?seed=7"))
    system = api.build(scenario)
    try:
        statistics = api.load_generator_for(scenario).run(system, 2)
        assert statistics.count == 4
        # Every link connected once and its connect task is gone; nothing
        # reads, writes or polls from a coroutine.
        assert len(system.sim._tasks) == 0
        assert all(link.task is None and not link.pending
                   for link in system.network._links.values())
    finally:
        system.close()


# --------------------------------------------------------- punctual selector


class FakeEpoll:
    """Stands in for the ``select.epoll`` object inside an ``EpollSelector``."""

    def __init__(self, descriptor: int, ready: list):
        self.descriptor = descriptor
        self.ready = ready
        self.timeouts: list[float] = []

    def fileno(self) -> int:
        return self.descriptor

    def poll(self, timeout, maxevents):
        self.timeouts.append(timeout)
        return self.ready

    def close(self) -> None:
        pass


@pytest.fixture
def punctual(monkeypatch):
    """A ``_PunctualSelector`` over a fake epoll and a fake ``select.select``.

    Yields the selector, the fake epoll, the timeouts ``select.select`` was
    given, the descriptors it reports readable (empty: it times out) and the
    epoll event of the one registered socket.
    """
    selector = loop_module._PunctualSelector()
    ours, theirs = socket.socketpair()
    selector.register(ours, loop_module.selectors.EVENT_READ)
    selector._selector.close()
    epoll = selector._selector = FakeEpoll(7, [])
    select_calls: list[float] = []
    readable: list[int] = []

    def fake_select(rlist, wlist, xlist, timeout):
        assert list(rlist) == [epoll.descriptor] and not wlist and not xlist
        select_calls.append(timeout)
        return list(readable), [], []

    monkeypatch.setattr(select, "select", fake_select)
    yield selector, epoll, select_calls, readable, (ours.fileno(), select.EPOLLIN)
    ours.close()
    theirs.close()


def test_selector_splits_a_timeout_into_whole_and_sub_milliseconds(punctual):
    selector, epoll, select_calls, _readable, _event = punctual
    assert selector.select(0.0104) == []
    assert epoll.timeouts == [pytest.approx(0.010)]
    assert select_calls == [pytest.approx(0.0004)]   # and no closing epoll(0)
    # Float products such as 9 * 1e-3 * 1e3 > 9 must not buy an extra millisecond.
    for whole_ms in (9, 13, 18, 26):
        epoll.timeouts.clear()
        selector.select(whole_ms * 1e-3 + 0.0002)
        assert epoll.timeouts == [pytest.approx(whole_ms * 1e-3)]
    # Under a millisecond there is no epoll phase at all.
    epoll.timeouts.clear()
    del select_calls[:]
    assert selector.select(0.0003) == []
    assert epoll.timeouts == [] and select_calls == [pytest.approx(0.0003)]


def test_selector_fetches_events_once_the_short_sleep_reports_them(punctual):
    selector, epoll, select_calls, readable, _event = punctual
    readable.append(epoll.descriptor)
    assert selector.select(0.0104) == []      # epoll(10 ms), select says ready, epoll(0)
    assert epoll.timeouts == [pytest.approx(0.010), 0]
    assert len(select_calls) == 1


def test_selector_returns_from_the_first_phase_when_a_socket_is_ready(punctual):
    selector, epoll, select_calls, _readable, event = punctual
    epoll.ready = [event]
    (key, events), = selector.select(0.0104)
    assert key.fd == event[0] and events
    assert epoll.timeouts == [pytest.approx(0.010)]
    assert select_calls == []


def test_selector_passes_none_zero_and_large_descriptors_through(punctual):
    selector, epoll, select_calls, _readable, _event = punctual
    selector.select(None)
    selector.select(0)
    assert epoll.timeouts == [-1, 0]
    # select.select cannot watch a descriptor >= FD_SETSIZE: plain epoll
    # behaviour (rounded up to the millisecond) instead of a ValueError.
    epoll.descriptor = 4096
    selector.select(0.0104)
    assert epoll.timeouts[-1] == pytest.approx(0.011)
    assert select_calls == []


# ------------------------------------------------------------ bounded links


def lone_sender(peer_port: int):
    """A kernel + transport hosting ``src`` only; ``peer`` lives at ``peer_port``."""
    kernel = AsyncioKernel(seed=0, pace=PACE, max_wall=30.0)
    endpoints = EndpointMap({"src": ("127.0.0.1", 0), "peer": ("127.0.0.1", peer_port)})
    network = TcpTransport(kernel, endpoints, local_names={"src"})
    source = network.register(Process(kernel, "src"))
    network.register(Process(kernel, "peer"))
    return kernel, network, source


def listening_socket(port: int = 0):
    listener = socket.socket()
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind(("127.0.0.1", port))
    listener.listen()
    return listener


def test_a_peer_that_never_reads_is_shed_not_buffered():
    listener = listening_socket()     # accepts in the kernel's backlog, never reads
    kernel, network, source = lone_sender(listener.getsockname()[1])
    try:
        blob = "x" * 65_536
        link_peak = [0]

        def flood(frames: int) -> None:
            for _ in range(frames):
                source.send("peer", Message("Blob", payload={"blob": blob}))
                link = network._links["peer"]
                waiting = len(link.pending) + (
                    link.transport.get_write_buffer_size() if link.transport else 0)
                link_peak[0] = max(link_peak[0], waiting)

        # While the link connects, sends wait in ``pending``: 8 MiB offered.
        flood(128)
        shed_connecting = network.stats.dropped_overload
        assert shed_connecting > 0
        link = network._links["peer"]
        kernel._loop.run_until_complete(asyncio.wait_for(link.task, timeout=30.0))
        assert link.transport is not None and not link.pending
        # Connected to a peer that does not read: the socket buffers fill, then
        # the transport's write buffer up to the bound, then frames are shed --
        # from inside kernel callbacks, which therefore never block.
        rounds = [0]

        def keep_flooding() -> None:
            flood(64)
            rounds[0] += 1
            if rounds[0] < 8:
                kernel.schedule(1.0, keep_flooding)

        kernel.schedule(0.0, keep_flooding)
        assert kernel.run_until(lambda: rounds[0] == 8, until=kernel.now + 200_000.0)
        assert network.stats.dropped_overload > shed_connecting
        assert link_peak[0] <= tcp._LINK_LIMIT
        shed = kernel.trace.select("overload", process="src")
        assert len(shed) == network.stats.dropped_overload
        assert shed[-1].data["destination"] == "peer"
        assert shed[-1].data["backlog"] + len(blob) > tcp._LINK_LIMIT
    finally:
        network.close()
        kernel.close()
        listener.close()


def test_a_dead_peer_drops_everything_queued_after_one_timeout(monkeypatch):
    monkeypatch.setattr(tcp, "_CONNECT_TIMEOUT", 0.15)
    monkeypatch.setattr(tcp, "_RECONNECT_INTERVAL", 0.02)
    probe = listening_socket()
    port = probe.getsockname()[1]
    probe.close()                     # nobody listens on ``port`` now
    kernel, network, source = lone_sender(port)
    try:
        for n in range(5):
            source.send("peer", Message("Ping", payload={"n": n}))
        link = network._links["peer"]
        attempt = link.task
        kernel._loop.run_until_complete(asyncio.wait_for(attempt, timeout=30.0))
        # One give-up dropped all five; the pump this replaced dropped one
        # frame per time-out.
        assert network.stats.dropped_dest_down == 5
        assert link.task is None and not link.pending and link.transport is None

        # The peer comes up: the next send reconnects, lazily.
        listener = listening_socket(port)
        try:
            late = Message("Ping", payload={"n": 5})
            source.send("peer", late)
            assert link.task is not None and link.task is not attempt
            kernel._loop.run_until_complete(asyncio.wait_for(link.task, timeout=30.0))
            connection, _address = listener.accept()
            connection.settimeout(30.0)
            body = late.to_wire()
            assert connection.recv(65_536) == tcp._FRAME_HEADER.pack(len(body)) + body
            connection.close()
            assert network.stats.dropped_dest_down == 5
        finally:
            listener.close()
    finally:
        network.close()
        kernel.close()

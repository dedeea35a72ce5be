"""Tests for the client protocol (Figure 2) against a scripted application server."""

import os

import pytest

from repro import api
from repro.campaign.artifacts import Counterexample
from repro.core import messages as msg
from repro.core.client import Client
from repro.core.timing import ProtocolTiming
from repro.core.types import ABORT, COMMIT, Decision, Request, Result
from repro.net.network import Network
from repro.sim.process import Process
from repro.sim.scheduler import Simulator
from repro.sim.waits import ANY
from repro.workload.generator import ClosedLoop

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "corpus")


class ScriptedAppServer(Process):
    """Replies to client requests according to a scripted list of outcomes."""

    def __init__(self, sim, name, script):
        super().__init__(sim, name)
        self.script = list(script)  # outcome per incoming request ("commit"/"abort"/"ignore")
        self.seen = []

    def on_start(self, recovery):
        self.spawn(self._serve(), name="scripted")

    def _serve(self):
        while True:
            message = yield self.receive([(msg.REQUEST, ANY)])
            j = message["j"]
            request = message["request"]
            self.seen.append((message.sender, j))
            action = self.script.pop(0) if self.script else "commit"
            if action == "ignore":
                continue
            if action == "commit":
                decision = Decision(Result({"ok": True}, request.request_id, self.name), COMMIT)
            else:
                decision = Decision(None, ABORT)
            self.send(message.sender, msg.result_message(j, decision))


def build(script, timing=None, servers=("a1", "a2", "a3")):
    sim = Simulator(seed=0)
    network = Network(sim)
    app_servers = []
    for name in servers:
        server = ScriptedAppServer(sim, name, script if name == "a1" else ["commit"] * 10)
        network.register(server)
        server.start()
        app_servers.append(server)
    client = Client(sim, "c1", list(servers), timing=timing or ProtocolTiming())
    network.register(client)
    client.start()
    return sim, network, client, app_servers


def test_commit_on_first_try_delivers_result():
    sim, network, client, servers = build(script=["commit"])
    issued = client.issue(Request("pay", {"amount": 1}))
    sim.run_until(lambda: issued.delivered, until=100_000.0)
    assert issued.delivered
    assert issued.attempts == 1
    assert issued.aborted_results == []
    assert issued.result.value == {"ok": True}
    assert issued.latency is not None and issued.latency > 0


def test_aborted_result_triggers_retry_with_next_j():
    sim, network, client, servers = build(script=["abort", "abort", "commit"])
    issued = client.issue(Request("pay", {}))
    sim.run_until(lambda: issued.delivered, until=100_000.0)
    assert issued.delivered
    assert issued.attempts == 3
    assert issued.aborted_results == [1, 2]
    js = [j for _, j in servers[0].seen]
    assert js == [1, 2, 3]  # a fresh result identifier per attempt


def test_backoff_broadcasts_to_all_servers():
    timing = ProtocolTiming(client_backoff=50.0, client_rebroadcast=50.0)
    sim, network, client, servers = build(script=["ignore", "commit"], timing=timing)
    issued = client.issue(Request("pay", {}))
    sim.run_until(lambda: issued.delivered, until=100_000.0)
    assert issued.delivered
    broadcast_events = sim.trace.select("client_send", "c1", broadcast=True)
    assert len(broadcast_events) >= 1
    # The other servers saw the broadcast for the same j.
    assert any(j == 1 for _, j in servers[1].seen)


def test_client_delivers_exactly_once_even_with_duplicate_results():
    class DuplicatingServer(ScriptedAppServer):
        def _serve(self):
            while True:
                message = yield self.receive([(msg.REQUEST, ANY)])
                j = message["j"]
                request = message["request"]
                decision = Decision(Result({"ok": 1}, request.request_id, self.name), COMMIT)
                for _ in range(3):
                    self.send(message.sender, msg.result_message(j, decision))

    sim = Simulator(seed=0)
    network = Network(sim)
    server = DuplicatingServer(sim, "a1", [])
    network.register(server)
    server.start()
    client = Client(sim, "c1", ["a1"])
    network.register(client)
    client.start()
    issued = client.issue(Request("pay", {}))
    sim.run_until(lambda: issued.delivered, until=100_000.0)
    sim.run(until=sim.now + 1_000.0)
    assert issued.delivered
    assert sim.trace.count("client_deliver", "c1") == 1


def test_late_duplicates_of_an_aborted_result_are_dropped():
    """A client is done with a ``j`` it retried as much as with one it
    delivered: neither leaves a duplicate ``Result`` in its mailbox."""
    class DuplicatingServer(ScriptedAppServer):
        def _serve(self):
            while True:
                message = yield self.receive([(msg.REQUEST, ANY)])
                j = message["j"]
                request = message["request"]
                decision = Decision(None, ABORT) if j == 1 else \
                    Decision(Result({"ok": 1}, request.request_id, self.name), COMMIT)
                for delay in (0.0, 5_000.0, 5_000.0):
                    yield self.sleep(delay)
                    self.send(message.sender, msg.result_message(j, decision))

    sim = Simulator(seed=0)
    network = Network(sim)
    server = DuplicatingServer(sim, "a1", [])
    network.register(server)
    server.start()
    client = Client(sim, "c1", ["a1"])
    network.register(client)
    client.start()
    issued = client.issue(Request("pay", {}))
    sim.run(until=100_000.0)
    assert issued.aborted_results == [1] and issued.delivered
    assert client.mailbox_size == 0


FAILOVER_HB = ("etx://a3.d2.c16?rate=4&arrival=uniform&fd=heartbeat&workload=bank"
               "&placement=hash&xshard=0.2&trace=ring:4096&faults=crash_for@20000:d1:1500,"
               "false_suspicion@40000:a2:a1:300,crash_for@60000:a2:3000,"
               "partition@80000:a1|a2~a3~d1~d2,heal@81000,crash@110000:a1&seed=5")


def _fail_over_systems():
    system = api.build(api.Scenario.from_dsn(FAILOVER_HB))
    api.drive(system, 40)
    yield system
    for number in (1, 2, 3):
        path = os.path.join(CORPUS, f"etx-certificate-{number}.json")
        artifact = Counterexample.load(path)
        system = api.build(artifact.scenario(CORPUS))
        api.drive(system, artifact.requests, horizon_per_request=artifact.horizon,
                  settle=artifact.settle, check_termination=True)
        yield system


def test_no_result_stays_buffered_at_a_client_after_fail_overs():
    """Fail-overs answer one ``j`` from several servers (a broadcast, a
    cleaner): every late duplicate is dropped, whatever became of the ``j``."""
    for system in _fail_over_systems():
        assert {client.name: client.mailbox_size for client in system.clients.values()
                if client.up and client.mailbox_size} == {}


def test_requests_are_processed_one_at_a_time_in_order():
    sim, network, client, servers = build(script=["commit"] * 5)
    first = client.issue(Request("op-1", {}))
    second = client.issue(Request("op-2", {}))
    sim.run_until(lambda: second.delivered, until=200_000.0)
    assert first.delivered and second.delivered
    assert first.delivered_at <= second.delivered_at
    delivered = [event.get("request_id") for event in sim.trace.select("client_deliver", "c1")]
    assert delivered == [first.request.request_id, second.request.request_id]
    assert [first.result.request_id, second.result.request_id] == delivered


def test_result_identifiers_are_never_reused_across_requests():
    sim, network, client, servers = build(script=["abort", "commit", "commit"])
    first = client.issue(Request("op-1", {}))
    second = client.issue(Request("op-2", {}))
    sim.run_until(lambda: second.delivered, until=200_000.0)
    js = [j for _, j in servers[0].seen]
    assert js == sorted(js)
    assert len(js) == len(set(js))


def test_crashed_client_stops_and_does_not_deliver():
    timing = ProtocolTiming(client_backoff=100.0, client_rebroadcast=100.0)
    sim, network, client, servers = build(script=["ignore", "ignore", "ignore", "ignore"],
                                          timing=timing)
    issued = client.issue(Request("pay", {}))
    sim.schedule(30.0, client.crash)
    sim.run(until=5_000.0)
    assert not issued.delivered
    # A crashed client sends nothing further.
    sends_after_crash = [e for e in sim.trace.select("client_send", "c1") if e.time > 30.0]
    assert sends_after_crash == []


def test_client_requires_servers_and_valid_primary():
    sim = Simulator()
    with pytest.raises(ValueError):
        Client(sim, "c1", [])


PRIMARY_CRASH = "etx://a3.d1.c2?seed=3&workload=bank&timing=paper&fault=crash@600:a1"


def test_a_client_follows_the_server_that_answered_its_broadcast():
    """a1 dies for good: each client waits out one back-off, and the server
    that answers its broadcast becomes its primary, which then serves every
    later result at the first send."""
    system = api.build(api.Scenario.from_dsn(PRIMARY_CRASH))
    report = api.drive(system, 10)
    trace = system.trace
    for client in system.clients.values():
        (broadcast,) = trace.select("client_send", client.name, broadcast=True)
        later = [event.get("computed_by") for event in trace.select("client_deliver", client.name)
                 if event.time > broadcast.time]
        assert later and set(later) == {client.primary}, client.name
    assert report.ok, report.summary()


def test_a_reply_from_an_unknown_sender_does_not_move_the_primary():
    """Over TCP a frame's sender is unchecked: a ``Result`` that answers the
    broadcast from outside the server list is delivered, but the client keeps
    sending to a known server."""
    timing = ProtocolTiming(client_backoff=50.0, client_rebroadcast=50.0)
    sim, network, client, servers = build(script=["ignore"] * 10, timing=timing,
                                          servers=("a1",))
    stranger = ScriptedAppServer(sim, "x9", [])
    network.register(stranger)
    stranger.start()
    issued = client.issue(Request("pay", {}))
    decision = Decision(Result({"ok": True}, issued.request.request_id, "x9"), COMMIT)
    sim.schedule(75.0, lambda: stranger.send("c1", msg.result_message(1, decision)))
    sim.run_until(lambda: issued.delivered, until=1_000.0)
    assert issued.delivered and sim.trace.count("client_send", "c1", broadcast=True) == 1
    assert client.primary == "a1"


class _OneClientStub:
    """What a load generator drives: one client in front of scripted servers."""

    def __init__(self, script):
        self.sim, _network, client, _servers = build(script=script, servers=("a1",))
        self.clients = {"c1": client}
        self.db_servers = {}
        self._made = 0

    def standard_request(self):
        self._made += 1
        return Request(f"op-{self._made}", {})

    def issue(self, request, client):
        return self.clients[client].issue(request)

    def saturation_stats(self):
        return {}


def test_a_crashed_clients_requests_count_as_undelivered_with_their_aborts():
    """Three planned requests: the first delivers, the second crashes with its
    client after two aborted results, the third is never issued."""
    deployment = _OneClientStub(["commit", "abort", "abort"] + ["ignore"] * 100)
    client = deployment.clients["c1"]
    deployment.sim.schedule(20_000.0, client.crash)
    stats = ClosedLoop().run(deployment, 3)
    assert not client.up
    assert stats.count == 1 and stats.attempts == [1]
    assert stats.undelivered == 2
    assert stats.aborted_results == 2
    assert stats.by_client["c1"].undelivered == 2

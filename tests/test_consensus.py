"""Tests for the single-decree consensus among application servers."""

import pytest

from repro.consensus.synod import ConsensusHost
from repro.net.latency import FixedLatency, PerLinkLatency
from repro.net.network import Network
from repro.sim.process import Process
from repro.sim.scheduler import Simulator


class ConsensusServer(Process):
    """A process whose every incarnation installs its consensus host, as an
    application server's does."""

    host = None

    def on_start(self, recovery):
        self.host.install()


def build_group(n=3, seed=0, fast_path_owner="a1", loss=0.0, latency=None):
    """Create ``n`` application-server processes each hosting consensus."""
    sim = Simulator(seed=seed)
    network = Network(sim, latency=latency, loss_probability=loss)
    names = [f"a{i + 1}" for i in range(n)]
    hosts = {}
    for name in names:
        process = network.register(ConsensusServer(sim, name))
        process.host = host = ConsensusHost(process, names, fast_path_owner=fast_path_owner)
        process.start()
        hosts[name] = host
    return sim, network, hosts


def decided_everywhere(hosts, instance):
    values = {name: host.decision(instance) for name, host in hosts.items()
              if host.process.up}
    return values


def test_single_proposer_fast_path_decides_own_value():
    sim, network, hosts = build_group()
    future = hosts["a1"].propose("x", "value-from-a1")
    assert sim.run_until(lambda: future.resolved, until=1_000.0)
    assert future.value == "value-from-a1"
    sim.run(until=200.0)
    values = decided_everywhere(hosts, "x")
    assert set(values.values()) == {"value-from-a1"}


def test_fast_path_takes_one_round_trip():
    sim, network, hosts = build_group()
    future = hosts["a1"].propose("x", 42)
    sim.run_until(lambda: future.resolved, until=1_000.0)
    # Decision at the proposer after accept (1 hop) + accepted (1 hop): one
    # round trip of the 1.75 ms default link latency.
    assert sim.now == pytest.approx(3.5, abs=0.2)


def spy_kinds(network):
    """Record the ``kind`` of every consensus message put on the wire."""
    kinds = []
    real_send = network.send

    def spy(source, destination, message):
        assert source != destination
        kinds.append(message["kind"])
        real_send(source, destination, message)

    network.send = spy
    return kinds


def test_fast_path_message_budget():
    """The proposer's own acceptor and learner cost no message, and the peers
    learn from the ``accept`` itself: 2 ``accept`` out, 2 ``accepted`` back,
    no ``decide``, and nobody mails itself."""
    sim, network, hosts = build_group()
    kinds = spy_kinds(network)
    hosts["a1"].propose("x", 42)
    sim.run(until=200.0)
    assert sorted(kinds) == ["accept"] * 2 + ["accepted"] * 2
    assert network.stats.by_type_sent == {"Consensus": 4}
    assert {host.decision("x") for host in hosts.values()} == {42}


def test_peer_learns_as_the_accept_arrives():
    """One hop: a peer that takes the owner's ``accept`` has decided, a hop
    before the proposer hears ``accepted``."""
    sim, network, hosts = build_group()
    future = hosts["a1"].propose("x", 42)
    sim.run_until(lambda: hosts["a2"].decision("x") == hosts["a3"].decision("x") == 42,
                  until=100.0)
    assert sim.now == pytest.approx(1.75)
    assert not future.resolved and hosts["a1"].decision("x") is None
    sim.run_until(lambda: future.resolved, until=100.0)
    assert sim.now == pytest.approx(3.5)


@pytest.mark.parametrize("nack_delay", [0.5, 10.0])
def test_refusing_peer_is_sent_decide(nack_delay):
    """``a3`` has promised a higher ballot, so it refuses the owner's ballot-0
    ``accept`` and cannot learn alone; the proposer sends it ``decide``
    whether the nack lands before the decision (recorded on the attempt) or
    after it (answered on arrival)."""
    latency = PerLinkLatency(FixedLatency(1.75), {("a3", "a1"): FixedLatency(nack_delay)})
    sim, network, hosts = build_group(latency=latency)
    hosts["a3"]._acceptor("x").promised = (5, 2)
    kinds = spy_kinds(network)
    future = hosts["a1"].propose("x", 42)
    sim.run(until=200.0)
    assert future.value == 42
    assert {host.decision("x") for host in hosts.values()} == {42}
    assert sorted(kinds) == ["accept"] * 2 + ["accepted", "decide", "nack_accept"]


def test_own_acceptor_refusal_puts_no_accept_on_the_wire():
    """Peers hear an ``accept`` only after the proposer's own acceptor took
    it, which is what lets them learn on arrival."""
    sim, network, hosts = build_group()
    hosts["a1"]._acceptor("x").promised = (3, 1)
    kinds = spy_kinds(network)
    hosts["a1"].propose("x", 42)
    assert kinds == []
    sim.run(until=5_000.0)  # the retry's prepare adopts nothing and decides 42
    assert {host.decision("x") for host in hosts.values()} == {42}
    assert "accept" in kinds and kinds.index("prepare") < kinds.index("accept")


@pytest.mark.parametrize("n, decides", [(1, 0), (2, 0), (3, 0), (4, 3), (5, 4)])
def test_decide_broadcast_only_where_proposer_and_one_acceptor_are_no_majority(n, decides):
    sim, network, hosts = build_group(n=n)
    kinds = spy_kinds(network)
    hosts["a1"].propose("x", 42)
    sim.run(until=200.0)
    assert kinds.count("decide") == decides
    assert {host.decision("x") for host in hosts.values()} == {42}


def test_recovered_owner_never_reuses_ballot_zero():
    """The owner's ballot-0 ``accept`` reaches ``a2`` only, which learns it;
    the owner crashes before the ``accepted`` and, recovered, proposes another
    value.  Its round counter is durable, so it takes ballot 1 or higher,
    finds its own accepted value in the promises and decides the first value
    everywhere."""
    sim, network, hosts = build_group()
    network.partition(["a1", "a2"], ["a3"])
    hosts["a1"].propose("x", "first")
    sim.run(until=2.0)  # the accept has arrived, the accepted is on its way
    assert hosts["a2"].decision("x") == "first"
    owner = hosts["a1"]
    owner.process.crash()
    owner.process.recover()
    network.partition(["a1", "a3"], ["a2"])
    second = owner.propose("x", "second")
    sim.run_until(lambda: second.resolved, until=5_000.0)
    ballots = [event.get("ballot") for event in sim.trace.select("consensus_propose", "a1")]
    assert ballots[0] == (0, 0) and ballots[1] >= (1, 0)
    assert second.value == "first"
    assert {host.decision("x") for host in hosts.values()} == {"first"}


def test_single_member_group_decides_inside_propose():
    """A group of one is its own quorum: decided synchronously, no message,
    and no attempt timeout left ticking behind the decision."""
    sim, network, hosts = build_group(n=1)
    future = hosts["a1"].propose("x", "solo")
    assert future.resolved and future.value == "solo"
    assert hosts["a1"].decision("x") == "solo"
    assert network.stats.sent == 0
    assert sim.pending_events == 0
    # The slow (prepare) path of a non-owner is just as synchronous.
    sim, network, hosts = build_group(n=1, fast_path_owner=None)
    future = hosts["a1"].propose("y", "solo")
    assert future.resolved and future.value == "solo"
    assert network.stats.sent == 0 and sim.pending_events == 0


def test_nack_from_own_acceptor_cancels_the_attempt_timeout():
    """The owner's acceptor has promised a higher ballot, so its fast-path
    ``accept`` is refused in process -- inside ``_start_attempt``.  The retry
    must own the only live timer; the refused attempt's timeout is cancelled."""
    sim, network, hosts = build_group()
    network.partition(["a1"], ["a2", "a3"])
    hosts["a1"]._acceptor("inst").promised = (3, 1)
    hosts["a1"].propose("inst", "v")
    assert sim.pending_events == 1  # the scheduled retry, not the timeout too
    assert hosts["a1"]._attempts["inst"].retry_timer.cancelled


def test_non_owner_proposer_uses_prepare_phase_and_decides():
    sim, network, hosts = build_group()
    future = hosts["a2"].propose("y", "from-a2")
    assert sim.run_until(lambda: future.resolved, until=2_000.0)
    assert future.value == "from-a2"


def test_concurrent_proposals_agree_on_single_value():
    sim, network, hosts = build_group(seed=5)
    futures = {name: host.propose("j1", f"value-{name}") for name, host in hosts.items()}
    assert sim.run_until(lambda: all(f.resolved for f in futures.values()), until=5_000.0)
    decided = {f.value for f in futures.values()}
    assert len(decided) == 1
    assert decided.pop() in {f"value-{name}" for name in hosts}


def test_agreement_holds_across_many_seeds():
    for seed in range(12):
        sim, network, hosts = build_group(seed=seed)
        futures = {name: host.propose("k", f"v-{name}") for name, host in hosts.items()}
        assert sim.run_until(lambda: all(f.resolved for f in futures.values()),
                             until=10_000.0), f"no decision for seed {seed}"
        assert len({f.value for f in futures.values()}) == 1, f"disagreement for seed {seed}"


def test_decision_propagates_to_non_proposers():
    sim, network, hosts = build_group()
    hosts["a1"].propose("z", "decided-value")
    sim.run(until=500.0)
    for name, host in hosts.items():
        assert host.decision("z") == "decided-value", f"{name} did not learn the decision"


def test_proposing_after_decision_returns_decision():
    sim, network, hosts = build_group()
    hosts["a1"].propose("w", "first")
    sim.run(until=500.0)
    late = hosts["a3"].propose("w", "second")
    sim.run(until=600.0)
    assert late.resolved
    assert late.value == "first"


def test_decision_survives_minority_crash():
    sim, network, hosts = build_group()
    hosts["a3"].process.crash()
    future = hosts["a1"].propose("inst", "v")
    assert sim.run_until(lambda: future.resolved, until=5_000.0)
    assert future.value == "v"


def test_no_decision_without_majority():
    sim, network, hosts = build_group()
    hosts["a2"].process.crash()
    hosts["a3"].process.crash()
    future = hosts["a1"].propose("inst", "v")
    sim.run(until=2_000.0)
    assert not future.resolved


def test_value_written_by_crashed_primary_is_preserved_if_accepted_by_majority():
    # a1 decides (its accept reached a majority) then crashes before a2 proposes
    # a different value; a2 must learn a1's value, never overwrite it.
    sim, network, hosts = build_group()
    first = hosts["a1"].propose("inst", "primary-value")
    sim.run_until(lambda: first.resolved, until=1_000.0)
    hosts["a1"].process.crash()
    second = hosts["a2"].propose("inst", "cleaner-value")
    assert sim.run_until(lambda: second.resolved, until=5_000.0)
    assert second.value == "primary-value"


def test_fast_path_rejected_after_higher_ballot_promise():
    # a2 runs a full prepare/accept round first; a1's later ballot-0 fast path
    # must not overwrite the decided value.
    sim, network, hosts = build_group()
    second = hosts["a2"].propose("inst", "from-a2")
    sim.run_until(lambda: second.resolved, until=5_000.0)
    first = hosts["a1"].propose("inst", "from-a1")
    assert sim.run_until(lambda: first.resolved, until=5_000.0)
    assert first.value == "from-a2"


def test_consensus_over_lossy_network_with_reliable_retries():
    sim, network, hosts = build_group(seed=9, loss=0.2)
    futures = [hosts["a1"].propose("inst", "v1"), hosts["a2"].propose("inst", "v2")]
    assert sim.run_until(lambda: all(f.resolved for f in futures), until=50_000.0)
    assert len({f.value for f in futures}) == 1


def test_laggard_learns_the_decision_when_it_proposes():
    """``a3`` is partitioned away while the instance is decided.  After the
    heal its own proposal resolves to the decided value: the peers answer its
    ``prepare`` on a decided instance with ``decide`` (``_send_decision``), and
    nothing is accepted at its ballot."""
    sim, network, hosts = build_group()
    network.partition(["a1", "a2"], ["a3"])
    future = hosts["a1"].propose("inst", "v")
    sim.run_until(lambda: future.resolved, until=5_000.0)
    assert hosts["a3"].decision("inst") is None
    network.heal_partition()
    kinds = spy_kinds(network)
    late = hosts["a3"].propose("inst", "w")
    assert sim.run_until(lambda: late.resolved, until=sim.now + 100.0)
    assert late.value == "v" and hosts["a3"].decision("inst") == "v"
    assert sorted(kinds) == ["decide", "decide", "prepare", "prepare"]
    assert {host.decision("inst") for host in hosts.values()} == {"v"}


def test_quorum_size():
    for n, expected in [(1, 1), (3, 2), (5, 3), (7, 4)]:
        sim, network, hosts = build_group(n=n)
        assert list(hosts.values())[0].quorum == expected


def test_host_must_be_member():
    sim = Simulator()
    network = Network(sim)
    process = network.register(Process(sim, "outsider"))
    with pytest.raises(ValueError):
        ConsensusHost(process, ["a1", "a2"])


def test_learned_since_lists_decisions_in_learn_order():
    sim, network, hosts = build_group()
    hosts["a1"].propose(("regA", 1), "a1")
    hosts["a1"].propose(("regD", 1), ("result", "commit"))
    sim.run(until=1_000.0)
    for host in hosts.values():
        assert host.learned_since(0) == [("regA", 1), ("regD", 1)]
        assert host.learned_since(1) == [("regD", 1)]
        assert host.learned_since(2) == []
    hosts["a2"].propose(("regA", 1), "too late")  # a decided instance is not learned twice
    hosts["a3"].propose("x", "v")
    sim.run(until=2_000.0)
    assert hosts["a1"].learned_since(2) == ["x"]

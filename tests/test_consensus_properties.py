"""Property-based tests of the consensus/wo-register invariants (hypothesis)."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.consensus.synod import ConsensusHost
from repro.net.latency import FixedLatency, PerLinkLatency, UniformLatency
from repro.net.network import Network
from repro.registers.local import LocalRegisterArray, LocalRegisterStore
from repro.sim.process import Process
from repro.sim.scheduler import Simulator


@st.composite
def consensus_scenarios(draw):
    """A random consensus scenario: group size, proposers and when they start,
    crash pattern, link latency and loss."""
    n = draw(st.sampled_from([2, 3, 5]))
    names = [f"a{i + 1}" for i in range(n)]
    proposers = draw(st.lists(st.sampled_from(names), min_size=1, max_size=n, unique=True))
    # Staggered starts: a late owner's own acceptor may already have promised
    # a peer's ballot and must refuse its fast path.
    starts = {name: draw(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=20.0)))
              for name in proposers}
    # Crash at most a minority, never a proposer-free majority.
    max_crashes = (n - 1) // 2
    crashed = draw(st.lists(st.sampled_from(names), min_size=0, max_size=max_crashes,
                            unique=True))
    # Keep at least one live proposer so a decision is reachable.  (Dropping
    # an arbitrary element is not enough: the surviving entry could itself be
    # the sole proposer, e.g. proposers=[a1], crashed=[a1, a2].)
    live_proposers = [p for p in proposers if p not in crashed]
    if not live_proposers:
        crashed = [name for name in crashed if name != proposers[0]]
    seed = draw(st.integers(min_value=0, max_value=2**16))
    crash_times = {name: draw(st.floats(min_value=0.0, max_value=50.0)) for name in crashed}
    loss = draw(st.sampled_from([0.0, 0.0, 0.1, 0.3]))
    return names, proposers, starts, crash_times, seed, link_latencies(draw, names), loss


def link_latencies(draw, names):
    """A uniform latency per directed link, so an ``accept`` is overtaken by a
    ``prepare`` sent later on another link and nacks, promises and accepts
    reorder on one link (the fixed default does neither).  At most 9 vms a
    hop: prepare and accept round trips together stay under the 40-vms
    attempt timeout, so without loss or crash an attempt is abandoned only
    when an acceptor refuses it."""
    links = {}
    for link in itertools.permutations(names, 2):
        low = draw(st.floats(min_value=0.1, max_value=8.0))
        links[link] = UniformLatency(low, low + draw(st.floats(min_value=0.0, max_value=1.0)))
    return PerLinkLatency(FixedLatency(1.75), links)


@given(consensus_scenarios())
@settings(max_examples=80, deadline=None)
def test_consensus_agreement_validity_and_termination(scenario):
    check_consensus(*scenario)


@st.composite
def owner_races_in_a_group_of_five(draw):
    names = [f"a{i + 1}" for i in range(5)]
    peer = draw(st.sampled_from(names[1:]))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return names, ["a1", peer], {"a1": 0.0, peer: 0.0}, {}, seed, link_latencies(draw, names), 0.0


@given(owner_races_in_a_group_of_five())
@settings(max_examples=40, deadline=None)
def test_owner_racing_a_peer_in_a_group_of_five_agrees(scenario):
    """Proposer plus one acceptor is no majority of five: an acceptor that
    learned on ``accept`` here could hold a value the race then overrides."""
    check_consensus(*scenario)


def test_late_owner_agrees_on_every_fast_or_slow_link_layout():
    """Exhaustive companion to the sampled suite: in a group of three ``a2``
    prepares at 0 and the fast-path owner ``a1`` proposes later, each directed
    link fast or slow.  Some layouts make the owner's own acceptor refuse
    ballot 0 while ``a3`` could still take it: had that ``accept`` left, ``a3``
    would learn on it a value ``a2`` then overrides."""
    names = ["a1", "a2", "a3"]
    links = list(itertools.permutations(names, 2))
    for layout in itertools.product([0.5, 8.0], repeat=len(links)):
        latency = PerLinkLatency(FixedLatency(1.75), {
            link: FixedLatency(delay) for link, delay in zip(links, layout)})
        for owner_start in (1.0, 3.0, 6.0):
            check_consensus(names, ["a2", "a1"], {"a2": 0.0, "a1": owner_start}, {},
                            0, latency, 0.0)


def check_consensus(names, proposers, starts, crash_times, seed, latency, loss):
    """Run one scenario and check termination, agreement and validity."""
    sim = Simulator(seed=seed)
    network = Network(sim, latency=latency, loss_probability=loss)
    hosts = {}
    learned = []  # every value any host is handed to learn, duplicates included

    def spying(learn):
        def spy(instance, value):
            learned.append(value)
            learn(instance, value)
        return spy

    for name in names:
        process = network.register(Process(sim, name))
        host = ConsensusHost(process, names, fast_path_owner=names[0])
        host.install()
        host._learn = spying(host._learn)
        hosts[name] = host
    for name, time in crash_times.items():
        sim.schedule(time, hosts[name].process.crash)
    futures = {}

    def propose(name):
        if hosts[name].process.up:
            futures[name] = hosts[name].propose("inst", f"value-{name}")

    for name in proposers:
        sim.schedule(starts[name], lambda name=name: propose(name))

    live_proposers = [p for p in proposers if p not in crash_times]
    sim.run_until(lambda: all(p in futures and futures[p].resolved for p in live_proposers),
                  until=100_000.0)

    # Termination: every live proposer learns a decision.
    assert all(futures[p].resolved for p in live_proposers)
    # Agreement at every learn, not only in the final state: all values any
    # host was ever handed (by decide, on accept or at its quorum) are one.
    assert len(set(learned)) == 1
    assert {f.value for f in futures.values() if f.resolved} == set(learned)
    # Validity: the decision is one of the proposed values.
    assert learned[0] in {f"value-{name}" for name in proposers}
    if not crash_times and loss == 0.0:
        # Nobody can have missed it: every member learns, without asking.
        sim.run(until=sim.now + 100.0)
        assert {host.decision("inst") for host in hosts.values()} == {learned[0]}


@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=9), st.text(min_size=1, max_size=5)),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=60, deadline=None)
def test_local_register_first_write_wins(operations):
    """For any sequence of writes, each cell holds the first value written to it."""
    sim = Simulator()
    store = LocalRegisterStore(sim, "reg")
    view = LocalRegisterArray(store)
    expected: dict[int, str] = {}
    for index, value in operations:
        view.write(index, value)
        expected.setdefault(index, value)
    sim.run()
    for index, value in expected.items():
        assert view.read(index) == value
    assert view.learned_since(0) == (list(expected.items()), len(expected))


@given(
    st.integers(min_value=0, max_value=2**16),
    st.sampled_from([3, 5, 7]),
)
@settings(max_examples=15, deadline=None)
def test_all_servers_learn_the_same_register_value(seed, n):
    """After concurrent writes, every up server eventually reads the same value."""
    sim = Simulator(seed=seed)
    network = Network(sim)
    names = [f"a{i + 1}" for i in range(n)]
    hosts = {}
    for name in names:
        process = network.register(Process(sim, name))
        host = ConsensusHost(process, names, fast_path_owner=names[0])
        host.install()
        hosts[name] = host
    futures = [hosts[name].propose(("regA", 1), name) for name in names]
    assert sim.run_until(lambda: all(f.resolved for f in futures), until=100_000.0)
    sim.run(until=sim.now + 500.0)
    values = {hosts[name].decision(("regA", 1)) for name in names}
    assert len(values) == 1

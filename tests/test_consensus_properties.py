"""Property-based tests of the consensus/wo-register invariants (hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro.consensus.synod import ConsensusHost
from repro.net.network import Network
from repro.registers.local import LocalRegisterArray, LocalRegisterStore
from repro.sim.process import Process
from repro.sim.scheduler import Simulator


@st.composite
def consensus_scenarios(draw):
    """A random consensus scenario: group size, proposers, crash pattern."""
    n = draw(st.sampled_from([3, 5]))
    names = [f"a{i + 1}" for i in range(n)]
    proposers = draw(st.lists(st.sampled_from(names), min_size=1, max_size=n, unique=True))
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
    return n, names, proposers, crash_times, seed


@given(consensus_scenarios())
@settings(max_examples=30, deadline=None)
def test_consensus_agreement_validity_and_termination(scenario):
    n, names, proposers, crash_times, seed = scenario
    sim = Simulator(seed=seed)
    network = Network(sim)
    hosts = {}
    for name in names:
        process = network.register(Process(sim, name))
        host = ConsensusHost(process, names, fast_path_owner=names[0])
        host.install()
        hosts[name] = host
    for name, time in crash_times.items():
        sim.schedule(time, hosts[name].process.crash)
    futures = {}
    for index, name in enumerate(proposers):
        futures[name] = hosts[name].propose("inst", f"value-{name}")

    live_proposer_futures = [futures[p] for p in proposers if p not in crash_times]
    sim.run_until(lambda: all(f.resolved for f in live_proposer_futures), until=100_000.0)

    # Termination: every live proposer learns a decision.
    assert all(f.resolved for f in live_proposer_futures)
    # Agreement: all resolved futures and all learned decisions carry one value.
    decided_values = {f.value for f in futures.values() if f.resolved}
    decided_values |= {host.decision("inst") for host in hosts.values()
                       if host.decision("inst") is not None}
    assert len(decided_values) == 1
    # Validity: the decision is one of the proposed values.
    value = decided_values.pop()
    assert value in {f"value-{name}" for name in proposers}


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

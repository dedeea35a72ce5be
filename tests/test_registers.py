"""Tests for wo-register arrays (local reference and consensus-backed)."""

import pytest

from repro.consensus.synod import ConsensusHost
from repro.net.network import Network
from repro.registers.base import BOTTOM
from repro.registers.consensus_backed import ConsensusRegisterArray
from repro.registers.local import LocalRegisterArray, LocalRegisterStore
from repro.sim.process import Process
from repro.sim.scheduler import Simulator


# ----------------------------------------------------------------- local store


def test_local_register_initially_bottom():
    sim = Simulator()
    store = LocalRegisterStore(sim, "regA")
    view = LocalRegisterArray(store)
    assert view.read(1) is BOTTOM
    assert view.learned_since(0) == ([], 0)


def test_local_register_write_once_semantics():
    sim = Simulator()
    store = LocalRegisterStore(sim, "regA")
    first = LocalRegisterArray(store, owner="a1")
    second = LocalRegisterArray(store, owner="a2")
    f1 = first.write(1, "a1")
    f2 = second.write(1, "a2")
    sim.run()
    assert f1.value == "a1"
    assert f2.value == "a1"  # the second writer observes the first value
    assert first.read(1) == "a1"


def test_local_register_independent_indices():
    sim = Simulator()
    store = LocalRegisterStore(sim, "regD")
    view = LocalRegisterArray(store)
    view.write(1, ("r1", "commit"))
    view.write(2, ("r2", "abort"))
    sim.run()
    assert view.read(1) == ("r1", "commit")
    assert view.read(2) == ("r2", "abort")
    assert view.learned_since(0) == ([(1, ("r1", "commit")), (2, ("r2", "abort"))], 2)


def test_local_register_feed_is_in_first_write_order_and_resumable():
    sim = Simulator()
    store = LocalRegisterStore(sim, "regA")
    view = LocalRegisterArray(store)
    view.write(7, "late index, first write")
    view.write(7, "lost")
    view.write(3, "second")
    entries, cursor = view.learned_since(0)
    assert entries == [(7, "late index, first write"), (3, "second")]
    assert view.learned_since(cursor) == ([], cursor)
    view.write(5, "third")
    assert LocalRegisterArray(store).learned_since(cursor) == ([(5, "third")], cursor + 1)


def test_local_register_operation_latency():
    sim = Simulator()
    store = LocalRegisterStore(sim, "regA", operation_latency=4.5)
    view = LocalRegisterArray(store)
    future = view.write(1, "x")
    assert not future.resolved
    sim.run()
    assert future.resolved
    assert sim.now == pytest.approx(4.5)


def test_local_register_negative_latency_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        LocalRegisterStore(sim, "regA", operation_latency=-1.0)


def test_bottom_is_a_singleton():
    from repro.registers.base import _Bottom

    assert _Bottom() is BOTTOM
    assert repr(BOTTOM) == "⊥"


# ------------------------------------------------------------ consensus-backed


def build_consensus_registers(n=3, seed=0):
    sim = Simulator(seed=seed)
    network = Network(sim)
    names = [f"a{i + 1}" for i in range(n)]
    arrays = {}
    for name in names:
        process = network.register(Process(sim, name))
        host = ConsensusHost(process, names, fast_path_owner="a1")
        host.install()
        arrays[name] = {
            "regA": ConsensusRegisterArray(host, "regA"),
            "regD": ConsensusRegisterArray(host, "regD"),
        }
    return sim, network, arrays


def test_consensus_register_write_and_read():
    sim, network, arrays = build_consensus_registers()
    future = arrays["a1"]["regA"].write(1, "a1")
    assert sim.run_until(lambda: future.resolved, until=1_000.0)
    assert future.value == "a1"
    sim.run(until=200.0)
    for name in arrays:
        assert arrays[name]["regA"].read(1) == "a1"


def test_consensus_register_write_once_across_servers():
    sim, network, arrays = build_consensus_registers(seed=3)
    f1 = arrays["a1"]["regD"].write(5, ("result-1", "commit"))
    f2 = arrays["a2"]["regD"].write(5, (None, "abort"))
    assert sim.run_until(lambda: f1.resolved and f2.resolved, until=5_000.0)
    assert f1.value == f2.value
    assert f1.value in {("result-1", "commit"), (None, "abort")}


def test_consensus_register_arrays_are_namespaced():
    sim, network, arrays = build_consensus_registers()
    arrays["a1"]["regA"].write(1, "owner")
    arrays["a1"]["regD"].write(1, ("res", "commit"))
    sim.run(until=1_000.0)
    assert arrays["a2"]["regA"].read(1) == "owner"
    assert arrays["a2"]["regD"].read(1) == ("res", "commit")
    assert arrays["a2"]["regA"].learned_since(0)[0] == [(1, "owner")]
    assert arrays["a2"]["regD"].learned_since(0)[0] == [(1, ("res", "commit"))]


def test_consensus_register_feed_is_in_learn_order_and_resumable():
    sim, network, arrays = build_consensus_registers()
    reg_a, reg_d = arrays["a3"]["regA"], arrays["a3"]["regD"]
    arrays["a1"]["regA"].write(("c2", 1), "first")
    arrays["a1"]["regD"].write(("c2", 1), "not regA's business")
    arrays["a1"]["regA"].write(("c1", 1), "second")
    sim.run(until=1_000.0)
    entries, cursor = reg_a.learned_since(0)
    assert entries == [(("c2", 1), "first"), (("c1", 1), "second")]
    assert reg_a.learned_since(cursor) == ([], cursor)
    assert reg_d.learned_since(cursor) == ([], cursor)
    arrays["a2"]["regA"].write(("c1", 2), "third")
    sim.run(until=2_000.0)
    entries, after = reg_a.learned_since(cursor)
    assert entries == [(("c1", 2), "third")] and after > cursor
    assert reg_d.learned_since(0)[0] == [(("c2", 1), "not regA's business")]


def test_consensus_register_unwritten_reads_bottom():
    sim, network, arrays = build_consensus_registers()
    assert arrays["a1"]["regA"].read(99) is BOTTOM


def test_consensus_register_write_after_partition_learns_the_written_value():
    sim, network, arrays = build_consensus_registers()
    network.partition(["a1", "a2"], ["a3"])
    future = arrays["a1"]["regA"].write(1, "a1")
    sim.run_until(lambda: future.resolved, until=1_000.0)
    assert arrays["a3"]["regA"].read(1) is BOTTOM
    network.heal_partition()
    late = arrays["a3"]["regA"].write(1, "a3")
    assert sim.run_until(lambda: late.resolved, until=sim.now + 100.0)
    assert late.value == "a1" and arrays["a3"]["regA"].read(1) == "a1"

"""Unit tests for the network fabric: latency, loss, partitions, stats."""

import pytest

from repro.net.latency import FixedLatency, PerLinkLatency, UniformLatency
from repro.net.message import Message
from repro.net.network import Network
from repro.sim.process import Process
from repro.sim.scheduler import Simulator


def build(sim, names, **kwargs):
    network = Network(sim, **kwargs)
    procs = {name: network.register(Process(sim, name)) for name in names}
    return network, procs


def test_message_delivered_with_fixed_latency():
    sim = Simulator()
    network, procs = build(sim, ["a", "b"], latency=FixedLatency(4.0))
    arrivals = []
    procs["b"].on_message("Ping", lambda message: arrivals.append((message.sender, sim.now)))
    procs["a"].send("b", Message("Ping"))
    sim.run()
    assert arrivals == [("a", pytest.approx(4.0))]


def test_duplicate_registration_rejected():
    sim = Simulator()
    network = Network(sim)
    network.register(Process(sim, "a"))
    with pytest.raises(ValueError):
        network.register(Process(sim, "a"))


def test_unknown_destination_rejected():
    sim = Simulator()
    network, procs = build(sim, ["a"])
    with pytest.raises(KeyError):
        procs["a"].send("ghost", Message("Ping"))


def test_loss_probability_drops_messages():
    sim = Simulator(seed=3)
    network, procs = build(sim, ["a", "b"], loss_probability=0.5)
    for _ in range(200):
        procs["a"].send("b", Message("Ping"))
    sim.run()
    assert network.stats.dropped_loss > 0
    assert network.stats.delivered > 0
    assert network.stats.dropped_loss + network.stats.delivered == 200


def test_invalid_loss_probability_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        Network(sim, loss_probability=1.5)


def test_partition_blocks_cross_group_traffic_and_heals():
    sim = Simulator()
    network, procs = build(sim, ["a", "b", "c"])
    network.partition(["a"], ["b", "c"])
    procs["a"].send("b", Message("Ping"))
    procs["b"].send("c", Message("Ping"))
    sim.run()
    assert network.stats.dropped_partition == 1
    assert network.stats.delivered == 1
    network.heal_partition()
    procs["a"].send("b", Message("Ping"))
    sim.run()
    assert network.stats.delivered == 2


def test_partition_with_unlisted_processes_forms_implicit_group():
    sim = Simulator()
    network, procs = build(sim, ["a", "b", "c"])
    network.partition(["a"])
    procs["b"].send("c", Message("Ping"))
    procs["c"].send("a", Message("Ping"))
    sim.run()
    assert network.stats.delivered == 1
    assert network.stats.dropped_partition == 1


def test_stats_by_type():
    sim = Simulator()
    network, procs = build(sim, ["a", "b"])
    procs["a"].send("b", Message("Prepare"))
    procs["a"].send("b", Message("Prepare"))
    procs["a"].send("b", Message("Decide"))
    sim.run()
    assert network.stats.by_type_sent == {"Prepare": 2, "Decide": 1}
    assert network.stats.delivered == 3


def test_trace_records_send_and_deliver():
    sim = Simulator()
    network, procs = build(sim, ["a", "b"])
    procs["a"].send("b", Message("Ping"))
    sim.run()
    assert sim.trace.count("msg_send", msg_type="Ping") == 1
    assert sim.trace.count("msg_deliver", msg_type="Ping") == 1


def test_messages_have_unique_ids():
    # Construction no longer burns a global counter: ids are stamped by the
    # network at send time from the sender's per-source stream.
    assert Message("A").msg_id == 0
    sim = Simulator()
    network, procs = build(sim, ["a", "b"])
    first, second = Message("A"), Message("A")
    procs["a"].send("b", first)
    procs["a"].send("b", second)
    sim.run()
    assert first.msg_id != 0 and second.msg_id != 0
    assert first.msg_id != second.msg_id


# ---------------------------------------------------------------- latency models


def test_uniform_latency_within_bounds():
    sim = Simulator(seed=1)
    model = UniformLatency(2.0, 6.0)
    draw = model.sampler(sim.rng("x"), "a", "b")
    samples = [draw() for _ in range(100)]
    assert all(2.0 <= s <= 6.0 for s in samples)
    assert max(samples) - min(samples) > 2.0  # a spread, not a constant


def test_per_link_latency_overrides():
    model = PerLinkLatency(FixedLatency(1.0))
    model.set_link("client", "app", FixedLatency(10.0))
    rng = Simulator().rng("x")
    assert model.sampler(rng, "client", "app")() == 10.0
    assert model.sampler(rng, "app", "db")() == 1.0


def test_invalid_latency_parameters_rejected():
    with pytest.raises(ValueError):
        FixedLatency(-1.0)
    with pytest.raises(ValueError):
        UniformLatency(5.0, 1.0)


def test_message_payload_access():
    message = Message("Vote", payload={"j": 1, "vote": "yes"})
    assert message["j"] == 1
    assert message.get("vote") == "yes"
    assert message.get("missing") is None

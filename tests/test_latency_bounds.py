"""Unit tests for latency lower bounds.

``LatencyModel.min_latency`` promises a hard per-link floor on what the
link's ``sampler`` draws.
"""

import random

import pytest

from repro.net.latency import FixedLatency, PerLinkLatency, UniformLatency


def test_fixed_latency_min_is_value():
    assert FixedLatency(2.5).min_latency("a", "b") == 2.5


def test_uniform_latency_min_is_low_bound():
    assert UniformLatency(1.0, 3.0).min_latency("a", "b") == 1.0


def test_per_link_latency_min_resolves_overrides():
    model = PerLinkLatency(FixedLatency(1.0))
    model.set_link("c1", "a1", UniformLatency(7.0, 9.0))
    assert model.min_latency("c1", "a1") == 7.0
    assert model.min_latency("a1", "c1") == 1.0  # falls back to the default


@pytest.mark.parametrize("model", [
    FixedLatency(1.75),
    UniformLatency(0.5, 2.0),
    PerLinkLatency(FixedLatency(0.25), {("x", "y"): UniformLatency(1.0, 3.0)}),
])
def test_min_latency_is_a_hard_floor_on_samples(model):
    draw = model.sampler(random.Random(42), "x", "y")
    floor = model.min_latency("x", "y")
    for _ in range(2000):
        assert draw() >= floor

"""Unit tests for the trace recorder."""

import pytest

from repro.sim.scheduler import Simulator
from repro.sim.tracing import TraceEvent, TraceRecorder


def test_record_uses_virtual_clock():
    sim = Simulator()
    sim.schedule(12.0, lambda: sim.trace.record("tick", "p", n=1))
    sim.run()
    (event,) = sim.trace.select("tick")
    assert event.time == 12.0
    assert event.process == "p"
    assert event.data == {"n": 1}


def test_select_filters_by_category_process_and_data():
    trace = TraceRecorder()
    trace.record("a", "p1", k=1)
    trace.record("a", "p2", k=2)
    trace.record("b", "p1", k=1)
    assert len(trace.select("a")) == 2
    assert len(trace.select("a", "p1")) == 1
    assert len(trace.select(process="p1")) == 2
    assert len(trace.select("a", k=2)) == 1
    assert trace.count("b") == 1


def test_event_get_helper():
    event = TraceEvent(0.0, "cat", "p", {"k": "v"})
    assert event.get("k") == "v"
    assert event.get("missing", 7) == 7


def test_event_is_a_slotted_value():
    positional = TraceEvent(1.5, "cat", "p", {"k": 1})
    keyword = TraceEvent(time=1.5, category="cat", process="p", data={"k": 1})
    assert positional == keyword
    assert positional != TraceEvent(1.5, "cat", "q", {"k": 1})
    assert positional != (1.5, "cat", "p", {"k": 1})
    first, second = TraceEvent(0.0, "a", "p"), TraceEvent(0.0, "a", "p")
    assert first.data == {} and first.data is not second.data
    with pytest.raises(TypeError):
        hash(positional)
    assert not hasattr(positional, "__dict__")
    assert repr(positional) == \
        "TraceEvent(time=1.5, category='cat', process='p', data={'k': 1})"

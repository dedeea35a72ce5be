"""Tests for the latency-breakdown and communication-step metrics."""

from types import SimpleNamespace

import pytest

from repro.core.timing import DatabaseTiming
from repro.metrics.latency import (
    LatencyBreakdown,
    LatencyComponentStream,
    LatencyTable,
    breakdown_from_run,
)
from repro.metrics.steps import (
    CommunicationProfile,
    Step,
    StepComparison,
    StreamingProfile,
)
from repro.sim.tracing import TraceRecorder


def timing():
    return DatabaseTiming(start=3.4, sql=187.0, end=3.4, prepare_cpu=6.5,
                          commit_cpu=6.1, forced_write=12.5)


# ------------------------------------------------------------ latency breakdown


def test_breakdown_baseline_has_no_prepare_or_log_components():
    # no as_prepare, no register writes, no tm_log
    components = LatencyComponentStream(TraceRecorder())
    breakdown = breakdown_from_run("baseline", components, timing(), mean_latency=219.4, samples=3)
    assert breakdown.component("prepare") == 0.0
    assert breakdown.component("log-start") == 0.0
    assert breakdown.component("SQL") == pytest.approx(187.0)
    assert breakdown.component("commit") == pytest.approx(18.6)
    assert breakdown.component("other") > 0
    assert breakdown.total == pytest.approx(219.4)


def test_breakdown_ar_uses_register_write_durations():
    trace = TraceRecorder()
    components = LatencyComponentStream(trace)
    trace.record("as_prepare", "a1", outcome="commit")
    trace.record("as_phase", "a1", phase="regA_write", duration=4.5)
    trace.record("as_phase", "a1", phase="regD_write", duration=4.7)
    breakdown = breakdown_from_run("AR", components, timing(), mean_latency=252.3, samples=1)
    assert breakdown.component("prepare") == pytest.approx(19.0)
    assert breakdown.component("log-start") == pytest.approx(4.5)
    assert breakdown.component("log-outcome") == pytest.approx(4.7)


def test_breakdown_twopc_uses_forced_log_durations():
    trace = TraceRecorder()
    components = LatencyComponentStream(trace)
    trace.record("as_prepare", "a1", outcome="commit")
    trace.record("tm_log", "a1", which="start", duration=12.5)
    trace.record("tm_log", "a1", which="outcome", duration=12.5)
    breakdown = breakdown_from_run("2PC", components, timing(), mean_latency=266.5, samples=1)
    assert breakdown.component("log-start") == pytest.approx(12.5)
    assert breakdown.component("log-outcome") == pytest.approx(12.5)


def test_breakdown_other_never_negative():
    components = LatencyComponentStream(TraceRecorder())
    breakdown = breakdown_from_run("baseline", components, timing(),
                                   mean_latency=100.0, samples=1)
    assert breakdown.component("other") == 0.0


def test_overhead_and_table_rendering():
    table = LatencyTable()
    table.add(LatencyBreakdown("baseline", {"SQL": 187.0}, total=217.4, samples=1))
    table.add(LatencyBreakdown("AR", {"SQL": 187.0}, total=252.3, samples=1))
    table.add(LatencyBreakdown("2PC", {"SQL": 187.0}, total=266.5, samples=1))
    overheads = table.overheads()
    assert overheads["baseline"] == 0.0
    assert overheads["AR"] == pytest.approx(0.16, abs=0.01)
    assert overheads["2PC"] == pytest.approx(0.225, abs=0.01)
    text = table.to_table()
    assert "baseline" in text and "AR" in text and "2PC" in text
    assert "cost of rel." in text
    assert "total" in text


def test_table_column_lookup():
    table = LatencyTable()
    breakdown = LatencyBreakdown("AR", {"SQL": 187.0, "prepare": 19.0}, total=252.3, samples=2)
    table.add(breakdown)
    assert table.column("AR") is breakdown
    assert table.column("missing") is None


def test_overhead_versus_zero_baseline_is_zero():
    baseline = LatencyBreakdown("baseline", {}, total=0.0, samples=0)
    other = LatencyBreakdown("AR", {}, total=100.0, samples=1)
    assert other.overhead_versus(baseline) == 0.0


# -------------------------------------------------------- communication profile


def stream_messages(trace, clock):
    """Record one AR request's message sends, the consensus hop included."""
    messages = [
        (0.0, "c1", "a1", "Request"),
        (2.5, "a1", "d1", "Execute"),
        (193.0, "d1", "a1", "ExecuteResult"),
        (195.0, "a1", "a2", "Consensus"),
        (197.0, "a1", "d1", "Prepare"),
        (216.0, "d1", "a1", "Vote"),
        (226.0, "a1", "d1", "Decide"),
        (248.0, "d1", "a1", "AckDecide"),
        (250.0, "a1", "c1", "Result"),
    ]
    for time, sender, receiver, msg_type in messages:
        clock.now = time
        trace.record("msg_send", sender, msg_type=msg_type, destination=receiver)


def test_streaming_profile_filters_and_orders_messages():
    clock = SimpleNamespace(now=0.0)
    trace = TraceRecorder(clock)
    streaming = StreamingProfile(trace, "AR")
    stream_messages(trace, clock)
    profile = streaming.detach()
    trace.record("msg_send", "c1", msg_type="Request", destination="a1")
    assert profile.count("Request") == 1  # nothing after detach() counts
    assert profile.count("Consensus") == 0  # collapsed out of the diagram
    assert profile.consensus_messages == 1
    assert profile.total_messages == 9
    times = [step.time for step in profile.steps]
    assert times == sorted(times)
    assert set(profile.counts_by_type()) == {"Request", "Execute", "ExecuteResult",
                                             "Prepare", "Vote", "Decide", "AckDecide",
                                             "Result"}


def test_sequence_diagram_renders_steps():
    profile = CommunicationProfile("demo", steps=[Step(1.0, "c1", "a1", "Request")])
    text = profile.sequence_diagram()
    assert "demo" in text and "c1" in text and "Request" in text


FIGURE7_COLUMNS = ["protocol", "Request", "Execute", "Prepare", "Vote", "Decide",
                   "AckDecide", "CommitOnePhase", "Result", "Consensus", "total"]


def test_step_comparison_table():
    comparison = StepComparison()
    comparison.add(CommunicationProfile("baseline", steps=[Step(0.0, "c1", "a1", "Request")],
                                        total_messages=3))
    comparison.add(CommunicationProfile("AR", steps=[Step(0.0, "c1", "a1", "Request"),
                                                     Step(1.0, "a1", "d1", "Prepare")],
                                        total_messages=14, consensus_messages=12))
    assert {label: len(profile.steps)
            for label, profile in comparison.profiles.items()} == {"baseline": 1, "AR": 2}
    header, *rows = comparison.to_table().splitlines()
    # Every column is as wide as its widest cell: no two names run together.
    assert header.split() == FIGURE7_COLUMNS
    table = {row.split()[0]: dict(zip(FIGURE7_COLUMNS, row.split())) for row in rows}
    assert table["baseline"]["Request"] == "1" and table["baseline"]["total"] == "3"
    # ``total`` counts every message sent, consensus included.
    assert table["AR"]["Prepare"] == "1"
    assert table["AR"]["Consensus"] == "12" and table["AR"]["total"] == "14"


# ------------------------------------------------------------- percentiles


def test_percentile_interpolates_linearly():
    import pytest

    from repro.metrics import percentile

    values = [10.0, 20.0, 30.0, 40.0]
    assert percentile(values, 0.0) == 10.0
    assert percentile(values, 1.0) == 40.0
    assert percentile(values, 0.5) == pytest.approx(25.0)
    assert percentile(values, 1 / 3) == pytest.approx(20.0)  # exact at samples
    assert percentile([], 0.5) == 0.0
    assert percentile([7.0], 0.99) == 7.0
    with pytest.raises(ValueError):
        percentile(values, 1.5)


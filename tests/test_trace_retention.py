"""Trace retention policies and the event bus.

``full``/``ring:N``/``off`` retention bound what the recorder *stores*;
everything that matters -- online spec checking, per-database statistics,
latency components -- streams off the bus and must keep working when the
stored trace is truncated or absent.  A ``full`` trace seals its rows into
deflated ``pickle`` blocks every ``BLOCK_ROWS`` events; the queries and a
retention switch must read across those blocks exactly as across live rows,
and every plain value must come back with its exact type.
"""

import enum
from collections import OrderedDict, namedtuple
from types import SimpleNamespace
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.metrics.latency import LatencyComponentStream
from repro.net.message import Message
from repro.net.network import Network
from repro.sim.process import Process
from repro.sim.scheduler import Simulator
from repro.sim.tracing import BLOCK_ROWS, TraceEvent, TraceRecorder, parse_retention
from repro.workload.generator import ClosedLoop

from test_trace_golden import SCHEMES, TRANSPORT, _fingerprint

SHARDED = "etx://a3.d2.c2?seed=5&workload=bank&placement=hash&xshard=0.5"


# ----------------------------------------------------------------- recorder


def test_parse_retention_accepts_the_three_policies():
    assert parse_retention("full") == ("full", None)
    assert parse_retention("off") == ("off", None)
    assert parse_retention("ring:128") == ("ring", 128)
    for bad in ("ring:0", "ring:x", "some", "ring:"):
        with pytest.raises(ValueError):
            parse_retention(bad)


def test_ring_retention_keeps_only_the_suffix():
    trace = TraceRecorder()
    trace.set_retention("ring:3")
    for n in range(10):
        trace.record("tick", n=n)
    assert len(trace) == 3
    assert [e.get("n") for e in trace] == [7, 8, 9]
    assert trace.retention == "ring:3"


def test_off_retention_stores_nothing_and_skips_event_construction():
    trace = TraceRecorder()
    trace.set_retention("off")
    trace.record("tick", n=1)
    assert len(trace) == 0
    assert not trace.wants("tick")


def test_subscribers_see_events_under_any_retention():
    for retention in ("full", "ring:2", "off"):
        trace = TraceRecorder()
        trace.set_retention(retention)
        seen = []
        unsubscribe = trace.subscribe("tick", lambda e: seen.append(e.get("n")))
        for n in range(5):
            trace.record("tick", n=n)
            trace.record("other", n=n)  # not subscribed
        assert seen == [0, 1, 2, 3, 4], retention
        assert trace.wants("tick")
        unsubscribe()
        trace.record("tick", n=99)
        assert seen[-1] == 4  # unsubscribed callbacks stop firing


def test_wants_reflects_storage_and_subscription():
    trace = TraceRecorder()
    trace.set_retention("off")
    for retention, stored in (("off", False), ("ring:3", True), ("off", False),
                              ("full", True)):
        trace.set_retention(retention)
        assert trace.wants("msg_send") is stored, retention
        unsubscribe = trace.subscribe("msg_send", lambda e: None)
        assert trace.wants("msg_send"), retention
        assert trace.wants("msg_deliver") is stored, retention
        unsubscribe()
        assert trace.wants("msg_send") is stored, retention
    # A subscription made before the switch to ``off`` still counts after it.
    unsubscribe = trace.subscribe("msg_send", lambda e: None)
    trace.set_retention("off")
    assert trace.wants("msg_send") and not trace.wants("msg_deliver")
    unsubscribe()
    assert not trace.wants("msg_send")


# ------------------------------------------------------------ sealed blocks


def _tick(trace: TraceRecorder, clock: SimpleNamespace, numbers: range) -> None:
    for n in numbers:
        clock.now = float(n)
        trace.record("even" if n % 2 == 0 else "odd", f"p{n % 3}", n=n)


def _expected(numbers: range) -> list[TraceEvent]:
    return [TraceEvent(float(n), "even" if n % 2 == 0 else "odd", f"p{n % 3}", {"n": n})
            for n in numbers]


def test_queries_span_a_sealed_block_boundary():
    clock = SimpleNamespace(now=0.0)
    trace = TraceRecorder(clock)
    total = 2 * BLOCK_ROWS + 10  # two sealed blocks, then ten live rows
    _tick(trace, clock, range(total))
    assert len(trace) == total
    assert list(trace) == _expected(range(total))
    assert trace.select(n=BLOCK_ROWS + 1) == _expected(range(BLOCK_ROWS + 1, BLOCK_ROWS + 2))
    assert trace.select("even", "p0", n=0) == _expected(range(1))
    assert trace.count("even") == trace.count("odd") == total // 2
    assert trace.count(process="p0") == len(range(0, total, 3))
    assert trace.select("odd", "p1") == _expected(range(1, total, 6))
    assert trace.select("even")[-1] == _expected(range(total - 2, total - 1))[0]
    window = range(max(0, BLOCK_ROWS - 2), BLOCK_ROWS + 2)
    assert [event for event in trace
            if window[0] <= event.time <= window[-1]] == _expected(window)


def test_a_ring_switch_keeps_the_last_events_across_a_sealed_block():
    clock = SimpleNamespace(now=0.0)
    trace = TraceRecorder(clock)
    _tick(trace, clock, range(BLOCK_ROWS + 3))  # the last five straddle the seal
    last_five = range(BLOCK_ROWS + 3)[-5:]
    trace.set_retention("ring:5")
    assert list(trace) == _expected(last_five)
    trace.set_retention("full")
    assert list(trace) == _expected(last_five)
    _tick(trace, clock, range(BLOCK_ROWS + 3, 2 * BLOCK_ROWS + 3))
    assert list(trace) == _expected(range(last_five[0], 2 * BLOCK_ROWS + 3))


class _Name(str):
    pass


class _Color(enum.IntEnum):
    RED = 1


_Point = namedtuple("_Point", "x y")


def test_a_value_marshal_cannot_carry_fails_the_seal():
    """Sealing refuses a value that is not plain data rather than store it
    by a reference to its class or return it as another type."""
    for value in (_Name("a1"), _Color.RED, OrderedDict(a=1), _Point(1, 2), object()):
        clock = SimpleNamespace(now=0.0)
        trace = TraceRecorder(clock)
        with pytest.raises(ValueError, match=f"not '{type(value).__qualname__}'"):
            trace.record("tick", name=value)
            _tick(trace, clock, range(1, BLOCK_ROWS))


def test_a_refused_seal_leaves_the_recorder_sealing():
    """A seal refused halfway through its pickle raises once, compresses
    nothing, drops the offending row and leaves nothing behind that a later
    block reads: the same recorder goes on sealing blocks byte for byte as a
    fresh one does."""
    clock = SimpleNamespace(now=0.0)
    refused = TraceRecorder(clock)
    with pytest.raises(ValueError):
        _tick(refused, clock, range(BLOCK_ROWS - 1))
        refused.record("tick", "p0", n=_Name("a1"))
    assert not refused._blocks and len(refused) == BLOCK_ROWS - 1
    total = 3 * BLOCK_ROWS + 1
    _tick(refused, clock, range(BLOCK_ROWS - 1, total))
    fresh = TraceRecorder(clock)
    _tick(fresh, clock, range(total))
    assert len(refused._blocks) == total // BLOCK_ROWS
    assert refused._blocks == fresh._blocks
    assert list(refused) == _expected(range(total))


def test_a_refused_seal_drops_only_the_rows_it_refused():
    """The offending row need not be the newest: the seal that meets it
    raises once and keeps every plain row of the block."""
    clock = SimpleNamespace(now=0.0)
    trace = TraceRecorder(clock)
    with pytest.raises(ValueError):
        trace.record("tick", "p0", n=_Color.RED)
        _tick(trace, clock, range(BLOCK_ROWS - 1))
    _tick(trace, clock, range(BLOCK_ROWS - 1, 2 * BLOCK_ROWS))
    assert list(trace) == _expected(range(2 * BLOCK_ROWS))


# Nested plain data: every exact type a row may carry, including the floats
# and ints a careless encoding would change.
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=2 ** 64, max_value=2 ** 200).map(lambda n: -n if n % 2 else n),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf")]),
    st.text(max_size=8), st.binary(max_size=8))
_hashable = st.recursive(_scalars, lambda inner: st.one_of(
    st.tuples(inner, inner), st.frozensets(inner, max_size=3)), max_leaves=6)
_plain = st.recursive(_scalars, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.tuples(inner, inner),
    st.dictionaries(_hashable, inner, max_size=3),
    st.sets(_hashable, max_size=3), st.frozensets(_hashable, max_size=3)), max_leaves=12)


def _exactly(value):
    """A comparable form of ``value`` that tells apart every type, ``-0.0``
    from ``0.0`` and each NaN from nothing else, keeping list order and
    dict insertion order."""
    kind = type(value).__name__
    if isinstance(value, float):
        return kind, repr(value)
    if isinstance(value, (list, tuple)):
        return kind, tuple(map(_exactly, value))
    if isinstance(value, dict):
        return kind, tuple((_exactly(k), _exactly(v)) for k, v in value.items())
    if isinstance(value, (set, frozenset)):
        return kind, len(value), frozenset(map(_exactly, value))
    return kind, value


def _has_nan(value):
    if isinstance(value, dict):
        value = [*value.items()]
    if isinstance(value, (list, tuple, set, frozenset)):
        return any(map(_has_nan, value))
    return value != value


@settings(max_examples=60, deadline=None)
@given(st.lists(_plain, min_size=1, max_size=12))
def test_plain_values_read_back_exactly_across_sealed_blocks(values):
    clock = SimpleNamespace(now=0.0)
    trace = TraceRecorder(clock)
    total = 4 * BLOCK_ROWS + 3  # four sealed blocks, then three live rows
    for n in range(total):
        clock.now = n / 3
        trace.record("value", f"p{n % 5}", v=values[n % len(values)], n=n)
    assert len(trace._blocks) == total // BLOCK_ROWS

    def exact(events):
        return [(e.time, e.category, e.process, e.get("n"), _exactly(e.get("v")))
                for e in events]

    def expected(numbers):
        return [(n / 3, "value", f"p{n % 5}", n, _exactly(values[n % len(values)]))
                for n in numbers]

    assert exact(trace) == expected(range(total))
    # Data filters test decoded values, in every block and the live rows.
    picked = [1, BLOCK_ROWS + 2, 3 * BLOCK_ROWS - 1, total - 1]
    for n in picked:
        assert exact(trace.select("value", f"p{n % 5}", n=n)) == expected([n])
    # A filter holding a NaN is refused; any other matches by equality.
    probe = values[0]
    if _has_nan(probe):
        with pytest.raises(ValueError, match="NaN"):
            trace.select(v=probe)
        with pytest.raises(ValueError, match="NaN"):
            trace.count("value", "p2", v=probe)
    else:
        equal = [n for n in range(total) if values[n % len(values)] == probe]
        assert exact(trace.select(v=probe)) == expected(equal)
        assert trace.count("value", "p2", v=probe) == sum(n % 5 == 2 for n in equal)
    # A ring filled from the sealed blocks holds the same exact values.
    ring = 2 * BLOCK_ROWS + 2
    trace.set_retention(f"ring:{ring}")
    assert not trace._blocks
    assert exact(trace) == expected(range(total - ring, total))


@pytest.mark.parametrize("value", [
    (None, float("nan")), [1, {"k": float("nan")}], {float("nan"): 1}, frozenset({float("nan")}),
    (1, [2.5, "x"]), {"k": (b"v", None)}, -0.0])
def test_a_filter_answers_the_same_before_and_after_a_seal(value):
    """The same filter object over the same rows: live, then sealed and
    decoded.  A value holding a NaN equals a live row by identity only, so
    its filter is refused on both sides instead of answering twice."""
    clock = SimpleNamespace(now=0.0)
    trace = TraceRecorder(clock)
    for n in range(BLOCK_ROWS - 1):
        trace.record("value", "p", v=value if n % 3 == 0 else n, n=n)

    def answer():
        try:
            return [e.get("n") for e in trace.select("value", v=value)], trace.count(v=value)
        except ValueError as error:
            return str(error)

    live = answer()
    trace.record("value", "p", v="seal", n=BLOCK_ROWS - 1)
    assert len(trace._blocks) == 1 and not trace._rows
    assert answer() == live
    matched = [n for n in range(BLOCK_ROWS - 1) if n % 3 == 0]
    assert live == ("a trace data filter cannot hold a NaN" if _has_nan(value)
                    else (matched, len(matched)))


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_a_sealed_trace_reads_back_as_the_unsealed_one(scheme):
    """Every value a protocol records round-trips through the sealed blocks."""
    traces = {}
    for retention in ("full", "ring:10000000"):
        dsn = f"{SCHEMES[scheme].format(seed=3)}&trace={retention}"
        system = api.build(api.Scenario.from_dsn(dsn))
        ClosedLoop().run(system, 40)
        traces[retention] = _fingerprint(system)
        system.close()
    assert len(traces["full"]) >= 2 * BLOCK_ROWS
    assert traces["full"] == traces["ring:10000000"]


# ---------------------------------------------------------- transport rows


def _transport_run(retention: str, switch_to: Optional[str] = None, messages: int = 400):
    """Send ``messages`` messages through a real ``Network`` -- delivered,
    dropped by a partition, at a crashed destination and by loss, a quarter
    each -- and return the recorder, what a subscriber saw, and each
    transport event as ``(time, category, process, data)`` with the keys
    in the order the network has always recorded them.  ``switch_to``
    changes retention halfway."""
    sim = Simulator(seed=1)
    sim.trace.set_retention(retention)
    network = Network(sim)
    for name in ("a", "b", "c"):
        network.register(Process(sim, name))
    seen: list[TraceEvent] = []
    for category in TRANSPORT:
        sim.trace.subscribe(category, seen.append)
    expected: list[tuple] = []
    quarter = messages // 4

    def send(n: int) -> None:
        if n == messages // 2 and switch_to is not None:
            sim.trace.set_retention(switch_to)
        phase = n // quarter
        if n % quarter == 0:    # enter the phase
            if phase == 1:
                network.partition(["a"], ["b", "c"])
            elif phase == 2:
                network.heal_partition()
                network.processes["b"].crash()
            elif phase == 3:
                network.loss_probability = 1.0
        destination = "c" if phase == 3 else "b"
        # Payload keys in neither sorted nor reverse order.
        message = Message("Ping", payload={"n": n, "j": ("c1", n), "a": n % 3})
        network.send("a", destination, message)
        msg_id = message.msg_id
        expected.append((sim.now, "msg_send", "a", {
            "msg_type": "Ping", "destination": destination, "msg_id": msg_id,
            "payload_keys": ["a", "j", "n"]}))
        if phase == 0:
            expected.append((sim.now + 1.75, "msg_deliver", "b", {
                "msg_type": "Ping", "sender": "a", "msg_id": msg_id}))
        elif phase == 1:
            expected.append((sim.now, "msg_drop", "a", {
                "reason": "partition", "msg_type": "Ping", "destination": "b",
                "msg_id": msg_id}))
        elif phase == 2:
            expected.append((sim.now + 1.75, "msg_drop", "b", {
                "reason": "destination_down", "msg_type": "Ping", "msg_id": msg_id,
                "sender": "a"}))
        else:
            expected.append((sim.now, "msg_drop", "a", {
                "reason": "loss", "msg_type": "Ping", "destination": "c",
                "msg_id": msg_id}))

    for n in range(messages):
        sim.schedule(10.0 * n + 1.0, lambda n=n: send(n))
    sim.run()
    return sim.trace, seen, expected


def _exact_events(events) -> list[tuple]:
    """Events as comparable tuples that tell key order and list from tuple."""
    return [(e.time, e.category, e.process, list(e.data.items()),
             type(e.data.get("payload_keys")).__name__) for e in events]


def _exact_rows(rows) -> list[tuple]:
    return _exact_events(TraceEvent(*row) for row in rows)


def _transport(trace: TraceRecorder) -> list[TraceEvent]:
    return [event for event in trace if event.category in TRANSPORT]


@pytest.mark.parametrize("retention", ["full", "ring:150", "off"])
def test_transport_rows_read_back_as_the_network_recorded_them(retention):
    trace, seen, expected = _transport_run(retention)
    assert {row[3].get("reason") for row in expected if row[1] == "msg_drop"} == \
        {"partition", "destination_down", "loss"}
    assert _exact_events(seen) == _exact_rows(expected)
    stored = {"full": expected, "ring:150": expected[-150:], "off": []}[retention]
    if retention == "full":
        assert len(trace) >= 2 * BLOCK_ROWS and trace._blocks  # across sealed blocks
    assert _exact_events(_transport(trace)) == _exact_rows(stored)
    for category, process, filters in (
            ("msg_send", None, {"destination": "c"}),
            ("msg_send", "a", {"payload_keys": ["a", "j", "n"]}),
            ("msg_deliver", "b", {"sender": "a"}),
            ("msg_drop", None, {"reason": "loss"}),
            ("msg_drop", "b", {"reason": "destination_down", "sender": "a"}),
            ("msg_drop", None, {"destination": "b"}),
            (None, None, {"msg_id": expected[-1][3]["msg_id"]}),
            (None, None, {"reason": "partition"})):
        matching = [row for row in stored if (category is None or row[1] == category)
                    and (process is None or row[2] == process)
                    and all(row[3].get(k) == v for k, v in filters.items())]
        assert _exact_events(trace.select(category, process, **filters)) == \
            _exact_rows(matching), (category, process, filters)
        assert trace.count(category, process, **filters) == len(matching)
        if retention == "full":
            assert matching, (category, process, filters)


@pytest.mark.parametrize("retention, switch_to", [("full", "ring:70"), ("ring:70", "full")])
def test_transport_rows_read_back_across_a_retention_switch(retention, switch_to):
    trace, seen, expected = _transport_run(retention, switch_to=switch_to)
    assert _exact_events(seen) == _exact_rows(expected)
    if switch_to == "full":
        # The ring's last 70 rows, then everything from the switch on.
        first_half = [row for row in expected if row[0] < 10.0 * 200]
        stored = first_half[-70:] + expected[len(first_half):]
    else:
        stored = expected[-70:]
    assert _exact_events(_transport(trace)) == _exact_rows(stored)
    assert _exact_events(trace.select("msg_send", "a", destination="b")) == _exact_rows(
        [row for row in stored if row[1] == "msg_send" and row[3]["destination"] == "b"])


# -------------------------------------------------------------- deployments


_COMPONENT_BUCKETS = ("phase:regA_write", "phase:regD_write", "log:start", "log:outcome")


def _run_with_components(retention: str):
    """A sharded run at ``retention`` with the Figure 8 component stream
    attached: its result and the stream's mean per bucket."""
    system = api.build(api.Scenario.from_dsn(f"{SHARDED}&trace={retention}"))
    components = LatencyComponentStream(system.trace)
    try:
        result = api.drive(system, 3)
    finally:
        system.close()
    return result, {bucket: components.mean(bucket) for bucket in _COMPONENT_BUCKETS}


@pytest.mark.parametrize("retention", ["ring:400", "off"])
def test_spec_and_statistics_work_with_truncated_trace(retention):
    """A sharded multi-client run under bounded retention still gets the
    full online verdict, per-database statistics and latency components."""
    result, components = _run_with_components(retention)
    assert result.delivered == 6
    assert result.spec.ok, result.spec.summary()
    assert result.spec.checked_properties  # the monitor really checked
    assert set(result.statistics.by_database) == {"d1", "d2"}
    assert sum(db.commits for db in result.statistics.by_database.values()) \
        >= result.delivered
    # The regA/regD component means stream off the bus, so they are
    # populated even though the events backing them were never stored.
    assert components["phase:regA_write"] > 0


def test_ring_retention_bounds_stored_events_mid_run():
    scenario = api.Scenario.from_dsn(f"{SHARDED}&trace=ring:250")
    system = api.build(scenario)
    ClosedLoop().run(system, 4)
    assert len(system.trace) <= 250
    assert system.check_spec().ok


def test_off_retention_stores_no_events_at_all():
    scenario = api.Scenario.from_dsn(f"{SHARDED}&trace=off")
    system = api.build(scenario)
    ClosedLoop().run(system, 4)
    assert len(system.trace) == 0
    assert system.check_spec().ok


def test_a_built_deployment_does_not_watch_the_latency_components():
    """Only the experiment executor reads the Figure 8 components, so only it
    subscribes to them: at ``off`` a plain build leaves their categories
    unwatched, and recording them costs nothing."""
    system = api.build(api.Scenario.from_dsn("etx://a3.d1.c1?trace=off"))
    assert not any(system.trace.wants(category)
                   for category in ("as_phase", "as_prepare", "tm_log"))
    LatencyComponentStream(system.trace)
    assert all(system.trace.wants(category)
               for category in ("as_phase", "as_prepare", "tm_log"))


def test_retention_does_not_change_the_verdict_or_the_numbers():
    """full vs ring vs off: same deliveries, same verdict, same statistics."""
    results = {retention: _run_with_components(retention)
               for retention in ("full", "ring:300", "off")}
    baseline, baseline_components = results["full"]
    for retention, (result, components) in results.items():
        assert result.delivered == baseline.delivered, retention
        assert result.spec.summary() == baseline.spec.summary(), retention
        assert result.statistics.latencies == baseline.statistics.latencies, retention
        assert {name: (db.commits, db.aborts)
                for name, db in result.statistics.by_database.items()} == \
            {name: (db.commits, db.aborts)
             for name, db in baseline.statistics.by_database.items()}, retention
        assert components == baseline_components, retention


def test_database_counts_match_the_traced_decides():
    """``by_database`` counts distinct decided keys as the stored trace's
    ``db_decide`` events do: a commit if any decide committed the key, else an
    abort.  The run crashes a database mid-run, so some keys abort."""
    dsn = f"{SHARDED.replace('seed=5', 'seed=1')}&fault=crash_for@400:d1:300&trace=full"
    system = api.build(api.Scenario.from_dsn(dsn))
    result = api.drive(system, 4)
    assert result.spec.ok, result.spec.summary()
    assert system.trace.count("crash", "d1") == 1
    outcomes: dict[str, dict] = {"d1": {}, "d2": {}}
    for event in system.trace.select("db_decide"):
        outcomes[event.process].setdefault(event.get("j"), set()).add(event.get("outcome"))
    traced = {db: (sum("commit" in o for o in keys.values()),
                   sum("commit" not in o and "abort" in o for o in keys.values()))
              for db, keys in outcomes.items()}
    assert {name: (db.commits, db.aborts)
            for name, db in result.statistics.by_database.items()} == traced
    assert all(aborts for _commits, aborts in traced.values()), traced


def test_bad_retention_policy_is_rejected_at_the_dsn_layer():
    with pytest.raises(api.ScenarioError):
        api.Scenario.from_dsn("etx://a3.d1.c1?trace=ring:0")
    with pytest.raises(api.ScenarioError):
        api.Scenario.from_dsn("etx://a3.d1.c1?trace=sometimes")


def test_trace_dsn_param_round_trips_and_sweeps():
    scenario = api.Scenario.from_dsn("etx://a3.d1.c1?trace=ring:1000")
    assert api.Scenario.from_dsn(scenario.to_dsn()) == scenario
    sweep = api.Sweep.over("etx://a3.d1.c1?workload=bank",
                           trace=["full", "ring:500", "off"])
    dsns = [s.to_dsn() for s in sweep.expand()]
    assert len(dsns) == 3
    assert any("trace=ring:500" in dsn for dsn in dsns)

"""Soak: a long spec-checked run with flat observability memory.

The standard sharded soak deployment (``repro.experiments.soak``) at 2 000
open-loop arrivals under ring retention: every request delivered, all eight
properties judged online over the whole run, a stored trace that never leaves
its retention bound and a spec-monitor in-flight table that does not trend
with the request count.  CI's ``perf-smoke`` runs the same harness at 100 000
requests through ``python -m repro soak``.
"""

from repro import api
from repro.experiments import soak

SOAK_DSN = ("etx://a3.d4.c16?rate=16&arrival=poisson&seed=3&workload=bank"
            "&placement=hash&trace=ring:2000")


def test_soak_ring_retention_flat_memory_and_online_spec():
    report = soak.run(SOAK_DSN, requests=2_000, checkpoints=8)
    run = report.run
    assert run.requested >= 2_000
    assert run.statistics.undelivered == 0
    assert run.spec.ok, run.spec.summary()
    assert set(run.spec.checked_properties) == \
        {"T.1", "T.2", "A.1", "A.2", "A.3", "V.1", "V.2", "S.1"}
    assert report.trace_bounded, [s.trace_stored for s in report.samples]
    assert 0 < report.trace_stored_final <= 2_000
    assert report.spec_memory_flat, [s.spec_in_flight for s in report.samples]
    # The monitor retired every transaction it opened.
    assert report.samples[-1].spec_retired >= run.delivered
    # What the run keeps for good is counted, per delivered request.
    assert report.retained_objects > 0
    assert report.to_json()["retained_objects_per_req"] == \
        round(report.retained_objects / run.delivered, 2)
    assert report.ok


def test_a_soak_is_the_scenario_run_with_its_checkpoints_watching():
    """The soak drives its scenario like any other run: the checkpoints and
    the GC count watch it without changing a latency or the verdict."""
    scenario = api.Scenario.from_dsn(SOAK_DSN)
    watched = soak.run(scenario, requests=320, checkpoints=4).run
    plain = api.run_scenario(scenario, requests=320 // scenario.num_clients,
                             max_events=5_000_000)
    assert watched.statistics.latencies == plain.statistics.latencies
    assert watched.statistics.undelivered == plain.statistics.undelivered == 0
    assert watched.spec.summary() == plain.spec.summary()
    assert watched.spec.ok

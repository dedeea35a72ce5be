"""Soak: a long spec-checked run with flat observability memory.

The standard sharded soak deployment (``repro.experiments.soak``) at 2 000
open-loop arrivals under ring retention: every request delivered, all eight
properties judged online over the whole run, a stored trace that never leaves
its retention bound and a spec-monitor in-flight table that does not trend
with the request count.  CI's ``perf-smoke`` runs the same harness at 100 000
requests through ``python -m repro soak``.
"""

from repro.experiments import soak


def test_soak_ring_retention_flat_memory_and_online_spec():
    report = soak.run(
        "etx://a3.d4.c16?rate=16&arrival=poisson&seed=3&workload=bank"
        "&placement=hash&trace=ring:2000",
        requests=2_000, checkpoints=8)
    assert report.requested >= 2_000
    assert report.undelivered == 0
    assert report.spec_ok, report.spec_summary
    assert set(report.checked_properties) == \
        {"T.1", "T.2", "A.1", "A.2", "A.3", "V.1", "V.2", "S.1"}
    assert report.trace_bounded, [s.trace_stored for s in report.samples]
    assert 0 < report.trace_stored_final <= 2_000
    assert report.spec_memory_flat, [s.spec_in_flight for s in report.samples]
    # The monitor retired every transaction it opened.
    assert report.samples[-1].spec_retired >= report.delivered
    # What the run keeps for good is counted, per delivered request.
    assert report.retained_objects > 0
    assert report.to_json()["retained_objects_per_req"] == \
        round(report.retained_objects / report.delivered, 2)
    assert report.ok

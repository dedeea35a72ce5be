"""Cross-run determinism: no process-global counter leaks between runs.

Thread identifiers and network-message identifiers are scoped to the
:class:`~repro.sim.scheduler.Simulator` (and request identifiers restart per
run), so running the same scenario twice in one interpreter -- with arbitrary
other work in between -- produces byte-identical traces.  This is the
foundation of the sweep executor's serial == parallel contract.
"""

from repro import api
from repro.sim.process import Process
from repro.sim.scheduler import Simulator
from repro.workload.generator import ClosedLoop

DSN = "etx://a3.d2.c2?workload=bank&placement=mod&xshard=0.5&seed=13"
OTHER_DSN = "2pc://a1.d1.c1?workload=travel&seed=99"


def _trace_of(dsn: str, requests: int = 2) -> list[tuple]:
    system = api.build(api.Scenario.from_dsn(dsn))
    ClosedLoop().run(system, requests)
    return [
        (event.time, event.category, event.process,
         tuple(sorted((key, repr(value)) for key, value in event.data.items())))
        for event in system.trace
    ]


def test_back_to_back_runs_produce_identical_traces():
    first = _trace_of(DSN)
    # Perturb any interpreter-global state: run a different protocol stack,
    # spawn raw simulator threads, send raw messages.
    _trace_of(OTHER_DSN)
    second = _trace_of(DSN)
    assert first == second


def test_execution_order_does_not_matter():
    """A run's trace is independent of what ran before it in the process."""
    baseline = _trace_of(OTHER_DSN)
    for _ in range(3):
        _trace_of(DSN, requests=1)
    assert _trace_of(OTHER_DSN) == baseline


def test_thread_ids_are_scoped_to_the_simulator():
    def spin(process):
        yield process.sleep(1.0)

    first_sim = Simulator()
    first = Process(first_sim, "p")
    ids_first = [first.spawn(spin(first)).id for _ in range(3)]
    second_sim = Simulator()
    second = Process(second_sim, "q")
    ids_second = [second.spawn(spin(second)).id for _ in range(3)]
    assert ids_first == ids_second == [1, 2, 3]


def test_run_scenario_resets_request_ids():
    first = api.run_scenario(DSN, requests=1)
    second = api.run_scenario(DSN, requests=1)
    assert first.statistics.latencies == second.statistics.latencies
    assert first.summary() == second.summary()


# --------------------------------------------------------------- campaigns


CAMPAIGN_DSN = "baseline://a1.d1.c1?workload=bank&timing=paper&seed=3"


def _campaign_fingerprint(workers: int) -> tuple:
    """Everything a campaign produced, as comparable plain data."""
    from repro.campaign import CampaignBudget, run_campaign

    report = run_campaign(
        CAMPAIGN_DSN,
        budget=CampaignBudget(max_runs=12, population=6, stop_after=2,
                              shrink_checks=25, horizon=60_000.0,
                              settle=10_000.0),
        workers=workers)
    return (
        report.runs,
        report.shrink_runs,
        [(g.index, g.size, g.best_score, g.violating_runs)
         for g in report.generations],
        [example.to_json() for example in report.counterexamples],
        [example.to_json() for example in report.certificates],
    )


def test_campaign_with_fixed_master_seed_is_byte_identical():
    """Two campaigns, same seed: same generations, shrunk schedules, artifacts.

    Interleaved unrelated runs must not perturb the search (same contract as
    back-to-back scenario runs above).
    """
    first = _campaign_fingerprint(workers=1)
    _trace_of(OTHER_DSN)  # perturb interpreter state between campaigns
    second = _campaign_fingerprint(workers=1)
    assert first == second


def test_campaign_is_deterministic_under_map_jobs_parallelism():
    """A parallel campaign produces byte-identical results to a serial one."""
    serial = _campaign_fingerprint(workers=1)
    parallel = _campaign_fingerprint(workers=2)
    assert serial == parallel

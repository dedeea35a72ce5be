"""Cross-commit trace oracle: committed fingerprints of whole traces.

This module pins the traces themselves, so a refactor that is meant to leave
behaviour alone -- a new event queue included -- can prove it did.
``tests/golden/trace_fingerprints.json`` holds the sha256 of the full trace
(the ``_fingerprint`` form: every event, every field) for

* the four protocol ``SCHEMES``, seeds 0-19, so the FIFO-within-timestamp
  contract is pinned for each protocol's own scheduling mix,
* the three comparators at four clients (``QUEUED``), where the
  transactions overlap at the transaction manager and queue at the database,
* one sharded open-loop shape with cross-shard transactions,
* one ``failover_hb``-shaped run (heartbeat detector; a database crash, a
  partition during which ``a2`` crashes -- so the recovered ``a2`` cleans with
  a fresh volatile state -- and a permanent crash of ``a1``): the only pinned
  trace in which the Figure 6 cleaning thread works, 15 results cleaned by two
  different cleaners (the recovered ``a2`` reads the claim feed from the start
  and cleans ``a1``'s old claims once ``a1`` is quiet), and
* the replay of every committed corpus artifact (``tests/corpus/``) with the
  exact evaluation parameters recorded in the artifact -- faulted schedules
  exercise cancellation, crash timers and recovery paths that clean runs
  never reach.

Each trace is pinned twice: ``full`` is the digest of every event, and
``protocol`` the digest of the *protocol projection* -- every event that is
not a transport event (``msg_send`` / ``msg_deliver`` / ``msg_drop``), all
fields and times included.  A change to who mails whom moves ``full`` only; a
change to what any process decided, logged, suspected or answered, or *when*,
moves ``protocol`` too.

A change that *intends* to alter traces regenerates the file and says so::

    PYTHONPATH=src python tests/test_trace_golden.py
"""

import collections
import glob
import hashlib
import json
import os
import subprocess
import sys

import pytest

from repro import api
from repro.api.runner import load_generator_for
from repro.campaign.artifacts import Counterexample
from repro.workload.generator import ClosedLoop

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(TESTS_DIR, "golden", "trace_fingerprints.json")
CORPUS = sorted(glob.glob(os.path.join(TESTS_DIR, "corpus", "*.json")))
SEEDS = range(20)
SCHEMES = {
    "etx": "etx://a3.d2.c2?workload=bank&placement=mod&xshard=0.5&seed={seed}",
    "2pc": "2pc://a1.d1.c1?workload=travel&seed={seed}",
    "pb": "pb://a2.d1.c1?workload=bank&timing=paper&seed={seed}",
    "baseline": "baseline://a1.d1.c1?workload=bank&timing=paper&seed={seed}",
}
QUEUED = (
    "2pc://a1.d1.c4?workload=bank&timing=paper",
    "pb://a2.d1.c4?workload=bank&timing=paper",
    "baseline://a1.d2.c4?workload=bank&placement=hash&xshard=0.5",
)
OPEN_LOOP = "etx://a3.d8.c16?rate=24&placement=hash&xshard=0.1&workload=bank"
FAILOVER = ("etx://a3.d2.c4?rate=4&arrival=uniform&fd=heartbeat&workload=bank"
            "&placement=hash&xshard=0.2&faults=crash_for@1000:d1:500,"
            "partition@2500:a1|a2~a3~d1~d2,crash_for@2800:a2:800,heal@3200,"
            "crash@7000:a1&seed=5")


TRANSPORT = frozenset(("msg_send", "msg_deliver", "msg_drop"))


def _digest(trace: list[tuple]) -> dict[str, str]:
    protocol = [event for event in trace if event[1] not in TRANSPORT]
    return {"full": hashlib.sha256(repr(trace).encode()).hexdigest(),
            "protocol": hashlib.sha256(repr(protocol).encode()).hexdigest()}


def _fingerprint(system) -> list[tuple]:
    """The full trace as comparable plain data (every field, repr'd)."""
    return [
        (event.time, event.category, event.process,
         tuple(sorted((key, repr(value)) for key, value in event.data.items())))
        for event in system.trace
    ]


def _scenario_trace(dsn: str, requests: int = 2) -> list[tuple]:
    system = api.build(api.Scenario.from_dsn(dsn))
    ClosedLoop().run(system, requests)
    fingerprint = _fingerprint(system)
    system.close()
    return fingerprint


def _replay_trace(path: str) -> list[tuple]:
    """Replay a corpus artifact as :func:`repro.campaign.runner.evaluate_schedule`
    runs it, keeping the full trace."""
    artifact = Counterexample.load(path)
    system = api.build(artifact.scenario(os.path.dirname(os.path.abspath(path))))
    api.drive(system, artifact.requests, horizon_per_request=artifact.horizon,
              settle=artifact.settle, check_termination=True)
    return _fingerprint(system)


def _open_loop_trace(dsn: str, requests: int = 2) -> list[tuple]:
    scenario = api.Scenario.from_dsn(dsn)
    system = api.build(scenario)
    load_generator_for(scenario).run(system, requests)
    trace = _fingerprint(system)
    system.close()
    return trace


def fingerprints() -> dict[str, dict[str, str]]:
    """Both digests of every pinned trace, keyed by a readable name."""
    digests = {}
    for scheme in sorted(SCHEMES):
        for seed in SEEDS:
            dsn = SCHEMES[scheme].format(seed=seed)
            digests[dsn] = _digest(_scenario_trace(dsn))
    for dsn in QUEUED:
        digests[dsn] = _digest(_scenario_trace(dsn, requests=3))
    digests[OPEN_LOOP] = _digest(_open_loop_trace(OPEN_LOOP))
    digests[FAILOVER] = _digest(_open_loop_trace(FAILOVER, requests=10))
    for path in CORPUS:
        digests[f"corpus/{os.path.basename(path)}"] = _digest(_replay_trace(path))
    return digests


def _golden() -> dict[str, dict[str, str]]:
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def _changed(actual: dict, golden: dict) -> list[str]:
    """``name:digest`` of every digest that differs, is missing or is extra."""
    return sorted(f"{name}:{kind}" for name in actual.keys() | golden.keys()
                  for kind in ("full", "protocol")
                  if actual.get(name, {}).get(kind) != golden.get(name, {}).get(kind))


def test_corpus_is_present():
    """The oracle must never silently run over an empty corpus."""
    assert len(CORPUS) >= 8


def test_open_loop_register_write_costs_one_round_trip():
    """Acceptors learn on ``accept``: no ``decide`` on the wire, and a register
    write costs at most the fast path's 2 ``accept`` + 2 ``accepted``."""
    scenario = api.Scenario.from_dsn(OPEN_LOOP)
    system = api.build(scenario)
    kinds = collections.Counter()
    network = system.network
    real_send = network.send

    def spy(source, destination, message):
        if message.msg_type == "Consensus":
            kinds[message["kind"]] += 1
        real_send(source, destination, message)

    network.send = spy
    load_generator_for(scenario).run(system, 20)
    writes = {event.get("instance") for event in system.trace.select("consensus_decide")}
    system.close()
    assert kinds["decide"] == 0
    assert len(writes) >= 40 and sum(kinds.values()) <= 4 * len(writes)


def test_failover_serves_while_the_recovered_server_watches_and_only_claim_holders_beat():
    """The recovered ``a2`` rejoins the detector at 3 600 with no suspicion, so
    ``a1`` serves until its crash at 7 000 (16 results delivered in between; none
    when ``a2`` kept suspecting ``a1`` and aborted each of its claims).  Only a
    server holding a claim beats: 3 332 ``Heartbeat`` sends.  While each
    request's first send still went to ``a1`` after its crash, the run sent
    3 806, and 23 226 when every server beat every peer all the time."""
    scenario = api.Scenario.from_dsn(FAILOVER)
    system = api.build(scenario)
    load_generator_for(scenario).run(system, 10)
    delivered = [event.time for event in system.trace.select("client_deliver")]
    assert len([time for time in delivered if 3_600.0 <= time < 7_000.0]) == 16
    assert system.network.stats.by_type_sent["Heartbeat"] == 3_332
    system.close()


def test_two_builds_of_one_scenario_record_the_same_trace():
    """``build`` restarts request numbering: a second run in this process
    must not carry on from the first run's request ids."""
    dsn = SCHEMES["etx"].format(seed=4)
    assert _scenario_trace(dsn) == _scenario_trace(dsn)


def test_traces_match_the_committed_fingerprints():
    assert _changed(fingerprints(), _golden()) == []


@pytest.mark.parametrize("hash_seed", ["1", "2"])
def test_traces_do_not_depend_on_the_string_hash_seed(hash_seed):
    """Set iteration order must never reach the wire or the trace."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(sys.path))  # child imports what we import
    script = ("import json, test_trace_golden as golden; "
              "print(json.dumps(golden.fingerprints()))")
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=600, check=True)
    assert _changed(json.loads(result.stdout), _golden()) == []


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(fingerprints(), handle, indent=2)
        handle.write("\n")
    print(f"wrote {GOLDEN}")

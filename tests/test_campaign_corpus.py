"""Replay the committed counterexample corpus on every CI run.

``tests/corpus/`` holds the shrunk counterexamples the fault campaigns found
for the three comparison protocols (which *should* violate under the right
faults) and clean-pass certificates for the e-Transaction protocol.  Each
artifact records the exact violation strings its run must (re)produce;
replaying them pins the protocols' failure modes -- and etx's absence of one
-- as permanent, deterministic regression tests.
"""

import glob
import os

import pytest

from repro import api
from repro.campaign import Counterexample, replay
from repro.core import messages as msg

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
ARTIFACTS = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))


def _artifact_id(path: str) -> str:
    return os.path.basename(path)


def test_corpus_is_present_and_covers_the_protocols():
    assert ARTIFACTS, "the committed corpus must not be empty"
    by_protocol: dict[str, set] = {}
    for path in ARTIFACTS:
        example = Counterexample.load(path)
        by_protocol.setdefault(example.scenario().protocol, set()).add(example.kind)
    # The three comparison protocols each have a violation on file; the
    # e-Transaction protocol has clean-pass certificates.
    assert "violation" in by_protocol.get("baseline", set())
    assert "violation" in by_protocol.get("2pc", set())
    assert "violation" in by_protocol.get("pb", set())
    assert "certificate" in by_protocol.get("etx", set())


@pytest.mark.parametrize("path", ARTIFACTS, ids=_artifact_id)
def test_corpus_artifact_replays_deterministically(path):
    result = replay(path)
    assert result.matches, result.summary()


@pytest.mark.parametrize("path", ARTIFACTS, ids=_artifact_id)
def test_corpus_violations_are_small_and_well_formed(path):
    example = Counterexample.load(path)
    scenario = example.scenario()
    if example.kind == "violation":
        # The shrinker's contract: a handful of fault actions at most.
        assert 1 <= len(scenario.faults) <= 4
        assert example.violations
    else:
        assert not example.violations
    assert example.provenance.get("campaign_seed") is not None


COMPARATOR_ARTIFACTS = ("2pc-t1.json", "2pc-t1-t2.json", "baseline-t1.json",
                        "pb-t1.json", "pb-t1-t2.json")


@pytest.mark.parametrize("name", COMPARATOR_ARTIFACTS)
def test_a_blocked_comparator_buffers_no_request(name):
    """A crashed or blocked transaction stops only its own thread: the
    clients' re-broadcasts reach a ``Request`` handler, which drops a
    duplicate, and no middle-tier thread waits on a request -- nor on a
    recovered database's ``Ready``, which is dropped as it arrives."""
    example = Counterexample.load(os.path.join(CORPUS_DIR, name))
    system = api.build(example.scenario(CORPUS_DIR))
    api.drive(system, example.requests, horizon_per_request=example.horizon,
              settle=example.settle, check_termination=True)
    assert system.trace.count("client_send") > example.requests
    for server in system.app_servers.values():
        assert not [key for key in server._waiters
                    if key[0] in (msg.REQUEST, msg.READY)], server.name

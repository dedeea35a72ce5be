"""The cleaning thread (the paper's Figure 6), tested directly.

A cleaner follows ``regA`` as a feed and keeps, per peer, the claims it has
not terminated itself; when the failure detector suspects a peer it forces a
decision for each of that peer's pending claims -- in ``(client, j)`` order,
against the participants the claim recorded -- and forgets the claim.  It has
no clock: it sweeps when it starts, at the instant its detector starts
suspecting someone and, while it suspects anybody, at the instant it learns a
claim; otherwise it is parked and nothing is scheduled for it.  Every test
runs over both register implementations.
"""

import pytest

from conftest import idle

from repro.consensus.synod import ConsensusHost
from repro import api
from repro.api import FaultSpec
from repro.core import FD_HEARTBEAT
from repro.core import messages as msg
from repro.core.appserver import RegisterPair, claim_parts
from repro.core.deployment import REGISTER_CONSENSUS, REGISTER_LOCAL
from repro.failure.detectors import FailureDetector, HeartbeatFailureDetector
from repro.registers.base import WriteOnceRegisterArray
from repro.workload.bank import BankWorkload

BANK = BankWorkload(num_accounts=16, initial_balance=1_000)
DB_NAMES = ("d1", "d2", "d3")
DETECT = 10.0
QUIET = 1_000.0  # long enough for anything a sweep started to finish

both_register_modes = pytest.mark.parametrize("register_mode",
                                              [REGISTER_LOCAL, REGISTER_CONSENSUS])


def make_deployment(register_mode, **fields):
    scenario = api.Scenario(**{"num_db_servers": len(DB_NAMES), "num_clients": 3,
                               "placement": "hash", "register_mode": register_mode,
                               "detection_delay": DETECT, **fields})
    return api.build(scenario, workload=BANK)


def routed(deployment, request_for, *accounts):
    """A bank request stamped with the shards its accounts live on."""
    keys = [BANK.account_key(account) for account in accounts]
    return request_for(*accounts, 1, participants=deployment.sharding.participants(keys))


def account_on(deployment, shard):
    return next(account for account in range(BANK.num_accounts)
                if deployment.sharding.participants([BANK.account_key(account)]) == (shard,))


class CountingRegisters(WriteOnceRegisterArray):
    """Delegates to a register array and logs ``(time, method, detail)``."""

    def __init__(self, inner, sim):
        self.inner = inner
        self.sim = sim
        self.calls = []

    def write(self, index, value):
        self.calls.append((self.sim.now, "write", index))
        return self.inner.write(index, value)

    def read(self, index):
        self.calls.append((self.sim.now, "read", index))
        return self.inner.read(index)

    def learned_since(self, cursor):
        entries, cursor = self.inner.learned_since(cursor)
        self.calls.append((self.sim.now, "learned_since", [key for key, _ in entries]))
        return entries, cursor

    def on_learn(self, wake):
        self.calls.append((self.sim.now, "on_learn", wake is not None))
        self.inner.on_learn(wake)

    def between(self, start, end, method=None):
        return [call for call in self.calls
                if start <= call[0] < end and method in (None, call[1])]


def count_registers(deployment, name):
    """Put a counting wrapper around ``name``'s view of both arrays."""
    server = deployment.app_servers[name]
    reg_a = CountingRegisters(server.registers.reg_a, deployment.sim)
    reg_d = CountingRegisters(server.registers.reg_d, deployment.sim)
    server.registers = RegisterPair(reg_a, reg_d)
    return reg_a, reg_d


class CountingDetector(FailureDetector):
    """Delegates to a detector and logs ``(time, observer, target)`` of every question."""

    def __init__(self, inner, sim):
        self.inner = inner
        self.sim = sim
        self.asked = []

    def suspect(self, observer, target):
        self.asked.append((self.sim.now, observer, target))
        return self.inner.suspect(observer, target)

    def on_suspicion(self, observer, wake):
        self.inner.on_suspicion(observer, wake)


def count_suspect_calls(deployment):
    """Put one counting wrapper between every cleaner and its detector."""
    servers = list(deployment.app_servers.values())
    counting = CountingDetector(servers[0].failure_detector, deployment.sim)
    for server in servers:
        server.failure_detector = counting
    return counting


def record_decides(deployment, name):
    """``(key, destination)`` of every ``Decide`` the server ``name`` sends."""
    server = deployment.app_servers[name]
    sent, send = [], server.send

    def recording_send(destination, message):
        if message.msg_type == msg.DECIDE:
            sent.append((message["j"], destination))
        send(destination, message)

    server.send = recording_send
    return sent


def cleaned(deployment, cleaner):
    return [((event.get("client"), event.get("j")), event.get("suspected"),
             tuple(event.get("participants")))
            for event in deployment.trace.select("as_clean", process=cleaner)]


def clean_times(deployment, cleaner):
    return [event.time for event in deployment.trace.select("as_clean", process=cleaner)]


def claimants(deployment):
    """``key -> claimant`` of every claim a3 has learned, in learn order."""
    reg_a = deployment.app_servers["a3"].registers.reg_a
    entries, _ = getattr(reg_a, "inner", reg_a).learned_since(0)
    return {key: claim_parts(entry, DB_NAMES)[0] for key, entry in entries}


# ---------------------------------------------------------- order, participants


@both_register_modes
def test_results_are_cleaned_in_key_order_against_their_claimed_participants(register_mode):
    deployment = make_deployment(register_mode)
    on_d1, on_d2 = account_on(deployment, "d1"), account_on(deployment, "d2")
    on_d3 = account_on(deployment, "d3")
    requests = {"c3": routed(deployment, BANK.debit, on_d3),
                "c1": routed(deployment, BANK.transfer, on_d1, on_d2),
                "c2": routed(deployment, BANK.debit, on_d2)}
    decides = {name: record_decides(deployment, name) for name in ("a2", "a3")}
    # a1 claims all three (in arrival order c3, c1, c2) and dies before it
    # terminates any; a2 and a3 learn the claims and sweep when they suspect a1, at 22.
    deployment.apply_faults((FaultSpec("crash", 12.0, "a1"),))
    issued = [deployment.issue(request, client) for client, request in requests.items()]
    deployment.sim.run_until(lambda: all(i.delivered for i in issued), until=100_000.0)
    assert all(i.delivered for i in issued)

    expected = [(("c1", 1), "a1", ("d1", "d2")),
                (("c2", 1), "a1", ("d2",)),
                (("c3", 1), "a1", ("d3",))]
    for cleaner in ("a2", "a3"):
        assert cleaned(deployment, cleaner) == expected
        assert clean_times(deployment, cleaner)[0] == 12.0 + DETECT  # the suspicion edge
        # Decide goes to the participants of the claim, and to nobody else.
        for key, _suspected, participants in expected:
            destinations = {dst for k, dst in decides[cleaner] if k == key}
            assert destinations == set(participants)
    report = deployment.check_spec()
    assert report.ok, report.summary()


# ------------------------------------------------------- non-suspected claims


@both_register_modes
def test_a_claim_of_a_server_nobody_suspects_is_never_touched(register_mode):
    deployment = make_deployment(register_mode, num_clients=1)
    counters = {name: count_registers(deployment, name) for name in ("a2", "a3")}
    deployment.apply_faults((FaultSpec("crash", 12.0, "a1"),))
    for _ in range(4):
        assert deployment.run_request(routed(deployment, BANK.debit, 0)).delivered
    deployment.run(until=deployment.sim.now + QUIET)

    claimed_by = claimants(deployment)
    assert [key for key, claimant in claimed_by.items() if claimant == "a1"] == [("c1", 1)]
    assert len(claimed_by) >= 5
    for cleaner, (reg_a, reg_d) in counters.items():
        assert [key for key, _, _ in cleaned(deployment, cleaner)] == [("c1", 1)]
        # The feed is the cleaner's only look at regA: no cell is ever read,
        # and the only cells it forces a decision on are a1's.
        assert reg_a.between(0.0, float("inf"), "read") == []
        own = {key for key, claimant in claimed_by.items() if claimant == cleaner}
        forced = {call[2] for call in reg_d.between(0.0, float("inf"), "write")}
        assert forced == own | {("c1", 1)}
    assert deployment.check_spec().ok


@both_register_modes
def test_nobody_suspected_means_the_feed_is_not_even_opened(register_mode):
    deployment = make_deployment(register_mode, num_clients=1)
    counters = {name: count_registers(deployment, name) for name in ("a2", "a3")}
    asked = count_suspect_calls(deployment).asked
    for _ in range(3):
        assert deployment.run_request(routed(deployment, BANK.debit, 0)).delivered
    # Nothing is left scheduled once the requests are delivered, for anybody.
    assert idle(deployment.sim)
    deployment.run(until=deployment.sim.now + QUIET)
    for reg_a, reg_d in counters.values():
        assert reg_a.calls == [] and reg_d.calls == []
    assert asked == []  # a fault-free run never wakes a cleaner


# ------------------------------------------------------------- what wakes it


@both_register_modes
def test_a_heartbeat_suspicion_sweeps_at_the_instant_it_is_raised(register_mode):
    deployment = make_deployment(register_mode, num_clients=1, failure_detector=FD_HEARTBEAT)
    deployment.apply_faults((FaultSpec("crash", 12.0, "a1"),))
    assert deployment.run_request(routed(deployment, BANK.debit, 0)).delivered
    for cleaner in ("a2", "a3"):
        suspicion, = deployment.trace.select("fd_suspect", process=cleaner, target="a1")
        assert clean_times(deployment, cleaner) == [suspicion.time]
    assert deployment.check_spec().ok


def learn_times(deployment, register_mode, learner, array="regA"):
    """When ``learner`` learned each cell of ``array`` (the shared store has one time for all)."""
    if register_mode == REGISTER_LOCAL:
        return [event.time for event in deployment.trace.select("woregister_write", register=array)]
    return [event.time for event in deployment.trace.select("consensus_decide", process=learner)
            if event.get("instance")[0] == array]


@both_register_modes
def test_a_false_suspicion_wakes_its_observer_only_and_claims_are_cleaned_as_learned(
        register_mode):
    deployment = make_deployment(register_mode, num_clients=1)
    asked = count_suspect_calls(deployment).asked
    assert deployment.run_request(routed(deployment, BANK.debit, 0)).delivered
    start = deployment.sim.now + 100.0
    end = start + 2 * QUIET
    deployment.apply_faults((FaultSpec("false_suspicion", start, "a1", observer="a2",
                                       duration=end - start),))
    deployment.run(until=start + QUIET)
    # The window opens: a2 alone is woken, then and not before, and cleans what a1 holds
    # (a sweep that cleaned something is followed by one more look).
    assert {observer for _, observer, _ in asked} == {"a2"}
    assert min(time for time, _, _ in asked) == start
    assert [key for key, _, _ in cleaned(deployment, "a2")] == [("c1", 1)]
    assert clean_times(deployment, "a2") == [start] and cleaned(deployment, "a3") == []
    # A claim a1 makes while a2 suspects it is cleaned at the instant a2 learns it
    # (so the client retries until the window closes, and a1 claims again each time).
    assert deployment.run_request(routed(deployment, BANK.debit, 0)).delivered
    assert deployment.client.primary == "a1"  # a2's aborts came within the back-off
    learned = learn_times(deployment, register_mode, "a2")[1:]
    assert learned[0] < end < learned[-1] == max(learned)
    assert clean_times(deployment, "a2")[1:] == [time for time in learned if time < end]
    assert all(suspected == "a1" for _, suspected, _ in cleaned(deployment, "a2"))
    assert {observer for _, observer, _ in asked} == {"a2"}
    assert deployment.check_spec().ok


@both_register_modes
def test_a_crash_undone_within_the_detection_delay_wakes_the_cleaners_to_nothing(register_mode):
    deployment = make_deployment(register_mode, num_clients=1)
    asked = count_suspect_calls(deployment).asked
    assert deployment.run_request(routed(deployment, BANK.debit, 0)).delivered
    down = deployment.sim.now + 50.0
    deployment.apply_faults((FaultSpec("crash_for", down, "a3", downtime=DETECT / 2),))
    deployment.run(until=down + QUIET)
    # The recovered a3 sweeps as it starts; the wake-up the crash armed finds
    # a3 up again: every cleaner asks once more, nobody cleans.
    assert sorted({(time, observer) for time, observer, _ in asked}) == [
        (down + DETECT / 2, "a3"),
        (down + DETECT, "a1"), (down + DETECT, "a2"), (down + DETECT, "a3")]
    assert deployment.trace.count("as_clean") == 0
    assert idle(deployment.sim)


# ------------------------------------------------------------ late replies


def test_a_late_reply_for_a_terminated_result_is_dropped_and_handlers_still_run():
    """``Process.deliver`` drops a retransmitted reply whose result the server
    already terminated -- before any waiter lookup, without buffering it --
    while handled types (heartbeats, consensus) never meet that check.  a1 is
    the claimant, so it hears heartbeats only while a peer holds a claim: a2
    claims the second result."""
    deployment = make_deployment(REGISTER_CONSENSUS, num_clients=1,
                                 failure_detector=FD_HEARTBEAT)
    assert deployment.run_request(routed(deployment, BANK.debit, 0)).delivered
    done = ("c1", 1)
    server = next(s for s in deployment.app_servers.values() if done in s._terminated)
    reached = []
    for msg_type in (HeartbeatFailureDetector.HEARTBEAT, ConsensusHost.MSG_TYPE):
        handler = server._handlers[msg_type]
        server._handlers[msg_type] = lambda m, h=handler: (reached.append(m.msg_type), h(m))
    before = server.mailbox_size
    for late in (msg.vote_message(done, "yes"), msg.ack_decide_message(done),
                 msg.execute_result_message(done, 0)):
        late.sender = "d1"
        server.deliver(late)
    assert server.mailbox_size == before
    stray = msg.vote_message(("c9", 1), "yes")  # not terminated here: buffered
    stray.sender = "d1"
    server.deliver(stray)
    assert server.mailbox_size == before + 1
    deployment.client.primary = "a2"
    assert deployment.run_request(routed(deployment, BANK.debit, 0)).delivered
    assert server.name == "a1" and set(reached) == {"Heartbeat", "Consensus"}
    assert deployment.check_spec().ok


# ------------------------------------------------------------------ recovery


@both_register_modes
def test_a_recovered_cleaner_cleans_the_suspected_peers_keys_again(register_mode):
    """The index is volatile, the feed durable: after its own crash a cleaner
    starts from cursor 0 and terminates a1's results once more (harmless: the
    decision is in ``regD``)."""
    deployment = make_deployment(register_mode, num_clients=1)
    down, back = 4_000.0, 4_200.0
    deployment.apply_faults((FaultSpec("crash", 12.0, "a1"),
                             FaultSpec("crash_for", down, "a2", downtime=back - down)))
    issued = deployment.run_request(routed(deployment, BANK.debit, 0))
    assert issued.delivered and deployment.sim.now < down
    deployment.run(until=down)
    first = cleaned(deployment, "a2")
    assert [key for key, _, _ in first] == [("c1", 1)]
    deployment.run(until=back + QUIET)
    # Once more, as the recovered thread starts -- and once per incarnation.
    assert cleaned(deployment, "a2") == first * 2
    assert clean_times(deployment, "a2") == [12.0 + DETECT, back]
    assert deployment.trace.count("as_clean", process="a3", suspected="a1") == 1
    assert deployment.check_spec().ok


# -------------------------------------------------------- history independence


@both_register_modes
def test_a_parked_cleaner_costs_nothing_whatever_the_history(register_mode):
    """With a1 gone for good and everything cleaned a survivor touches neither
    array until the next claim -- after N results and after 5 N -- and a claim
    costs it one look at the feed's news, never at an old entry."""
    deployment = make_deployment(register_mode, num_clients=1)
    reg_a, reg_d = count_registers(deployment, "a3")
    deployment.apply_faults((FaultSpec("crash", 12.0, "a1"),))
    per_claim = []
    for requests in (5, 20):
        for _ in range(requests):
            assert deployment.run_request(routed(deployment, BANK.debit, 0)).delivered
        deployment.run(until=deployment.sim.now + QUIET)  # let clean-up settle
        start = deployment.sim.now
        deployment.run(until=start + 20 * QUIET)
        assert reg_a.between(start, float("inf")) == reg_d.between(start, float("inf")) == []
        # a2 serves the next request; a3 follows it through the feed alone.
        assert deployment.run_request(routed(deployment, BANK.debit, 0)).delivered
        per_claim.append([(method, len(detail)) for _, method, detail
                          in reg_a.between(start, float("inf"), "learned_since") if detail])
        assert reg_a.between(start, float("inf"), "read") == []
    assert per_claim[0] == per_claim[1] == [("learned_since", 1)]
    # Over the whole run every claim came through the feed exactly once.
    fed = [key for _, _, keys in reg_a.between(0.0, float("inf"), "learned_since")
           for key in keys]
    assert len(fed) == len(set(fed)) == len(reg_a.inner.learned_since(0)[0]) >= 25
    assert deployment.check_spec().ok

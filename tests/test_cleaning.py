"""The cleaning thread (the paper's Figure 6), tested directly.

A cleaner follows ``regA`` as a feed and keeps, per peer, the claims it has
not terminated itself; when the failure detector suspects a peer it forces a
decision for each of that peer's pending claims -- in ``(client, j)`` order,
against the participants the claim recorded -- and forgets the claim.  Every
test runs over both register implementations.
"""

import pytest

from repro.core import DeploymentConfig, EtxDeployment
from repro.core import messages as msg
from repro.core.appserver import RegisterPair, claim_parts
from repro.core.deployment import REGISTER_CONSENSUS, REGISTER_LOCAL
from repro.core.timing import ProtocolTiming
from repro.failure.injection import FaultSchedule
from repro.registers.base import WriteOnceRegisterArray
from repro.workload.bank import BankWorkload

BANK = BankWorkload(num_accounts=16, initial_balance=1_000)
DB_NAMES = ("d1", "d2", "d3")
TICK = ProtocolTiming().clean_interval

both_register_modes = pytest.mark.parametrize("register_mode",
                                              [REGISTER_LOCAL, REGISTER_CONSENSUS])


def make_deployment(register_mode, **overrides):
    defaults = dict(num_db_servers=len(DB_NAMES), num_clients=3, placement="hash",
                    register_mode=register_mode, detection_delay=10.0,
                    business_logic=BANK.business_logic, initial_data=BANK.initial_data())
    defaults.update(overrides)
    return EtxDeployment(DeploymentConfig(**defaults))


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
    # terminates any; a2 and a3 learn the claims, suspect a1 at 22 and sweep at 25.
    deployment.apply_faults(FaultSchedule().crash(12.0, "a1"))
    issued = [deployment.issue(request, client) for client, request in requests.items()]
    deployment.sim.run_until(lambda: all(i.delivered for i in issued), until=100_000.0)
    assert all(i.delivered for i in issued)

    expected = [(("c1", 1), "a1", ("d1", "d2")),
                (("c2", 1), "a1", ("d2",)),
                (("c3", 1), "a1", ("d3",))]
    for cleaner in ("a2", "a3"):
        assert cleaned(deployment, cleaner) == expected
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
    deployment.apply_faults(FaultSchedule().crash(12.0, "a1"))
    for _ in range(4):
        assert deployment.run_request(routed(deployment, BANK.debit, 0)).delivered
    deployment.run(until=deployment.sim.now + 10 * TICK)

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
    for _ in range(3):
        assert deployment.run_request(routed(deployment, BANK.debit, 0)).delivered
    deployment.run(until=deployment.sim.now + 10 * TICK)
    for reg_a, reg_d in counters.values():
        assert reg_a.calls == [] and reg_d.calls == []


# ------------------------------------------------------------------ recovery


@both_register_modes
def test_a_recovered_cleaner_cleans_the_suspected_peers_keys_again(register_mode):
    """The index is volatile, the feed durable: after its own crash a cleaner
    starts from cursor 0 and terminates a1's results once more (harmless: the
    decision is in ``regD``)."""
    deployment = make_deployment(register_mode, num_clients=1)
    down, back = 4_000.0, 4_200.0
    deployment.apply_faults(FaultSchedule().crash(12.0, "a1").crash_for(down, "a2", back - down))
    issued = deployment.run_request(routed(deployment, BANK.debit, 0))
    assert issued.delivered and deployment.sim.now < down
    deployment.run(until=down)
    first = cleaned(deployment, "a2")
    assert [key for key, _, _ in first] == [("c1", 1)]
    deployment.run(until=back + 40 * TICK)
    # Once more, at the recovered thread's first tick -- and once per
    # incarnation, not once per tick.
    again = deployment.trace.select("as_clean", process="a2")
    assert cleaned(deployment, "a2") == first * 2
    assert again[0].time < down and again[1].time == back + TICK
    assert deployment.trace.count("as_clean", process="a3", suspected="a1") == 1
    assert deployment.check_spec().ok


# -------------------------------------------------------- history independence


@both_register_modes
def test_a_quiet_tick_costs_the_same_whatever_the_history(register_mode):
    """With a1 gone for good every tick of a survivor asks the feed for news
    once -- after N results and after 5 N -- and never looks at an old one."""
    deployment = make_deployment(register_mode, num_clients=1)
    reg_a, reg_d = count_registers(deployment, "a2")
    deployment.apply_faults(FaultSchedule().crash(12.0, "a1"))
    ticks, per_window = 20, []
    for requests in (5, 20):
        for _ in range(requests):
            assert deployment.run_request(routed(deployment, BANK.debit, 0)).delivered
        deployment.run(until=deployment.sim.now + 20 * TICK)  # let clean-up settle
        start = deployment.sim.now
        deployment.run(until=start + ticks * TICK)
        window = reg_a.between(start, start + ticks * TICK)
        assert reg_d.between(start, start + ticks * TICK) == []
        per_window.append([(method, detail) for _, method, detail in window])
    assert per_window[0] == per_window[1] == [("learned_since", [])] * ticks
    # Over the whole run every claim came through the feed exactly once.
    fed = [key for _, _, keys in reg_a.between(0.0, float("inf"), "learned_since")
           for key in keys]
    assert len(fed) == len(set(fed)) == len(reg_a.inner.learned_since(0)[0]) >= 25
    assert deployment.check_spec().ok

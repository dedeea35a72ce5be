"""Register-array growth: the garbage collection the paper explicitly defers.

Section 5: "we did not address the issue of cleaning the wo-register arrays".
The reproduction follows the paper, so every intermediate result permanently
occupies one cell in ``regA`` and one in ``regD``.  These tests document that
behaviour (it is a known limitation, not an accident) and check the growth is
exactly linear in the number of intermediate results -- no leak beyond it.
"""

from repro.core import DeploymentConfig, EtxDeployment
from repro.failure.injection import FaultSchedule
from repro.workload.bank import BankWorkload

BANK = BankWorkload(num_accounts=1, initial_balance=1_000)


def make_deployment(**overrides):
    defaults = dict(business_logic=BANK.business_logic, initial_data=BANK.initial_data())
    defaults.update(overrides)
    return EtxDeployment(DeploymentConfig(**defaults))


def register_cells(deployment):
    server = deployment.app_servers["a1"]  # the default primary
    return (len(server.registers.reg_a.learned_since(0)[0]),
            len(server.registers.reg_d.learned_since(0)[0]))


def test_one_register_cell_pair_per_committed_result():
    deployment = make_deployment()
    for _ in range(4):
        issued = deployment.run_request(BANK.debit(0, 1))
        assert issued.delivered
    reg_a_cells, reg_d_cells = register_cells(deployment)
    assert reg_a_cells == 4
    assert reg_d_cells == 4


def test_aborted_intermediate_results_also_occupy_cells():
    deployment = make_deployment(detection_delay=10.0)
    deployment.apply_faults(FaultSchedule().crash(50.0, "a1"))
    issued = deployment.run_request(BANK.debit(0, 1))
    assert issued.delivered
    assert issued.aborted_results  # at least one aborted intermediate result
    survivor = deployment.app_servers["a2"]
    total_results = issued.attempts
    assert len(survivor.registers.reg_d.learned_since(0)[0]) == total_results


def test_growth_is_linear_not_quadratic():
    deployment = make_deployment()
    sizes = []
    for count in (2, 4, 6):
        while len(deployment.client.completed) < count:
            deployment.run_request(BANK.debit(0, 1))
        sizes.append(register_cells(deployment)[0])
    assert sizes == [2, 4, 6]

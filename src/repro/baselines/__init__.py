"""Comparison protocols: unreliable baseline, presumed-nothing 2PC, primary-backup."""

from repro.baselines.baseline import BaselineAppServer, BaselineDeployment
from repro.baselines.common import (
    ACK_COMMIT,
    COMMIT_ONE_PHASE,
    OnePhaseDatabaseServer,
)
from repro.baselines.primary_backup import (
    BackupServer,
    PrimaryBackupDeployment,
    PrimaryServer,
)
from repro.baselines.twopc import TwoPCCoordinator, TwoPCDeployment

__all__ = [
    "OnePhaseDatabaseServer",
    "COMMIT_ONE_PHASE",
    "ACK_COMMIT",
    "BaselineAppServer",
    "BaselineDeployment",
    "TwoPCCoordinator",
    "TwoPCDeployment",
    "PrimaryServer",
    "BackupServer",
    "PrimaryBackupDeployment",
]

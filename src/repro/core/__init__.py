"""The e-Transaction protocol: client, application servers, database servers, spec.

This package is the paper's primary contribution.  Typical use::

    from repro.core import EtxDeployment, Request

    deployment = EtxDeployment(num_db_servers=1)   # three application servers
    issued = deployment.run_request(Request("payment", {"amount": 10}))
    assert issued.delivered
    assert deployment.check_spec().ok

:class:`EtxDeployment` is one of four :class:`ThreeTierDeployment` subclasses
(the other three are the comparison protocols in :mod:`repro.baselines`); all
of them are built from the same :class:`DeploymentConfig`, given whole or as
keyword overrides.
"""

from repro.core.appserver import ApplicationServer, RegisterPair
from repro.core.client import Client, IssuedRequest
from repro.core.dataserver import DatabaseServer
from repro.core.deployment import (
    FD_HEARTBEAT,
    FD_ORACLE,
    REGISTER_CONSENSUS,
    REGISTER_LOCAL,
    DeploymentConfig,
    EtxDeployment,
    ThreeTierDeployment,
    default_business_logic,
)
from repro.core.sharding import (
    KNOWN_PLACEMENTS,
    PLACEMENT_HASH,
    PLACEMENT_MOD,
    PLACEMENT_REPLICATE,
    Sharding,
)
from repro.core.spec import PropertyViolation, SpecReport
from repro.core.timing import DatabaseTiming, ProtocolTiming
from repro.core.types import (
    ABORT,
    ABORT_DECISION,
    COMMIT,
    VOTE_NO,
    VOTE_YES,
    Decision,
    Request,
    Result,
    ResultKey,
)

__all__ = [
    "ApplicationServer",
    "RegisterPair",
    "Client",
    "IssuedRequest",
    "DatabaseServer",
    "DeploymentConfig",
    "EtxDeployment",
    "ThreeTierDeployment",
    "default_business_logic",
    "REGISTER_CONSENSUS",
    "REGISTER_LOCAL",
    "FD_ORACLE",
    "FD_HEARTBEAT",
    "Sharding",
    "KNOWN_PLACEMENTS",
    "PLACEMENT_REPLICATE",
    "PLACEMENT_HASH",
    "PLACEMENT_MOD",
    "SpecReport",
    "PropertyViolation",
    "DatabaseTiming",
    "ProtocolTiming",
    "Request",
    "Result",
    "Decision",
    "ResultKey",
    "COMMIT",
    "ABORT",
    "ABORT_DECISION",
    "VOTE_YES",
    "VOTE_NO",
]

"""Declarative scenario descriptions and their DSN string form.

A :class:`Scenario` captures everything needed to build and run one protocol
stack -- tier sizes, protocol, register mode, failure detector, loss,
timings, workload and fault schedule -- as plain data.  Every
scenario has a DSN (data-source-name) form modelled on database connection
strings::

    etx://a3.d1.c1?fd=heartbeat&loss=0.01&seed=7
    etx://a3.d1.c8?rate=50&arrival=poisson&seed=7
    etx://a3.d1.c4?runtime=asyncio&pace=0.2
    etx://a3.d1.c4?runtime=asyncio&host=10.0.0.5&port=7000
    etx://a3.d8.c64?xshard=0.1&placement=hash&workload=bank
    2pc://a1.d1?workload=bank&timing=paper&log=25
    pb://a2.d1.c4?workload=bank
    baseline://a1.d1?fault=crash@215:a1

The scheme selects the protocol (``etx``/``ar``, ``2pc``/``twopc``,
``pb``/``primary-backup``, ``baseline``): :data:`PROTOCOLS` maps each to the
:class:`~repro.core.deployment.ThreeTierDeployment` subclass that builds its
middle tier, and that class carries the scheme's aliases.  The host part
gives the tier sizes as dot-separated tokens ``a<N>`` (application servers),
``d<N>`` (database servers) and ``c<N>`` (clients), in any order; omitted
tiers fall back to the protocol's defaults.  Query parameters tune everything else; ``fault`` may repeat, every
other parameter may appear at most once (a duplicate is ambiguous and
rejected, as in database DSNs).

Each query key is one row of a parameter table (:class:`Param`, declared on
the :class:`Scenario` field it sets; :data:`PARAMS` lists them in canonical
order): its parser, default and check, the protocols that consume it,
whether only ``runtime=asyncio`` reads it and whether it also comes as
``<key>_env``/``<key>_file``.  The parser and serialiser below, the
protocols' refusals in :func:`repro.api.build` and the sweep axes all read
the table, and the deployment reads the field itself, so adding a key is one
row (and its README row).

``Scenario.from_dsn`` and ``Scenario.to_dsn`` round-trip:
``Scenario.from_dsn(s.to_dsn()) == s`` for every scenario.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Optional, Sequence
from urllib.parse import parse_qsl

from repro.baselines import BaselineDeployment, PrimaryBackupDeployment, TwoPCDeployment
from repro.core.deployment import (
    FD_HEARTBEAT,
    FD_ORACLE,
    REGISTER_CONSENSUS,
    REGISTER_LOCAL,
    EtxDeployment,
    ThreeTierDeployment,
)
from repro.core.reshard import RESHARD_COORDINATOR
from repro.core.sharding import KNOWN_PLACEMENTS, PLACEMENT_REPLICATE, Sharding
from repro.core.timing import ProtocolTiming
from repro.failure.injection import validate_partition_groups
from repro.runtime.base import (
    KNOWN_RUNTIMES,
    MAX_PORT,
    RUNTIME_SIM,
    RuntimeSpec,
)
from repro.sim.tracing import parse_retention

TIMING_DEFAULT = "default"
TIMING_PAPER = "paper"

ARRIVAL_POISSON = "poisson"
ARRIVAL_UNIFORM = "uniform"


class ScenarioError(ValueError):
    """A malformed scenario DSN or an invalid scenario field."""


# ------------------------------------------------------------------ schemes

# Every protocol, by its canonical DSN scheme: the deployment class that
# builds its middle tier (and carries its aliases and tier-size rules).
PROTOCOLS: dict[str, type[ThreeTierDeployment]] = {
    "etx": EtxDeployment,
    "2pc": TwoPCDeployment,
    "pb": PrimaryBackupDeployment,
    "baseline": BaselineDeployment,
}
_SCHEMES = {scheme: name for name, deployment in PROTOCOLS.items()
            for scheme in (name, *deployment.aliases)}


def known_schemes() -> list[str]:
    """Every scheme (including aliases) the DSN parser accepts."""
    return sorted(_SCHEMES)


# ------------------------------------------------------------------- faults


def _format_number(value: float) -> str:
    """Shortest decimal text that parses back to exactly ``value``.

    The text must also survive a URL query string unescaped: ``repr`` writes
    large magnitudes as ``1e+16``, and ``parse_qsl`` decodes the ``+`` to a
    space, so a serialised scenario failed to parse back.  ``1e16`` is the
    same float, so the ``+`` is dropped.
    """
    text = repr(float(value))
    if text.endswith(".0"):
        text = text[:-2]
    return text.replace("e+", "e")


def _finite(value: Any) -> bool:
    """A real number (not a bool) that is neither NaN nor infinite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    # Every int is finite; math.isfinite overflows on one too big for a float.
    return isinstance(value, int) or math.isfinite(value)


@dataclass(frozen=True)
class FaultSpec:
    """One DSN-expressible fault: ``kind@time[:target[:extra...]]``.

    Tokens::

        crash@244:a1                      crash a1 at t=244
        recover@500:a1                    recover a1 at t=500
        crash_for@600:d2:800              crash d2 at t=600 for 800 ms
        false_suspicion@15:a2:a1:200      a2 falsely suspects a1 for 200 ms
        partition@100:a1~a2|d1            split {a1,a2} from {d1} at t=100
        heal@300                          heal any partition at t=300
        reshard@5000:d4->d8               grow the data tier 4 -> 8 at t=5000

    Partition groups are ``|``-separated, members ``~``-separated (``~`` and
    ``|`` survive URL query parsing unescaped; ``+`` would decode to a
    space).  Processes named in no group form an implicit extra group.

    A ``FaultSpec`` is also the value a run applies
    (:func:`~repro.failure.injection.schedule_faults`), so every check of a
    fault lives here: a malformed one fails at construction or parse time,
    never mid-run.
    """

    kind: str
    time: float
    target: str = ""
    downtime: float = 0.0
    observer: str = ""
    duration: float = 0.0
    groups: tuple[tuple[str, ...], ...] = ()
    from_shards: int = 0
    to_shards: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("crash", "recover", "crash_for", "false_suspicion",
                             "partition", "heal", "reshard"):
            raise ScenarioError(f"unknown fault kind {self.kind!r}")
        if not _finite(self.time) or self.time < 0:
            raise ScenarioError(f"fault time must be a finite non-negative "
                                f"number, got {self.time!r}")
        if self.kind == "partition":
            if not self.groups:
                raise ScenarioError("partition needs non-empty 'groups'")
            try:
                groups = validate_partition_groups(list(self.groups))
            except ValueError as exc:
                raise ScenarioError(str(exc)) from None
            object.__setattr__(self, "groups", tuple(map(tuple, groups)))
        elif self.groups:
            raise ScenarioError(f"fault kind {self.kind!r} takes no groups")
        if self.kind in ("partition", "heal", "reshard"):
            if self.target:
                raise ScenarioError(f"fault kind {self.kind!r} takes no target")
        elif not self.target:
            raise ScenarioError(f"fault kind {self.kind!r} needs a target")
        # Inapplicable scalars are rejected, not silently dropped: a
        # FaultSpec('crash', ..., downtime=500) almost certainly meant
        # crash_for, and to_token() would lose the field.
        inapplicable = []
        if self.downtime and self.kind != "crash_for":
            inapplicable.append("downtime")
        if self.kind != "false_suspicion":
            if self.observer:
                inapplicable.append("observer")
            if self.duration:
                inapplicable.append("duration")
        if (self.from_shards or self.to_shards) and self.kind != "reshard":
            inapplicable.append("from_shards/to_shards")
        if inapplicable:
            raise ScenarioError(f"fault kind {self.kind!r} takes no "
                                f"{', '.join(inapplicable)}")
        if self.kind == "crash_for" and not (_finite(self.downtime)
                                             and self.downtime > 0):
            raise ScenarioError(f"crash_for needs a finite positive 'downtime', "
                                f"got {self.downtime!r}")
        elif self.kind == "false_suspicion":
            if not isinstance(self.observer, str) or not self.observer:
                raise ScenarioError("false_suspicion needs an 'observer' process")
            if self.observer == self.target:
                raise ScenarioError("false_suspicion observer and target must differ")
            if not (_finite(self.duration) and self.duration > 0):
                raise ScenarioError(f"false_suspicion needs a finite positive "
                                    f"'duration', got {self.duration!r}")
        elif self.kind == "reshard":
            for label, count in (("from_count", self.from_shards),
                                 ("to_count", self.to_shards)):
                if not isinstance(count, int) or isinstance(count, bool) or count < 1:
                    raise ScenarioError(f"reshard needs a positive integer "
                                        f"{label!r}, got {count!r}")
            if self.from_shards == self.to_shards:
                raise ScenarioError(f"reshard from_count and to_count must differ "
                                    f"(both {self.from_shards})")

    @classmethod
    def from_token(cls, token: str) -> "FaultSpec":
        """Parse one ``fault=`` query value."""
        match = re.fullmatch(r"([a-z_]+)@([^:]+)((?::[^:]+)*)", token)
        if match is None:
            raise ScenarioError(f"malformed fault token {token!r} "
                                "(expected kind@time[:target[:extra]])")
        kind, time_text, tail = match.groups()
        args = tail.lstrip(":").split(":") if tail else []
        try:
            time = float(time_text)
        except ValueError:
            raise ScenarioError(f"bad fault time in {token!r}") from None
        try:
            if kind in ("crash", "recover"):
                (target,) = args
                return cls(kind, time, target)
            if kind == "crash_for":
                target, downtime = args
                return cls(kind, time, target, downtime=float(downtime))
            if kind == "false_suspicion":
                observer, target, duration = args
                return cls(kind, time, target, observer=observer,
                           duration=float(duration))
            if kind == "partition":
                (layout,) = args
                groups = tuple(tuple(filter(None, group.split("~")))
                               for group in layout.split("|"))
                return cls(kind, time, groups=groups)
            if kind == "heal":
                if args:
                    raise ValueError("heal takes no arguments")
                return cls(kind, time)
            if kind == "reshard":
                (move,) = args
                shape = re.fullmatch(r"d(\d+)->d(\d+)", move)
                if shape is None:
                    raise ValueError("reshard takes a d<from>->d<to> argument")
                return cls(kind, time, from_shards=int(shape.group(1)),
                           to_shards=int(shape.group(2)))
        except ScenarioError:
            raise  # a specific validation message (overlap, duration, ...)
        except ValueError:
            raise ScenarioError(f"malformed fault token {token!r} for kind {kind!r}") from None
        raise ScenarioError(f"unknown fault kind {kind!r}")

    def to_token(self) -> str:
        """The ``fault=`` query value for this fault."""
        head = f"{self.kind}@{_format_number(self.time)}"
        if self.kind in ("crash", "recover"):
            return f"{head}:{self.target}"
        if self.kind == "crash_for":
            return f"{head}:{self.target}:{_format_number(self.downtime)}"
        if self.kind == "partition":
            layout = "|".join("~".join(group) for group in self.groups)
            return f"{head}:{layout}"
        if self.kind == "heal":
            return head
        if self.kind == "reshard":
            return f"{head}:d{self.from_shards}->d{self.to_shards}"
        return (f"{head}:{self.observer}:{self.target}:"
                f"{_format_number(self.duration)}")

    @property
    def named_processes(self) -> tuple[str, ...]:
        """Every process name this fault mentions (for validation)."""
        names = [name for name in (self.target, self.observer) if name]
        for group in self.groups:
            names.extend(group)
        return tuple(names)


def faults_to_text(faults: Sequence[FaultSpec]) -> str:
    """Serialise fault specs as the comma-separated ``faults=`` value."""
    return ",".join(spec.to_token() for spec in faults)


def faults_from_text(text: str) -> tuple[FaultSpec, ...]:
    """Parse a ``faults=`` value: comma-separated tokens or an ``@file`` ref.

    ``;`` is accepted as an alternative token separator: contexts that
    already split values on commas (the CLI's ``--axis name=v1,v2`` grammar)
    can carry a whole multi-fault schedule as one value with semicolons.
    A value starting with ``@`` names a sidecar JSON file (written next to
    long counterexamples) holding either a list of fault tokens or an object
    with a ``"faults"`` key; everything else is parsed in place.
    """
    text = text.strip()
    if text.startswith("@"):
        return load_fault_sidecar(text[1:])
    return tuple(FaultSpec.from_token(token)
                 for token in filter(None, (t.strip()
                                            for t in re.split(r"[,;]", text))))


def load_fault_sidecar(path: str) -> tuple[FaultSpec, ...]:
    """Load a ``.faults.json`` sidecar written for a long fault schedule."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise ScenarioError(f"cannot read fault sidecar {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"malformed fault sidecar {path!r}: {exc}") from None
    tokens = payload.get("faults") if isinstance(payload, dict) else payload
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise ScenarioError(f"fault sidecar {path!r} must hold a list of fault "
                            "tokens (or an object with a 'faults' list)")
    return tuple(FaultSpec.from_token(token) for token in tokens)


# ----------------------------------------------------------------- scenario

# Above this many faults, ``to_dsn`` switches from repeated ``fault=`` tokens
# to the single ``faults=`` list parameter.
_FAULT_LIST_THRESHOLD = 3


@dataclass(frozen=True)
class Param:
    """One DSN query key: a row of the parameter table.

    A row is declared once, as the metadata of the :class:`Scenario` field it
    sets (``field``).  ``parse`` reads the query text; ``check`` raises
    ``ValueError`` saying what is wrong with a value.  ``protocols`` consume
    the key (empty: every protocol); any other protocol refuses a
    non-default value when it builds.  ``asyncio_only`` keys mean nothing to
    the simulator.  An ``indirect`` key may also be given as ``<key>_env``
    (the name of an environment variable holding the value) or
    ``<key>_file`` (a file holding it), as in database DSNs.
    """

    key: str
    parse: Callable[[str], Any]
    default: Any
    check: Optional[Callable[[Any], None]] = None
    protocols: tuple[str, ...] = ()
    asyncio_only: bool = False
    indirect: bool = False
    field: str = ""


def _param(key: str, parse: Callable[[str], Any], default: Any, **rules: Any) -> Any:
    """A :class:`Scenario` field set by the DSN query key ``key``."""
    return field(default=default,
                 metadata={"param": Param(key, parse, default, **rules)})


def _text(value: Any) -> str:
    """A value as DSN query text."""
    return _format_number(value) if isinstance(value, float) else str(value)


def _one_of(what: str, *known: str) -> Callable[[Any], None]:
    def check(value: Any) -> None:
        if value not in known:
            raise ValueError(f"unknown {what} {value!r}; known: {', '.join(known)}")
    check.choices = known  # the values the row accepts, for tools/reachability.py
    return check


def _rule(what: str, rule: str, holds: Callable[[Any], bool]) -> Callable[[Any], None]:
    def check(value: Any) -> None:
        if not holds(value):  # a NaN fails every comparison, so it never holds
            raise ValueError(f"{what} must be {rule}, got {_text(value)}")
    return check


def _non_negative(what: str) -> Callable[[Any], None]:
    return _rule(what, "non-negative and finite", lambda value: _finite(value) and value >= 0)


def _positive(what: str) -> Callable[[Any], None]:
    return _rule(what, "> 0 and finite", lambda value: _finite(value) and value > 0)


def _within(what: str, low: int, high: int) -> Callable[[Any], None]:
    return _rule(what, f"in [{low}, {high}]", lambda value: low <= value <= high)


def _check_host(host: str) -> None:
    if host and not re.fullmatch(r"[A-Za-z0-9._-]+", host):
        raise ValueError(f"malformed host {host!r} (expected a hostname or IP "
                         "address, no port/scheme/path)")


def _resolve_indirect(key: str, raw: str) -> str:
    """Resolve a ``host_env``/``port_file``-style value to its direct text."""
    if key.endswith("_env"):
        value = os.environ.get(raw)
        if value is None:
            raise ScenarioError(
                f"bad value for {key!r}: environment variable {raw!r} is not set")
        return value
    try:
        with open(raw, "r", encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError as exc:
        raise ScenarioError(f"bad value for {key!r}: cannot read {raw!r} ({exc})") from None


_HOST_TOKEN = re.compile(r"([adc])(\d+)")
HOST_FIELDS = {"a": "num_app_servers", "d": "num_db_servers", "c": "num_clients"}
_ETX = ("etx",)


@dataclass(frozen=True)
class Scenario:
    """A complete, declarative description of one protocol run.

    ``num_app_servers=0`` (the default) resolves to the protocol's standard
    middle-tier size (3 for ``etx``, 2 for ``pb``, 1 otherwise).  Every field
    a DSN query key sets is declared with its row (:class:`Param`); the
    fields' order is the canonical order of ``to_dsn``.
    """

    protocol: str = "etx"
    num_app_servers: int = 0
    num_db_servers: int = 1
    num_clients: int = 1
    seed: int = _param("seed", int, 0)
    # Traffic shape: ``rate == 0`` is the paper's closed loop (every client
    # re-issues on delivery); ``rate > 0`` is an open loop injecting requests
    # at that many per second of virtual time with the given arrival process.
    rate: float = _param("rate", float, 0.0, check=_non_negative("arrival rate"))
    arrival: str = _param("arrival", str, ARRIVAL_POISSON, check=_one_of(
        "arrival process", ARRIVAL_POISSON, ARRIVAL_UNIFORM))
    failure_detector: str = _param("fd", str, FD_ORACLE, check=_one_of(
        "failure detector", FD_ORACLE, FD_HEARTBEAT), protocols=_ETX)
    register_mode: str = _param("register", str, REGISTER_CONSENSUS, check=_one_of(
        "register mode", REGISTER_CONSENSUS, REGISTER_LOCAL), protocols=_ETX)
    loss_probability: float = _param("loss", float, 0.0, check=_within(
        "loss probability", 0, 1))
    detection_delay: float = _param("detect", float, 5.0, check=_non_negative(
        "detection delay"), protocols=_ETX)
    heartbeat_interval: float = _param("hb_interval", float, 5.0, check=_positive(
        "heartbeat interval"), protocols=_ETX)
    heartbeat_timeout: float = _param("hb_timeout", float, 20.0, check=_positive(
        "heartbeat timeout"), protocols=_ETX)
    # The 2PC coordinator's forced-log write, in virtual ms.
    coordinator_log_latency: float = _param("log", float, 12.5, check=_non_negative(
        "forced-log latency"), protocols=("2pc",))
    client_backoff: float = _param("backoff", float, ProtocolTiming.client_backoff,
                                   check=_non_negative("client backoff"))
    workload: str = _param("workload", str, "default")
    # Both values build the same database timing, the Figure 8 calibration
    # (``DatabaseTiming``'s defaults); ``paper`` stays accepted because
    # existing DSNs name it.
    timing: str = _param("timing", str, TIMING_DEFAULT, check=_one_of(
        "timing profile", TIMING_DEFAULT, TIMING_PAPER))
    # Data-tier partitioning: ``placement`` selects the key-placement policy
    # (``replicate`` keeps the historical full fan-out; ``hash``/``mod``
    # partition the key space over the ``d`` databases), ``xshard`` is the
    # fraction of generated requests that span two shards.
    placement: str = _param("placement", str, PLACEMENT_REPLICATE, check=_one_of(
        "placement", *KNOWN_PLACEMENTS))
    xshard: float = _param("xshard", float, 0.0,
                           check=_within("cross-shard fraction", 0, 1))
    # Trace retention: ``full`` stores every event (post-hoc queries see the
    # whole history), ``ring:N`` keeps the last N events (a flight recorder
    # with bounded memory), ``off`` stores nothing.  Spec checking and run
    # statistics stream off the event bus, so they work under all three.
    trace: str = _param("trace", str, "full", check=parse_retention)
    # Runtime backend: ``sim`` executes on the discrete-event simulator,
    # ``asyncio`` on an event loop with wall-clock timers and real TCP
    # between the processes.  ``host``/``port`` place the TCP endpoints
    # (process i listens on port+i; port 0 binds ephemeral localhost ports),
    # ``pace`` rescales wall time (0.2 = run protocol timers 5x faster).
    runtime: str = _param("runtime", str, RUNTIME_SIM,
                          check=_one_of("runtime", *KNOWN_RUNTIMES))
    host: str = _param("host", str, "", check=_check_host, asyncio_only=True,
                       indirect=True)
    port: int = _param("port", int, 0, check=_within("port", 0, MAX_PORT),
                       asyncio_only=True, indirect=True)
    pace: float = _param("pace", float, 1.0, check=_positive("pace"),
                         asyncio_only=True)
    faults: tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        protocol = _SCHEMES.get(self.protocol)
        if protocol is None:
            raise ScenarioError(
                f"unknown protocol {self.protocol!r}; known schemes: "
                f"{', '.join(known_schemes())}")
        object.__setattr__(self, "protocol", protocol)
        if self.num_app_servers == 0:
            object.__setattr__(self, "num_app_servers",
                               PROTOCOLS[protocol].default_app_servers)
        if self.num_app_servers < 1 or self.num_db_servers < 1 or self.num_clients < 1:
            raise ScenarioError("every tier needs at least one process")
        for row in PARAMS:
            if row.check is not None:
                try:
                    row.check(getattr(self, row.field))
                except ValueError as exc:
                    raise ScenarioError(f"bad value for {row.key!r}: {exc}") from None
        # Rules that tie several keys together.
        if self.xshard > 0 and self.placement == PLACEMENT_REPLICATE:
            raise ScenarioError("xshard > 0 needs a partitioned placement "
                                "(placement=hash or placement=mod); under "
                                "replication every request already involves "
                                "every database")
        if self.runtime == RUNTIME_SIM:
            endpointish = [row.key for row in PARAMS if row.asyncio_only
                           and getattr(self, row.field) != row.default]
            if endpointish:
                raise ScenarioError(
                    f"parameter(s) {', '.join(endpointish)} only apply to "
                    "runtime=asyncio (the simulator has no endpoints or wall clock)")
        elif self.port:
            total = len(self.process_names)
            if self.port + total - 1 > MAX_PORT:
                raise ScenarioError(
                    f"port range {self.port}..{self.port + total - 1} for {total} "
                    f"processes exceeds {MAX_PORT}; pick a lower base port")
        object.__setattr__(self, "faults", tuple(self.faults))
        self._validate_reshards()
        known = set(self.app_server_names + self.all_db_server_names
                    + self.client_names)
        for fault in self.faults:
            for name in fault.named_processes:
                if name not in known:
                    raise ScenarioError(
                        f"fault {fault.to_token()!r} names unknown process "
                        f"{name!r}; this scenario has processes "
                        f"{', '.join(sorted(known))}")

    def _validate_reshards(self) -> None:
        if not self.reshards:
            return
        reshards = sorted((f for f in self.faults if f.kind == "reshard"),
                          key=lambda f: f.time)
        if self.placement == PLACEMENT_REPLICATE:
            raise ScenarioError("reshard needs a partitioned placement "
                                "(placement=hash or placement=mod); under "
                                "replication there is nothing to move")
        if self.runtime != RUNTIME_SIM:
            raise ScenarioError("reshard currently requires runtime=sim")
        count = self.num_db_servers
        for fault in reshards:
            if fault.from_shards != count:
                raise ScenarioError(
                    f"fault {fault.to_token()!r} starts from d{fault.from_shards} "
                    f"but the data tier holds d{count} at that point; chain "
                    "reshards so each starts where the previous one ended")
            count = fault.to_shards

    # ------------------------------------------------------------------- DSN

    @classmethod
    def from_dsn(cls, dsn: str) -> "Scenario":
        """Parse a scenario DSN (see the module docstring for the grammar)."""
        if "://" not in dsn:
            raise ScenarioError(f"not a scenario DSN (missing '://'): {dsn!r}")
        scheme, _, rest = dsn.partition("://")
        scheme = scheme.strip().lower()
        if scheme not in _SCHEMES:
            raise ScenarioError(f"unknown scenario scheme {scheme!r}; known schemes: "
                                f"{', '.join(known_schemes())}")
        host, _, query = rest.partition("?")
        values: dict[str, Any] = {"protocol": _SCHEMES[scheme]}
        cls._parse_host(host, values)
        cls._parse_query(query, values)
        return cls(**values)

    @staticmethod
    def _parse_host(host: str, values: dict[str, Any]) -> None:
        for token in filter(None, host.split(".")):
            match = _HOST_TOKEN.fullmatch(token)
            if match is None:
                raise ScenarioError(
                    f"bad host token {token!r} (expected a<N>, d<N> or c<N>)")
            tier, count = match.groups()
            field_name = HOST_FIELDS[tier]
            if field_name in values:
                raise ScenarioError(f"ambiguous host: tier {tier!r} given twice")
            if int(count) < 1:
                raise ScenarioError(f"bad host token {token!r}: every tier "
                                    "needs at least one process")
            values[field_name] = int(count)

    @staticmethod
    def _parse_query(query: str, values: dict[str, Any]) -> None:
        faults: list[FaultSpec] = []
        fault_list: Optional[tuple[FaultSpec, ...]] = None
        seen: set[str] = set()
        for key, raw in parse_qsl(query, keep_blank_values=True):
            if key == "fault":
                faults.append(FaultSpec.from_token(raw))
                continue
            if key == "faults":
                if fault_list is not None:
                    raise ScenarioError("ambiguous DSN: parameter 'faults' "
                                        "given twice")
                fault_list = faults_from_text(raw)
                continue
            row = _INDIRECT_FORMS.get(key)
            if row is not None:
                # host_env / port_file style: resolve to the direct value and
                # fold into the base key, so giving an endpoint two ways
                # trips the ambiguity check below.
                raw = _resolve_indirect(key, raw)
            else:
                row = PARAMS_BY_KEY.get(key)
            name = row.key if row is not None else key
            if name in seen:
                raise ScenarioError(
                    f"ambiguous DSN: {key!r} and an earlier parameter both "
                    f"set {name!r}; give each endpoint parameter one way")
            seen.add(name)
            if row is None:
                known = sorted([*PARAMS_BY_KEY, *_INDIRECT_FORMS])
                raise ScenarioError(
                    f"unknown DSN parameter {key!r}; known parameters: "
                    f"{', '.join([*known, 'fault', 'faults'])}")
            try:
                values[row.field] = row.parse(raw)
            except ValueError as exc:
                raise ScenarioError(f"bad value for {key!r}: {exc}") from None
        if faults and fault_list is not None:
            raise ScenarioError("ambiguous DSN: both repeated 'fault' tokens "
                                "and a 'faults' list given; use one form")
        if faults:
            values["faults"] = tuple(faults)
        elif fault_list is not None:
            values["faults"] = fault_list

    def to_dsn(self) -> str:
        """Serialise to the canonical DSN (omitting default-valued parameters)."""
        host = (f"a{self.num_app_servers}.d{self.num_db_servers}"
                f".c{self.num_clients}")
        parts = [f"{row.key}={_text(getattr(self, row.field))}" for row in PARAMS
                 if getattr(self, row.field) != row.default]
        # Short schedules read best as repeated fault= tokens; campaign-sized
        # ones collapse into one faults= list so the DSN stays a single
        # copy-pastable parameter.  Both forms parse to the same scenario.
        if len(self.faults) > _FAULT_LIST_THRESHOLD:
            parts.append(f"faults={faults_to_text(self.faults)}")
        else:
            parts.extend(f"fault={fault.to_token()}" for fault in self.faults)
        query = "&".join(parts)
        return f"{self.protocol}://{host}" + (f"?{query}" if query else "")

    # -------------------------------------------------------------- derived

    def with_(self, **changes: Any) -> "Scenario":
        """A copy with the given fields replaced."""
        return replace(self, **changes)

    @property
    def client_names(self) -> list[str]:
        return [f"c{i + 1}" for i in range(self.num_clients)]

    @property
    def app_server_names(self) -> list[str]:
        return [f"a{i + 1}" for i in range(self.num_app_servers)]

    @property
    def db_server_names(self) -> list[str]:
        return [f"d{i + 1}" for i in range(self.num_db_servers)]

    @property
    def all_db_server_names(self) -> list[str]:
        """Running databases plus the standbys reshards grow into, in growth order."""
        grown = max([self.num_db_servers,
                     *(f.to_shards for f in self.faults if f.kind == "reshard")])
        return [f"d{i + 1}" for i in range(grown)]

    @property
    def reshards(self) -> bool:
        """Whether the data tier is resharded online during the run."""
        return any(fault.kind == "reshard" for fault in self.faults)

    @property
    def faults_a_client(self) -> bool:
        """Whether a fault targets a client: such a run owes at-most-once,
        not delivery, so its termination properties are not checked."""
        return any(fault.target in self.client_names for fault in self.faults)

    @property
    def sharding(self) -> Sharding:
        """Key-placement map of the database tier this scenario describes."""
        return Sharding(tuple(self.db_server_names), self.placement)

    @property
    def runtime_spec(self) -> RuntimeSpec:
        """The validated runtime backend description of this scenario."""
        return RuntimeSpec(kind=self.runtime, host=self.host, port=self.port,
                           pace=self.pace)

    @property
    def process_names(self) -> list[str]:
        """Every process of the run, in TCP port-assignment order.

        Application servers, then every database (reshard standbys
        included), then the clients, then the reshard coordinator when the
        run has one.
        """
        names = self.app_server_names + self.all_db_server_names + self.client_names
        return names + [RESHARD_COORDINATOR] if self.reshards else names


# The parameter table, in canonical ``to_dsn`` order: one row per DSN query key.
PARAMS: tuple[Param, ...] = tuple(
    replace(row, field=f.name)
    for f in fields(Scenario) if (row := f.metadata.get("param")) is not None)
PARAMS_BY_KEY = {row.key: row for row in PARAMS}
_INDIRECT_FORMS = {row.key + suffix: row for row in PARAMS if row.indirect
                   for suffix in ("_env", "_file")}

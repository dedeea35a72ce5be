"""Replayable campaign artifacts: counterexamples and clean-pass certificates.

A :class:`Counterexample` is the durable form of one campaign finding: a
single runnable scenario DSN (faults baked in), the exact violation strings
the run is expected to (re)produce -- empty for a *certificate*, which
asserts a clean pass -- and enough provenance to trace it back to the
campaign that found it.  Artifacts serialise to small JSON files; the
regression corpus under ``tests/corpus/`` is a directory of them, replayed
on every CI run by ``tests/test_campaign_corpus.py``.

Long fault schedules can be split out into a ``.faults.json`` sidecar (see
:func:`write_sidecar`), which the scenario DSN then references as
``faults=@<path>`` -- handy when a schedule no longer fits comfortably on a
command line.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from typing import Any, Union
from urllib.parse import quote, unquote

from repro.api.scenario import Scenario

SCHEMA_VERSION = 1

KIND_VIOLATION = "violation"
KIND_CERTIFICATE = "certificate"


@dataclass(frozen=True)
class Counterexample:
    """One replayable campaign finding.

    ``dsn`` is the complete scenario (tier sizes, workload, seed, faults) as
    one runnable string; ``violations`` the exact expected violation strings
    (empty for ``kind == "certificate"``); ``requests``/``horizon``/``settle``
    the evaluation parameters the campaign used, so a replay reproduces the
    run byte-for-byte.
    """

    dsn: str
    kind: str
    violations: tuple[str, ...] = ()
    requests: int = 1
    horizon: float = 120_000.0
    settle: float = 20_000.0
    provenance: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in (KIND_VIOLATION, KIND_CERTIFICATE):
            raise ValueError(f"unknown artifact kind {self.kind!r}")
        object.__setattr__(self, "violations", tuple(self.violations))
        if self.kind == KIND_CERTIFICATE and self.violations:
            raise ValueError("a certificate asserts zero violations")
        if self.kind == KIND_VIOLATION and not self.violations:
            raise ValueError("a violation artifact needs its expected violations")

    def scenario(self, base_dir: str = "") -> Scenario:
        """The artifact's scenario, parsed.

        ``base_dir`` (the directory the artifact was loaded from) anchors a
        relative ``faults=@sidecar`` reference, so an artifact plus its
        sidecar replay from anywhere, not only from the directory that wrote
        them.
        """
        dsn = resolve_sidecar_paths(self.dsn, base_dir) if base_dir else self.dsn
        return Scenario.from_dsn(dsn)

    # ------------------------------------------------------------------ JSON

    def to_json(self) -> dict[str, Any]:
        """Plain-dict form (stable keys, schema-versioned)."""
        return {
            "schema": SCHEMA_VERSION,
            "kind": self.kind,
            "dsn": self.dsn,
            "violations": list(self.violations),
            "requests": self.requests,
            "horizon": self.horizon,
            "settle": self.settle,
            "provenance": dict(self.provenance),
        }

    @classmethod
    def from_json(cls, payload: dict[str, Any]) -> "Counterexample":
        """Parse the :meth:`to_json` form (rejecting unknown schemas)."""
        schema = payload.get("schema")
        if schema != SCHEMA_VERSION:
            raise ValueError(f"unknown artifact schema {schema!r} "
                             f"(this build reads schema {SCHEMA_VERSION})")
        missing = [key for key in ("dsn", "kind") if key not in payload]
        if missing:
            raise ValueError(f"artifact is missing required "
                             f"key(s): {', '.join(missing)}")
        violations = payload.get("violations", ())
        if not isinstance(violations, (list, tuple)) or \
                not all(isinstance(v, str) for v in violations):
            raise ValueError("artifact 'violations' must be a list of "
                             "violation strings")
        return cls(
            dsn=payload["dsn"],
            kind=payload["kind"],
            violations=tuple(violations),
            requests=int(payload.get("requests", 1)),
            horizon=float(payload.get("horizon", 120_000.0)),
            settle=float(payload.get("settle", 20_000.0)),
            provenance=dict(payload.get("provenance", {})),
        )

    def save(self, path: str) -> str:
        """Write the artifact as deterministic JSON; returns ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path

    @classmethod
    def load(cls, path: str) -> "Counterexample":
        """Read an artifact written by :meth:`save`."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(json.load(handle))


_SIDECAR_REF = re.compile(r"faults=@([^&]+)")


def resolve_sidecar_paths(dsn: str, base_dir: str) -> str:
    """Anchor a relative ``faults=@path`` reference in ``dsn`` at ``base_dir``."""
    def fix(match: re.Match) -> str:
        path = unquote(match.group(1))
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        return "faults=@" + quote(path, safe="/")

    return _SIDECAR_REF.sub(fix, dsn)


def write_sidecar(scenario: Scenario, path: str) -> str:
    """Write ``scenario``'s faults as a ``.faults.json`` sidecar.

    Returns the DSN that references the sidecar (``faults=@<path>``): the
    same run, with the schedule carried next to the command line instead of
    on it.
    """
    tokens = [spec.to_token() for spec in scenario.faults]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"schema": SCHEMA_VERSION, "faults": tokens}, handle,
                  indent=2, sort_keys=True)
        handle.write("\n")
    bare = scenario.with_(faults=()).to_dsn()
    separator = "&" if "?" in bare else "?"
    # Quote the path: '+', '%', '&', '=' etc. in a file name would otherwise
    # be mangled by the query parser (parse_qsl unquotes on the way back in).
    return f"{bare}{separator}faults=@{quote(path, safe='/')}"


@dataclass
class ReplayResult:
    """Outcome of replaying one artifact."""

    counterexample: Counterexample
    actual: tuple[str, ...]

    @property
    def expected(self) -> tuple[str, ...]:
        return self.counterexample.violations

    @property
    def matches(self) -> bool:
        """The replay reproduced exactly the recorded verdict."""
        return self.actual == self.expected

    def summary(self) -> str:
        lines = [f"replay      {self.counterexample.dsn}",
                 f"kind        {self.counterexample.kind}"]
        if self.matches:
            what = ("clean pass confirmed" if not self.expected
                    else f"{len(self.actual)} violation(s) reproduced")
            lines.append(f"verdict     {what}")
            lines.extend(f"  {violation}" for violation in self.actual)
        else:
            lines.append("verdict     MISMATCH")
            lines.append(f"  expected {len(self.expected)} violation(s):")
            lines.extend(f"    {violation}" for violation in self.expected)
            lines.append(f"  got {len(self.actual)} violation(s):")
            lines.extend(f"    {violation}" for violation in self.actual)
        return "\n".join(lines)


def replay(source: Union[Counterexample, str]) -> ReplayResult:
    """Re-run a saved artifact (or a path to one) deterministically.

    The replay uses the exact evaluation parameters recorded in the
    artifact, so a counterexample reproduces its violations and a
    certificate reproduces its clean pass -- on any machine, in any order,
    under any parallelism.
    """
    from repro.api.runner import RunJob
    from repro.campaign.runner import evaluate_schedule

    base_dir = ""
    if isinstance(source, str):
        base_dir = os.path.dirname(os.path.abspath(source))
        source = Counterexample.load(source)
    row = evaluate_schedule(RunJob(
        source.scenario(base_dir), requests=source.requests,
        horizon=source.horizon, settle=source.settle))
    return ReplayResult(counterexample=source, actual=row.violations)

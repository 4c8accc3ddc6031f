"""Finding records, fingerprints and the grandfathering baseline."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: One-line description per rule id (also the JSON rule table).
RULES: Dict[str, str] = {
    "B-OVF": "integer lane may wrap: bound exceeds the dtype capacity",
    "B-RED": "reducer input exceeds its proven range",
    "B-LAZY": "lazy value stored outside the declared q-multiple window",
    "B-OUT": "return value exceeds the declared output bound",
    "B-ARG": "argument exceeds the callee's declared input bound",
    "B-ACC": "reduction axis has no declared max_lanes bound",
    "B-OBJ": "object-dtype promotion (silent bigint fallback)",
    "D-FORM": "coeff/eval representation mismatch at a call site",
    "D-DOM": "Montgomery/standard domain mismatch at a call site",
    "A-VIEW": "returns a view of self/cached buffers without copy",
    "A-FROZEN": "mutation of a @frozen compiled plan",
    "T-KIND": "trace emit() with a kind outside the ALL_KINDS vocabulary",
}

#: The dagcheck (D-family) rules: static verification over recorded trace
#: DAGs rather than source text (see :mod:`repro.analysis.dagcheck`).
#: Findings reuse :class:`Finding` with ``path`` = trace label and
#: ``line`` = event id, so fingerprints, baselines and suppression
#: machinery carry over unchanged.
DAG_RULES: Dict[str, str] = {
    "D-LVL": "ciphertext level/prime-count inconsistent along data deps",
    "D-CEV": "coeff/eval domain mismatch along a trace data path",
    "D-SCL": "CKKS scale mismatch at an addition or divide",
    "D-RES": "tensor product consumes an unrescaled tensor product",
    "D-KEY": "automorphism step outside the declared rotation-key set",
    "D-NSE": "statically predicted noise-budget exhaustion",
    "D-SCH": "schedule illegality: event ordered before a dependency",
    "D-HBM": "declared HBM budget below the static liveness certificate",
}


@dataclass
class Finding:
    """One static-analysis finding."""

    rule: str
    path: str
    line: int
    func: str
    message: str
    baselined: bool = False
    suppressed: bool = False

    @property
    def fingerprint(self) -> str:
        """Stable identity for baseline matching: rule + file + function +
        a hash of the message — line numbers excluded so findings survive
        unrelated edits above them."""
        digest = hashlib.sha1(self.message.encode()).hexdigest()[:10]
        return f"{self.rule}:{self.path}:{self.func}:{digest}"

    def to_json(self) -> Dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "func": self.func,
            "message": self.message,
            "fingerprint": self.fingerprint,
            "baselined": self.baselined,
        }

    def render(self) -> str:
        mark = " [baselined]" if self.baselined else ""
        return (
            f"{self.path}:{self.line}: [{self.rule}] {self.func}: "
            f"{self.message}{mark}"
        )


@dataclass
class Baseline:
    """Grandfathered fingerprints, grouped per rule in the JSON file."""

    fingerprints: Dict[str, List[str]] = field(default_factory=dict)

    def covers(self, finding: Finding) -> bool:
        return finding.fingerprint in self.fingerprints.get(finding.rule, [])

    @classmethod
    def from_findings(cls, findings: List[Finding]) -> "Baseline":
        out: Dict[str, List[str]] = {}
        for f in findings:
            if not f.suppressed:
                out.setdefault(f.rule, []).append(f.fingerprint)
        return cls({rule: sorted(set(v)) for rule, v in sorted(out.items())})

    def to_json(self) -> Dict:
        return {"version": 1, "findings": self.fingerprints}


def load_baseline(path: Optional[str]) -> Baseline:
    if path is None:
        return Baseline()
    with open(path) as fh:
        data = json.load(fh)
    return Baseline({r: list(v) for r, v in data.get("findings", {}).items()})

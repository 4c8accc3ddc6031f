"""Lint driver: walk roots, run rule passes, baseline, render, JSON.

The runner never imports the code it checks — everything is pure AST.
Inline suppression: ``# fhelint: allow-<RULE>`` on the finding's line or
the line directly above waives that rule there (the waiver is visible in
the diff, unlike a baseline entry).
"""

from __future__ import annotations

import ast
import json
import os
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..report import format_table
from .aliasing import AliasPass
from .bounds import (BoundsPass, object_dtype_findings,
                     unannotated_astype_findings)
from .domains import DomainPass
from .findings import RULES, Baseline, Finding
from .registry import ModuleInfo, Registry
from .tracerules import trace_kind_findings

_ALLOW_RE = re.compile(r"#\s*fhelint:\s*allow-([A-Z]+-[A-Z]+)")

#: Paths (relative, substring match) where the numeric-root-only rules
#: apply: narrowing astype outside @bounded.
_NUMERIC_ROOTS = ("repro/ntt/", "repro/numtheory/", "repro/backend/")

#: Directories never linted (the linter itself, tests, caches).
_SKIP_PARTS = {"__pycache__", ".git", "fhelint"}


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    functions_checked: int = 0
    #: Baseline fingerprints that no longer match any finding — dead
    #: grandfather entries.  They gate too: a stale entry would silently
    #: re-admit the finding if the code regressed, so CI requires the
    #: baseline be pruned (``--prune-baseline``) the moment a baselined
    #: finding is fixed.
    stale: List[str] = field(default_factory=list)

    @property
    def active(self) -> List[Finding]:
        """Findings that gate: not baselined, not inline-waived."""
        return [f for f in self.findings
                if not f.baselined and not f.suppressed]

    @property
    def exit_code(self) -> int:
        return 1 if self.active or self.stale else 0

    def rule_counts(self) -> Dict[str, Dict[str, int]]:
        out: Dict[str, Dict[str, int]] = {
            rule: {"active": 0, "baselined": 0, "waived": 0}
            for rule in RULES
        }
        for f in self.findings:
            bucket = ("waived" if f.suppressed
                      else "baselined" if f.baselined else "active")
            out.setdefault(f.rule, {"active": 0, "baselined": 0,
                                    "waived": 0})[bucket] += 1
        return out

    def render(self) -> str:
        """Nsight-style per-rule summary plus the active finding list."""
        counts = self.rule_counts()
        rows = []
        for rule, desc in RULES.items():
            c = counts[rule]
            rows.append([f"{rule}  {desc[:40]}", c["active"],
                         c["baselined"], c["waived"]])
        table = format_table(
            ["rule", "active", "baseline", "waived"], rows,
            title=f"fhelint: {self.files_checked} files, "
                  f"{self.functions_checked} annotated kernels checked",
            first_col_width=48, col_width=10,
        )
        lines = [table, ""]
        for f in sorted(self.active, key=lambda f: (f.path, f.line)):
            lines.append(f.render())
        for fp in self.stale:
            lines.append(f"stale baseline entry (no longer fires): {fp}")
        verdict = "clean" if self.exit_code == 0 else ", ".join(
            part for part in (
                f"{len(self.active)} finding(s)" if self.active else "",
                f"{len(self.stale)} stale baseline entr"
                f"{'y' if len(self.stale) == 1 else 'ies'}"
                if self.stale else "",
            ) if part)
        lines.append(f"fhelint: {verdict}")
        return "\n".join(lines)

    def render_github(self) -> str:
        """GitHub Actions workflow-command annotations, one per active
        finding (stale baseline entries annotate the baseline file)."""
        lines = [
            f"::error file={f.path},line={f.line}::"
            f"[{f.rule}] {f.func}: {f.message}"
            for f in sorted(self.active, key=lambda f: (f.path, f.line))
        ]
        lines.extend(
            f"::error::stale fhelint baseline entry {fp} — "
            "run --prune-baseline"
            for fp in self.stale
        )
        return "\n".join(lines)

    def to_json(self) -> Dict:
        return {
            "tool": "fhelint",
            "files_checked": self.files_checked,
            "functions_checked": self.functions_checked,
            "rules": RULES,
            "counts": self.rule_counts(),
            "active": len(self.active),
            "stale_baseline": list(self.stale),
            "exit_code": self.exit_code,
            "findings": [f.to_json() for f in self.findings
                         if not f.suppressed],
        }


def _iter_py_files(roots: List[str]) -> List[str]:
    out: List[str] = []
    for root in roots:
        if os.path.isfile(root):
            out.append(root)
            continue
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = [d for d in dirnames if d not in _SKIP_PARTS]
            for name in sorted(filenames):
                if name.endswith(".py"):
                    out.append(os.path.join(dirpath, name))
    return sorted(set(out))


def _func_locator(module: ModuleInfo) -> Callable[[int], str]:
    """Map a line number to the enclosing function's qualname."""
    spans: List = []

    def collect(node: ast.AST, qual: tuple) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = qual + (child.name,)
                end = getattr(child, "end_lineno", child.lineno)
                if not isinstance(child, ast.ClassDef):
                    spans.append((child.lineno, end, ".".join(name)))
                collect(child, name)

    collect(module.tree, ())

    def locate(line: int) -> str:
        best = "<module>"
        best_span = None
        for lo, hi, name in spans:
            if lo <= line <= hi and \
                    (best_span is None or hi - lo < best_span):
                best, best_span = name, hi - lo
        return best

    return locate


def _apply_waivers(findings: List[Finding],
                   modules: Dict[str, ModuleInfo]) -> None:
    for f in findings:
        module = modules.get(f.path)
        if module is None:
            continue
        for line_no in (f.line, f.line - 1):
            if 1 <= line_no <= len(module.source_lines):
                for m in _ALLOW_RE.finditer(
                        module.source_lines[line_no - 1]):
                    if m.group(1) == f.rule:
                        f.suppressed = True


def run_lint(roots: List[str],
             baseline: Optional[Baseline] = None) -> LintResult:
    """Run every rule family over the python files under ``roots``."""
    registry = Registry()
    modules: Dict[str, ModuleInfo] = {}
    for path in _iter_py_files(roots):
        try:
            with open(path, encoding="utf-8") as fh:
                source = fh.read()
        except OSError:
            continue
        mod = registry.add_module(path, source)
        if mod is not None:
            modules[path] = mod

    result = LintResult(files_checked=len(modules))
    findings = result.findings
    for path, module in modules.items():
        locate = _func_locator(module)
        findings.extend(object_dtype_findings(module, locate))
        findings.extend(trace_kind_findings(module, locate))
        if any(part in path.replace("\\", "/")
               for part in _NUMERIC_ROOTS):
            findings.extend(
                unannotated_astype_findings(module, registry, locate))

    for infos in registry.functions.values():
        for info in infos:
            module = modules.get(info.path)
            if module is None or info.node is None:
                continue
            if info.bounded is not None and not info.bounded.get("assume"):
                result.functions_checked += 1
                BoundsPass(registry, info, module, findings).run()
            if info.node.body:
                DomainPass(registry, info, module, findings).run()
                AliasPass(registry, info, module, findings).run()

    _apply_waivers(findings, modules)
    if baseline is not None:
        for f in findings:
            if not f.suppressed and baseline.covers(f):
                f.baselined = True
        fired = {f.fingerprint for f in findings if not f.suppressed}
        result.stale = sorted(
            fp
            for fps in baseline.fingerprints.values()
            for fp in fps
            if fp not in fired
        )
    return result


def write_json(result: LintResult, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")

"""Plain-text table rendering for the benchmark harness.

The benchmark files print tables shaped like the paper's; these helpers
keep the formatting consistent (fixed-width columns, pass/fail lines,
the static-analysis gate summaries).
"""

from __future__ import annotations

from typing import List, Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence],
                 *, title: str = "", col_width: int = 12,
                 first_col_width: int = 28) -> str:
    """Fixed-width table: first column left-aligned, rest right-aligned."""
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("-" * (first_col_width + col_width * (len(headers) - 1)))
    header = f"{headers[0]:<{first_col_width}}" + "".join(
        f"{h:>{col_width}}" for h in headers[1:]
    )
    lines.append(header)
    for row in rows:
        cells = [_fmt(c) for c in row]
        lines.append(
            f"{cells[0]:<{first_col_width}}"
            + "".join(f"{c:>{col_width}}" for c in cells[1:])
        )
    return "\n".join(lines)


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.2f}"
    return str(value)


def shape_check(description: str, condition: bool) -> str:
    """A pass/fail line for a qualitative claim ('who wins')."""
    mark = "PASS" if condition else "FAIL"
    return f"[{mark}] {description}"


def lint_gate_summary(json_path: str = "ANALYSIS_lint.json") -> str:
    """Fold the fhelint static-safety gate into the reproduction report.

    Reads a previously written ``ANALYSIS_lint.json`` (the CI artifact)
    when one exists; otherwise re-runs the analyzer over the installed
    package source, so the reproduction summary never silently skips
    the gate. The numeric tables above only mean something if the
    kernels producing them provably stay inside their declared bounds.
    """
    import json
    import os

    if os.path.exists(json_path):
        with open(json_path, encoding="utf-8") as fh:
            data = json.load(fh)
        origin = json_path
    else:
        # Local import: the lint runner imports this module's
        # format_table, so a top-level import would be circular.
        from .fhelint.runner import run_lint
        import repro

        data = run_lint([os.path.dirname(repro.__file__)]).to_json()
        origin = "live run"

    rows = []
    for rule in sorted(data.get("counts", {})):
        c = data["counts"][rule]
        if c["active"] or c["baselined"] or c["waived"]:
            rows.append([rule, c["active"], c["baselined"], c["waived"]])
    if not rows:
        rows.append(["(no findings)", 0, 0, 0])
    verdict = "CLEAN" if data.get("active", 1) == 0 else \
        f"{data['active']} ACTIVE FINDING(S)"
    table = format_table(
        ["rule", "active", "baseline", "waived"], rows,
        title=f"Static safety gate: fhelint ({origin}) — "
              f"{data.get('functions_checked', 0)} annotated kernels",
        first_col_width=12, col_width=10,
    )
    return f"{table}\n{shape_check('fhelint gate: ' + verdict, verdict == 'CLEAN')}"


def dagcheck_gate_summary(json_path: str = "ANALYSIS_dagcheck.json") -> str:
    """Fold the dagcheck trace-DAG verification gate into the report.

    Reads a previously written ``ANALYSIS_dagcheck.json`` (the CI
    artifact) when one exists; otherwise verifies one catalog workload
    live at proxy scale so the summary never silently skips the gate.
    The optimizer/serving numbers above only mean something if the
    rewritten DAGs provably preserve ciphertext semantics, stay inside
    noise budget, and admit under their memory certificates.
    """
    import json
    import os

    if os.path.exists(json_path):
        with open(json_path, encoding="utf-8") as fh:
            data = json.load(fh)
        origin = json_path
    else:
        # Local import: dagcheck's runner renders with format_table,
        # so a top-level import would be circular.
        from .dagcheck import run_dagcheck

        data = run_dagcheck(names=["resnet_block"], search=False).to_json()
        origin = "live run (resnet_block only)"

    rows = []
    for wl in sorted(data.get("workloads", {})):
        info = data["workloads"][wl]
        cert = data.get("certificates", {}).get(wl, {})
        ratio = cert.get("ratio")
        rows.append([
            wl, info.get("findings", 0), len(info.get("surfaces", [])),
            round(cert.get("peak_bytes", 0) / 2**20, 1),
            f"{ratio:.2f}x" if ratio else "-",
        ])
    if not rows:
        rows.append(["(no workloads)", 0, 0, 0, "-"])
    findings = len(data.get("findings", []))
    survivors = data.get("surviving_mutations", [])
    kills = data.get("mutation_kills", {})
    ok = data.get("exit_code", 1) == 0
    verdict = "CLEAN" if ok else (
        f"{findings} FINDING(S), {len(survivors)} SURVIVING MUTATION(S)"
    )
    table = format_table(
        ["workload", "findings", "surfaces", "cert MiB", "cert/obs"],
        rows,
        title=f"Trace-DAG verification gate: dagcheck ({origin}) — "
              f"{len(kills)} mutation(s) killed",
        first_col_width=16, col_width=10,
    )
    return f"{table}\n{shape_check('dagcheck gate: ' + verdict, ok)}"

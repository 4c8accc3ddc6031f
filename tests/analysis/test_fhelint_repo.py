"""The repository gate: fhelint over the real ``src/`` tree and the test
oracles in ``tests/oracles`` is clean.

This is the same invocation CI runs — every contract the kernels declare
(lazy windows, reducer input ranges, int32 accumulators, representation
tags, frozen plans) is re-proven on every run, so a regression in any
annotated kernel fails here before it fails numerically.
"""

from pathlib import Path

from repro.analysis.fhelint.runner import run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"
ORACLES = REPO_ROOT / "tests" / "oracles"


def test_repo_src_is_clean():
    result = run_lint([str(SRC), str(ORACLES)])
    assert result.active == [], "\n".join(
        f.render() for f in result.active
    )


def test_coverage_is_nontrivial():
    """The gate means nothing if nothing is annotated: the run must
    actually interpret a substantial number of @bounded kernels."""
    result = run_lint([str(SRC)])
    assert result.files_checked > 50
    assert result.functions_checked >= 20


def test_json_report_shape():
    result = run_lint([str(SRC)])
    report = result.to_json()
    assert report["tool"] == "fhelint"
    assert report["exit_code"] == 0
    assert report["active"] == 0
    assert set(report["counts"]) >= {"B-LAZY", "B-RED", "A-VIEW"}


def test_reproduce_summary_folds_artifact(tmp_path):
    import json

    from repro.analysis import lint_gate_summary
    from repro.analysis.fhelint.runner import write_json

    artifact = tmp_path / "ANALYSIS_lint.json"
    write_json(run_lint([str(SRC)]), str(artifact))
    text = lint_gate_summary(str(artifact))
    assert "fhelint" in text
    assert "[PASS] fhelint gate: CLEAN" in text
    data = json.loads(artifact.read_text())
    assert data["active"] == 0

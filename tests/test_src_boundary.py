"""The library never reaches into the test tree.

Test oracles live in ``tests/oracles`` so ``src/`` holds only code its
callers run; an import of ``tests`` from ``repro`` would make the
installed package depend on files it does not ship.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module or ""


def test_no_module_imports_tests():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 50
    offenders = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.relative_to(SRC)}:{line} imports {name}"
                      for line, name in _imported_modules(tree)
                      if name == "tests" or name.startswith("tests.")]
    assert offenders == []

"""Invariants in the package never rest on ``assert``: ``python -O``
strips those."""

import ast
from pathlib import Path

import spgraphs


def test_package_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(spgraphs.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []

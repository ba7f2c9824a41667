"""Checks on the package source itself."""

import ast
from pathlib import Path

import tsn

SOURCE = Path(tsn.__file__).parent


def test_package_has_no_assert_statements():
    # internal invariants must be explicit checks raising InternalError:
    # `python -O` strips `assert` statements
    modules = sorted(SOURCE.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(SOURCE.parent)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []

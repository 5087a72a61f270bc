"""Package checks must survive ``python -O``, which strips assert statements."""

import ast
from pathlib import Path

import padicgeo


def test_package_has_no_assert_statements():
    sources = sorted(Path(padicgeo.__file__).parent.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []

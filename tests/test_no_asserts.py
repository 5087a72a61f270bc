"""Package checks must survive ``python -O``, which strips assert statements,
and fail as package errors that the command line reports."""

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


def _raises_assertion_error(node):
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_package_raises_no_assertion_error():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(padicgeo.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if _raises_assertion_error(node)
    ]
    assert found == []

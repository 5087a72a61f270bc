"""Every name a package module imports is used in that module.

``__init__.py`` is exempt: it imports names only to re-export them.
"""

import ast
from pathlib import Path

import padicgeo


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_package_modules_use_every_import():
    sources = sorted(Path(padicgeo.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    found = [
        f"{path.name}:{line} {name}"
        for path in sources
        if path.name != "__init__.py"
        for line, name in _unused_imports(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def test_an_unused_import_is_found():
    tree = ast.parse("import os\nfrom math import inf, pi\nfrom . import zp\nprint(pi, zp.INF)\n")
    assert _unused_imports(tree) == [(1, "os"), (2, "inf")]

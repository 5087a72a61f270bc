"""Every module-level function and class of the package is reached by a caller.

A definition counts as reached when its name appears in a package module
other than ``__init__.py`` (a re-export alone is no use), in ``scripts/``, or
in a non-test ``perfbench/`` file, as a name, an attribute, an imported name
or a string (the benchmark's tracer wraps attributes it names by string).
Code that only tests call belongs in the tests.
"""

import ast
from pathlib import Path

import padicgeo

PACKAGE = Path(padicgeo.__file__).parent
ROOT = PACKAGE.parents[1]

# the reference checker that tests use to verify root witnesses
ALLOWED = {"roots.verify_witness"}


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _named(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def _unreached(modules, callers):
    """``module.name`` of each definition in ``modules`` that no top-level
    statement of ``callers`` names, other than the definition itself.

    ``modules`` maps module names to parsed trees; ``callers`` is a list of
    parsed trees, which may include those of ``modules``."""
    uses = [(stmt, _named(stmt)) for tree in callers for stmt in tree.body]
    return sorted(
        f"{module}.{node.name}"
        for module, tree in modules.items()
        for node in tree.body
        if isinstance(node, DEFINITIONS)
        and not any(node.name in names for stmt, names in uses if stmt is not node)
    )


def test_every_definition_is_reached_outside_the_tests():
    modules = {
        path.stem: ast.parse(path.read_text(), str(path))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert len(modules) > 1
    others = sorted((ROOT / "scripts").glob("*.py")) + [
        path
        for path in sorted((ROOT / "perfbench").glob("*.py"))
        if not path.name.startswith("test_")
    ]
    assert others
    callers = list(modules.values()) + [ast.parse(p.read_text(), str(p)) for p in others]
    assert [name for name in _unreached(modules, callers) if name not in ALLOWED] == []


def test_an_unreached_definition_is_found():
    lib = ast.parse(
        "def used():\n    return helper()\n\n"
        "def helper():\n    return 1\n\n"
        "def only_tested():\n    return used()\n\n"
        "class Traced:\n    pass\n\n"
        "class Orphan:\n    def method(self):\n        return Orphan\n"
    )
    script = ast.parse("from lib import used\nimport lib\nprint(used(), lib.helper)\n")
    bench = ast.parse("WRAPPED = [('Traced', 'run')]\n")
    assert _unreached({"lib": lib}, [lib, script, bench]) == ["lib.Orphan", "lib.only_tested"]

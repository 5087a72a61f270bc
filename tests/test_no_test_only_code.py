"""Every module-level function and class of the package, and every method
and property of its classes, is reached by a caller.

A definition counts as reached when its name appears in a package module
other than ``__init__.py`` (a re-export alone is no use), in ``scripts/``, or
in a non-test ``perfbench/`` file, as a name, an attribute, an imported name
or a string (the benchmark's tracer wraps attributes it names by string).
A class does not reach itself. A method or property is reached only as an
attribute or a string, from anywhere but its own definition (another method
of its class counts); dunder methods are called by Python itself.
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


def _named(*trees):
    """(every name the trees use, the part used as an attribute or a string)."""
    names, attributes = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                attributes.add(node.value)
    return names | attributes, attributes


def _uses(tree):
    """(top-level statement, unit, ``_named`` of the unit) for each top-level
    statement, with a class split into its header and its body statements."""
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            yield stmt, None, _named(*stmt.decorator_list, *stmt.bases, *stmt.keywords)
            for member in stmt.body:
                yield stmt, member, _named(member)
        else:
            yield stmt, stmt, _named(stmt)


def _definitions(modules):
    """(qualified name, node, top-level statement) of each module-level
    definition, and of each method or property of a module-level class with
    None in place of the statement."""
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, DEFINITIONS):
                continue
            yield f"{module}.{node.name}", node, node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, DEFINITIONS) and not (
                        member.name.startswith("__") and member.name.endswith("__")
                    ):
                        yield f"{module}.{node.name}.{member.name}", member, None


def _unreached(modules, callers):
    """Qualified name of each definition in ``modules`` that no unit of
    ``callers`` names. A top-level definition is not reached from its own
    statement. A method or property is reached only as an attribute or a
    string, and not from its own definition.

    ``modules`` maps module names to parsed trees; ``callers`` is a list of
    parsed trees, which may include those of ``modules``."""
    uses = [use for tree in callers for use in _uses(tree)]
    return sorted(
        name
        for name, node, top in _definitions(modules)
        if not any(
            node.name in named[top is None]
            for stmt, unit, named in uses
            if stmt is not top and unit is not node
        )
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
        "class Orphan:\n    def method(self):\n        return Orphan\n\n"
        "class Kept:\n    def __init__(self):\n        self.go()\n\n"
        "    def go(self):\n        return self.size\n\n"
        "    @property\n    def size(self):\n        return 1\n\n"
        "    def recurse(self):\n        return self.recurse()\n\n"
        "    def only_tested(self):\n        return 2\n\n"
        "    def shadowed(self):\n        return 3\n"
    )
    script = ast.parse(
        "from lib import used\nimport lib\nshadowed = 0\n"
        "print(used(), lib.helper, lib.Kept().go)\n"
    )
    bench = ast.parse("WRAPPED = [('Traced', 'run')]\n")
    assert _unreached({"lib": lib}, [lib, script, bench]) == [
        "lib.Kept.only_tested",
        "lib.Kept.recurse",
        "lib.Kept.shadowed",
        "lib.Orphan",
        "lib.Orphan.method",
        "lib.only_tested",
    ]

"""No private code that nothing in the package calls: every module-level
function or class of `src/fastgate` whose name starts with `_`, and every
method of a class there whose name starts with `_` (dunders aside), is
referenced somewhere in the package outside its own body.  A reference is
a name or attribute read, so an import alone, a docstring mention or a use
only from the tests does not count.  Public names are API and are not
checked."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fastgate"


def _private(nodes, kinds):
    """The nodes of `kinds` among `nodes` whose names start with `_`, dunders
    aside."""
    return [node for node in nodes if isinstance(node, kinds)
            and node.name.startswith("_") and not node.name.endswith("__")]


def private_definitions_and_references():
    """The private module-level functions and classes of every module and
    the private methods of its classes, each as (module, name, first line,
    last line, whether a method), and every name read, as (module, name,
    line)."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    definitions, references = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in _private(tree.body, functions + (ast.ClassDef,)):
            definitions.append((path.name, node.name, node.lineno, node.end_lineno, False))
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            for node in _private(cls.body, functions):
                definitions.append((path.name, node.name, node.lineno, node.end_lineno, True))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references.append((path.name, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                references.append((path.name, node.attr, node.lineno))
    return definitions, references


def unreferenced(definitions, references):
    """The definitions that no reference outside their own bodies reads."""
    return [
        f"{module}:{first} {name}" for module, name, first, last, _ in definitions
        if not any(used == name and not (where == module and first <= line <= last)
                   for where, used, line in references)
    ]


def test_every_private_definition_is_referenced_outside_its_body():
    definitions, references = private_definitions_and_references()
    module_level = [d for d in definitions if not d[-1]]
    assert len(module_level) > 50
    assert unreferenced(module_level, references) == []


def test_every_private_method_is_referenced_outside_its_body():
    definitions, references = private_definitions_and_references()
    methods = [d for d in definitions if d[-1]]
    assert len(methods) >= 9
    assert unreferenced(methods, references) == []

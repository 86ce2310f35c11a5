"""No private code that nothing in the package calls: every module-level
function or class of `src/fastgate` whose name starts with `_` is
referenced somewhere in the package outside its own body.  A reference is
a name or attribute read, so an import alone, a docstring mention or a use
only from the tests does not count.  Public names are API and are not
checked."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fastgate"


def private_definitions_and_references():
    """The private module-level functions and classes of every module, as
    (module, name, first line, last line), and every name read, as
    (module, name, line)."""
    definitions, references = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.endswith("__")):
                definitions.append((path.name, node.name, node.lineno, node.end_lineno))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references.append((path.name, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                references.append((path.name, node.attr, node.lineno))
    return definitions, references


def test_every_private_definition_is_referenced_outside_its_body():
    definitions, references = private_definitions_and_references()
    assert len(definitions) > 50
    unreferenced = [
        f"{module}:{first} {name}" for module, name, first, last in definitions
        if not any(used == name and not (where == module and first <= line <= last)
                   for where, used, line in references)
    ]
    assert unreferenced == []

"""No private code that nothing in the package calls: every module-level
function, class or constant of `src/fastgate` whose name starts with `_`,
and every method of a class there whose name starts with `_` (dunders
aside), is referenced somewhere in the package outside its own body.  A reference is
a name or attribute read, so an import alone, a docstring mention or a use
only from the tests does not count.  Every field of a private dataclass or
NamedTuple is also read as an attribute somewhere in the package: a field
that is only ever written holds nothing anyone uses.  Public names are API
and are not checked."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fastgate"


def _private(nodes, kinds):
    """The nodes of `kinds` among `nodes` whose names start with `_`, dunders
    aside."""
    return [node for node in nodes if isinstance(node, kinds)
            and node.name.startswith("_") and not node.name.endswith("__")]


def _private_constants(nodes):
    """The module-level assignments among `nodes` to a name that starts with
    `_`, dunders aside, each as (name, node)."""
    found = []
    for node in nodes:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        found += [(target.id, node) for target in targets if isinstance(target, ast.Name)
                  and target.id.startswith("_") and not target.id.endswith("__")]
    return found


def private_definitions_and_references():
    """The private module-level functions, classes and constants of every
    module and the private methods of its classes, each as (module, name,
    first line, last line, kind: "module", "constant" or "method"), and
    every name read, as (module, name, line)."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    definitions, references = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in _private(tree.body, functions + (ast.ClassDef,)):
            definitions.append((path.name, node.name, node.lineno, node.end_lineno, "module"))
        for name, node in _private_constants(tree.body):
            definitions.append((path.name, name, node.lineno, node.end_lineno, "constant"))
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            for node in _private(cls.body, functions):
                definitions.append((path.name, node.name, node.lineno, node.end_lineno, "method"))
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
    module_level = [d for d in definitions if d[-1] == "module"]
    assert len(module_level) > 50
    assert unreferenced(module_level, references) == []


def test_every_private_method_is_referenced_outside_its_body():
    definitions, references = private_definitions_and_references()
    methods = [d for d in definitions if d[-1] == "method"]
    assert len(methods) >= 9
    assert unreferenced(methods, references) == []


def test_every_private_constant_is_read_outside_its_assignment():
    definitions, references = private_definitions_and_references()
    constants = [d for d in definitions if d[-1] == "constant"]
    assert len(constants) >= 9
    assert unreferenced(constants, references) == []


def _record(cls):
    """Whether a class definition is a dataclass or a NamedTuple."""
    def name(node):
        node = node.func if isinstance(node, ast.Call) else node
        return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)

    return ("dataclass" in map(name, cls.decorator_list)
            or "NamedTuple" in map(name, cls.bases))


def private_record_fields_and_reads():
    """The fields of every private module-level dataclass or NamedTuple,
    each as (module, class, field), and the set of attribute names read."""
    fields, reads = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls in _private(tree.body, ast.ClassDef):
            if _record(cls):
                fields += [(path.name, cls.name, node.target.id) for node in cls.body
                           if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]
        reads |= {node.attr for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return fields, reads


def test_every_private_record_field_is_read():
    fields, reads = private_record_fields_and_reads()
    assert len(fields) >= 20
    assert [f"{module} {cls}.{field}" for module, cls, field in fields
            if field not in reads] == []

"""The attributes perfbench's tracer wraps by name (`install_tracer` in
perfbench/run.py), read from that file's source: a name that moves between
modules would otherwise only fail in a traced benchmark run."""

import ast
import importlib
from pathlib import Path

import pytest

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def traced_attributes():
    """The (module, attribute) pairs of the loop in `install_tracer`, with
    each module named as the function imports it."""
    tree = ast.parse(RUN_PY.read_text(encoding="utf-8"))
    function = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "install_tracer")
    modules = {}
    for node in ast.walk(function):
        if isinstance(node, ast.Import):
            modules.update((alias.name, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.update((alias.asname or alias.name, f"{node.module}.{alias.name}")
                           for alias in node.names)
    loop = next(node for node in ast.walk(function) if isinstance(node, ast.For))
    return [(modules[ast.unparse(module)], attribute.value)
            for module, attribute, _ in (entry.elts for entry in loop.iter.elts)]


TRACED = traced_attributes()


def test_both_import_forms_resolve():
    # `from fastgate import cli` and `import scipy.optimize`
    assert ("fastgate.cli", "main") in TRACED
    assert ("scipy.optimize", "least_squares") in TRACED


@pytest.mark.parametrize("module, attribute", TRACED)
def test_traced_attribute_exists(module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute))

"""The attributes perfbench's tracer wraps by name (`install_tracer` in
perfbench/run.py), listed here by hand: a name that moves between modules
would otherwise only fail in a traced benchmark run."""

import importlib

import pytest

TRACED = [
    ("fastgate.cli", "main"),
    ("fastgate.cli", "build_chain"),
    ("fastgate.chain", "build_chain"),
    ("fastgate.cli", "optimize_gate"),
    ("fastgate.cli", "trajectory_samples"),
    ("fastgate.dynamics", "trajectory_samples"),
    ("fastgate.optimize", "stage1"),
    ("fastgate.optimize", "stage2"),
    ("scipy.optimize", "least_squares"),
    ("fastgate.optimize", "evaluate_train"),
    ("fastgate.fidelity", "evaluate_train"),
    ("fastgate.fidelity", "propagate"),
    ("fastgate.optimize", "expand_groups"),
    ("fastgate.sequence", "expand_groups"),
    ("fastgate.optimize", "jitter_sensitivity"),
]


@pytest.mark.parametrize("module, attribute", TRACED)
def test_traced_attribute_exists(module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute))

"""What counts as a number or an integer in the package's JSON documents.

One rule for the run config and for stored results: a JSON boolean or
string is not a number, however Python would convert it, and only a JSON
integer is an integer.
"""

from __future__ import annotations

import math

import numpy as np


def json_float(value) -> float | None:
    """A JSON number as a float, infinite when it is an integer past the
    float range; None for a boolean, string or anything else."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return None
    try:
        return float(value)
    except OverflowError:
        return math.inf


def json_number(value, name: str) -> float:
    """`value` as a float; ValueError when it is not a JSON number."""
    number = json_float(value)
    if number is None:
        raise ValueError(f"{name} must be a number, not {value!r}")
    return number


def json_integer(value, name: str) -> int:
    """`value` itself; ValueError when it is not a JSON integer."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    return value


def json_array(value, name: str) -> np.ndarray:
    """Nested lists of JSON numbers, the entries of `name`, as a float array."""
    def floats(item):
        if isinstance(item, list):
            return [floats(v) for v in item]
        return json_number(item, f"{name} entry")

    return np.asarray(floats(value), dtype=float)

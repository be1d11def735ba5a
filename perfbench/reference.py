"""Committed reference outputs and the comparator that checks against them.

References are stored in the program's own JSON encoding (non-finite
floats as the strings ``"inf"``/``"-inf"``/``"nan"``) and decoded back
to floats before comparing.  Floats match at a relative tolerance of
``REL_TOL``, so ulp-level changes to a metric's arithmetic still pass;
infinities and NaNs must match exactly (NaN equals NaN here); integers,
strings and booleans must be equal.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import Any, List

#: Relative tolerance for floats (integers compare exactly).
REL_TOL = 1e-9

_NON_FINITE = {"inf": math.inf, "-inf": -math.inf, "nan": math.nan}


def jsonable(value: Any) -> Any:
    """Dataclasses, tuples and non-finite floats as plain JSON values."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    return value


def decode(value: Any) -> Any:
    """Inverse of the non-finite-float string encoding."""
    if isinstance(value, str):
        return _NON_FINITE.get(value, value)
    if isinstance(value, dict):
        return {k: decode(v) for k, v in value.items()}
    if isinstance(value, list):
        return [decode(v) for v in value]
    return value


def load(path: Path) -> Any:
    return decode(json.loads(Path(path).read_text(encoding="utf-8")))


def store(path: Path, value: Any) -> None:
    Path(path).write_text(
        json.dumps(jsonable(value), indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def _floats_match(actual: float, expected: float) -> bool:
    if math.isnan(expected) or math.isnan(actual):
        return math.isnan(expected) and math.isnan(actual)
    if math.isinf(expected) or math.isinf(actual):
        return actual == expected
    return math.isclose(actual, expected, rel_tol=REL_TOL, abs_tol=0.0)


def compare(actual: Any, expected: Any, path: str = "") -> List[str]:
    """Every difference between two decoded JSON values, as messages."""
    actual, expected = decode(actual), decode(expected)
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or sorted(actual) != sorted(expected):
            return [f"{path}: keys {_keys(actual)} != {_keys(expected)}"]
        problems = []
        for key in expected:
            problems += compare(actual[key], expected[key], f"{path}.{key}")
        return problems
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: {_shape(actual)} != {_shape(expected)}"]
        problems = []
        for i, (a, e) in enumerate(zip(actual, expected)):
            problems += compare(a, e, f"{path}[{i}]")
        return problems
    if isinstance(expected, bool) or isinstance(actual, bool):
        same = type(actual) is type(expected) and actual == expected
    elif isinstance(expected, float) or isinstance(actual, float):
        same = isinstance(actual, (int, float)) and isinstance(
            expected, (int, float)
        )
        same = same and _floats_match(float(actual), float(expected))
    else:
        same = type(actual) is type(expected) and actual == expected
    return [] if same else [f"{path}: {actual!r} != {expected!r}"]


def _keys(value: Any) -> Any:
    return sorted(value) if isinstance(value, dict) else type(value).__name__


def _shape(value: Any) -> str:
    if isinstance(value, list):
        return f"list of {len(value)}"
    return type(value).__name__

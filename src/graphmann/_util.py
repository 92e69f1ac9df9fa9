"""Small shared helpers for array validation and JSON conversion."""

from __future__ import annotations

import json
from itertools import chain
from typing import Any

import numpy as np

from .errors import DimensionMismatchError, InputError


def as_vector(x: Any, dim: int | None = None, name: str = "vector") -> np.ndarray:
    """Coerce to a 1-d float array, optionally checking its length."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise InputError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise DimensionMismatchError(
            f"{name} has dimension {arr.shape[0]}, expected {dim}"
        )
    return arr


def frozen_array(x: Any, dtype=float) -> np.ndarray:
    """Copy to a read-only array so dataclass holders stay immutable."""
    arr = np.array(x, dtype=dtype)
    arr.flags.writeable = False
    return arr


def jsonable(value: Any) -> Any:
    """Recursively convert numpy scalars/arrays so json.dumps accepts them."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


def fmt17(value: float) -> str:
    """Format a float with 17 significant digits (lossless for doubles)."""
    return format(float(value), ".17g")


# element types json writes the same with or without indent, and whose text
# never contains "," or "]"
_NUMBER_TYPES = {int, float, bool, type(None)}


def dumps_indent2(obj: Any) -> str:
    """Exactly `json.dumps(obj, indent=2)`, mostly at the C encoder's speed.

    CPython's C encoder runs only without indent, but with any item
    separator.  Lists of numbers, and nonempty lists of nonempty number
    lists, go through it in one call whose separator carries the newline
    and indent of their items; a list of lists then needs one substitution
    to lay out the row boundaries.  Everything else is laid out here with
    json's own indent rules, each leaf written by json itself.
    """
    parts: list[str] = []
    _indent2(obj, "\n", parts)
    return "".join(parts)


def _indent2(value: Any, newline: str, parts: list[str]) -> None:
    """Append the pieces of `value`'s indent=2 text, nested at `newline`."""
    inner = newline + "  "
    if isinstance(value, dict) and value:
        opener = "{"
        for key, item in value.items():
            parts.append(opener + inner + _json_key(key) + ": ")
            _indent2(item, inner, parts)
            opener = ","
        parts.append(newline + "}")
    elif isinstance(value, (list, tuple)) and value:
        types = set(map(type, value))
        if types <= _NUMBER_TYPES:
            body = json.dumps(value, separators=("," + inner, ": "))[1:-1]
            parts += ("[" + inner, body, newline + "]")
        elif (
            types == {list}
            and all(value)
            and set(map(type, chain.from_iterable(value))) <= _NUMBER_TYPES
        ):
            row = inner + "  "
            body = json.dumps(value, separators=("," + row, ": "))[2:-2].replace(
                "]," + row + "[", inner + "]," + inner + "[" + row
            )
            parts += ("[" + inner + "[" + row, body, inner + "]" + newline + "]")
        else:
            opener = "["
            for item in value:
                parts.append(opener + inner)
                _indent2(item, inner, parts)
                opener = ","
            parts.append(newline + "]")
    else:
        # scalars, {} and []
        parts.append(json.dumps(value))


def _json_key(key: Any) -> str:
    """A dict key as json writes it; json itself converts non-string keys."""
    if isinstance(key, str):
        return json.dumps(key)
    return json.dumps({key: None})[1:-7]

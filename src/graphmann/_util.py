"""Small shared helpers for array validation and JSON conversion."""

from __future__ import annotations

import json
from collections.abc import Iterator
from itertools import chain
from pathlib import Path
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

# numbers per C-encoder call: the text of one call, and json's string per
# element while it runs, stay a few hundred KiB however long the list
_CHUNK = 4096


def dumps_indent2(obj: Any) -> str:
    """Exactly `json.dumps(obj, indent=2)`, mostly at the C encoder's speed;
    an array in `obj` is written as its `tolist()`."""
    return "".join(_indent2(obj, "\n"))


def write_json(obj: Any, path: str | Path) -> None:
    """Write `dumps_indent2(obj)` and a newline to `path`, piece by piece,
    so the whole text is never held in memory."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_indent2(obj, "\n"))
        fh.write("\n")


def _indent2(value: Any, newline: str) -> Iterator[str]:
    """The pieces of `value`'s indent=2 text, nested at `newline`.

    CPython's C encoder runs only without indent, but with any item
    separator.  Lists of numbers, nonempty lists of nonempty number lists,
    and nonempty 1-d and 2-d int or float arrays go through it `_CHUNK`
    numbers at a time (an array converted to a list one chunk at a time),
    with a separator that carries the newline and indent of their items; a
    group of rows then needs one substitution to lay out the row boundaries.
    Any other array is written as its `tolist()`.  Everything else is laid
    out here with json's own indent rules, each leaf written by json itself.
    """
    inner = newline + "  "
    if isinstance(value, dict) and value:
        opener = "{"
        for key, item in value.items():
            yield opener + inner + _json_key(key) + ": "
            yield from _indent2(item, inner)
            opener = ","
        yield newline + "}"
    elif isinstance(value, np.ndarray):
        if value.dtype.kind not in "iuf" or value.ndim not in (1, 2) or not value.size:
            yield from _indent2(value.tolist(), newline)
        elif value.ndim == 1:
            yield from _number_list(value, newline)
        else:
            yield from _number_rows(value, newline)
    elif isinstance(value, (list, tuple)) and value:
        types = set(map(type, value))
        if types <= _NUMBER_TYPES:
            yield from _number_list(value, newline)
        elif (
            types == {list}
            and all(value)
            and set(map(type, chain.from_iterable(value))) <= _NUMBER_TYPES
        ):
            yield from _number_rows(value, newline)
        else:
            opener = "["
            for item in value:
                yield opener + inner
                yield from _indent2(item, inner)
                opener = ","
            yield newline + "]"
    else:
        # scalars, {} and []
        yield json.dumps(value)


def _plain(values: Any) -> Any:
    """A list, tuple or array of numbers as json encodes it."""
    return values.tolist() if isinstance(values, np.ndarray) else values


def _number_list(values: Any, newline: str) -> Iterator[str]:
    """A nonempty number list or 1-d array, nested at `newline`."""
    inner = newline + "  "
    yield "[" + inner
    yield from _numbers(values, "," + inner)
    yield newline + "]"


def _number_rows(rows: Any, newline: str) -> Iterator[str]:
    """A nonempty list of nonempty number lists, or a nonempty 2-d array,
    nested at `newline`."""
    inner = newline + "  "
    row = inner + "  "
    between = inner + "]," + inner + "[" + row
    yield "[" + inner + "[" + row
    for i, group in enumerate(_row_groups(rows)):
        if i:
            yield between
        if len(group) == 1:
            yield from _numbers(group[0], "," + row)
        else:
            text = json.dumps(_plain(group), separators=("," + row, ": "))
            yield text[2:-2].replace("]," + row + "[", between)
    yield inner + "]" + newline + "]"


def _numbers(values: Any, separator: str) -> Iterator[str]:
    """The items of a number list or 1-d array joined by `separator`,
    `_CHUNK` at a time."""
    for start in range(0, len(values), _CHUNK):
        if start:
            yield separator
        chunk = _plain(values[start:start + _CHUNK])
        yield json.dumps(chunk, separators=(separator, ": "))[1:-1]


def _row_groups(rows: Any) -> Iterator[Any]:
    """Consecutive runs of `rows` holding at most `_CHUNK` numbers in all; a
    longer row is a run of its own."""
    if isinstance(rows, np.ndarray):
        per_group = max(1, _CHUNK // rows.shape[1])
        for start in range(0, rows.shape[0], per_group):
            yield rows[start:start + per_group]
        return
    start = count = 0
    for i, row in enumerate(rows):
        if count and count + len(row) > _CHUNK:
            yield rows[start:i]
            start, count = i, 0
        count += len(row)
    yield rows[start:]


def _json_key(key: Any) -> str:
    """A dict key as json writes it; json itself converts non-string keys."""
    if isinstance(key, str):
        return json.dumps(key)
    return json.dumps({key: None})[1:-7]

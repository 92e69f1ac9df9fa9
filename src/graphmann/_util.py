"""Small shared helpers for array validation and JSON conversion and I/O."""

from __future__ import annotations

import json
import re
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


def write_json(obj: Any, path: str | Path) -> None:
    """Write exactly `json.dumps(obj, indent=2)` and a newline to `path`,
    mostly at the C encoder's speed and piece by piece, so the whole text is
    never held in memory; an array in `obj` is written as its `tolist()`."""
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


# text per json.loads call of a number array: its text, its Python numbers
# and their array stay a few hundred KiB however long the array
_PIECE = 64 << 10

_WHITESPACE = re.compile(rb"[ \t\n\r]*")
# a string, or any other token up to the next delimiter; json.loads decides
# whether it is a value
_TOKEN = re.compile(rb'"[^"\\]*(?:\\.[^"\\]*)*"|[^ \t\n\r,:\[\]{}"]+', re.DOTALL)
# the end of a row and of the array that holds it
_LAST_ROW = re.compile(rb"\][ \t\n\r]*\]")
# the first bytes of a number, NaN, Infinity and -Infinity
_NUMBER_START = {bytes([c]) for c in b"-0123456789NI"}


def read_json(path: str | Path) -> Any:
    """`json.loads` of the file's UTF-8 text, with each nonempty array of
    numbers, or of nonempty number rows of one width, read as its
    `np.array` (the same dtype and bits).

    Objects and arrays are walked here and every key and other value is read
    by json.loads, so json's semantics (NaN and Infinity, the last of
    duplicate keys) stay.  A number array is read `_PIECE` of text at a time
    into the array, so the read holds the file's bytes and what it returns,
    never the text as a str nor a Python object per number.  Malformed text
    raises what json.loads of the text raises, with its line and column.
    """
    doc = Path(path).read_bytes()
    try:
        value, end = _value(doc, _skip(doc, 0))
        if _skip(doc, end) == len(doc):
            return value
    except (ValueError, RecursionError):
        pass
    # the walk met text it does not read: json.loads of the whole text says why
    json.loads(doc.decode("utf-8"))
    # json.loads read what the walk could not: only nesting deeper than
    # Python's recursion limit allows that
    raise ValueError(f"{path} is nested too deeply to read")


def _skip(doc: bytes, i: int) -> int:
    """The index of the first non-whitespace byte at or after i."""
    return _WHITESPACE.match(doc, i).end()


def _value(doc: bytes, i: int) -> tuple[Any, int]:
    """The value at i and the index after it."""
    opener = doc[i:i + 1]
    if opener == b"{":
        return _object(doc, i + 1)
    if opener == b"[":
        return _array(doc, i + 1)
    return _token(doc, i)


def _token(doc: bytes, i: int) -> tuple[Any, int]:
    """The string, number or literal at i, read by json.loads, and the index
    after it."""
    match = _TOKEN.match(doc, i)
    if match is None:
        raise ValueError("no value")
    return json.loads(match[0].decode("utf-8")), match.end()


def _object(doc: bytes, i: int) -> tuple[dict, int]:
    """The object whose "{" is at i - 1, and the index after its "}"."""
    obj: dict = {}
    i = _skip(doc, i)
    if doc[i:i + 1] == b"}":
        return obj, i + 1
    while True:
        if doc[i:i + 1] != b'"':
            raise ValueError("unexpected text")
        key, i = _token(doc, i)
        i = _skip(doc, i)
        if doc[i:i + 1] != b":":
            raise ValueError("unexpected text")
        obj[key], i = _value(doc, _skip(doc, i + 1))
        i = _skip(doc, i)
        delimiter = doc[i:i + 1]
        if delimiter == b"}":
            return obj, i + 1
        if delimiter != b",":
            raise ValueError("unexpected text")
        i = _skip(doc, i + 1)


def _array(doc: bytes, i: int) -> tuple[Any, int]:
    """The array whose "[" is at i - 1, and the index after its "]"; an
    array of numbers or of number rows as an ndarray."""
    i = _skip(doc, i)
    if doc[i:i + 1] == b"[":
        first = _skip(doc, i + 1)
        last_row = _LAST_ROW.search(doc, first) if doc[first:first + 1] in _NUMBER_START else None
        if last_row:
            array = _number_array(doc, i, last_row.start() + 1, rows=True)
            if array is not None:
                return array, last_row.end()
    elif doc[i:i + 1] in _NUMBER_START:
        stop = doc.find(b"]", i)
        if stop >= 0:
            array = _number_array(doc, i, stop, rows=False)
            if array is not None:
                return array, stop + 1
    items = []
    if doc[i:i + 1] == b"]":
        return items, i + 1
    while True:
        item, i = _value(doc, i)
        items.append(item)
        i = _skip(doc, i)
        delimiter = doc[i:i + 1]
        if delimiter == b"]":
            return items, i + 1
        if delimiter != b",":
            raise ValueError("unexpected text")
        i = _skip(doc, i + 1)


def _number_array(doc: bytes, start: int, stop: int, rows: bool) -> np.ndarray | None:
    """`np.array` of the array whose items are the text doc[start:stop],
    when they are all numbers, or all nonempty number rows of one width
    (`rows`), and None otherwise.

    A piece of the text ends at the first comma past `_PIECE` bytes (past
    the end of the row there, for rows), so the pieces and the commas
    between them tile the text, and json.loads reads each piece.  The array
    is allocated from the count of commas or rows once the first piece is
    read, in that piece's dtype, and promoted as a later piece needs (int64
    and uint64 to float64), as np.array promotes the items of one list.
    """
    out, filled, k = None, 0, start
    while True:
        cut = doc.find(b"]", k + _PIECE, stop) if rows else k + _PIECE
        end = doc.find(b",", cut, stop) if cut >= 0 else -1
        end = stop if end < 0 else end
        piece = _parsed_numbers(doc[k:end], rows)
        if piece is None or (out is not None and piece.shape[1:] != out.shape[1:]):
            return None
        if piece.dtype == object:
            # an int beyond 64 bits: np.array keeps every item's own Python
            # number in an object array, so such an array is read whole
            return _parsed_numbers(doc[start:stop], rows)
        if out is None:
            count = doc.count(b"[", start, stop) if rows else doc.count(b",", start, stop) + 1
            out = np.empty((count,) + piece.shape[1:], piece.dtype)
        dtype = np.promote_types(out.dtype, piece.dtype)
        if dtype != out.dtype:
            out = out.astype(dtype)
        out[filled:filled + len(piece)] = piece
        filled += len(piece)
        if end == stop:
            return out
        k = end + 1


def _parsed_numbers(text: bytes, rows: bool) -> np.ndarray | None:
    """`np.array` of the items in `text` when they are all numbers, or all
    nonempty number rows of one width (`rows`), and None otherwise."""
    try:
        items = json.loads("[%s]" % text.decode("utf-8"))
    except ValueError:
        return None
    numbers = items
    if rows:
        if set(map(type, items)) != {list} or len(set(map(len, items))) != 1:
            return None
        # one flat list: np.array promotes its items alike, and faster
        numbers = list(chain.from_iterable(items))
    if not numbers or not set(map(type, numbers)) <= {int, float}:
        return None
    array = np.array(numbers)
    return array.reshape(len(items), -1) if rows else array

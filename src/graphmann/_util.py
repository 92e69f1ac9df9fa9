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
    """A read-only array of `x`, so dataclass holders stay immutable: `x`
    itself when it is a read-only `dtype` array that owns its data (as
    `read_json` reads one), which nothing can write, and a read-only copy
    otherwise."""
    if (isinstance(x, np.ndarray) and x.dtype == dtype and x.flags.owndata
            and not x.flags.writeable):
        return x
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
        if set(map(type, value)) <= _NUMBER_TYPES:
            return list(value)
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
            text = json.dumps(
                _plain(group), separators=("," + row, ": "), check_circular=False
            )
            yield text[2:-2].replace("]," + row + "[", between)
    yield inner + "]" + newline + "]"


def _numbers(values: Any, separator: str) -> Iterator[str]:
    """The items of a number list or 1-d array joined by `separator`,
    `_CHUNK` at a time (numbers alone, so json need not look for cycles)."""
    for start in range(0, len(values), _CHUNK):
        if start:
            yield separator
        chunk = _plain(values[start:start + _CHUNK])
        yield json.dumps(chunk, separators=(separator, ": "), check_circular=False)[1:-1]


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


# bytes read from the file at a time, and of text per json.loads call of a
# number array: its text, its Python numbers and their array stay a few
# hundred KiB however long the array
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
    numbers, or of nonempty number rows of one width, read by one rule: a
    float64 array when its numbers are all floats, an int64 array when they
    are all ints that fit in 64 bits, and json.loads' list otherwise (ints
    and floats mixed, or an int beyond 64 bits), so that `write_json`
    writes every number of what it reads as it was written: an int as an
    int, a float as a float.  The arrays are read-only, so a holder that
    freezes its arrays (`frozen_array`) keeps one without a copy.

    The file is read forward `_PIECE` bytes at a time (`_Source`).  Objects
    and arrays are walked here and every key and other value is read by
    json.loads, so json's semantics (NaN and Infinity, the last of duplicate
    keys) stay.  A number array is read once, a piece of text at a time,
    and its pieces are joined at its end, so the read holds what it returns
    and a few pieces, never the file's text nor, for an array, a Python
    object per number.  Malformed text raises what json.loads of the text
    raises, with its line and column: only then is the whole text read.
    """
    with open(path, "rb") as fh:
        src = _Source(fh)
        try:
            value = _value(src, _skip(src))
            if not _skip(src):
                return value
        except (ValueError, RecursionError):
            pass
    # the walk met text it does not read: json.loads of the whole text says why
    json.loads(Path(path).read_bytes().decode("utf-8"))
    # json.loads read what the walk could not: only nesting deeper than
    # Python's recursion limit allows that
    raise ValueError(f"{path} is nested too deeply to read")


class _Source:
    """A binary file read forward: `buf[i:]` is the text not yet walked,
    and `offset` the file position of buf[0]."""

    def __init__(self, fh) -> None:
        self.fh = fh
        self.buf = b""
        self.i = self.offset = 0

    def more(self) -> bool:
        """Append the next bytes of the file to `buf`, dropping the text
        walked; False, with `buf` as it was, at the end of the file.  It
        reads `_PIECE` bytes, or as many as are left unwalked when that is
        more: a walk that reads on over one long item (a long string, a
        row of numbers longer than a piece) doubles the text held at each
        call, so it copies that text about twice in all, not once per
        piece."""
        data = self.fh.read(max(_PIECE, len(self.buf) - self.i))
        if not data:
            return False
        self.offset += self.i
        self.buf = self.buf[self.i:] + data
        self.i = 0
        return True

    def tell(self) -> int:
        return self.offset + self.i

    def seek(self, position: int) -> None:
        """Walk on from the file position `position`, read before."""
        if position >= self.offset:
            self.i = position - self.offset
        else:
            self.fh.seek(position)
            self.buf, self.i, self.offset = b"", 0, position


def _skip(src: _Source) -> bytes:
    """Skip whitespace; the byte after it, b"" at the end of the file."""
    while True:
        src.i = _WHITESPACE.match(src.buf, src.i).end()
        if src.i < len(src.buf) or not src.more():
            return src.buf[src.i:src.i + 1]


def _value(src: _Source, opener: bytes) -> Any:
    """The value whose first byte, at `src.i`, is `opener`."""
    if opener == b"{":
        src.i += 1
        return _object(src)
    if opener == b"[":
        src.i += 1
        return _array(src)
    return _token(src)


def _token(src: _Source) -> Any:
    """The string, number or literal at `src.i`, read by json.loads."""
    # a token is whole once a byte follows it, or the file ends
    while True:
        match = _TOKEN.match(src.buf, src.i)
        if match is not None and match.end() < len(src.buf) or not src.more():
            break
    if match is None:
        raise ValueError("no value")
    src.i = match.end()
    return json.loads(match[0].decode("utf-8"))


def _object(src: _Source) -> dict:
    """The object whose "{" was just walked."""
    obj: dict = {}
    if _skip(src) == b"}":
        src.i += 1
        return obj
    while True:
        if _skip(src) != b'"':
            raise ValueError("unexpected text")
        key = _token(src)
        if _skip(src) != b":":
            raise ValueError("unexpected text")
        src.i += 1
        obj[key] = _value(src, _skip(src))
        delimiter = _skip(src)
        src.i += 1
        if delimiter == b"}":
            return obj
        if delimiter != b",":
            raise ValueError("unexpected text")


def _array(src: _Source) -> Any:
    """The array whose "[" was just walked; an array of numbers or of
    number rows as a read-only ndarray when `_number_array` gives one."""
    opener = _skip(src)
    start = src.tell()
    rows = opener == b"["
    if rows:
        # the first byte of the first row's first item, looked at in place
        while True:
            first = _WHITESPACE.match(src.buf, src.i + 1).end()
            if first < len(src.buf) or not src.more():
                break
        opener = src.buf[first:first + 1]
    if opener in _NUMBER_START:
        array = _number_array(src, rows)
        if isinstance(array, np.ndarray):
            array.flags.writeable = False
        if array is not None:
            return array
        # not a number array: walk it item by item from its start
        src.seek(start)
    items = []
    if _skip(src) == b"]":
        src.i += 1
        return items
    while True:
        items.append(_value(src, _skip(src)))
        delimiter = _skip(src)
        src.i += 1
        if delimiter == b"]":
            return items
        if delimiter != b",":
            raise ValueError("unexpected text")


def _number_array(src: _Source, rows: bool) -> np.ndarray | list | None:
    """The items of the array being walked, from `src.i` to its "]", when
    they are all numbers, or all nonempty number rows of one width (`rows`),
    and None otherwise: one array when `_parsed_numbers` gives every piece
    as an array of one dtype, and json.loads' list otherwise.

    The text is cut after the last comma in the text read so far (the last
    "]," for rows), and json.loads reads each piece so cut, so the pieces
    and the commas between them tile the array's text, which is read once.
    """
    pieces: list[np.ndarray | list] = []
    while True:
        while len(src.buf) - src.i < _PIECE and src.more():
            pass
        buf, i = src.buf, src.i
        if rows:
            last = _LAST_ROW.search(buf, i)
            stop, after = (last.start() + 1, last.end()) if last else (-1, -1)
            cut = buf.rfind(b"],", i)
            cut += cut >= 0  # the comma after the row
        else:
            stop = buf.find(b"]", i)
            after = stop + 1
            cut = buf.rfind(b",", i)
        final = stop >= 0
        if not final:
            if cut < 0:  # no whole item read yet
                if not src.more():
                    return None
                continue
            stop, after = cut, cut + 1
        piece = _parsed_numbers(buf[i:stop], rows)
        if piece is None or rows and pieces and len(piece[0]) != len(pieces[0][0]):
            return None
        pieces.append(piece)
        src.i = after
        if final:
            break
    first = pieces[0]
    if all(isinstance(p, np.ndarray) and p.dtype == first.dtype for p in pieces):
        return np.concatenate(pieces) if len(pieces) > 1 else first
    return list(chain.from_iterable(map(_plain, pieces)))


def _parsed_numbers(text: bytes, rows: bool) -> np.ndarray | list | None:
    """The items in `text` when they are all numbers, or all nonempty number
    rows of one width (`rows`), and None otherwise: a float64 array when
    the numbers are all floats, an int64 array when they are all ints that
    fit in it, and json.loads' list otherwise."""
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
    types = set(map(type, numbers))
    if not numbers or not types <= {int, float}:
        return None
    if len(types) > 1:
        return items
    array = np.array(numbers)
    # np.array gives ints beyond int64 a uint64, object or float64 array
    if array.dtype != (np.int64 if int in types else np.float64):
        return items
    return array.reshape(len(items), -1) if rows else array

import io
import json
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import graphmann._util as util
from graphmann._util import _CHUNK, _indent2, frozen_array, jsonable, read_json, write_json
from graphmann.config import ExperimentConfig
from graphmann.corpus import oracle_1d_config
from graphmann.errors import ConfigError
from graphmann.experiment import load_stored_trajectory
from graphmann.mann import Schedule, Trajectory, run, trajectory_fields, trajectory_to_dict
from graphmann.normed_space import Box, NormSpace
from graphmann.operators import MatrixAffine

SPECIAL_FLOATS = (
    math.nan,
    math.inf,
    -math.inf,
    -0.0,
    5e-324,
    1.7976931348623157e308,
)
# text that the number fast paths split on, plus non-ASCII
TRICKY_TEXT = (", ", "], [", "a, b", "[1, 2], [3]", "é", "☃ ∞", "")

numbers = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(SPECIAL_FLOATS),
)
texts = st.one_of(st.text(max_size=8), st.sampled_from(TRICKY_TEXT))
keys = st.one_of(texts, st.integers(), st.floats(), st.booleans(), st.none())
number_lists = st.lists(numbers, max_size=6)
values = st.recursive(
    st.one_of(numbers, texts, number_lists, st.lists(number_lists, max_size=4)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.tuples(children, children),
        st.dictionaries(keys, children, max_size=4),
    ),
    max_leaves=30,
)

# lengths around the writer's chunk of numbers per C-encoder call
CHUNK_LENGTHS = (_CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 1)


@st.composite
def chunked_number_lists(draw):
    """A number list of one of CHUNK_LENGTHS, a drawn pattern repeated."""
    n = draw(st.sampled_from(CHUNK_LENGTHS))
    pattern = draw(st.lists(numbers, min_size=1, max_size=5))
    return (pattern * n)[:n]


@st.composite
def chunked_row_lists(draw):
    """A list of number lists holding one of CHUNK_LENGTHS numbers in all.

    A row width that does not divide the chunk puts a row across a chunk
    boundary; a row longer than a chunk may be inserted anywhere.
    """
    flat = draw(chunked_number_lists())
    width = draw(st.sampled_from((1, 3, 4, 7, _CHUNK - 1, _CHUNK, _CHUNK + 1)))
    rows = [flat[i:i + width] for i in range(0, len(flat), width)]
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), draw(chunked_number_lists()))
    return rows


# array shapes: empty, one element, one column, rows across and longer
# than a chunk, and 1-d arrays around a chunk
ARRAY_SHAPES = ((0,), (1,), (7,), (_CHUNK + 1,), (3 * _CHUNK + 1,), (0, 3), (3, 0),
                (1, 1), (5, 1), (_CHUNK + 1, 1), (4, 7), (_CHUNK // 7 + 3, 7),
                (3, _CHUNK - 1), (2, _CHUNK + 1))


@st.composite
def number_arrays(draw):
    """A 1-d or 2-d float or int array of one of ARRAY_SHAPES, a drawn
    pattern repeated; float patterns hold the special floats."""
    shape = draw(st.sampled_from(ARRAY_SHAPES))
    if draw(st.booleans()):
        entries = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                            st.sampled_from(SPECIAL_FLOATS))
        dtype = float
    else:
        entries = st.integers(min_value=-(2**63), max_value=2**63 - 1)
        dtype = np.int64
    pattern = np.array(draw(st.lists(entries, min_size=1, max_size=5)), dtype=dtype)
    return np.resize(pattern, shape)


chunked = st.one_of(chunked_number_lists(), chunked_row_lists())
long_values = st.one_of(chunked, st.dictionaries(texts, chunked, min_size=1, max_size=2))


def dumps_indent2(obj):
    """The text `write_json` writes, without its final newline."""
    return "".join(_indent2(obj, "\n"))


class TestDumpsIndent2:
    @given(values)
    def test_matches_json_dumps_indent_2(self, value):
        assert dumps_indent2(value) == json.dumps(value, indent=2)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(values, long_values))
    def test_writer_matches_json_dumps_indent_2(self, tmp_path_factory, value):
        path = tmp_path_factory.getbasetemp() / "written.json"
        write_json(value, path)
        text = json.dumps(value, indent=2)
        assert path.read_bytes() == (text + "\n").encode()
        assert dumps_indent2(value) == text

    @settings(max_examples=80, deadline=None)
    @given(number_arrays(), st.sampled_from(("bare", "in_dict", "in_list")))
    def test_arrays_match_json_dumps_of_their_lists(self, tmp_path_factory, array, where):
        value = {"bare": array, "in_dict": {"a": array, "b": 1}, "in_list": [array, [1.5]]}[where]
        text = json.dumps(jsonable(value), indent=2)
        assert dumps_indent2(value) == text
        path = tmp_path_factory.getbasetemp() / "array.json"
        write_json(value, path)
        assert path.read_bytes() == (text + "\n").encode()

    def test_special_floats_and_big_ints(self):
        value = {"x": list(SPECIAL_FLOATS) + [10**30, True, None]}
        value["rows"] = [list(SPECIAL_FLOATS), [1], [2.5, -3]]
        assert dumps_indent2(value) == json.dumps(value, indent=2)

    def test_empty_and_ragged_lists(self):
        for value in ([], [[]], [[], [1.0]], [[1.0], []], [[1.0, 2.0], [3.0]], {}, [{}]):
            assert dumps_indent2(value) == json.dumps(value, indent=2)

    def test_strings_with_separators_take_the_general_path(self):
        for value in (list(TRICKY_TEXT), [["a, b", 1.0]], [[1.0], ["], ["]]):
            assert dumps_indent2(value) == json.dumps(value, indent=2)

    def test_non_ascii_and_non_string_keys(self):
        value = {"é": [1.0], "☃": {"k, l": []}, 1: 2, 2.5: [3], True: None, None: "n"}
        assert dumps_indent2(value) == json.dumps(value, indent=2)

    def test_trajectory_record(self):
        space = NormSpace(3, 1.5)
        op = MatrixAffine(space, Box(np.zeros(3), np.ones(3)), 0.3 * np.eye(3), np.full(3, 0.2))
        traj = run(op, np.zeros(3), Schedule.constant(0.7), max_iter=60, tol=0.0)
        record = {"schema_version": 1, "trajectory": trajectory_to_dict(traj)}
        assert dumps_indent2(record) == json.dumps(record, indent=2)
        fields = {"schema_version": 1, "trajectory": trajectory_fields(traj)}
        assert dumps_indent2(fields) == json.dumps(record, indent=2)


# --- reading ------------------------------------------------------------------

reader_numbers = st.one_of(
    st.integers(),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(SPECIAL_FLOATS),
)
number_arrays_text = st.lists(reader_numbers, min_size=1, max_size=8)
number_rows = st.integers(1, 4).flatmap(
    lambda width: st.lists(st.lists(reader_numbers, min_size=width, max_size=width),
                           min_size=1, max_size=5)
)
# arrays the reader leaves lists: numbers mixed with bools, strings (those
# the number paths could split on among them), nulls or rows, and ragged rows
mixed_arrays = st.lists(
    st.one_of(reader_numbers, st.booleans(), st.none(), texts, number_arrays_text),
    min_size=1, max_size=6,
)
ragged_rows = st.lists(st.lists(reader_numbers, max_size=4), min_size=2, max_size=5)
documents = st.recursive(
    st.one_of(reader_numbers, st.booleans(), st.none(), texts, number_arrays_text,
              number_rows, mixed_arrays, ragged_rows),
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.dictionaries(texts, children, max_size=4)),
    max_leaves=20,
)

DUMPS = {
    "indent2": lambda value: json.dumps(value, indent=2),
    "compact": lambda value: json.dumps(value, separators=(",", ":"), ensure_ascii=False),
    "tabs_crlf": lambda value: json.dumps(value, indent="\t").replace("\n", "\r\n"),
}
# bytes of text per json.loads call: a few, so that every array is cut,
# and the reader's own
PIECES = (1, 5, util._PIECE)


def number_items(items):
    """The numbers of a list that `read_json` reads as a number array
    (nonempty, and all numbers or all nonempty number rows of one width),
    and None for any other list."""
    def numbers(row):
        return bool(row) and all(type(x) in (int, float) for x in row)

    if numbers(items):
        return items
    if all(type(row) is list and numbers(row) for row in items) and len(
        set(map(len, items))
    ) == 1:
        return [x for row in items for x in row]
    return None


def with_arrays(value):
    """`value` with each list `read_json` reads as an array replaced by its
    np.array: a number array whose numbers are all floats, or all ints that
    fit in int64.  One that mixes ints and floats, or holds an int beyond
    64 bits, stays a list."""
    if isinstance(value, dict):
        return {key: with_arrays(item) for key, item in value.items()}
    if isinstance(value, list):
        flat = number_items(value)
        if flat is None:
            return [with_arrays(item) for item in value]
        types = set(map(type, flat))
        if types == {float}:
            return np.array(value)
        if types == {int} and (array := np.array(value)).dtype == np.int64:
            return array
        return value
    return value


def same(a, b):
    """Equal values of equal types, arrays of one dtype and shape with the
    same bits."""
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    if isinstance(a, dict):
        return (isinstance(b, dict) and list(a) == list(b)
                and all(same(a[key], b[key]) for key in a))
    if isinstance(a, list):
        return (isinstance(b, list) and len(a) == len(b)
                and all(same(x, y) for x, y in zip(a, b)))
    return type(a) is type(b) and repr(a) == repr(b)


class CountingReader(io.BufferedReader):
    """A binary file that counts the bytes its reads return."""

    def __init__(self, path):
        super().__init__(io.FileIO(path, "rb"))
        self.count = 0

    def read(self, size=-1):
        data = super().read(size)
        self.count += len(data)
        return data


def json_error(text):
    """What json.loads raises for `text`."""
    with pytest.raises(ValueError) as caught:
        json.loads(text)
    return caught.value


def small_record():
    space = NormSpace(3, 2.0)
    op = MatrixAffine(space, Box(np.zeros(3), np.ones(3)), 0.3 * np.eye(3), np.full(3, 0.2))
    traj = run(op, np.zeros(3), Schedule.constant(0.7), max_iter=12, tol=0.0)
    return {"schema_version": 1, "trajectory": trajectory_to_dict(traj)}


RECORD_TEXTS = {style: dumps(small_record()) for style, dumps in DUMPS.items()}
READ_CONFIG = ExperimentConfig.from_dict(oracle_1d_config())


class TestReadJson:
    @pytest.mark.parametrize("piece", PIECES)
    @pytest.mark.parametrize("style", DUMPS)
    @settings(max_examples=80, deadline=None)
    @given(value=documents)
    def test_equals_json_loads_with_number_arrays_as_arrays(
        self, tmp_path_factory, style, piece, value
    ):
        text = DUMPS[style](value)
        path = tmp_path_factory.getbasetemp() / "document.json"
        path.write_bytes(text.encode())
        with mock.patch.object(util, "_PIECE", piece):
            got = read_json(path)
        assert same(got, with_arrays(json.loads(text)))
        # so what is read is written again as json writes what it loads
        assert dumps_indent2(got) == json.dumps(json.loads(text), indent=2)

    @pytest.mark.parametrize("text, expected", [
        ('{"a": [1], "a": [2, 3]}', {"a": np.array([2, 3])}),
        ("[NaN, Infinity, -Infinity]", np.array([math.nan, math.inf, -math.inf])),
        ("[1, 9223372036854775808]", [1, 2**63]),
        ("[9223372036854775808]", [2**63]),
        ("[1, 1000000000000000000000000000000]", [1, 10**30]),
        ("[0.5, 1000000000000000000000000000000]", [0.5, 10**30]),
        ("[[1, 2], [0.5, 3]]", [[1, 2], [0.5, 3]]),
        ("[[1, 2], [5, 3]]", np.array([[1, 2], [5, 3]])),
        ("[[1.0, 2.5], [0.5, 3.0]]", np.array([[1.0, 2.5], [0.5, 3.0]])),
        ('[1.5, "]", 2]', [1.5, "]", 2]),
        ("[[1], []]", [np.array([1]), []]),
        ("[[]]", [[]]),
        (" [ ] ", []),
        ('"]"', "]"),
    ])
    def test_json_semantics_and_np_array_dtypes(self, tmp_path, text, expected):
        path = tmp_path / "doc.json"
        path.write_text(text)
        for piece in PIECES:
            with mock.patch.object(util, "_PIECE", piece):
                assert same(read_json(path), expected)

    @pytest.mark.parametrize("text, expected", [
        ("[1, 2.5, 3.5]", [1, 2.5, 3.5]),
        ("[[1, 2], [0.5, 3]]", [[1, 2], [0.5, 3]]),
        ("[1, 9223372036854775808]", [1, 2**63]),
        ("[0.5, 1000000000000000000000000000000]", [0.5, 10**30]),
        ("[1.5, 2.5]", np.array([1.5, 2.5])),
        ("[[1, 2], [3, 4]]", np.array([[1, 2], [3, 4]], dtype=np.int64)),
    ])
    def test_number_array_is_read_in_one_pass(self, tmp_path, text, expected):
        # every byte of the file is read once, whatever the rule gives
        path = tmp_path / "doc.json"
        path.write_text('{"x": %s, "y": [2]}' % text)
        files = []

        def counting_open(file, mode):
            files.append(CountingReader(file))
            return files[-1]

        for piece in (1, 5):
            with mock.patch.object(util, "_PIECE", piece), \
                    mock.patch.object(util, "open", counting_open, create=True):
                got = read_json(path)["x"]
            assert files[-1].count == path.stat().st_size
            assert same(got, expected)
            assert same(got, with_arrays(json.loads(text)))
            if isinstance(expected, np.ndarray):
                assert not got.flags.writeable

    @staticmethod
    def assert_rejected_as_json_does(path, data):
        """load_stored_trajectory of `data` raises ConfigError with
        json.loads' own message, whatever the piece size."""
        expected = f"cannot read trajectory {path}: {json_error(data.decode('utf-8'))}"
        path.write_bytes(data)
        for piece in PIECES:
            with mock.patch.object(util, "_PIECE", piece), \
                    pytest.raises(ConfigError) as caught:
                load_stored_trajectory(path, READ_CONFIG)
            assert str(caught.value) == expected

    @pytest.mark.parametrize("style", DUMPS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_truncated_record_is_rejected_as_json_does(self, tmp_path_factory, style, data):
        text = RECORD_TEXTS[style]
        cut = data.draw(st.integers(0, len(text) - 1))
        path = tmp_path_factory.getbasetemp() / "truncated.json"
        self.assert_rejected_as_json_does(path, text[:cut].encode())

    @pytest.mark.parametrize("style", DUMPS)
    @pytest.mark.parametrize("case", [
        "number_trailing_comma", "row_trailing_comma", "rows_trailing_comma",
        "object_trailing_comma", "extra_data", "extra_array", "bom",
        "bracket_string_in_numbers", "missing_comma_in_numbers", "form_feed",
    ])
    def test_malformed_record_is_rejected_as_json_does(self, tmp_path, style, case):
        text = RECORD_TEXTS[style]
        # the "[" of the residuals and of the iterates, the first "]" after
        # each (the end of the residuals and of the first row) and the end
        # of the last row
        residuals = text.index("[", text.index('"residuals":'))
        residuals_end = text.index("]", residuals)
        iterates = text.index("[", text.index('"iterates":'))
        first_row_end = text.index("]", iterates)
        last_row_end = re.compile(r"\][ \t\r\n]*\]").search(text, iterates).start()
        if case == "number_trailing_comma":
            text = text[:residuals_end] + "," + text[residuals_end:]
        elif case == "row_trailing_comma":
            text = text[:first_row_end] + "," + text[first_row_end:]
        elif case == "rows_trailing_comma":
            text = text[:last_row_end + 1] + "," + text[last_row_end + 1:]
        elif case == "object_trailing_comma":
            text = text[:-1].rstrip() + ",}"
        elif case == "extra_data":
            text += " x"
        elif case == "extra_array":
            text += "[1]"
        elif case == "bracket_string_in_numbers":
            text = text[:residuals + 1] + '1.0, "]", 2.0 3.0' + text[residuals_end:]
        elif case == "missing_comma_in_numbers":
            text = text[:residuals + 1] + "1.0 2.0" + text[residuals_end:]
        elif case == "form_feed":  # not JSON whitespace
            text = text[:residuals + 1] + "\f" + text[residuals + 1:]
        data = text.encode()
        if case == "bom":
            data = b"\xef\xbb\xbf" + data
        self.assert_rejected_as_json_does(tmp_path / "bad.json", data)

    def test_arrays_are_read_only_and_frozen_without_a_copy(self, tmp_path):
        # a holder that freezes an array read from a file keeps that array;
        # an array another array can write, or of another dtype, is copied
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"m": [[0.5] * 300] * 300, "v": [1.5, 2.5], "i": [1, 2]}))
        for piece in PIECES:
            with mock.patch.object(util, "_PIECE", piece):
                doc = read_json(path)
            assert not any(doc[key].flags.writeable for key in doc)
            for key in doc:
                frozen = frozen_array(doc[key])
                assert (frozen is doc[key]) == (doc[key].dtype == float and doc[key].flags.owndata)
                assert not frozen.flags.writeable and np.array_equal(frozen, doc[key])
        writeable = np.ones(3)
        assert frozen_array(writeable) is not writeable
        view = frozen_array(np.ones((2, 2)))[0]
        assert frozen_array(view) is not view

    def test_bracket_string_in_numbers_is_read_as_a_list(self, tmp_path):
        # valid JSON: the residuals stay a list, which the record check rejects
        record = small_record()
        record["trajectory"]["residuals"][1] = "]"
        path = tmp_path / "run.json"
        path.write_text(json.dumps(record, indent=2))
        assert read_json(path)["trajectory"]["residuals"][1] == "]"
        with pytest.raises(ConfigError, match="malformed trajectory record"):
            load_stored_trajectory(path, READ_CONFIG)

    def test_reading_a_long_record_holds_its_arrays_not_its_text(self, tmp_path):
        # a 32 230-row d = 4 record (5.8 MB of text, 1.8 MB of arrays): the
        # read holds what it returns, the pieces of the array it is reading
        # (at most the largest array) and a few pieces of text.  It held the
        # file's bytes too (a peak of 8.0 MB) before it read the file piece
        # by piece, and json.loads of the text held the bytes and the text
        # together, then the text and a Python float per number
        n, d = 32_230, 4
        rng = np.random.default_rng(0)
        traj = Trajectory(iterates=rng.random((n, d)), iterate_indices=np.arange(1, n + 1),
                          residuals=rng.random(n), schedule_used=np.full(n - 1, 0.5),
                          stop_reason="max_iterations")
        path = tmp_path / "run.json"
        write_json({"trajectory": trajectory_fields(traj)}, path)
        tracemalloc.start()
        try:
            record = read_json(path)["trajectory"]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for key in ("iterates", "iterate_indices", "residuals", "schedule_used"):
            assert np.array_equal(record[key], getattr(traj, key))
        sizes = [v.nbytes for v in record.values() if isinstance(v, np.ndarray)]
        assert peak < sum(sizes) + max(sizes) + (512 << 10)

import json
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from graphmann._util import _CHUNK, dumps_indent2, jsonable, write_json
from graphmann.mann import Schedule, run, trajectory_fields, trajectory_to_dict
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

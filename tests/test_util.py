import json
import math

import numpy as np
from hypothesis import given, strategies as st

from graphmann._util import dumps_indent2
from graphmann.mann import Schedule, run, trajectory_to_dict
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


class TestDumpsIndent2:
    @given(values)
    def test_matches_json_dumps_indent_2(self, value):
        assert dumps_indent2(value) == json.dumps(value, indent=2)

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

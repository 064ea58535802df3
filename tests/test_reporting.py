"""The JSON writer against ``json.dumps(indent=2, sort_keys=True)``."""

import json

from hypothesis import given, settings, strategies as st

from qkzpsi.reporting import json_text

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(),  # non-ASCII, control characters, quotes and backslashes
)
documents = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(st.integers(), max_size=6),  # the all-int rows of polynomial terms
        st.dictionaries(st.text(max_size=8), inner, max_size=5),
    ),
    max_leaves=30,
)


@settings(max_examples=500, deadline=None)
@given(documents)
def test_json_text_matches_json_dumps(doc):
    assert json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_json_text_fixed_cases():
    for doc in ({}, [], [[]], {"a": {}}, [1, True, None], {"b": [1, 2], "a": "é\n\""},
                {"terms": [[1, 2, 0, 3]], "vars": 2}, (1, 2), 1.5, -0.0):
        assert json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)

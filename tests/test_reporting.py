"""The ``checking`` helper, and the JSON writer against
``json.dumps(indent=2, sort_keys=True)``."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from qkzpsi.reporting import checking, json_parts


def test_a_block_that_reaches_its_end_passes():
    with checking("wheel", "k=2") as outcome:
        pass
    rep = outcome.report
    assert (rep.check, rep.instance, rep.status, rep.witness) == ("wheel", "k=2", "pass", None)
    assert rep.wall_time >= 0


def test_fail_keeps_its_witness_and_ends_the_block():
    reached = []
    with checking("exchange", "k=2 i=1") as outcome:
        outcome.fail("label (1|2): lhs - rhs = 1")
        reached.append(True)
    assert reached == []
    assert (outcome.report.status, outcome.report.witness) == ("fail", "label (1|2): lhs - rhs = 1")


def test_skip_gives_a_skipped_report():
    with checking("cyclicity", "k=2") as outcome:
        outcome.skip("no rotation")
    assert (outcome.report.status, outcome.report.witness) == ("skipped", "no rotation")


def test_fail_inside_except_exception_still_fails():
    with checking("ybe", "k=3") as outcome:
        try:
            outcome.fail("column 1")
        except Exception:
            pass
    assert (outcome.report.status, outcome.report.witness) == ("fail", "column 1")


def test_any_other_exception_propagates():
    with pytest.raises(ZeroDivisionError):
        with checking("degree", "k=2") as outcome:
            1 / 0
    assert outcome.report is None

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
    assert "".join(json_parts(doc)) == json.dumps(doc, indent=2, sort_keys=True)


def test_json_text_fixed_cases():
    for doc in ({}, [], [[]], {"a": {}}, [1, True, None], {"b": [1, 2], "a": "é\n\""},
                {"terms": [[1, 2, 0, 3]], "vars": 2}, (1, 2), 1.5, -0.0):
        assert "".join(json_parts(doc)) == json.dumps(doc, indent=2, sort_keys=True)


def test_json_parts_renders_a_callable_value_only_when_it_is_reached():
    calls = []

    def rows(nl):
        calls.append(nl)
        return "[]"

    parts = json_parts({"a": rows, "b": [rows]})
    assert calls == [] and next(parts) == '{\n  "a": ' and calls == []
    assert "".join(parts) == '[],\n  "b": [\n    []\n  ]\n}'
    assert calls == ["\n  ", "\n    "]


def iterators(doc):
    """doc with every list turned into an iterator over its items."""
    if isinstance(doc, list):
        return iter([iterators(x) for x in doc])
    if isinstance(doc, dict):
        return {key: iterators(value) for key, value in doc.items()}
    return doc


@settings(max_examples=300, deadline=None)
@given(documents)
def test_an_iterator_is_written_as_its_list(doc):
    assert "".join(json_parts(iterators(doc))) == json.dumps(doc, indent=2, sort_keys=True)


def test_json_parts_takes_an_iterators_items_as_it_reaches_them():
    taken = []

    def items():
        for i in range(2):
            taken.append(i)
            yield [i]

    parts = json_parts({"a": items(), "b": iter(())})
    assert next(parts) == '{\n  "a": ' and taken == []
    assert next(parts) == "[\n    " and taken == [0]
    assert "".join(parts) == '[\n      0\n    ],\n    [\n      1\n    ]\n  ],\n  "b": []\n}'
    assert taken == [0, 1]

import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from smoothpa.errors import format_json

TEXT = st.text(st.characters(codec=None, exclude_categories=()), max_size=8) | st.sampled_from(
    ["", '"', "\\", "\n", "\r\t\b\f", "\x00\x1f\x7f", " ", "é", "日本", "\U0001f600",
     "\ud800", "%s", "%", "%%", "{}", "[1]", ": ", ",\n  "])
SCALARS = st.one_of(
    st.none(), st.booleans(), TEXT,
    st.integers(),
    st.integers(min_value=2 ** 64 - 2, max_value=2 ** 80) | st.integers(max_value=-2 ** 64),
    st.floats(),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e308, 0.1]))
DOCUMENTS = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=6) | st.lists(inner, max_size=6).map(tuple)
                   | st.dictionaries(TEXT, inner, max_size=6)),
    max_leaves=60)


def reference(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


@settings(max_examples=300, deadline=None)
@given(DOCUMENTS)
@example({})
@example([[], {}, (), [[]], {"": {}}])
@example({"b": [1, (2.5, [None, {"c": []}])], "a": {"z": True, "y": -0.0}})
@example([2 ** 64, -2 ** 70, math.nan, math.inf, -math.inf, 0.0, -0.0])
@example(["\n", "\\n", "%s", "%", "𐏿", "\x00"])
@example({"%": ["%s", {"%%": "%d"}]})
def test_format_json_equals_json_dumps(doc):
    assert format_json(doc) == reference(doc)


@pytest.mark.parametrize("doc", [
    {1: "int", 2.5: [1], -3: {}},
    {None: [None]},
    {True: {"x": 1}, False: 0},
    {math.nan: [1, 2], math.inf: 0.5},
    {"cells": {1: [0.25, {"k": (3,)}]}},
    list(range(3000)),
    [[i, [i + 0.5]] for i in range(300)],
])
def test_format_json_equals_json_dumps_on_keys_and_sizes(doc):
    assert format_json(doc) == reference(doc)


@pytest.mark.parametrize("doc", [{(1, 2): 0}, {"a": 1, 2: 0}, [object()], {"a": {1j: 0}}])
def test_format_json_refuses_what_json_dumps_refuses(doc):
    with pytest.raises(TypeError):
        reference(doc)
    with pytest.raises(TypeError):
        format_json(doc)

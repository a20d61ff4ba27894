"""The JSON writer against the json package's ``dumps(value, sort_keys=True, indent=2)``."""

from __future__ import annotations

import json
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schubflex.jsonout import chunks


class Level(IntEnum):
    ONE = 1


def stdlib(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2)


def written(value) -> str:
    return "".join(chunks(value))


# Characters json escapes, or must leave alone: quotes, backslashes, control
# characters with and without a named escape, DEL, the ends of printable
# ASCII, non-ASCII below U+FFFF and astral characters (surrogate pairs).
SPECIAL = (
    '"\\/\x00\x01\x08\t\n\x0c\r\x1f\x7f ~aZ09'
    "\xa0\xe9\u2028\ud7ff\uffff\U00010000\U0001f600\U0010ffff"
)
strings = st.text(alphabet=st.sampled_from(SPECIAL)) | st.text()
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**300), max_value=10**300)
    | strings
)
values = st.recursive(
    scalars,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(strings, inner, max_size=4)
    ),
    max_leaves=40,
)


@given(values)
@settings(max_examples=200, deadline=None)
def test_writer_spells_what_json_dumps_spells(value):
    assert written(value) == stdlib(value)


@pytest.mark.parametrize(
    "value",
    [
        [], {}, (), "", 0, -1, True, False, None, [[]], [{}], {"a": []}, {"a": {}},
        ((), ((),)), {"b": 1, "a": [1, "x", None], "": {"c": False}}, 2**4000, -(2**4000),
        "\U0001f600", '"\\', "\x7f\x1f", [Level.ONE],
    ],
)
def test_edge_values(value):
    assert written(value) == stdlib(value)


@pytest.mark.parametrize("value", [{1, 2}, 1.5, {1: "a"}, {"a": [{None: 1}]}, [object()], b"x"])
def test_other_types_and_keys_raise_type_error(value):
    # json encodes a float and an int key; this writer needs neither, and refuses them.
    with pytest.raises(TypeError):
        list(chunks(value))

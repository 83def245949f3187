"""The CLI's document encoder must print exactly what
``json.dumps(obj, indent=2, sort_keys=True)`` prints."""

import enum
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from sparsedp.cli import _dumps


def reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


class IntSub(int):
    def __repr__(self):
        return "IntSub()"


class FloatSub(float):
    def __repr__(self):
        return "FloatSub()"


class StrSub(str):
    pass


class Colour(enum.IntEnum):
    RED = 7


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308, 0.1]
KEY_PIECES = ["%", "%s", "%%", "%(x)s", '"', "\\", "\n", "\t", "\x00", "é", " ", "😀", "a"]

keys = st.one_of(
    st.text(max_size=6),
    st.lists(st.sampled_from(KEY_PIECES), max_size=4).map("".join),
)
big_ints = st.integers(min_value=2**63, max_value=2**200) | st.integers(
    min_value=-(2**200), max_value=-(2**63)
)
floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(SPECIAL_FLOATS)
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    big_ints,
    st.integers().map(IntSub),
    st.just(Colour.RED),
    floats,
    floats.map(FloatSub),
    st.text(max_size=6),
    keys.map(StrSub),
)


@st.composite
def equal_length_lists(draw, children):
    width = draw(st.integers(0, 3))
    rows = draw(st.lists(st.lists(children, min_size=width, max_size=width), max_size=4))
    return [tuple(row) for row in rows] if draw(st.booleans()) else rows


@st.composite
def same_key_dicts(draw, children):
    names = draw(st.lists(keys, unique=True, max_size=4))
    dicts = []
    for _ in range(draw(st.integers(0, 4))):
        order = draw(st.permutations(names))
        dicts.append({name: draw(children) for name in order})
    return dicts


def containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(keys, children, max_size=5),
        equal_length_lists(children),
        same_key_dicts(children),
        # one-type batches take the mapped fast paths
        st.lists(st.integers(), max_size=6),
        st.lists(floats, max_size=6),
        st.lists(st.text(max_size=4), max_size=6),
        st.lists(st.booleans(), max_size=6),
    )


documents = st.recursive(leaves, containers, max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(documents)
def test_matches_json_dumps(doc):
    assert _dumps(doc) == reference(doc)


PINNED = {
    "percent keys": {"%": 1, "%s": [1, 2], "a%%b": {"%(x)s": None}, "%d": "%s"},
    "escaped keys": {'q"': 1, "new\nline": 2, "é": 3, "😀": 4, "\\": 5, "\x00": 6},
    "percent keys in a batch": [{"%s": 1, "b%": 2}, {"%s": 3, "b%": 4}],
    "bools with ints": [True, 1, False, 0, True],
    "bools only": [True, False, True],
    "bool columns": [{"a": True}, {"a": 1}, {"a": False}],
    "big ints": [2**63, -(2**63) - 1, 2**200, 0, -1],
    "int subclasses": [IntSub(5), IntSub(-3), Colour.RED, 4],
    "int subclass batch": [IntSub(5), IntSub(6)],
    "special floats": [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.5],
    "finite floats": [0.1, -0.0, 5e-324, 1e308, 2.5],
    "nan in a column": [{"p": 0.5}, {"p": math.nan}, {"p": -math.inf}],
    "float subclasses": [FloatSub(0.25), FloatSub(math.nan), 1.0],
    "tuples": (1, (2, 3), [4, (5,)], ()),
    "tuple rows": [(1, 2), (3, 4), (5, 6)],
    "list and tuple rows": [[1, 2], (3, 4)],
    "empty containers": [[], {}, [[]], [{}], {"a": [], "b": {}}],
    "empty rows": [[], [], []],
    "empty dicts": [{}, {}],
    "ragged lists": [[1, 2, 3], [4], [], [5, 6]],
    "non-square rows": [[1, 2, 3], [4, 5, 6]],
    "deep rows": [[[1, 2], [3, 4], [5, 6]], [[7, 8], [9, 10], [11, 12]]],
    "reordered keys": [{"a": 1, "b": 2}, {"b": 3, "a": 4}, {"a": 5, "b": 6}],
    "mixed key sets": [{"a": 1}, {"a": 1, "b": 2}, {"b": 3}],
    "mixed column types": [{"v": 1}, {"v": "x"}, {"v": [1, 2]}, {"v": None}, {"v": 2.5}],
    "scalars": [None, "s", StrSub("t"), 3, 2.0],
    "document": {
        "version": "0.1.0",
        "config": {"m": 2, "out": None, "best_sparse": True},
        "result": {"distribution": [{"counts": [2, 0], "probability": 0.75},
                                    {"counts": [1, 1], "probability": 0.25}]},
    },
}


@pytest.mark.parametrize("doc", list(PINNED.values()), ids=list(PINNED))
def test_pinned(doc):
    assert _dumps(doc) == reference(doc)


@pytest.mark.parametrize("doc", [None, True, False, 0, -7, 2**64, 1.5, math.nan, "x", "%s", [], {}])
def test_top_level_scalars_and_empties(doc):
    assert _dumps(doc) == reference(doc)


@pytest.mark.parametrize("doc", [{1: "a"}, {"a": {None: 1}}, [{"a": 1}, {2.5: 1}], {("t",): 1}])
def test_non_str_key_raises_type_error(doc):
    with pytest.raises(TypeError, match="keys must be str"):
        _dumps(doc)


@pytest.mark.parametrize("doc", [{1, 2}, [object()], {"a": b"bytes"}, [1, 2j]])
def test_unserializable_value_raises_type_error(doc):
    with pytest.raises(TypeError, match="not JSON serializable"):
        _dumps(doc)

"""The CLI's document encoder must print exactly what
``json.dumps(obj, indent=2, sort_keys=True)`` prints."""

import enum
import gc
import json
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparsedp import cli
from sparsedp.cli import _Columns, _dumps


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
        # lists of one leaf type
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
    "int key": {1: "a"},
    "None key": {"a": {None: 1}},
    "float key in a batch": [{"a": 1}, {2.5: 1}],
    "tuple key": {("t",): 1},
    "NUL and marker text in config strings": {
        "config": {"db": "a\x00b", "class": cli._MARKER, "out": cli._ENCODED_MARKER},
        "result": {"m": 2},
    },
}


def outcome(encode, doc) -> str:
    """The printed text, or the ``TypeError`` raised instead."""
    try:
        return encode(doc)
    except TypeError as e:
        return f"TypeError: {e}"


@pytest.mark.parametrize("doc", list(PINNED.values()), ids=list(PINNED))
def test_pinned(doc):
    assert outcome(_dumps, doc) == outcome(reference, doc)


@pytest.mark.parametrize("doc", [None, True, False, 0, -7, 2**64, 1.5, math.nan, "x", "%s", [], {}])
def test_top_level_scalars_and_empties(doc):
    assert _dumps(doc) == reference(doc)


@pytest.mark.parametrize("doc", [{1, 2}, [object()], {"a": b"bytes"}, [1, 2j]])
def test_unserializable_value_raises_type_error(doc):
    with pytest.raises(TypeError, match="not JSON serializable"):
        _dumps(doc)


# Columnar values: named, equal-length int or float columns, printed as
# their list of per-row dicts.
COLUMN_INTS = [0, 1, -1, 2**63 - 1, -(2**63)]
COLUMN_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308, 0.1, 1 / 3]
COLUMN_KINDS = {
    "int64": (np.int64, st.integers(-(2**63), 2**63 - 1) | st.sampled_from(COLUMN_INTS)),
    "uint64": (np.uint64, st.integers(0, 2**64 - 1) | st.sampled_from([0, 2**64 - 1])),
    "int8": (np.int8, st.integers(-128, 127)),
    "float64": (np.float64, st.floats() | st.sampled_from(COLUMN_FLOATS)),
}


@st.composite
def columnar(draw):
    """A ``_Columns`` and the list of per-row dicts it stands for."""
    rows = draw(st.sampled_from([0, 1, 2, 3, 7]))
    names = draw(st.lists(keys, min_size=1, max_size=3, unique=True))
    columns = {}
    for name in names:
        dtype, values = COLUMN_KINDS[draw(st.sampled_from(sorted(COLUMN_KINDS)))]
        shape = (rows,) if draw(st.booleans()) else (rows, draw(st.integers(0, 3)))
        flat = draw(st.lists(values, min_size=math.prod(shape), max_size=math.prod(shape)))
        columns[name] = np.array(flat, dtype=dtype).reshape(shape)
    dicts = [{name: column[i].tolist() for name, column in columns.items()} for i in range(rows)]
    return _Columns(columns), dicts


def wrapped(value, path):
    """``value`` placed ``len(path)`` levels deep: "l" in a list, "d" in a dict."""
    for step in reversed(path):
        value = [0.5, value] if step == "l" else {"b": value, "a": [1]}
    return value


@settings(max_examples=300, deadline=None)
@given(columnar(), st.lists(st.sampled_from("ld"), max_size=3))
def test_columns_match_json_dumps_of_row_dicts(table_and_dicts, path):
    table, dicts = table_and_dicts
    assert _dumps(wrapped(table, path)) == reference(wrapped(dicts, path))


def test_columns_beside_other_values():
    counts = np.array([[3, 0], [2, 1], [0, 3]])
    probs = np.array([0.5, math.nan, -math.inf])
    doc = {"result": {"distribution": _Columns({"counts": counts, "probability": probs}), "m": 3}}
    rows = [{"counts": c, "probability": p} for c, p in zip(counts.tolist(), probs.tolist())]
    assert _dumps(doc) == reference({"result": {"distribution": rows, "m": 3}})
    assert _dumps([_Columns({"x": counts[:, 0]})] * 2) == reference([[{"x": 3}, {"x": 2}, {"x": 0}]] * 2)


def test_percent_text_around_columns():
    # The text around a table goes through the table's own ``%``.
    table = _Columns({"%s": np.array([1, 2])})
    doc = {"%d": "%s %%", "a": table, "z": ["%(x)s", {"%": table}]}
    rows = [{"%s": 1}, {"%s": 2}]
    assert _dumps(doc) == reference({"%d": "%s %%", "a": rows, "z": ["%(x)s", {"%": rows}]})
    assert _dumps({"a": _Columns({"x": np.zeros(0)}), "b": "%s"}) == reference({"a": [], "b": "%s"})


def test_marker_text_beside_columns_is_refused():
    # The splice cannot tell the string from a table's place, so it prints
    # nothing rather than the wrong text.
    doc = {"config": {"class": cli._MARKER}, "table": _Columns({"x": np.zeros(2)})}
    with pytest.raises(ValueError, match="columns marker"):
        _dumps(doc)


@pytest.mark.parametrize("columns, error", [
    ({}, ValueError),
    ({"a": np.zeros(2), "b": np.zeros(3)}, ValueError),
    ({"a": np.array([True, False])}, TypeError),
    ({"a": np.array(["x"])}, TypeError),
    ({"a": np.zeros((2, 2, 2))}, TypeError),
    ({"a": np.zeros(2, dtype=complex)}, TypeError),
])
def test_columns_refuse_what_they_cannot_print(columns, error):
    with pytest.raises(error):
        _Columns(columns)


def test_columns_with_a_non_str_key_raise_type_error():
    with pytest.raises(TypeError, match="keys must be str"):
        _dumps(_Columns({1: np.zeros(2)}))


def test_dumps_keeps_no_table_alive():
    # json's pure-Python encoder leaves a reference cycle that holds the
    # ``default`` hook; with the collector off, a printed table's arrays
    # must still go as soon as the caller drops the document.
    probs = np.array([0.25, 0.75])
    gone = weakref.ref(probs)
    doc = {"distribution": _Columns({"counts": np.array([[1, 0], [0, 1]]), "probability": probs})}
    enabled = gc.isenabled()
    gc.disable()
    try:
        text = _dumps(doc)
        del doc, probs
        assert gone() is None
    finally:
        if enabled:
            gc.enable()
    assert '"probability": 0.75' in text

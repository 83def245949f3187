"""``oracle`` prints its distribution table exactly as
``json.dumps(doc, indent=2, sort_keys=True)`` prints the document whose
``"distribution"`` is the list of per-row dicts."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from sparsedp import Database, PrivacyParams, QueryClass, __version__, cli
from sparsedp import exact_output_distribution
from sparsedp.cli import _oracle_text


def reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def row_dicts(counts: np.ndarray, probabilities: np.ndarray) -> list[dict]:
    return [
        {"counts": c, "probability": p} for c, p in zip(counts.tolist(), probabilities.tolist())
    ]


def printed(document: dict, counts: np.ndarray, probabilities: np.ndarray) -> str:
    """``_oracle_text`` of ``document``, whose result's distribution slot is empty."""
    return _oracle_text(reference(document), counts, probabilities)


def oracle_document(config: dict, best_sparse: dict | None, distribution) -> dict:
    """The ``oracle`` document's shape, with ``distribution`` in its slot."""
    result = {"distribution": distribution}
    if best_sparse is not None:
        result["best_sparse"] = best_sparse
    return {"version": __version__, "config": config, "result": result}


INT64 = np.iinfo(np.int64)
COUNTS = (
    st.integers(0, 6) | st.integers(INT64.min, INT64.max) | st.sampled_from([INT64.min, INT64.max])
)
PROBABILITIES = st.floats() | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308, 0.1, 1 / 3]
)
# Text around the slot: its own key's text, percent signs, quotes and escapes.
TEXT_PIECES = ['"distribution": []', "%", "%s", "%%", "%(x)s", '"', "\\", "\n", "\x00", "é", "a"]
texts = st.lists(st.sampled_from(TEXT_PIECES), max_size=4).map("".join) | st.text(max_size=6)


@st.composite
def oracle_tables(draw):
    """An ``oracle`` document with an empty slot, and the table to fill it:
    n 1-8, 1-40 rows of int64 counts and float64 probabilities."""
    n, rows = draw(st.integers(1, 8)), draw(st.integers(1, 40))
    counts = draw(arrays(np.int64, (rows, n), elements=COUNTS))
    probabilities = draw(arrays(np.float64, rows, elements=PROBABILITIES))
    config = {
        "alpha": draw(PROBABILITIES), "best_sparse": draw(st.booleans()), "command": "oracle",
        "db": draw(texts), "exponent": "paper", "m": draw(COUNTS), "out": None,
        "query_class": draw(texts),
    }
    best_sparse = None
    if config["best_sparse"]:
        best_sparse = {"counts": draw(st.lists(COUNTS, min_size=n, max_size=n)),
                       "relative_error": draw(PROBABILITIES)}
    return config, best_sparse, counts, probabilities


@settings(max_examples=150, deadline=None)
@given(oracle_tables())
def test_columns_match_json_dumps_of_row_dicts(table):
    config, best_sparse, counts, probabilities = table
    document = oracle_document(config, best_sparse, [])
    want = reference(oracle_document(config, best_sparse, row_dicts(counts, probabilities)))
    assert printed(document, counts, probabilities) == want


def test_columns_beside_other_values():
    counts = np.array([[3, 0], [2, 1], [0, 3]])
    probabilities = np.array([0.5, math.nan, -math.inf])
    best = {"counts": [3, 0], "relative_error": 0.25}
    config = {"m": 3}
    want = reference(oracle_document(config, best, row_dicts(counts, probabilities)))
    assert printed(oracle_document(config, best, []), counts, probabilities) == want
    assert '"probability": NaN' in want and '"probability": -Infinity' in want


def test_percent_text_around_columns():
    # The text around the table goes through the table's own ``%``, and a
    # string holding the slot's text is printed escaped, so it is no slot.
    counts, probabilities = np.array([[1], [2]]), np.array([0.25, 0.75])
    config = {"db": '"distribution": [] %s %%', "query_class": "%(x)s %d", "%s": "%"}
    want = reference(oracle_document(config, None, row_dicts(counts, probabilities)))
    assert printed(oracle_document(config, None, []), counts, probabilities) == want


# Fixed cases at the ``oracle`` document's shape: config, best_sparse,
# counts and probabilities.
PINNED = {
    "percent keys": ({"%": 1, "%s": [1, 2], "a%%b": {"%(x)s": None}, "%d": "%s"}, None,
                     np.array([[1, 0], [0, 1]]), np.array([0.5, 0.5])),
    "escaped keys": ({'q"': 1, "new\nline": 2, "é": 3, "😀": 4, "\\": 5, "\x00": 6}, None,
                     np.array([[2]]), np.array([1.0])),
    "bools with ints": ({"best_sparse": True, "m": 1, "out": False},
                        {"counts": [1, 0], "relative_error": 0.0},
                        np.array([[1, 0], [0, 1]]), np.array([1.0, 0.0])),
    "big ints": ({"m": 2**200, "seed": -(2**63) - 1}, None,
                 np.array([[INT64.max, INT64.min], [0, -1]]), np.array([0.25, 0.75])),
    "special floats": ({"alpha": math.nan}, None, np.arange(6).reshape(6, 1),
                       np.array([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.5])),
    "finite floats": ({"alpha": 1e308}, None, np.arange(5).reshape(5, 1),
                      np.array([0.1, -0.0, 5e-324, 1e308, 2.5])),
    "nan in a column": ({"m": 1}, None, np.array([[1, 0], [0, 1], [1, 1]]),
                        np.array([0.5, math.nan, -math.inf])),
    "non-square rows": ({"m": 3}, None, np.array([[1, 2, 0], [0, 1, 2]]), np.array([0.5, 0.5])),
    "empty containers": ({"a": [], "b": {}, "c": [[]], "d": [{}], "e": {"distribution": {}}},
                         None, np.array([[1]]), np.array([1.0])),
    "reordered keys": (dict(reversed(sorted({"z": 1, "m": 2, "a": 3, "db": "x"}.items()))),
                       {"relative_error": 0.5, "counts": [0, 2]},
                       np.array([[2, 0], [0, 2]]), np.array([0.5, 0.5])),
    "scalars": ({"none": None, "s": "s", "i": 3, "f": 2.0, "t": True}, None,
                np.array([[0]]), np.array([1.0])),
    "tuples": ({"shape": (2, (3,)), "empty": ()}, None, np.array([[1, 1]]), np.array([1.0])),
    "document": ({"m": 2, "out": None, "best_sparse": True}, {"counts": [2, 0], "relative_error": 0.0},
                 np.array([[2, 0], [1, 1]]), np.array([0.75, 0.25])),
    "NUL and marker text in config strings": (
        {"db": "a\x00b", "class": '"distribution": []', "out": '\\"distribution\\": [] %s'},
        None, np.array([[1, 0]]), np.array([1.0])),
}


@pytest.mark.parametrize("case", list(PINNED.values()), ids=list(PINNED))
def test_pinned(case):
    config, best_sparse, counts, probabilities = case
    want = reference(oracle_document(config, best_sparse, row_dicts(counts, probabilities)))
    assert printed(oracle_document(config, best_sparse, []), counts, probabilities) == want


@pytest.mark.parametrize("block_rows", [1, 2, 3, 7])
def test_row_blocks_join_to_the_same_text(monkeypatch, block_rows):
    # Blocks of a row or a few rows split every case into several joins.
    monkeypatch.setattr(cli, "_ORACLE_BLOCK_ROWS", block_rows)
    for config, best_sparse, counts, probabilities in PINNED.values():
        want = reference(oracle_document(config, best_sparse, row_dicts(counts, probabilities)))
        assert printed(oracle_document(config, best_sparse, []), counts, probabilities) == want


def test_a_real_table_is_printed_in_bounded_memory():
    # The law of n=5 at m=20, the benchmark's largest oracle table: 10,626
    # rows and 1.7 MB of text.  Built in row blocks its peak was 3.4 MB; one
    # template filled by one % over a flat tuple peaked at 6.4 MB.
    rng = np.random.default_rng(61)
    d, c = Database(rng.uniform(0, 4, size=5)), QueryClass(rng.uniform(0, 1, size=(16, 5)))
    law = exact_output_distribution(d, c, PrivacyParams(1.0), 20)
    document = oracle_document({"m": 20}, None, [])
    text = reference(document)
    tracemalloc.start()
    try:
        got = _oracle_text(text, law.counts, law.probabilities)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * 2**20
    rows = row_dicts(law.counts, law.probabilities)
    assert got == reference(oracle_document({"m": 20}, None, rows))
    assert len(law) == 10_626 > cli._ORACLE_BLOCK_ROWS

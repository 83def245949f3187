import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers_oracles import save_database, save_query_class
from sparsedp import (
    Database,
    DimensionMismatchError,
    LinearQuery,
    QueryClass,
    SparseSyntheticDatabase,
    evaluate,
    l1_norm,
    load_database,
    load_query_class,
    max_error,
    rescale,
)

TOL = 1e-9


class TestConstruction:
    def test_database_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            Database([1.0, -0.1])

    def test_database_rejects_entries_whose_sum_overflows(self):
        # Each entry is finite, but the L1 norm would be inf; the refusal
        # warns of no overflow on the way.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite sum: the L1 norm overflows to inf"):
                Database([1e308, 1e308])
            assert l1_norm(Database([1e308, 7e307])) == 1.7e308

    def test_database_rejects_empty(self):
        with pytest.raises(ValueError):
            Database([])

    def test_query_rejects_out_of_range_instead_of_clamping(self):
        with pytest.raises(ValueError):
            LinearQuery([0.5, 1.2])
        with pytest.raises(ValueError):
            LinearQuery([-0.01, 0.5])

    def test_query_class_requires_shared_dimension(self):
        with pytest.raises(DimensionMismatchError):
            QueryClass([[0.5, 0.5], [0.5, 0.5, 0.5]])

    def test_query_class_nonempty(self):
        with pytest.raises(ValueError):
            QueryClass([])

    def test_sparse_db_norm_is_the_count_sum(self):
        dp = SparseSyntheticDatabase(np.array([1, 2, 0]))
        assert dp.m == 3
        with pytest.raises(TypeError):
            SparseSyntheticDatabase(np.array([1, 2, 0]), m=3)
        with pytest.raises(ValueError):
            SparseSyntheticDatabase(np.array([0, 0]))

    def test_arrays_are_immutable(self):
        d = Database([1.0, 2.0])
        with pytest.raises(ValueError):
            d.entries[0] = 5.0

    def test_value_types_refuse_complex_input(self):
        with pytest.raises(ValueError, match="database entries must be real"):
            Database(np.array([1 + 2j, 3]))
        with pytest.raises(ValueError, match="database entries must be real"):
            Database([1 + 2j, 3])
        with pytest.raises(ValueError, match="query coefficients must be real"):
            LinearQuery(np.array([0.5 + 0.5j, 0.5]))
        with pytest.raises(ValueError, match="counts must be real"):
            SparseSyntheticDatabase(np.array([1 + 0j, 2]))
        with pytest.raises(ValueError, match="query coefficients must be real"):
            QueryClass([np.array([0.5 + 0.5j, 0.5])])
        with pytest.raises(ValueError, match="query coefficients must be real"):
            QueryClass(np.array([[0.5, 0.5], [0.5 + 0j, 1.0]]))

    def test_sparse_db_refuses_non_whole_counts(self):
        for counts in ([1.7, 2.2], np.array([1.0, 0.5]), [1.0, math.nan], [math.inf, 1.0]):
            with pytest.raises(ValueError, match="counts must be whole numbers"):
                SparseSyntheticDatabase(counts)
        dp = SparseSyntheticDatabase([1.0, 2.0])
        assert dp.counts.dtype == np.int64 and dp.as_tuple() == (1, 2) and dp.m == 3

    def test_database_refuses_non_finite_entries(self):
        for entries in ([1.0, math.nan], [math.inf, 0.0], [2.0, -math.inf], [math.inf, -math.inf]):
            with pytest.raises(ValueError) as refused:
                Database(entries)
            assert str(refused.value) == "database entries must be finite"

    def test_sparse_db_refuses_2d_and_negative_counts(self):
        with pytest.raises(ValueError) as refused:
            SparseSyntheticDatabase([[1, 2], [0, 1]])
        assert str(refused.value) == "counts must be a nonempty 1-d vector"
        with pytest.raises(ValueError) as refused:
            SparseSyntheticDatabase([3, -1])
        assert str(refused.value) == "counts must be nonnegative"


# Exception type and message for each faulty input, as validating the queries
# one at a time gives them: the first faulty query in input order names the
# fault, and only a class with no faulty query reports the length mismatch.
NAN, INF = math.nan, math.inf
RANGE = (ValueError, "query coefficients must lie in [0, 1]")
FINITE = (ValueError, "query coefficients must be finite")
ONE_D = (ValueError, "query must be a nonempty 1-d vector")
RAGGED = (DimensionMismatchError, "all queries in a class must share one dimension")
CLASS_ERRORS = [
    ([], (ValueError, "query class must contain at least one query")),
    ([[0.5, 0.5], [0.5]], RAGGED),
    ([LinearQuery([0.5, 0.25]), [1.0]], RAGGED),
    ([[0.5, 0.5], [0.5], [2.0, 0.0]], RANGE),
    ([[2.0, 0.0], [0.5, 0.5], [0.5]], RANGE),
    ([[NAN, 0.5]], FINITE),
    ([[0.5, INF]], FINITE),
    ([[0.5, -INF]], FINITE),
    ([[0.5, -0.1]], RANGE),
    ([[0.5, 1.5]], RANGE),
    ([[0.5, 1.5], [NAN, 0.5]], RANGE),
    ([[NAN, 0.5], [0.5, 1.5]], FINITE),
    ([0.5, 0.2], ONE_D),
    (["0.5", "0.2"], ONE_D),
    ([[[0.5, 0.5]]], ONE_D),
    ([[]], ONE_D),
    (None, (TypeError, "'NoneType' object is not iterable")),
    ([[0.5, None]], FINITE),
    ([["a", 0.5]], (ValueError, "could not convert string to float: np.str_('a')")),
]


class TestQueryClassMatrix:
    @pytest.mark.parametrize("queries, expected", CLASS_ERRORS)
    def test_errors_match_per_query_validation(self, queries, expected):
        with pytest.raises(Exception) as info:
            QueryClass(queries)
        assert (type(info.value), str(info.value)) == expected

    @pytest.mark.parametrize(
        "queries, matrix",
        [
            ([["0.5", "0.2"]], [[0.5, 0.2]]),
            ([[True, False], [False, True]], [[1.0, 0.0], [0.0, 1.0]]),
            ([LinearQuery([0.5, 0.25]), LinearQuery([1.0, 0.0])], [[0.5, 0.25], [1.0, 0.0]]),
            (
                [LinearQuery([0.5, 0.25]), [1.0, 0.0], np.array([0.0, 1.0])],
                [[0.5, 0.25], [1.0, 0.0], [0.0, 1.0]],
            ),
            (np.array([[0.5, 0.25], [1.0, 0.0]]), [[0.5, 0.25], [1.0, 0.0]]),
            (np.array([[0, 1], [1, 1]]), [[0.0, 1.0], [1.0, 1.0]]),
            ((row for row in [[0.5, 0.5]]), [[0.5, 0.5]]),
        ],
    )
    def test_accepted_inputs_give_the_same_matrix(self, queries, matrix):
        c = QueryClass(queries)
        assert c.matrix.dtype == np.float64
        assert c.matrix.tolist() == matrix
        assert (c.k, c.n) == (len(matrix), len(matrix[0]))

    def test_matrix_is_read_only_and_not_aliased(self):
        source = np.array([[0.5, 0.25], [1.0, 0.0]])
        rows = source.tolist()
        classes = (QueryClass(source), QueryClass(rows), QueryClass(list(source)))
        source[0, 0] = 0.0
        rows[0][0] = 0.0
        for c in classes:
            assert c.matrix.tolist() == [[0.5, 0.25], [1.0, 0.0]]
            with pytest.raises(ValueError):
                c.matrix[0, 0] = 0.0

    def test_class_stores_no_query_objects(self):
        c = QueryClass([LinearQuery([0.5, 0.25]), [1.0, 0.0]])
        assert set(vars(c)) == {"matrix", "n"}
        assert not hasattr(c, "queries")
        assert not any(isinstance(v, (LinearQuery, tuple, list)) for v in vars(c).values())


class TestEvaluate:
    def test_dot_product(self):
        assert evaluate(LinearQuery([0.5, 0.5, 1.0]), Database([1, 2, 0])) == pytest.approx(1.5)

    def test_zero_query(self):
        assert evaluate(LinearQuery([0, 0, 0]), Database([3, 1, 4])) == 0.0

    def test_all_ones_attains_l1(self):
        d = Database([1, 2, 3])
        assert evaluate(LinearQuery([1, 1, 1]), d) == pytest.approx(l1_norm(d))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            evaluate(LinearQuery([1, 0]), Database([1, 2, 3]))


class TestL1Norm:
    def test_basic(self):
        assert l1_norm(Database([1, 2, 0])) == 3.0

    def test_zero_database(self):
        assert l1_norm(Database([0, 0])) == 0.0

    def test_matches_reordered_summation(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            entries = rng.uniform(0, 5, size=rng.integers(1, 12))
            d = Database(entries)
            shuffled = entries.copy()
            rng.shuffle(shuffled)
            assert abs(l1_norm(d) - math.fsum(shuffled)) < 1e-12


class TestMaxError:
    def test_identical_databases(self):
        c = QueryClass([[1, 0], [0, 1]])
        assert max_error(c, Database([2, 3]), Database([2, 3])) == 0.0

    def test_coordinate_wise(self):
        c = QueryClass([[1, 0], [0, 1]])
        assert max_error(c, Database([2, 3]), Database([3, 1])) == 2.0

    def test_matches_per_query_loop(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(1, 6))
            c = QueryClass(rng.uniform(0, 1, size=(int(rng.integers(1, 7)), n)))
            d = Database(rng.uniform(0, 4, size=n))
            a = Database(rng.uniform(0, 4, size=n))
            naive = max(abs(evaluate(q, d) - evaluate(q, a)) for q in map(LinearQuery, c.matrix))
            assert max_error(c, d, a) == pytest.approx(naive, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            max_error(QueryClass([[1, 0]]), Database([1, 2]), Database([1, 2, 3]))


class TestRescale:
    def test_doubling(self):
        out = rescale(SparseSyntheticDatabase(np.array([1, 1])), 4.0)
        assert np.allclose(out.entries, [2.0, 2.0])

    def test_identity_when_norms_match(self):
        out = rescale(SparseSyntheticDatabase(np.array([3, 0, 1])), 4.0)
        assert np.allclose(out.entries, [3.0, 0.0, 1.0])

    def test_fractional_target(self):
        out = rescale(SparseSyntheticDatabase(np.array([1, 0])), 2.5)
        assert np.allclose(out.entries, [2.5, 0.0])

    def test_resulting_norm_hits_target(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            counts = rng.integers(0, 5, size=4)
            counts[0] += 1
            target = float(rng.uniform(0, 10))
            out = rescale(SparseSyntheticDatabase(counts), target)
            assert abs(l1_norm(out) - target) < TOL

    def test_negative_target_rejected(self):
        with pytest.raises(ValueError):
            rescale(SparseSyntheticDatabase(np.array([1])), -1.0)


@st.composite
def class_and_databases(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    k = draw(st.integers(min_value=1, max_value=5))
    coeff = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
    entry = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)
    queries = draw(st.lists(st.lists(coeff, min_size=n, max_size=n), min_size=k, max_size=k))
    d = draw(st.lists(entry, min_size=n, max_size=n))
    a = draw(st.lists(entry, min_size=n, max_size=n))
    return QueryClass(queries), Database(d), Database(a)


class TestProperties:
    @settings(max_examples=80, deadline=None)
    @given(class_and_databases())
    def test_evaluate_bounded_by_l1(self, cda):
        c, d, _ = cda
        for q in map(LinearQuery, c.matrix):
            value = evaluate(q, d)
            assert -TOL <= value <= l1_norm(d) + TOL

    @settings(max_examples=80, deadline=None)
    @given(
        class_and_databases(),
        st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
    )
    def test_evaluate_is_linear(self, cda, a, b):
        c, d1, d2 = cda
        combined = Database(a * d1.entries + b * d2.entries)
        for q in map(LinearQuery, c.matrix):
            expected = a * evaluate(q, d1) + b * evaluate(q, d2)
            assert evaluate(q, combined) == pytest.approx(expected, abs=TOL)

    @settings(max_examples=80, deadline=None)
    @given(class_and_databases())
    def test_max_error_symmetry_and_identity(self, cda):
        c, d, a = cda
        assert max_error(c, d, a) == pytest.approx(max_error(c, a, d), abs=TOL)
        assert max_error(c, d, d) == 0.0

    def test_rescale_preserves_query_ratios(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(1, 6))
            counts = rng.integers(0, 4, size=n)
            counts[int(rng.integers(n))] += 1
            dp = SparseSyntheticDatabase(counts)
            q = LinearQuery(rng.uniform(0, 1, size=n))
            s = float(rng.uniform(0, 8))
            lhs = evaluate(q, rescale(dp, s))
            rhs = (s / dp.m) * evaluate(q, Database(dp.counts))
            assert lhs == pytest.approx(rhs, abs=TOL)


class TestFiles:
    def test_database_json_roundtrip(self, tmp_path):
        d = Database([1.5, 0.0, 2.25])
        path = tmp_path / "db.json"
        save_database(d, path)
        assert np.array_equal(load_database(path).entries, d.entries)

    def test_database_csv_roundtrip(self, tmp_path):
        d = Database([1.5, 0.0, 2.25])
        path = tmp_path / "db.csv"
        save_database(d, path)
        assert np.array_equal(load_database(path).entries, d.entries)

    def test_query_class_json_roundtrip(self, tmp_path):
        c = QueryClass([[1, 0], [0.25, 0.75]])
        path = tmp_path / "cls.json"
        save_query_class(c, path)
        loaded = load_query_class(path)
        assert loaded.k == 2 and loaded.n == 2
        assert np.array_equal(loaded.matrix, c.matrix)

    def test_query_class_csv_roundtrip(self, tmp_path):
        c = QueryClass([[1, 0, 0.5], [0.25, 0.75, 0.0]])
        path = tmp_path / "cls.csv"
        save_query_class(c, path)
        assert np.array_equal(load_query_class(path).matrix, c.matrix)

    @pytest.mark.parametrize(
        "name, content",
        [
            (
                "cls.json",
                b'{\n  "n": 3,\n  "queries": [\n    [\n      1.0,\n      0.0,\n      0.5\n'
                b'    ],\n    [\n      0.1,\n      0.3333333333333333,\n      0.75\n    ]\n'
                b"  ]\n}\n",
            ),
            ("cls.csv", b"1.0,0.0,0.5\r\n0.1,0.3333333333333333,0.75\r\n"),
        ],
    )
    def test_query_class_file_bytes(self, tmp_path, name, content):
        # Pinned bytes: saved class files must not change format.
        c = QueryClass([[1, 0, 0.5], [0.1, 1 / 3, 0.75]])
        path = tmp_path / name
        save_query_class(c, path)
        assert path.read_bytes() == content
        again = tmp_path / ("again" + path.suffix)
        save_query_class(load_query_class(path), again)
        assert again.read_bytes() == content

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"entries": [1.0,\n 2.0')
        with pytest.raises(ValueError, match=r"bad\.json:\d+"):
            load_database(path)

    def test_non_numeric_csv_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n0.5,oops\n")
        with pytest.raises(ValueError, match=r"bad\.csv:2"):
            load_query_class(path)

    def test_inconsistent_json_n_rejected(self, tmp_path):
        path = tmp_path / "cls.json"
        path.write_text(json.dumps({"n": 3, "queries": [[0.5, 0.5]]}))
        with pytest.raises(ValueError, match="declared n=3"):
            load_query_class(path)

    def test_multi_row_database_csv_rejected(self, tmp_path):
        path = tmp_path / "db.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        with pytest.raises(ValueError, match="exactly one row"):
            load_database(path)

    def test_ragged_query_csv_rejected(self, tmp_path):
        path = tmp_path / "cls.csv"
        path.write_text("1.0,0.0\n0.5\n")
        with pytest.raises(ValueError, match="inconsistent"):
            load_query_class(path)

    def test_missing_keys_rejected(self, tmp_path):
        db = tmp_path / "db.json"
        db.write_text("{}")
        with pytest.raises(ValueError, match="entries"):
            load_database(db)
        cls = tmp_path / "cls.json"
        cls.write_text("{}")
        with pytest.raises(ValueError, match="queries"):
            load_query_class(cls)

    def test_json_top_level_must_be_an_object(self, tmp_path):
        path = tmp_path / "rows.json"
        path.write_text("[[1.0, 0.5]]")
        for load in (load_database, load_query_class):
            with pytest.raises(ValueError) as refused:
                load(path)
            assert str(refused.value) == f"{path}:1: expected a JSON object at top level"

    def test_empty_csv_refused_and_blank_rows_skipped(self, tmp_path):
        for text in ("", "\n , \n\n"):
            path = tmp_path / "empty.csv"
            path.write_text(text)
            for load in (load_database, load_query_class):
                with pytest.raises(ValueError) as refused:
                    load(path)
                assert str(refused.value) == f"{path}:1: empty CSV file"
        path = tmp_path / "gaps.csv"
        path.write_text("\n1.0,0.5\n\n ,\n0.0,1.0\n")
        assert load_query_class(path).matrix.tolist() == [[1.0, 0.5], [0.0, 1.0]]
        path.write_text("\n\n2.0,3.0\n,\n")
        assert load_database(path).entries.tolist() == [2.0, 3.0]

    def test_class_json_without_n_takes_the_rows_length(self, tmp_path):
        path = tmp_path / "cls.json"
        path.write_text(json.dumps({"queries": [[0.5, 1.0, 0.0]]}))
        c = load_query_class(path)
        assert (c.k, c.n, c.matrix.tolist()) == (1, 3, [[0.5, 1.0, 0.0]])

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from helpers_oracles import (
    ReferenceBudgetExceeded,
    assignment_enumeration_shattered,
    boolean_indicator_class,
    brute_force_thresholds,
    fsd_by_sweep,
    per_candidate_fsd,
    per_candidate_search,
    per_node_fsd,
    random_query_class,
    rgrid_shattered,
    threshold_sweep_shattered,
    vc_dimension,
    witness_from_rows,
)
from sparsedp import (
    QueryClass,
    SearchBudgetExceeded,
    ShatteringWitness,
    choose_m,
    fsd,
    is_gamma_shattered,
    verify_shattering,
)
from sparsedp import config
from sparsedp.fsd import _ThresholdSearch

FULL_N2 = QueryClass([[1, 0], [0, 1], [1, 1], [0, 0]])


def indicator_assignment():
    # pattern (b0, b1) realized by the query equal to the pattern itself
    order = {(1, 0): 0, (0, 1): 1, (1, 1): 2, (0, 0): 3}
    return {p: order[p] for p in itertools.product((0, 1), repeat=2)}


class TestVerifyShattering:
    def test_full_boolean_shattering(self):
        w = ShatteringWitness(
            subset=(0, 1), thresholds=(0.5, 0.5), assignment=indicator_assignment(), gamma=0.5
        )
        assert verify_shattering(FULL_N2, w) is True

    def test_gamma_above_half_range_fails(self):
        w = ShatteringWitness(
            subset=(0, 1), thresholds=(0.5, 0.5), assignment=indicator_assignment(), gamma=0.6
        )
        assert verify_shattering(FULL_N2, w) is False

    def test_single_query_cannot_shatter(self):
        c = QueryClass([[0.3, 0.3]])
        for r in (0.1, 0.3, 0.35, 0.9):
            w = ShatteringWitness(
                subset=(0,), thresholds=(r,), assignment={(0,): 0, (1,): 0}, gamma=0.1
            )
            assert verify_shattering(c, w) is False

    def test_out_of_range_indices_raise(self):
        w = ShatteringWitness(
            subset=(0, 5), thresholds=(0.5, 0.5), assignment=indicator_assignment(), gamma=0.5
        )
        with pytest.raises(IndexError):
            verify_shattering(FULL_N2, w)
        w2 = ShatteringWitness(
            subset=(0, 1),
            thresholds=(0.5, 0.5),
            assignment={p: 99 for p in itertools.product((0, 1), repeat=2)},
            gamma=0.5,
        )
        with pytest.raises(IndexError):
            verify_shattering(FULL_N2, w2)

    def test_incomplete_assignment_rejected_at_construction(self):
        with pytest.raises(ValueError):
            ShatteringWitness(subset=(0, 1), thresholds=(0.5, 0.5), assignment={(0, 0): 0}, gamma=0.5)

    def test_construction_refusals(self):
        full = indicator_assignment()
        cases = [
            (dict(subset=(), thresholds=(), assignment={(): 0}, gamma=0.5),
             "witness subset must be nonempty"),
            (dict(subset=(1, 1), thresholds=(0.5, 0.5), assignment=full, gamma=0.5),
             "witness subset indices must be distinct"),
            (dict(subset=(0, 1), thresholds=(0.5,), assignment=full, gamma=0.5),
             "thresholds must match subset length"),
            (dict(subset=(0, 1), thresholds=(0.5, 0.5), assignment=full, gamma=0.0),
             "gamma must be positive, got 0.0"),
            (dict(subset=(0, 1), thresholds=(0.5, 0.5), assignment=full, gamma=math.nan),
             "gamma must be positive, got nan"),
            (dict(subset=(0, 1), thresholds=(0.5, 0.5), assignment={(0, 0): 0}, gamma=0.5),
             "assignment must cover all 4 patterns"),
        ]
        for kwargs, message in cases:
            with pytest.raises(ValueError) as refused:
                ShatteringWitness(**kwargs)
            assert str(refused.value) == message


class TestIsGammaShattered:
    def test_full_boolean_witness(self):
        w = is_gamma_shattered(FULL_N2, (0, 1), 0.5)
        assert w is not None
        assert w.thresholds == (0.5, 0.5)
        assert verify_shattering(FULL_N2, w)

    def test_all_queries_equal_never_shattered(self):
        c = QueryClass([[0.4, 0.4], [0.4, 0.4], [0.4, 0.4]])
        for gamma in (0.05, 0.2, 0.5):
            assert is_gamma_shattered(c, (0,), gamma) is None
            assert is_gamma_shattered(c, (0, 1), gamma) is None

    def test_agrees_with_assignment_enumeration(self):
        rng = np.random.default_rng(42)
        for trial in range(30):
            c = random_query_class(rng, k=6, n=4)
            subset = tuple(sorted(rng.choice(4, size=2, replace=False)))
            ours = is_gamma_shattered(c, subset, 0.2)
            brute = assignment_enumeration_shattered(c, subset, 0.2)
            assert (ours is not None) == brute
            if ours is not None:
                assert verify_shattering(c, ours)

    def test_agrees_with_threshold_sweep(self):
        rng = np.random.default_rng(43)
        for trial in range(30):
            c = random_query_class(rng, k=7, n=5)
            size = int(rng.integers(1, 4))
            subset = tuple(sorted(rng.choice(5, size=size, replace=False)))
            gamma = float(rng.uniform(0.05, 0.5))
            assert (is_gamma_shattered(c, subset, gamma) is not None) == threshold_sweep_shattered(
                c, subset, gamma
            )

    def test_rgrid_find_implies_search_find(self):
        rng = np.random.default_rng(44)
        for trial in range(15):
            c = random_query_class(rng, k=5, n=3)
            subset = (0, 1)
            gamma = 0.2
            if rgrid_shattered(c, subset, gamma, resolution=gamma / 4):
                assert is_gamma_shattered(c, subset, gamma) is not None

    def test_matches_brute_force_threshold_scan(self):
        # Real, boolean and quarter-grid classes (ties between rows and
        # candidates sitting exactly 2*gamma apart): the same decision, the
        # same lex-first threshold vector, and the witness built from it.
        decided = set()
        for c, gamma, _, _ in seeded_classes(77, 120):
            for size in range(1, min(c.n, 3) + 1):
                subset = tuple(range(c.n - size, c.n))
                want = brute_force_thresholds(c, subset, gamma)
                got = is_gamma_shattered(c, subset, gamma)
                found = _ThresholdSearch(c.matrix, gamma, 10**7).search(subset)
                decided.add((size, want is not None))
                if want is None:
                    assert got is None and found is None
                    continue
                assert found[0] == want[0]
                assert found[1].tolist() == want[1]
                assert_same_witness(got, witness_from_rows(c, subset, gamma, want[1]))
                assert verify_shattering(c, got)
        assert decided == {(size, shattered) for size in (1, 2, 3) for shattered in (False, True)}

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            is_gamma_shattered(FULL_N2, (0, 0), 0.5)
        with pytest.raises(ValueError):
            is_gamma_shattered(FULL_N2, (0,), 0.0)
        with pytest.raises(ValueError):
            is_gamma_shattered(FULL_N2, (0,), 0.6)
        with pytest.raises(ValueError):
            is_gamma_shattered(FULL_N2, (), 0.2)
        with pytest.raises(IndexError):
            is_gamma_shattered(FULL_N2, (9,), 0.2)

    def test_budget_exhaustion_raises(self):
        c = boolean_indicator_class(4)
        with pytest.raises(SearchBudgetExceeded):
            is_gamma_shattered(c, (0, 1, 2, 3), 0.5, budget=3)


class TestFsd:
    def test_full_boolean_cube(self):
        result = fsd(boolean_indicator_class(3), 0.5, 3)
        assert result.d == 3
        assert result.exact
        assert verify_shattering(boolean_indicator_class(3), result.witness)

    def test_log2_cardinality_bound(self):
        rng = np.random.default_rng(45)
        for trial in range(40):
            k = int(rng.integers(1, 9))
            n = int(rng.integers(1, 6))
            c = random_query_class(rng, k=k, n=n)
            gamma = float(rng.uniform(0.05, 0.5))
            result = fsd(c, gamma, d_max=int(math.log2(k)) + 1 if k > 1 else 1)
            assert result.d <= math.log2(k) if k > 1 else result.d == 0

    def test_matches_exhaustive_sweep_oracle(self):
        rng = np.random.default_rng(46)
        for trial in range(12):
            c = random_query_class(rng, k=8, n=5)
            result = fsd(c, 0.25, d_max=4)
            assert result.exact
            assert result.d == fsd_by_sweep(c, 0.25, 4)

    def test_matches_brute_force_threshold_scan(self):
        # The dimension, the lex-first subset and its witness from a scan of
        # every subset and every threshold vector.
        levels = set()
        for c, gamma, d_max, _ in seeded_classes(78, 60):
            got = fsd(c, gamma, d_max)
            assert got.exact
            want = None
            for d in range(1, min(d_max, c.n) + 1):
                level = next(
                    (
                        (subset, found)
                        for subset in itertools.combinations(range(c.n), d)
                        if (found := brute_force_thresholds(c, subset, gamma)) is not None
                    ),
                    None,
                )
                if level is None:
                    break
                want = level
            levels.add(len(want[0]) if want else 0)
            if want is None:
                assert got.d == 0 and got.witness is None
            else:
                assert got.d == len(want[0])
                assert_same_witness(got.witness, witness_from_rows(c, want[0], gamma, want[1][1]))
                assert verify_shattering(c, got.witness)
        assert {0, 1, 2, 3} <= levels

    def test_monotone_in_gamma(self):
        rng = np.random.default_rng(47)
        gammas = [0.05, 0.15, 0.3, 0.5]
        for trial in range(15):
            c = random_query_class(rng, k=6, n=4)
            dims = [fsd(c, g, d_max=3).d for g in gammas]
            assert all(a >= b for a, b in zip(dims, dims[1:]))

    def test_returned_witnesses_verify(self):
        rng = np.random.default_rng(48)
        for trial in range(20):
            c = random_query_class(rng, k=6, n=4)
            result = fsd(c, 0.2, d_max=3)
            if result.witness is not None:
                assert verify_shattering(c, result.witness)
                assert result.witness.d == result.d

    def test_vc_special_case(self):
        rng = np.random.default_rng(49)
        for trial in range(20):
            k = int(rng.integers(2, 9))
            n = int(rng.integers(2, 5))
            c = QueryClass(rng.integers(0, 2, size=(k, n)).astype(float))
            assert fsd(c, 0.5, d_max=n).d == vc_dimension(c)

    def test_lexicographically_smallest_subset_wins(self):
        # both {1,2} and {2,3} are fully shattered; {1,2} sorts first
        base = boolean_indicator_class(2)
        queries = []
        for q in base.matrix:
            queries.append(np.concatenate([[0.5], q, [q[0]]]))
        c = QueryClass(queries)
        result = fsd(c, 0.5, 2)
        assert result.d == 2
        assert result.witness.subset == (1, 2)

    def test_no_singleton_shattered_returns_zero(self):
        c = QueryClass([[0.5, 0.5]])
        result = fsd(c, 0.25, 2)
        assert result.d == 0 and result.witness is None and result.exact

    def test_budget_flagged_inexact(self):
        c = boolean_indicator_class(4)
        result = fsd(c, 0.5, 4, budget=50)
        assert not result.exact
        assert result.d <= 4

    def test_a_column_pass_stays_within_the_budget(self):
        # Only the candidates the budget can pay for are compared: with 2,000
        # queries and 200,000 comparisons, 100 of a column's 2,000 values.
        c = random_query_class(np.random.default_rng(79), k=2000, n=3)
        tracemalloc.start()
        try:
            result = fsd(c, 0.1, 3, budget=200_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not result.exact and result.nodes_explored == 200_000
        assert peak < 16 * 2**20

    def test_wide_class_tables_stay_within_the_budget(self):
        # A column's table keeps only the candidates the budget can pay for:
        # 200 of each column's 10,000 values at the default 2,000,000
        # comparisons.  Searching each subset from scratch peaked at 23.3 MB
        # here; a table of every distinct value would take 200 MB a column.
        c = random_query_class(np.random.default_rng(82), k=10_000, n=12)
        tracemalloc.start()
        try:
            result = fsd(c, 0.1, 13)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (result.d, result.exact, result.nodes_explored) == (1, False, 2_000_000)
        assert peak < 32 * 2**20

    def test_shuffled_cube_search_memory(self):
        # The attack's shape, a shuffled 8-cube at gamma = 0.5.  Searching
        # each subset from scratch peaked at 0.79 MB; the kept tables and
        # nodes may add at most 0.1 MB to that.
        rng = np.random.default_rng(81)
        perm = rng.permutation(8)
        rows = [np.array(row)[perm] for row in itertools.product((0.0, 1.0), repeat=8)]
        c = QueryClass(rng.permutation(rows))
        fsd(c, 0.5, 2)  # first-call allocations are not the search's
        tracemalloc.start()
        try:
            result = fsd(c, 0.5, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.exact and result.d == 8
        assert peak < 0.89 * 2**20

    def test_only_nodes_a_later_subset_reaches_are_kept(self):
        # A subset's last coordinate changes with every subset, so only the
        # nodes above it, with their child live arrays, are kept: depth t
        # keeps arrays of 2^(t+1) partial patterns, never the 2^d of a leaf.
        c = random_query_class(np.random.default_rng(83), k=16, n=6)
        search = _ThresholdSearch(c.matrix, 0.1, 10**7)
        kept = set()
        for d in (2, 3):
            for subset in itertools.combinations(range(c.n), d):
                search.search(subset)
                assert len(search.nodes) == d - 1
                for t, nodes in enumerate(search.nodes):
                    for _, children in nodes.values():
                        kept.update((d, t, child.shape) for child in children.values())
        assert kept and all(shape == (2 << t, 16) for _, t, shape in kept)
        assert {(d, t) for d, t, _ in kept} == {(2, 0), (3, 0), (3, 1)}

    def test_dmax_validation(self):
        with pytest.raises(ValueError):
            fsd(FULL_N2, 0.5, 0)

    @pytest.mark.parametrize("budget", [0, -5])
    def test_node_budget_below_one_refused(self, budget):
        c = boolean_indicator_class(2)
        message = f"node budget must be at least 1, got {budget}"
        with pytest.raises(ValueError, match=message):
            fsd(c, 0.5, 2, budget=budget)
        with pytest.raises(ValueError, match=message):
            is_gamma_shattered(c, (0,), 0.5, budget=budget)
        assert fsd(c, 0.5, 2, budget=1).nodes_explored <= 1


def seeded_classes(seed: int, count: int):
    """Random real, boolean and quarter-grid classes with a gamma, a d_max
    and a node budget; the budgets are small enough to run out mid-level."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        k, n = int(rng.integers(2, 20)), int(rng.integers(2, 6))
        kind = trial % 3
        if kind == 0:
            c = random_query_class(rng, k=k, n=n)
        elif kind == 1:
            c = QueryClass(rng.integers(0, 2, size=(k, n)).astype(float))
        else:
            c = QueryClass(np.round(rng.uniform(0, 1, size=(k, n)) * 4) / 4)
        gamma = float(rng.choice([0.05, 0.1, 0.2, 0.25, 0.5]))
        yield c, gamma, int(rng.integers(1, 5)), int(rng.choice([20, 60, 200, 1000, 10**5]))


def assert_same_witness(got, want):
    if want is None:
        assert got is None
    else:
        assert (got.subset, got.assignment, got.thresholds) == (
            want.subset, want.assignment, want.thresholds
        )


class TestAgainstPerNodeSearch:
    """The search tests all of a column's threshold candidates in one pass;
    the per-candidate reference tries them one at a time and spends k
    comparisons on each.  Both must spend the same comparisons and find the
    same witness, including when the budget runs out part way through a
    level or a column.  The per-node assignment DFS stays the reference for
    the dimension, exactness and the subset."""

    def test_fsd_matches_reference(self):
        inexact = 0
        for c, gamma, d_max, budget in seeded_classes(71, 150):
            got = fsd(c, gamma, d_max, budget=budget)
            d, witness, used, exact, _ = per_candidate_fsd(c, gamma, d_max, budget)
            assert (got.d, got.nodes_explored, got.exact) == (d, used, exact)
            assert_same_witness(got.witness, witness)
            if not exact:
                inexact += 1
                assert got.nodes_explored == budget
        assert inexact >= 10

    def test_exact_search_matches_unpruned_reference(self):
        # Every exact search finds the assignment DFS's dimension and subset,
        # and a witness that verifies.
        compared = 0
        for c, gamma, d_max, budget in seeded_classes(71, 150):
            got = fsd(c, gamma, d_max, budget=budget)
            if not got.exact:
                continue
            d, subset, *_, exact = per_node_fsd(c, gamma, d_max, 10**7)
            assert exact
            assert got.d == d
            if d == 0:
                assert got.witness is None
                continue
            compared += 1
            assert got.witness.subset == subset
            assert verify_shattering(c, got.witness)
        assert compared >= 60

    @pytest.mark.parametrize("n", range(2, 7))
    def test_no_extra_nodes_when_each_level_starts_shattered(self, n):
        # Boolean cubes with their rows and coordinates shuffled: every
        # level's first subset is shattered, so the search is exact at d = n
        # and spends only what the per-candidate reference spends.  The
        # assignment DFS ran out of its budget on the shuffled rows at n = 5
        # and 6.
        classes = [boolean_indicator_class(n)]
        rng = np.random.default_rng(75 + n)
        for _ in range(3):
            perm = rng.permutation(n)
            rows = [np.array(row)[perm] for row in itertools.product((0.0, 1.0), repeat=n)]
            classes.append(QueryClass(rng.permutation(rows)))
        for c in classes:
            got = fsd(c, 0.5, n)
            assert got.exact and got.d == n
            assert verify_shattering(c, got.witness)
            d, witness, used, exact, _ = per_candidate_fsd(c, 0.5, n, 10**7)
            assert exact and got.nodes_explored == used
            assert_same_witness(got.witness, witness)

    def test_budget_running_out_anywhere_matches_reference(self):
        # Searches cut off at budgets spread over their whole length: in
        # the middle of a level (after a failed subset) and of a column
        # (between its first and last candidate).
        rng = np.random.default_rng(76)
        mid_level = mid_column = 0
        for _ in range(4):
            c = random_query_class(rng, k=12, n=6)
            total = per_candidate_fsd(c, 0.15, 4, 10**7)[2]
            for budget in sorted(set(np.linspace(1, total, 40).astype(int).tolist())):
                got = fsd(c, 0.15, 4, budget=budget)
                d, witness, used, exact, stop = per_candidate_fsd(c, 0.15, 4, budget)
                assert (got.d, got.nodes_explored, got.exact) == (d, used, exact)
                assert_same_witness(got.witness, witness)
                assert exact == (budget == total)
                if not exact:
                    assert got.nodes_explored == budget
                    _, position, _, index, candidates = stop
                    mid_level += position > 0
                    mid_column += 0 < index < candidates - 1
        assert mid_level >= 20 and mid_column >= 20

    def test_budget_running_out_in_a_replayed_prefix_matches_reference(self):
        # Classes shaped like the release-mcmc benchmark's (k 12-20, n 8-10,
        # gamma 0.2 or 0.25, d_max = log2 k), cut off at budgets spread over
        # the whole search.  A subset replays the kept nodes of the prefix it
        # shares with the subset before it, so many cuts fall in a subset
        # with a replayed prefix, and many inside a replayed node.
        rng = np.random.default_rng(84)
        replayed = inside = 0
        for k, n, gamma in [(12, 8, 0.2), (12, 10, 0.2), (16, 8, 0.25), (20, 8, 0.25), (16, 10, 0.25)]:
            c = random_query_class(rng, k=k, n=n)
            d_max = int(math.log2(k))
            total = per_candidate_fsd(c, gamma, d_max, 10**7)[2]
            for budget in sorted(set(rng.integers(1, total + 1, size=12).tolist()) | {total}):
                got = fsd(c, gamma, d_max, budget=budget)
                d, witness, used, exact, stop = per_candidate_fsd(c, gamma, d_max, budget)
                assert (got.d, got.nodes_explored, got.exact) == (d, used, exact)
                assert_same_witness(got.witness, witness)
                if stop is None:
                    continue
                level, position, coordinate = stop[:3]
                subsets = list(itertools.combinations(range(n), level))
                shared = 0
                while position and shared < level - 1 and (
                    subsets[position][shared] == subsets[position - 1][shared]
                ):
                    shared += 1
                replayed += shared > 0
                inside += coordinate < shared
        assert replayed >= 10 and inside >= 10

    def test_is_gamma_shattered_matches_reference(self):
        rng = np.random.default_rng(72)
        outcomes = set()
        for c, gamma, _, budget in seeded_classes(73, 150):
            size = int(rng.integers(1, min(c.n, 3) + 1))
            subset = tuple(sorted(rng.choice(c.n, size=size, replace=False).tolist()))
            state = [budget, 0]
            try:
                want = per_candidate_search(c.matrix[:, subset], gamma, state)
            except ReferenceBudgetExceeded:
                outcomes.add("exhausted")
                with pytest.raises(SearchBudgetExceeded):
                    is_gamma_shattered(c, subset, gamma, budget=budget)
                continue
            got = is_gamma_shattered(c, subset, gamma, budget=budget)
            if want is None:
                outcomes.add("not shattered")
                assert got is None
            else:
                outcomes.add("shattered")
                assert_same_witness(got, witness_from_rows(c, subset, gamma, want[1]))
            # The reference's spend is exactly enough, and one less is not.
            assert (is_gamma_shattered(c, subset, gamma, budget=state[1]) is None) == (want is None)
            if state[1] > 1:
                with pytest.raises(SearchBudgetExceeded):
                    is_gamma_shattered(c, subset, gamma, budget=state[1] - 1)
        assert outcomes == {"exhausted", "not shattered", "shattered"}

    def test_env_budget_leaves_node_budget_alone(self, monkeypatch):
        c = boolean_indicator_class(4)
        monkeypatch.delenv("FSDP_BUDGET", raising=False)
        unset = fsd(c, 0.5, 4)
        monkeypatch.setenv("FSDP_BUDGET", "2")
        assert fsd(c, 0.5, 4).nodes_explored == unset.nodes_explored > 2
        assert unset.exact and unset.d == 4
        assert is_gamma_shattered(c, (0, 1, 2, 3), 0.5) is not None


class TestChooseM:
    def test_degenerate_accuracy_floors_at_one(self):
        assert choose_m(1.0, 0) == 1

    def test_pinned_value(self):
        # ceil(4 * (2*ln(2)^2 + ln 2)) evaluated independently
        expected = math.ceil(4 * (2 * math.log(2) ** 2 + math.log(2)))
        assert expected == 7
        assert choose_m(0.5, 2) == 7

    def test_doubling_d_at_least_doubles_excess(self):
        for eta in (0.5, 0.25):
            floor_term = math.ceil(math.log(2) / eta**2)
            for d in (1, 2, 3):
                excess = choose_m(eta, d) - floor_term
                doubled = choose_m(eta, 2 * d) - floor_term
                assert doubled >= 2 * excess

    def test_validation(self):
        with pytest.raises(ValueError):
            choose_m(0.0, 1)
        with pytest.raises(ValueError):
            choose_m(1.5, 1)
        with pytest.raises(ValueError):
            choose_m(0.5, -1)

    def test_reads_the_constant_at_call_time(self, monkeypatch):
        monkeypatch.setattr(config, "DEFAULT_CM", 2.0)
        assert choose_m(0.5, 2) == math.ceil(2.0 * (2 * math.log(2) ** 2 + math.log(2)) / 0.25) == 14

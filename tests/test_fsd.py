import itertools
import math

import numpy as np
import pytest

from helpers_oracles import (
    ReferenceBudgetExceeded,
    assignment_enumeration_shattered,
    boolean_indicator_class,
    fsd_by_sweep,
    per_node_fsd,
    per_node_search,
    random_query_class,
    rgrid_shattered,
    threshold_sweep_shattered,
    vc_dimension,
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
from sparsedp.attack import build_family
from sparsedp.fsd import _pick_threshold

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
        for q in base:
            queries.append(np.concatenate([[0.5], q.coefficients, [q.coefficients[0]]]))
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
        with pytest.raises(ValueError, match=message):
            build_family(c, 0.5, 2, budget=budget)
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


def thresholds_of(min1, max0, gamma):
    return tuple(_pick_threshold(float(lo), float(hi), gamma) for lo, hi in zip(max0, min1))


class TestAgainstPerNodeSearch:
    """The search filters a node's k rows in one pass; the reference tries
    them one at a time.  Both must spend the same nodes and find the same
    witness, including when the budget runs out part way through a level."""

    def test_fsd_matches_reference(self):
        inexact = 0
        for c, gamma, d_max, budget in seeded_classes(71, 150):
            got = fsd(c, gamma, d_max, budget=budget)
            d, subset, assignment, min1, max0, used, exact, _ = per_node_fsd(c, gamma, d_max, budget)
            assert (got.d, got.nodes_explored, got.exact) == (d, used, exact)
            if not exact:
                inexact += 1
                assert got.nodes_explored == budget
            if d == 0:
                assert got.witness is None
            else:
                assert got.witness.subset == subset
                assert got.witness.assignment == assignment
                assert got.witness.thresholds == thresholds_of(min1, max0, gamma)
        assert inexact >= 10

    def test_exact_search_matches_unpruned_reference(self):
        # Pruning changes only the node count: an exact search must find the
        # unpruned scan's dimension, subset, assignment and thresholds.
        compared = 0
        for c, gamma, d_max, budget in seeded_classes(71, 150):
            got = fsd(c, gamma, d_max, budget=budget)
            if not got.exact:
                continue
            d, subset, assignment, min1, max0, _, exact, skipped = per_node_fsd(
                c, gamma, d_max, 10**7, prune=False
            )
            assert exact and skipped == []
            assert got.d == d
            if d == 0:
                assert got.witness is None
                continue
            compared += 1
            assert got.witness.subset == subset
            assert got.witness.assignment == assignment
            assert got.witness.thresholds == thresholds_of(min1, max0, gamma)
        assert compared >= 60

    def test_skipped_subsets_are_unshattered(self):
        def real_classes():
            rng = np.random.default_rng(74)
            for _ in range(40):
                k, n = int(rng.integers(4, 16)), int(rng.integers(3, 7))
                gamma = float(rng.choice([0.1, 0.15, 0.2, 0.25]))
                yield random_query_class(rng, k=k, n=n), gamma, n, 10**5

        checked = 0
        for classes in (seeded_classes(71, 150), real_classes()):
            for c, gamma, d_max, budget in classes:
                skipped = per_node_fsd(c, gamma, d_max, budget)[-1]
                for subset in skipped:
                    assert not threshold_sweep_shattered(c, subset, gamma), subset
                checked += len(skipped)
        assert checked >= 100

    def test_skips_at_the_top_shattered_level_carry_to_the_next(self):
        # A subset S skipped on level d is known unshattered on level d+1.
        # Pick a class where some superset T of S has no other face known
        # unshattered: every other face of T sorts at or after the level's
        # shattered subset W, so the scan never decided it below W.
        def carried(c, d, witness, skipped):
            for s in skipped:
                if len(s) != d:
                    continue
                for x in set(range(c.n)) - set(s):
                    t = tuple(sorted(s + (x,)))
                    faces = itertools.combinations(t, d)
                    if all(face >= witness for face in faces if face != s):
                        return True
            return False

        rng = np.random.default_rng(89)
        while True:
            c = random_query_class(rng, k=13, n=7)
            d, witness, *_, total, _, skipped = per_node_fsd(c, 0.1, 4, 10**6)
            if 2 <= d < 4 and carried(c, d, witness, skipped):
                break
        for budget in sorted(set(np.linspace(1, total, 12).astype(int).tolist())):
            got = fsd(c, 0.1, 4, budget=budget)
            want_d, *_, used, exact, _ = per_node_fsd(c, 0.1, 4, budget)
            assert (got.d, got.nodes_explored, got.exact) == (want_d, used, exact)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_no_extra_nodes_when_each_level_starts_shattered(self, n):
        # Every level's first subset is shattered, so no search fails and
        # nothing is decided beyond what the unpruned scan searches.
        classes = [boolean_indicator_class(n)]
        rng = np.random.default_rng(75 + n)
        for _ in range(3):
            perm = rng.permutation(n)
            rows = [np.array(row)[perm] for row in itertools.product((0.0, 1.0), repeat=n)]
            classes.append(QueryClass(rows))
        for c in classes:
            got = fsd(c, 0.5, n)
            used, exact = per_node_fsd(c, 0.5, n, 10**7, prune=False)[5:7]
            assert got.exact and exact and got.d == n
            assert got.nodes_explored == used

    def test_budget_running_out_anywhere_matches_reference(self):
        # Classes whose levels skip subsets, cut off at budgets spread over
        # the whole search: in the middle of subset searches and of the
        # (d-1)-subset searches that pruning adds.
        rng = np.random.default_rng(76)
        pruned = 0
        while pruned < 4:
            c = random_query_class(rng, k=12, n=6)
            full = per_node_fsd(c, 0.15, 4, 10**6)
            if not full[-1]:
                continue
            pruned += 1
            total = full[5]
            for budget in sorted(set(np.linspace(1, total, 40).astype(int).tolist())):
                got = fsd(c, 0.15, 4, budget=budget)
                d, subset, _, _, _, used, exact, _ = per_node_fsd(c, 0.15, 4, budget)
                assert (got.d, got.nodes_explored, got.exact) == (d, used, exact)
                assert exact == (budget == total)
                assert (got.witness.subset if got.witness else None) == subset

    def test_is_gamma_shattered_matches_reference(self):
        rng = np.random.default_rng(72)
        outcomes = set()
        for c, gamma, _, budget in seeded_classes(73, 150):
            size = int(rng.integers(1, min(c.n, 3) + 1))
            subset = tuple(sorted(rng.choice(c.n, size=size, replace=False).tolist()))
            state = [budget, 0]
            try:
                want = per_node_search(c.matrix[:, subset], gamma, state)
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
                assignment, min1, max0 = want
                assert got.assignment == assignment
                assert got.thresholds == thresholds_of(min1, max0, gamma)
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
        assert choose_m(1.0, 0, 1.0) == 1

    def test_pinned_value(self):
        # ceil(4 * (2*ln(2)^2 + ln 2)) evaluated independently
        expected = math.ceil(4 * (2 * math.log(2) ** 2 + math.log(2)))
        assert expected == 7
        assert choose_m(0.5, 2, 1.0) == 7

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
        with pytest.raises(ValueError):
            choose_m(0.5, 1, c_m=0.0)

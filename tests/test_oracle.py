import itertools
import math

import numpy as np
import pytest

from helpers_oracles import law_by_row, per_point_certificate, real_probe_pairs, total_variation
from sparsedp import oracle
from sparsedp import (
    Database,
    DimensionMismatchError,
    DomainTooLargeError,
    ExponentRule,
    PrivacyParams,
    QueryClass,
    SparseSyntheticDatabase,
    best_sparse_db,
    choose_m,
    exact_output_distribution,
    exponential_release_exact,
    fsd,
    postprocessing_certificate,
    privacy_ratio_certificate,
)

CANONICAL_N2 = QueryClass([[1, 0], [0, 1], [0.5, 0.5]])
CANONICAL_N3 = QueryClass([[1, 0, 0], [0, 1, 0], [0, 0, 1], [0.5, 0.5, 0.5]])


class TestExactDistribution:
    def test_uniform_limit(self):
        dist = exact_output_distribution(
            Database([2, 1]), CANONICAL_N2, PrivacyParams(alpha=1e-12), 2
        )
        for prob in dist.probabilities.tolist():
            assert prob == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_pinned_two_point_softmax(self):
        # scores 0 and -1 at alpha=4 under the quarter rule: logits 0, -1
        dist = exact_output_distribution(Database([1, 0]), QueryClass([[1, 0]]), PrivacyParams(4.0), 1)
        probs = law_by_row(dist)
        assert probs[(1, 0)] == pytest.approx(1.0 / (1.0 + math.exp(-1.0)), abs=1e-12)
        assert probs[(1, 0)] == pytest.approx(0.7310585786300049, abs=1e-12)

    def test_normalization(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            c = QueryClass(rng.uniform(0, 1, size=(int(rng.integers(1, 5)), n)))
            d = Database(rng.uniform(0, 4, size=n))
            dist = exact_output_distribution(d, c, PrivacyParams(float(rng.uniform(0.1, 4))), int(rng.integers(1, 4)))
            assert abs(sum(dist.probabilities.tolist()) - 1.0) < 1e-12

    def test_sampler_histogram_matches(self):
        d = Database([1, 1])
        p = PrivacyParams(1.0)
        rng = np.random.default_rng(11)
        dist = law_by_row(exact_output_distribution(d, CANONICAL_N2, p, 2))
        counts: dict = {}
        draws = 20_000
        for _ in range(draws):
            key = exponential_release_exact(d, CANONICAL_N2, p, 2, rng).d_prime.as_tuple()
            counts[key] = counts.get(key, 0) + 1
        empirical = {k: v / draws for k, v in counts.items()}
        assert total_variation(empirical, dist) < 0.02

    def test_identical_inputs_give_unit_ratios(self):
        d = Database([1, 2])
        a = exact_output_distribution(d, CANONICAL_N2, PrivacyParams(1.0), 2)
        b = exact_output_distribution(d, CANONICAL_N2, PrivacyParams(1.0), 2)
        for pa, pb in zip(a.probabilities.tolist(), b.probabilities.tolist()):
            assert pa / pb == 1.0

    def test_array_backed_sequence(self):
        from sparsedp.mechanisms import composition_matrix

        d, p = Database([1.5, 0.5, 2.0]), PrivacyParams(1.3)
        dist = exact_output_distribution(d, CANONICAL_N3, p, 3)
        counts = composition_matrix(3, 3)
        assert len(dist) == len(counts) == len(dist.probabilities) == len(dist.scores)
        assert np.array_equal(dist.counts, counts)
        for array in (dist.counts, dist.probabilities, dist.scores):
            with pytest.raises(ValueError):
                array[0] = 0

    def test_keeps_the_scores_its_law_came_from(self):
        from sparsedp.mechanisms import exponential_law, score_rows

        d, p = Database([1.5, 0.5, 2.0]), PrivacyParams(1.3)
        for rule in ExponentRule:
            dist = exact_output_distribution(d, CANONICAL_N3, p, 4, rule)
            answers, l1s = [CANONICAL_N3.matrix @ d.entries], [4.0]
            scores = score_rows(CANONICAL_N3, dist.counts, answers, l1s, 4)
            law = exponential_law(scores, 4, p.alpha, rule)
            assert dist.scores.tobytes() == scores[0].tobytes()
            assert dist.probabilities.tobytes() == law[0].tobytes()

    def test_caller_supplied_l1_matches_per_element_scores(self):
        from sparsedp import quality_score
        from sparsedp.mechanisms import exponential_law

        d = Database([1.5, 0.5, 2.0])
        p = PrivacyParams(1.3)
        l1 = 6.25
        dist = exact_output_distribution(d, CANONICAL_N3, p, 2, l1_estimate=l1)
        scores = np.array([
            quality_score(d, SparseSyntheticDatabase(row), CANONICAL_N3, l1) for row in dist.counts
        ])
        expected = exponential_law(scores, 2, p.alpha, ExponentRule.PAPER_QUARTER)
        assert np.abs(dist.probabilities - expected).max() < 1e-12


class TestPrivacyCertificate:
    def test_small_sweep_passes_both_rules(self):
        for n, cls in ((2, CANONICAL_N2), (3, CANONICAL_N3)):
            for m in (1, 2):
                for alpha in (0.5, 2.0):
                    for rule in ExponentRule:
                        cert = privacy_ratio_certificate(
                            n, 2, cls, PrivacyParams(alpha), m, rule
                        )
                        assert cert.passed, (n, m, alpha, rule, cert.max_ratio)
                        assert cert.max_ratio <= math.exp(alpha) + 1e-9

    def test_real_probes_also_bounded(self):
        cert = privacy_ratio_certificate(
            2, 2, CANONICAL_N2, PrivacyParams(1.0), 2,
            real_probes=100, rng=np.random.default_rng(5),
        )
        assert cert.passed
        assert cert.real_probes == 100

    def test_negative_control_doubled_score_fails(self, misweighted_law):
        # direct search found this failing instance; pin it
        misweighted_law(2.0)
        cert = privacy_ratio_certificate(
            3, 3, CANONICAL_N3, PrivacyParams(2.0), 3, ExponentRule.TIGHT_SENSITIVITY
        )
        assert not cert.passed
        assert cert.max_ratio > math.exp(2.0) + 1e-9
        assert cert.witness_pair is not None

    def test_witness_pair_is_reported(self):
        cert = privacy_ratio_certificate(2, 1, CANONICAL_N2, PrivacyParams(0.5), 1)
        assert cert.witness_pair is not None
        d1, d2 = cert.witness_pair
        assert sum(abs(a - b) for a, b in zip(d1, d2)) == 1

    def test_budget_refusal(self, monkeypatch):
        monkeypatch.setenv("FSDP_BUDGET", "10")
        with pytest.raises(DomainTooLargeError):
            privacy_ratio_certificate(3, 3, CANONICAL_N3, PrivacyParams(1.0), 3)

    def test_probe_passes_count_against_budget(self, monkeypatch):
        # 4 grid points and 2 x 2000 probe points, each a pass over the
        # 4-row domain of (n=2, m=3): 16,016 rows scored.
        c = QueryClass([[1.0, 0.5]])
        monkeypatch.setenv("FSDP_BUDGET", "16")
        with pytest.raises(DomainTooLargeError, match="scored 4004 times"):
            privacy_ratio_certificate(
                2, 1, c, PrivacyParams(1.0), 3, real_probes=2000, rng=np.random.default_rng(0),
            )
        cert = privacy_ratio_certificate(2, 1, c, PrivacyParams(1.0), 3)
        assert cert.passed

    def test_probes_need_generator(self):
        with pytest.raises(ValueError):
            privacy_ratio_certificate(2, 1, CANONICAL_N2, PrivacyParams(1.0), 1, real_probes=5)

    def test_nan_probabilities_fail(self, misweighted_law):
        # A NaN ratio is the maximum, so a certificate over NaN distributions
        # fails instead of passing with max_ratio 0.
        misweighted_law(math.nan)
        cert = privacy_ratio_certificate(2, 1, CANONICAL_N2, PrivacyParams(1.0), 2)
        assert math.isnan(cert.max_ratio)
        assert not cert.passed

    def test_alpha_past_the_exp_range_reads_an_infinite_bound(self):
        # e^alpha overflows a float from about alpha 709.8.
        for alpha, bound in ((709.0, math.exp(709.0)), (710.0, math.inf)):
            cert = privacy_ratio_certificate(2, 1, CANONICAL_N2, PrivacyParams(alpha), 2)
            assert (cert.bound, cert.passed) == (bound, True)

    def test_a_law_whose_every_logit_overflows_is_refused(self):
        # At alpha 1e308 every logit of a law overflows once its best score
        # is -1.8 or less: -2 at [10, 3, 7] and at m = 4, and first on the
        # grid at entry cap 6.
        c, p = QueryClass([[1, 0, 0], [0, 1, 0], [0.5, 0.5, 1]]), PrivacyParams(1e308)
        with pytest.raises(ValueError, match=r"alpha=1e\+308 overflows every"):
            privacy_ratio_certificate(3, 6, c, p, 4)
        with pytest.raises(ValueError, match=r"alpha=1e\+308 overflows every"):
            exact_output_distribution(Database([10, 3, 7]), c, p, 4)

    def test_negative_probe_count_refused(self):
        with pytest.raises(ValueError, match="real_probes must be nonnegative"):
            privacy_ratio_certificate(
                2, 1, CANONICAL_N2, PrivacyParams(1.0), 1, real_probes=-3, rng=np.random.default_rng(0)
            )


OUTCOME_MAPS = {
    "none": None,
    "first-coordinate": lambda dp: int(dp.counts[0]),
    "constant": lambda dp: 0,
    "parity": lambda dp: int(dp.counts[::2].sum()) % 2,
}


def certify(g, *args, **kwargs):
    if g is None:
        return privacy_ratio_certificate(*args, **kwargs)
    return postprocessing_certificate(g, *args, **kwargs)


class TestAgainstPerPointCertificate:
    """The batched certificate against the per-point reference, field by field."""

    def test_seeded_random_classes(self):
        rng = np.random.default_rng(41)
        for n, cap, m, rule in itertools.product((1, 2, 3), (1, 2, 3), (1, 2, 3), ExponentRule):
            c = QueryClass(rng.uniform(0, 1, size=(int(rng.integers(1, 6)), n)))
            p = PrivacyParams(float(rng.uniform(0.2, 3.0)))
            for g in OUTCOME_MAPS.values():
                cert = certify(g, n, cap, c, p, m, rule)
                assert cert.to_dict() == per_point_certificate(n, cap, c, p, m, rule, g).to_dict()

    def test_real_probes(self):
        rng = np.random.default_rng(43)
        for trial in range(12):
            n, cap, m = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
            c = QueryClass(rng.uniform(0, 1, size=(4, n)))
            p, rule = PrivacyParams(float(rng.uniform(0.2, 3.0))), list(ExponentRule)[trial % 2]
            g = list(OUTCOME_MAPS.values())[trial % 4]
            probes = dict(real_probes=25, rng=np.random.default_rng(trial))
            cert = certify(g, n, cap, c, p, m, rule, **probes)
            probes["rng"] = np.random.default_rng(trial)
            reference = per_point_certificate(n, cap, c, p, m, rule, g, **probes)
            assert cert.to_dict() == reference.to_dict()
            assert cert.pairs_checked == 2 * n * cap * (cap + 1) ** (n - 1) + 50

    def test_witness_on_a_failing_pair(self, misweighted_law):
        misweighted_law(2.0)
        args = (3, 3, CANONICAL_N3, PrivacyParams(2.0), 3, ExponentRule.TIGHT_SENSITIVITY)
        cert = privacy_ratio_certificate(*args)
        reference = per_point_certificate(*args)
        assert cert.to_dict() == reference.to_dict()
        assert not cert.passed
        # The witness's own ratio is the one that fails.
        first, second = (
            exact_output_distribution(Database(x), *args[2:]) for x in cert.witness_pair
        )
        row = [tuple(r) for r in first.counts.tolist()].index(cert.witness_outcome)
        assert first.probabilities[row] / second.probabilities[row] == cert.max_ratio > cert.bound

    def test_ties_keep_the_first_pair(self):
        p, rule = PrivacyParams(1.0), ExponentRule.PAPER_QUARTER
        for n in (1, 2, 3):
            c = QueryClass(np.full((2, n), 0.5))
            cert = postprocessing_certificate(lambda dp: 0, n, 2, c, p, 2, rule)
            assert cert.max_ratio == 1.0
            assert cert.witness_pair == ((0,) * n, (1,) + (0,) * (n - 1))
            assert cert.witness_outcome == 0
            reference = per_point_certificate(n, 2, c, p, 2, rule, lambda dp: 0)
            assert cert.to_dict() == reference.to_dict()

    def test_true_answers_are_each_points_database_matvec(self, monkeypatch):
        # The certificate computes every point's answers in one stacked
        # matmul; each must be, bit for bit, the matvec its Database gets.
        seen = []
        score_rows = oracle.score_rows

        def spy(c, counts, true_answers, *rest):
            seen.append(true_answers)
            return score_rows(c, counts, true_answers, *rest)

        monkeypatch.setattr(oracle, "score_rows", spy)
        rng = np.random.default_rng(47)
        for trial in range(60):
            n, k = int(rng.integers(1, 9)), int(rng.integers(1, 71))
            cap, probes = (int(rng.integers(1, 4)) if n <= 4 else 1), int(rng.integers(0, 20))
            c = QueryClass(rng.uniform(0, 1, size=(k, n)))
            privacy_ratio_certificate(
                n, cap, c, PrivacyParams(1.0), 1, real_probes=probes, rng=np.random.default_rng(trial)
            )
            pairs = real_probe_pairs(np.random.default_rng(trial), n, cap, probes)
            points = [
                *itertools.product(range(cap + 1), repeat=n),
                *(a for a, _ in pairs), *(b for _, b in pairs),
            ]
            expected = np.array([c.matrix @ Database(point).entries for point in points])
            assert seen[-1].shape == expected.shape
            assert seen[-1].tobytes() == expected.tobytes()


class TestPostprocessing:
    def test_identity_matches_raw(self):
        raw = privacy_ratio_certificate(2, 2, CANONICAL_N2, PrivacyParams(1.0), 2)
        ident = postprocessing_certificate(
            lambda dp: dp.as_tuple(), 2, 2, CANONICAL_N2, PrivacyParams(1.0), 2
        )
        assert ident.max_ratio == pytest.approx(raw.max_ratio, abs=1e-12)

    def test_constant_map_collapses_ratios(self):
        cert = postprocessing_certificate(
            lambda dp: 0, 2, 2, CANONICAL_N2, PrivacyParams(1.0), 2
        )
        assert cert.max_ratio == pytest.approx(1.0, abs=1e-12)
        assert cert.passed

    def test_first_coordinate_projection_passes(self):
        cert = postprocessing_certificate(
            lambda dp: int(dp.counts[0]), 2, 2, CANONICAL_N2, PrivacyParams(1.0), 2
        )
        assert cert.passed
        assert cert.max_ratio <= math.e + 1e-9

    def test_data_processing_monotonicity(self):
        p = PrivacyParams(1.5)
        raw = privacy_ratio_certificate(2, 2, CANONICAL_N2, p, 2)
        maps = [
            lambda dp: int(dp.counts[0]),
            lambda dp: 0,
            lambda dp: int(dp.counts[0] % 2),
            lambda dp: min(int(dp.counts[0]), 1),
        ]
        for g in maps:
            pushed = postprocessing_certificate(g, 2, 2, CANONICAL_N2, p, 2)
            assert pushed.max_ratio <= raw.max_ratio + 1e-9


class TestBestSparseDb:
    def test_integer_self_witness(self):
        d = Database([1, 0, 2])
        best, rel = best_sparse_db(d, CANONICAL_N3, 3)
        assert best.as_tuple() == (1, 0, 2)
        assert rel == 0.0

    def test_pinned_tie_break(self):
        # errors: [2,0] -> 3, [1,1] -> 1, [0,2] -> 1; lex-smallest tie wins
        best, rel = best_sparse_db(Database([1, 3]), QueryClass([[1, 0], [0, 1]]), 2)
        assert best.as_tuple() == (0, 2)
        assert rel == pytest.approx(0.25)

    def test_monotone_on_doubling_chain(self):
        rng = np.random.default_rng(29)
        for _ in range(15):
            n = int(rng.integers(2, 5))
            c = QueryClass(rng.uniform(0, 1, size=(4, n)))
            d = Database(rng.uniform(0, 3, size=n))
            errors = [best_sparse_db(d, c, m)[1] for m in (1, 2, 4, 8)]
            assert all(a >= b - 1e-12 for a, b in zip(errors, errors[1:]))

    def test_adjacent_m_not_monotone_in_general(self):
        # granularity misalignment: m=2 fits [1, 1.05] almost perfectly,
        # m=3 cannot, so requiring decrease at every step would be wrong
        d = Database([1.0, 1.05])
        c = QueryClass([[1, 0]])
        assert best_sparse_db(d, c, 3)[1] > best_sparse_db(d, c, 2)[1]

    def test_zero_database(self):
        best, rel = best_sparse_db(Database([0.0, 0.0]), CANONICAL_N2, 2)
        assert rel == 0.0

    def test_existence_monte_carlo(self):
        # seeded spot check of the surrogate-size rule at c_m = 1
        eta = 0.5
        hits = 0
        trials = 200
        for t in range(trials):
            rng = np.random.default_rng((97, t))
            c = QueryClass(rng.uniform(0, 1, size=(5, 4)))
            dimension = fsd(c, eta / 5.0, d_max=3).d
            m = choose_m(eta, dimension)
            d = Database(rng.uniform(0, 5, size=4))
            hits += best_sparse_db(d, c, m)[1] <= eta
        assert hits >= 0.95 * trials

    def test_budget_refusal(self, monkeypatch):
        monkeypatch.setenv("FSDP_BUDGET", "100")
        with pytest.raises(DomainTooLargeError):
            best_sparse_db(Database(np.ones(30)), QueryClass([np.ones(30)]), 30)

    def test_block_enumeration_covers_domain_in_order(self):
        from sparsedp.mechanisms import composition_matrix, domain_blocks

        for n in range(1, 7):
            for m in range(9):
                full = composition_matrix(n, m)
                for max_rows in (1, 2, 3, 17):
                    blocks = list(domain_blocks(n, m, max_rows))
                    assert all(1 <= len(block) <= max_rows for block in blocks)
                    assert np.array_equal(np.vstack(blocks), full)

    def test_class_dimension_mismatch(self):
        d, c, p = Database([1, 2, 3]), CANONICAL_N2, PrivacyParams(1.0)
        with pytest.raises(DimensionMismatchError):
            exact_output_distribution(d, c, p, 2)
        with pytest.raises(DimensionMismatchError):
            best_sparse_db(d, c, 2)

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from helpers_oracles import law_by_row, per_point_certificate, real_probe_pairs, total_variation
from sparsedp import mechanisms, oracle
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
    exponential_release_mcmc,
    fsd,
    postprocessing_certificate,
    privacy_ratio_certificate,
)

CANONICAL_N2 = QueryClass([[1, 0], [0, 1], [0.5, 0.5]])
CANONICAL_N3 = QueryClass([[1, 0, 0], [0, 1, 0], [0, 0, 1], [0.5, 0.5, 0.5]])


class CountingGenerator:
    """A seeded numpy Generator that counts the calls made to it."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = 0

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counted


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
        dist = exact_output_distribution(d, CANONICAL_N3, p, 2, l1=l1)
        scores = np.array([
            quality_score(d, SparseSyntheticDatabase(row), CANONICAL_N3, l1) for row in dist.counts
        ])
        expected = exponential_law(scores, 2, p.alpha, ExponentRule.PAPER_QUARTER)
        assert np.abs(dist.probabilities - expected).max() < 1e-12

    def test_l1_takes_the_samplers_public_or_a_number(self):
        # "public" (the default) is the true norm and a number is that
        # estimate: the counts, law and scores of score_rows at that norm.
        from sparsedp.mechanisms import composition_matrix, exponential_law, score_rows

        d, p = Database([1.5, 0.5, 2.0]), PrivacyParams(1.3)
        for rule in ExponentRule:
            for l1, norm in ((None, 4.0), ("public", 4.0), (4.0, 4.0), (6.25, 6.25), (0, 0.0)):
                if l1 is None:
                    dist = exact_output_distribution(d, CANONICAL_N3, p, 3, rule)
                else:
                    dist = exact_output_distribution(d, CANONICAL_N3, p, 3, rule, l1=l1)
                counts = composition_matrix(3, 3)
                scores = score_rows(CANONICAL_N3, counts, [CANONICAL_N3.matrix @ d.entries], [norm], 3)
                assert dist.counts.tobytes() == counts.tobytes()
                assert dist.scores.tobytes() == scores[0].tobytes()
                law = exponential_law(scores, 3, p.alpha, rule)[0]
                assert dist.probabilities.tobytes() == law.tobytes()

    def test_l1_refusals_come_before_the_domain(self, monkeypatch):
        # A private estimate needs a generator the oracle does not have, and
        # a bad number gets the samplers' message; both before the domain is
        # read, so even over the budget.  The exact sampler refuses a bad
        # number there too, with the chain's and the oracle's message, while
        # "private", which draws, waits for the budget check.
        d, p = Database([1.5, 0.5, 2.0]), PrivacyParams(1.3)
        bad = (-2.0, math.nan, math.inf, -math.inf)
        messages = []
        for value in bad:
            with pytest.raises(ValueError) as sampled:
                exponential_release_exact(d, CANONICAL_N3, p, 3, np.random.default_rng(0), l1=value)
            messages.append(str(sampled.value))
        calls = []
        monkeypatch.setattr(oracle, "composition_matrix", lambda *args: calls.append(args))
        monkeypatch.setenv("FSDP_BUDGET", "1")
        with pytest.raises(ValueError) as refused:
            exact_output_distribution(d, CANONICAL_N3, p, 3, l1="private")
        assert str(refused.value) == "private L1 estimation needs a generator"
        for value, message in zip(bad, messages):
            with pytest.raises(ValueError) as refused:
                exact_output_distribution(d, CANONICAL_N3, p, 3, l1=value)
            assert str(refused.value) == message
            assert message.startswith("caller-supplied L1 estimate must be finite and nonnegative")
            for release in (
                lambda rng: exponential_release_exact(d, CANONICAL_N3, p, 3, rng, l1=value),
                lambda rng: exponential_release_mcmc(d, CANONICAL_N3, p, 3, 10, rng, l1=value),
            ):
                rng = np.random.default_rng(0)
                with pytest.raises(ValueError) as refused:
                    release(rng)
                assert str(refused.value) == message
                assert rng.random() == np.random.default_rng(0).random()
        rng = np.random.default_rng(0)
        with pytest.raises(DomainTooLargeError):
            exponential_release_exact(d, CANONICAL_N3, p, 3, rng, l1="private")
        assert rng.random() == np.random.default_rng(0).random()
        with pytest.raises(ValueError, match="l1 must be 'public', 'private', or a number"):
            exact_output_distribution(d, CANONICAL_N3, p, 3, l1="bogus")
        assert calls == []


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

    def test_entry_cap_below_one_refused(self):
        p = PrivacyParams(1.0)
        for entry_cap in (0, -2):
            for certify_with in (
                lambda: privacy_ratio_certificate(2, entry_cap, CANONICAL_N2, p, 1),
                lambda: postprocessing_certificate(lambda row: 0, 2, entry_cap, CANONICAL_N2, p, 1),
            ):
                with pytest.raises(ValueError) as refused:
                    certify_with()
                assert str(refused.value) == "entry_cap must be at least 1"

    def test_budget_refusal(self, monkeypatch):
        monkeypatch.setenv("FSDP_BUDGET", "10")
        with pytest.raises(DomainTooLargeError):
            privacy_ratio_certificate(3, 3, CANONICAL_N3, PrivacyParams(1.0), 3)

    def test_probe_passes_count_against_budget(self, monkeypatch):
        # 4 grid points and 2 x 2000 probe points, each a pass over the
        # 4-row domain of (n=2, m=3): 16,016 rows scored.
        c = QueryClass([[1.0, 0.5]])
        monkeypatch.setenv("FSDP_BUDGET", "16")
        rng = CountingGenerator(0)
        with pytest.raises(DomainTooLargeError, match="scored 4004 times"):
            privacy_ratio_certificate(2, 1, c, PrivacyParams(1.0), 3, real_probes=2000, rng=rng)
        assert rng.calls == 0  # refused before the first draw
        cert = privacy_ratio_certificate(2, 1, c, PrivacyParams(1.0), 3)
        assert cert.passed

    def test_generator_calls_do_not_grow_with_probes(self):
        calls = {}
        for probes in (0, 1, 500):
            rng = CountingGenerator(7)
            cert = privacy_ratio_certificate(
                2, 1, CANONICAL_N2, PrivacyParams(1.0), 2, real_probes=probes, rng=rng
            )
            assert cert.pairs_checked == 8 + 2 * probes
            calls[probes] = rng.calls
        assert calls == {0: 0, 1: 5, 500: 5}

    def test_probe_pairs_are_real_neighbours(self):
        # Every pair is at L1 distance 1 (up to rounding) and stays
        # nonnegative; a single-axis pair moves one coordinate by exactly 1.0
        # and a split pair moves all n, and both kinds appear.
        for n, cap in itertools.product(range(1, 9), range(1, 6)):
            for probes in (1, 50, 500):
                a, b = oracle._probe_pairs(np.random.default_rng((n, cap, probes)), n, cap, probes)
                assert a.shape == b.shape == (probes, n)
                assert ((a >= 0.0) & (a <= cap)).all() and (b >= 0.0).all()
                assert (np.abs(np.abs(b - a).sum(axis=1) - 1.0) <= 1e-12).all()
                moved = (a != b).sum(axis=1)
                single = moved == 1
                rows, axes = np.nonzero(a != b)
                keep = single[rows]
                ends, starts = b[rows[keep], axes[keep]], a[rows[keep], axes[keep]]
                assert ((ends == starts + 1.0) | (ends == starts - 1.0)).all()
                if n > 1:
                    assert (single | (moved == n)).all()
                    if probes >= 50:
                        assert single.any() and (moved == n).any()

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

    def test_scan_memory_is_bounded(self):
        # Pairs are gathered once and the reversed order is a view of them:
        # at n=4, cap 5, m=4 with 200 probes the certificate peaks at 6.31 MB,
        # and peaked at 11.4 MB with a second gather and an np.where over both.
        c = QueryClass(np.random.default_rng(53).uniform(0, 1, size=(6, 4)))
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            privacy_ratio_certificate(4, 5, c, PrivacyParams(1.0), 4, real_probes=200, rng=rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8.5 * 2**20

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

    @pytest.mark.parametrize("alpha, rule", [
        (500.0, ExponentRule.TIGHT_SENSITIVITY), (700.0, ExponentRule.PAPER_QUARTER),
        (710.0, ExponentRule.PAPER_QUARTER), (710.0, ExponentRule.TIGHT_SENSITIVITY),
    ])
    def test_exact_zero_probabilities(self, alpha, rule):
        # At these alphas some weights underflow to 0.0 while every law keeps
        # a positive weight, so the scan meets pairs where both sides are 0
        # (ratio 1) and pairs where only the denominator is (ratio inf).
        n, cap, m, p = 3, 3, 3, PrivacyParams(alpha)
        grid = list(itertools.product(range(cap + 1), repeat=n))
        law = {
            point: exact_output_distribution(Database(point), CANONICAL_N3, p, m, rule)
            for point in grid
        }
        both_zero = only_one_zero = 0
        for point in grid:
            for i in range(n):
                if point[i] < cap:
                    up = point[:i] + (point[i] + 1,) + point[i + 1 :]
                    x, y = law[point].probabilities, law[up].probabilities
                    both_zero += int(((x == 0.0) & (y == 0.0)).sum())
                    only_one_zero += int(((x == 0.0) != (y == 0.0)).sum())
        assert both_zero > 0 and only_one_zero > 0
        for g in OUTCOME_MAPS.values():
            cert = certify(g, n, cap, CANONICAL_N3, p, m, rule)
            reference = per_point_certificate(n, cap, CANONICAL_N3, p, m, rule, g)
            assert cert.to_dict() == reference.to_dict()
        raw = privacy_ratio_certificate(n, cap, CANONICAL_N3, p, m, rule)
        assert (raw.max_ratio, raw.passed) == (math.inf, False)

    @pytest.mark.parametrize("alpha, outcome_map, has_zero", [
        (1.0, "none", False), (710.0, "constant", False), (710.0, "first-coordinate", True),
    ])
    def test_nan_ratios_are_sought_only_in_a_law_with_an_exact_zero(
        self, alpha, outcome_map, has_zero
    ):
        # Only 0/0 gives a NaN ratio, so the scan looks for one only when the
        # certified law holds an exact zero.  At alpha 1 no law does.  At 710
        # the raw laws do; the constant map's push-forward sums their zeros
        # away, while the first coordinate's keeps some (a push-forward adds
        # nonnegative probabilities, so it can lose a zero but not gain one).
        n, cap, m, rule = 3, 3, 3, ExponentRule.PAPER_QUARTER
        p, g = PrivacyParams(alpha), OUTCOME_MAPS[outcome_map]
        zeros = False
        for point in itertools.product(range(cap + 1), repeat=n):
            dist = exact_output_distribution(Database(point), CANONICAL_N3, p, m, rule)
            pushed = {}
            for row, prob in zip(dist.counts, dist.probabilities.tolist()):
                label = row.tobytes() if g is None else g(SparseSyntheticDatabase(row))
                pushed[label] = pushed.get(label, 0.0) + prob
            zeros |= 0.0 in pushed.values()
        assert zeros == has_zero
        cert = certify(g, n, cap, CANONICAL_N3, p, m, rule)
        assert cert.to_dict() == per_point_certificate(n, cap, CANONICAL_N3, p, m, rule, g).to_dict()

    def test_true_answers_are_each_points_database_matvec(self, monkeypatch):
        # ``_laws`` computes every point's answers in one stacked matmul;
        # each must be, bit for bit, the matvec its Database gets, in a
        # certificate's batch and in the samplers' and oracle's batch of one.
        seen = []
        score_rows = mechanisms.score_rows

        def spy(c, counts, true_answers, *rest):
            seen.append(true_answers)
            return score_rows(c, counts, true_answers, *rest)

        monkeypatch.setattr(mechanisms, "score_rows", spy)
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
            # A batch of one: the law is what score_rows over the matvec and
            # exponential_law gave before the two laws were one function.
            draw = np.random.default_rng(1000 + trial)
            d, m, rule = Database(points[-1]), int(draw.integers(1, 4)), list(ExponentRule)[trial % 2]
            counts, p = mechanisms.composition_matrix(n, m), PrivacyParams(float(draw.uniform(0.2, 3)))
            l1 = float(draw.uniform(0, 10))
            got = mechanisms._laws(c, counts, d.entries[None], [l1], m, p.alpha, rule)
            assert seen[-1].tobytes() == (c.matrix @ d.entries)[None].tobytes()
            scores = score_rows(c, counts, (c.matrix @ d.entries)[None], [l1], m)
            assert got[0].tobytes() == scores.tobytes()
            assert got[1].tobytes() == mechanisms.exponential_law(scores, m, p.alpha, rule).tobytes()
            exponential_release_exact(d, c, p, m, np.random.default_rng(trial), rule, l1=l1)
            assert seen[-1].tobytes() == (c.matrix @ d.entries)[None].tobytes()
            dist = exact_output_distribution(d, c, p, m, rule, l1=l1)
            assert seen[-1].tobytes() == (c.matrix @ d.entries)[None].tobytes()
            assert dist.probabilities.tobytes() == got[1][0].tobytes()


class TestPostprocessing:
    def test_identity_matches_raw(self):
        # Adding each probability to 0.0 is exact, so through the identity
        # map the certificate is the raw one, witness pair and outcome too.
        rng = np.random.default_rng(43)
        for trial in range(24):
            n, cap, m = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(1, 5))
            c = QueryClass(rng.uniform(0, 1, size=(int(rng.integers(1, 6)), n)))
            args = (n, cap, c, PrivacyParams(float(rng.uniform(0.2, 3.0))), m, list(ExponentRule)[trial % 2])
            for probes in (0, 30):
                raw = privacy_ratio_certificate(*args, real_probes=probes, rng=np.random.default_rng(trial))
                ident = postprocessing_certificate(
                    lambda dp: dp.as_tuple(), *args, real_probes=probes, rng=np.random.default_rng(trial)
                )
                assert ident.to_dict() == raw.to_dict()

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


def test_each_oracle_enumerates_through_composition_matrix_once(monkeypatch):
    # The benchmark tracer times the oracle's enumeration at this global.
    calls = []
    composition_matrix = oracle.composition_matrix

    def spy(*args):
        calls.append(args)
        return composition_matrix(*args)

    monkeypatch.setattr(oracle, "composition_matrix", spy)
    p, rng = PrivacyParams(1.0), np.random.default_rng(5)
    runs = [
        lambda: privacy_ratio_certificate(2, 2, CANONICAL_N2, p, 3),
        lambda: privacy_ratio_certificate(2, 2, CANONICAL_N2, p, 3, real_probes=4, rng=rng),
        lambda: postprocessing_certificate(lambda dp: 0, 2, 2, CANONICAL_N2, p, 3),
        lambda: postprocessing_certificate(lambda dp: 0, 2, 2, CANONICAL_N2, p, 3, real_probes=4, rng=rng),
        lambda: exact_output_distribution(Database([1.0, 2.0]), CANONICAL_N2, p, 3),
    ]
    for run in runs:
        calls.clear()
        run()
        assert calls == [(2, 3)]


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
            for m in range(1, 9):
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

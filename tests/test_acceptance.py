"""Acceptance gate: one test per release criterion, each printing a pass/fail
line with its elapsed time (run with ``pytest -s`` to see them inline).

Everything here is brute-force- or oracle-checked at small scale with pinned
seeds and the tolerances stated in each test.
"""

import math
import time

import numpy as np
import pytest

from helpers_oracles import boolean_indicator_class, law_by_row, query_of, total_variation
from sparsedp import (
    Database,
    ExactLawTable,
    ExponentRule,
    PrivacyParams,
    QueryClass,
    attack_experiment,
    best_sparse_db,
    build_family,
    choose_m,
    evaluate,
    exact_output_distribution,
    exponential_release_exact,
    exponential_release_mcmc,
    fsd,
    l1_norm,
    laplace_release,
    max_error,
    postprocessing_certificate,
    privacy_ratio_certificate,
    utility_threshold,
    verify_shattering,
)
from sparsedp.attack import FamilySearchError

CLASSES = {
    2: QueryClass([[1, 0], [0, 1], [0.5, 0.5]]),
    3: QueryClass([[1, 0, 0], [0, 1, 0], [0, 0, 1], [0.5, 0.5, 0.5]]),
}
SWEEP = [
    (n, m, alpha, rule)
    for n in (2, 3)
    for m in (1, 2, 3)
    for alpha in (0.5, 1.0, 2.0)
    for rule in ExponentRule
]
ENTRY_CAP = 3


def _finish(name: str, t0: float, budget_s: float):
    elapsed = time.time() - t0
    assert elapsed < budget_s, f"{name} took {elapsed:.1f}s, over the {budget_s:.0f}s budget"
    print(f"[PASS] {name} ({elapsed:.1f}s < {budget_s:.0f}s)")


def test_01_privacy_certificate_sweep():
    t0 = time.time()
    for n, m, alpha, rule in SWEEP:
        cert = privacy_ratio_certificate(n, ENTRY_CAP, CLASSES[n], PrivacyParams(alpha), m, rule)
        assert cert.passed, (n, m, alpha, rule, cert.max_ratio)
        assert cert.max_ratio <= math.exp(alpha) + 1e-9
    _finish("privacy certificate sweep", t0, 60)


def test_02_postprocessing_sweep():
    t0 = time.time()
    maps = {
        "first-coordinate": lambda dp: int(dp.counts[0]),
        "constant": lambda dp: 0,
    }
    for name, g in maps.items():
        for n, m, alpha, rule in SWEEP:
            cert = postprocessing_certificate(
                g, n, ENTRY_CAP, CLASSES[n], PrivacyParams(alpha), m, rule
            )
            assert cert.passed, (name, n, m, alpha, rule, cert.max_ratio)
    _finish("post-processing certificate sweep", t0, 60)


def test_03_gap_inequality_on_50_random_families():
    t0 = time.time()
    gamma = 0.25
    built = 0
    seed = 0
    while built < 50:
        seed += 1
        assert seed < 3000, "could not find 50 shattered families"
        rng = np.random.default_rng((3, seed))
        k = int(rng.integers(6, 17))
        n = int(rng.integers(3, 9))
        c = QueryClass(rng.uniform(0, 1, size=(k, n)))
        try:
            family = build_family(c, gamma, 3)
        except FamilySearchError:
            continue
        built += 1
        for t in family.subsets():
            q = query_of(family, t)
            base = evaluate(q, family.database_for(t))
            for tp in family.subsets():
                gap = base - evaluate(q, family.database_for(tp))
                assert gap >= (gamma / 2.0) * len(set(t) ^ set(tp)) - 1e-12
    _finish("subset-gap inequality on 50 random families", t0, 120)


def test_04_reconstruction_bound_over_1e4_trials():
    t0 = time.time()
    c = boolean_indicator_class(4)
    family = build_family(c, 0.5, 4)
    assert family.d == 4 and family.gamma == 0.5
    p = PrivacyParams(1.0)
    mechanism = ExactLawTable(family.databases, c, p, 2, ExponentRule.PAPER_QUARTER).release
    report = attack_experiment(mechanism, family, 10_000, np.random.default_rng(4_000), alpha=1.0)
    assert report.completed == 10_000
    assert report.mechanism_failures == 0
    assert report.reconstruction_bound_violations == 0
    # recovery-rate ratio stays under even the single-change bound here,
    # within a generous binomial margin at 1e4 trials
    margin = 4.0 * math.sqrt(0.25 / 10_000)
    assert report.recovery_rate_target <= report.recovery_rate_swapped * math.e + margin
    _finish("reconstruction bound over 1e4 seeded trials", t0, 600)


def test_05_surrogate_existence_rate():
    t0 = time.time()
    trials_per_eta = 100
    for eta in (0.25, 0.5):
        hits = 0
        for trial in range(trials_per_eta):
            rng = np.random.default_rng((5, int(eta * 100), trial))
            n = int(rng.choice([3, 4, 5]))
            k = int(rng.choice([4, 5, 6, 7, 8]))
            c = QueryClass(rng.uniform(0, 1, size=(k, n)))
            dimension = fsd(c, eta / 5.0, d_max=3).d
            m = choose_m(eta, dimension)  # frozen c_m from config
            d = Database(rng.uniform(0, 5, size=n))
            _, relative_error = best_sparse_db(d, c, m)
            hits += relative_error <= eta
        assert hits >= 0.95 * trials_per_eta, (eta, hits)
    _finish("surrogate existence rate at the frozen size rule", t0, 300)


def test_06_relative_usefulness_above_threshold():
    t0 = time.time()
    eta, alpha, delta = 0.5, 1.0, 0.1
    rng = np.random.default_rng(6_000)
    c = QueryClass(rng.uniform(0, 1, size=(6, 4)))
    dimension = fsd(c, eta / 5.0, d_max=2).d
    m = choose_m(eta, dimension)
    threshold = utility_threshold(m, 4, eta, alpha)
    weights = rng.uniform(0.2, 1.0, size=4)
    d = Database(weights * (1.1 * threshold / weights.sum()))
    p = PrivacyParams(alpha=alpha)
    failures = 0
    for trial in range(200):
        out = exponential_release_exact(d, c, p, m, np.random.default_rng((6_000, trial)))
        if max_error(c, d, out.d_out) > 2 * eta * l1_norm(d):
            failures += 1
    assert failures / 200 <= delta
    _finish("relative usefulness above the calibrated threshold", t0, 300)


def test_07_dimension_property_suite():
    t0 = time.time()
    # log2-cardinality bound plus witness soundness on 200 random classes
    for trial in range(200):
        rng = np.random.default_rng((7, trial))
        k = int(rng.integers(2, 9))
        n = int(rng.integers(2, 6))
        c = QueryClass(rng.uniform(0, 1, size=(k, n)))
        gamma = float(rng.uniform(0.05, 0.5))
        result = fsd(c, gamma, d_max=int(math.log2(k)) + 1)
        assert result.exact
        assert result.d <= math.log2(k) + 1e-12
        if result.witness is not None:
            assert verify_shattering(c, result.witness)
    # monotonicity in gamma
    for trial in range(60):
        rng = np.random.default_rng((7, 7, trial))
        c = QueryClass(rng.uniform(0, 1, size=(6, 4)))
        dims = [fsd(c, g, d_max=3).d for g in (0.1, 0.25, 0.4)]
        assert dims[0] >= dims[1] >= dims[2]
    _finish("dimension bound, monotonicity, witness soundness", t0, 60)


def test_08_sampler_agreement():
    t0 = time.time()
    d = Database([1, 1])
    c = CLASSES[2]
    p = PrivacyParams(1.0)
    # The table's draws are the per-call sampler's, bit for bit, and only draw.
    laws = ExactLawTable([d], c, p, 2, ExponentRule.PAPER_QUARTER)
    exact = law_by_row(exact_output_distribution(d, c, p, 2))

    rng = np.random.default_rng(8_000)
    draws = 100_000
    counts: dict = {}
    for _ in range(draws):
        key = laws.release(d, rng).d_prime.as_tuple()
        counts[key] = counts.get(key, 0) + 1
    empirical = {key: value / draws for key, value in counts.items()}
    assert total_variation(empirical, exact) < 0.02

    # 10^4 seeded 30-step chain releases: from [2, 0] the chain is within
    # total variation 5e-10 of its law after 30 steps.
    rng = np.random.default_rng(8_001)
    releases = 10_000
    chain: dict = {}
    for _ in range(releases):
        key = exponential_release_mcmc(d, c, p, 2, 30, rng).d_prime.as_tuple()
        chain[key] = chain.get(key, 0) + 1
    chain_empirical = {key: value / releases for key, value in chain.items()}
    assert total_variation(chain_empirical, exact) < 0.02
    _finish("exact and MCMC samplers match the closed form", t0, 120)


def test_09_laplace_baseline_noise_scale():
    t0 = time.time()
    d = Database([5, 5])
    c = QueryClass([[1, 0], [0, 1], [1, 1], [0.5, 0.5]])
    p = PrivacyParams(alpha=2.0)
    truth = c.matrix @ d.entries
    rng = np.random.default_rng(9_000)
    abs_errors = []
    for _ in range(25_000):  # 1e5 noise draws, 4 per call
        abs_errors.append(np.abs(laplace_release(d, c, p, rng) - truth))
    mean_abs = float(np.mean(abs_errors))
    assert mean_abs == pytest.approx(c.k / p.alpha, rel=0.02)
    _finish("laplace mean absolute noise equals k/alpha", t0, 30)


def test_10_negative_control_catches_misscaled_exponent(misweighted_law):
    t0 = time.time()
    failures = []
    misweighted_law(2.0)
    for n, m, alpha, rule in SWEEP:
        cert = privacy_ratio_certificate(n, ENTRY_CAP, CLASSES[n], PrivacyParams(alpha), m, rule)
        if not cert.passed:
            failures.append((n, m, alpha, rule.value, cert.max_ratio))
    assert failures, "doubled-score control passed everywhere; certifier is vacuous"
    _finish("negative control fails the certificate", t0, 60)

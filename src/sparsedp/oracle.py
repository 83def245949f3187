"""Brute-force verification tools.

Everything here re-derives mechanism behaviour from first principles by
exhaustive enumeration: closed-form output distributions over the whole
sparse domain, certified worst-case probability ratios across all neighboring
integer databases on a bounded grid, the same ratios after an arbitrary
post-processing map, and the best achievable surrogate for a given database.

These are the ground truth that the sampling mechanisms are tested against.
They enumerate and score the domain with the exact sampler's enumerator and
batched kernel (``domain_blocks`` and ``score_rows``), so their independence
rests on the tests, which hold that kernel to the per-candidate
``quality_score`` and the best surrogate to ``max_error``.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import Database, QueryClass, SparseSyntheticDatabase, l1_norm
from .mechanisms import (
    BLOCK_ROWS, ExponentRule, PrivacyParams, _check_budget, _check_dimensions, _checked_l1,
    composition_matrix, domain_blocks, exponent_divisor, score_rows, softmax_probabilities,
)

__all__ = [
    "CertificateResult",
    "exact_output_distribution",
    "privacy_ratio_certificate",
    "postprocessing_certificate",
    "best_sparse_db",
]

RATIO_SLACK = 1e-9


def _probability_vector(d, c, p, m, exponent_rule, counts, l1_estimate, score_scale):
    scores = score_rows(d, c, counts, l1_estimate, m)
    logits = float(score_scale) * scores * p.alpha / exponent_divisor(exponent_rule, m)
    return softmax_probabilities(logits)


def exact_output_distribution(
    d: Database,
    c: QueryClass,
    p: PrivacyParams,
    m: int,
    exponent_rule: ExponentRule = ExponentRule.PAPER_QUARTER,
    *,
    l1_estimate: float | None = None,
    budget: int | None = None,
    score_scale: float = 1.0,
) -> list[tuple[SparseSyntheticDatabase, float]]:
    """Closed-form output distribution of the exact release mechanism, in the
    domain's enumeration order.  ``l1_estimate=None`` means the public true
    norm.  ``score_scale`` is a fault-injection knob for certifier tests
    (scale != 1 deliberately mis-weights the scores)."""
    _check_dimensions(c, d.n)
    l1 = l1_norm(d) if l1_estimate is None else _checked_l1(l1_estimate)
    counts = composition_matrix(d.n, m, budget=budget)
    probs = _probability_vector(d, c, p, m, exponent_rule, counts, l1, score_scale)
    return [(SparseSyntheticDatabase(row), float(prob)) for row, prob in zip(counts, probs)]


@dataclass(frozen=True)
class CertificateResult:
    """Worst probability ratio found across every enumerated neighboring pair
    (plus any random real-valued probe pairs), against the e^alpha bound."""

    max_ratio: float
    bound: float
    passed: bool
    witness_pair: tuple[tuple, tuple] | None
    witness_outcome: object | None
    pairs_checked: int
    real_probes: int = 0

    def to_dict(self) -> dict:
        return {
            "max_ratio": self.max_ratio,
            "bound": self.bound,
            "pass": self.passed,
            "witness_pair": (
                [[float(x) for x in pair] for pair in self.witness_pair]
                if self.witness_pair
                else None
            ),
            "witness_outcome": (
                list(self.witness_outcome)
                if isinstance(self.witness_outcome, tuple)
                else self.witness_outcome
            ),
            "pairs_checked": self.pairs_checked,
            "real_probes": self.real_probes,
        }


def _pushforward(probs: np.ndarray, labels: list) -> dict:
    out: dict = {}
    for label, prob in zip(labels, probs):
        out[label] = out.get(label, 0.0) + float(prob)
    return out


def _max_label_ratio(p1: dict, p2: dict):
    worst = 0.0
    witness = None
    for label, a in p1.items():
        b = p2.get(label, 0.0)
        ratio = math.inf if b == 0.0 and a > 0.0 else (1.0 if a == b == 0.0 else a / b)
        if ratio > worst:
            worst, witness = ratio, label
    return worst, witness


def _certificate(
    n: int,
    entry_cap: int,
    c: QueryClass,
    p: PrivacyParams,
    m: int,
    exponent_rule: ExponentRule,
    outcome_map,
    score_scale: float,
    real_probes: int,
    rng,
    budget: int | None,
) -> CertificateResult:
    _check_dimensions(c, n)
    if entry_cap < 1:
        raise ValueError("entry_cap must be at least 1")
    _check_budget(n, m, budget, passes=(entry_cap + 1) ** n)
    counts = composition_matrix(n, m, budget=budget)
    if outcome_map is None:
        labels = [tuple(int(x) for x in row) for row in counts]
    else:
        labels = [outcome_map(SparseSyntheticDatabase(row)) for row in counts]

    def distribution(entries) -> dict:
        d = Database(np.asarray(entries, dtype=np.float64))
        probs = _probability_vector(d, c, p, m, exponent_rule, counts, l1_norm(d), score_scale)
        return _pushforward(probs, labels)

    grid = list(itertools.product(range(entry_cap + 1), repeat=n))
    dists = {point: distribution(point) for point in grid}

    max_ratio, witness_pair, witness_outcome, pairs_checked = 0.0, None, None, 0

    def consider(a, b, dist_a, dist_b):
        """Both orders of one neighboring pair."""
        nonlocal max_ratio, witness_pair, witness_outcome, pairs_checked
        for x, y, dist_x, dist_y in ((a, b, dist_a, dist_b), (b, a, dist_b, dist_a)):
            ratio, label = _max_label_ratio(dist_x, dist_y)
            if ratio > max_ratio:
                max_ratio, witness_outcome = ratio, label
                witness_pair = (tuple(x), tuple(y))
        pairs_checked += 2

    for point in grid:
        for i in range(n):
            if point[i] + 1 <= entry_cap:
                up = point[:i] + (point[i] + 1,) + point[i + 1 :]
                consider(point, up, dists[point], dists[up])

    if real_probes:
        if rng is None:
            raise ValueError("real-valued probes need a generator")
        for _ in range(real_probes):
            a = rng.uniform(0.0, float(entry_cap), size=n)
            i = int(rng.integers(n))
            b = a.copy()
            if a[i] >= 1.0 and rng.random() < 0.5:
                b[i] -= 1.0
            else:
                b[i] += 1.0
            consider(a, b, distribution(a), distribution(b))

    bound = math.exp(p.alpha)
    return CertificateResult(
        max_ratio=float(max_ratio),
        bound=bound,
        passed=max_ratio <= bound + RATIO_SLACK,
        witness_pair=witness_pair,
        witness_outcome=witness_outcome,
        pairs_checked=pairs_checked,
        real_probes=real_probes,
    )


def privacy_ratio_certificate(
    n: int,
    entry_cap: int,
    c: QueryClass,
    p: PrivacyParams,
    m: int,
    exponent_rule: ExponentRule = ExponentRule.PAPER_QUARTER,
    *,
    score_scale: float = 1.0,
    real_probes: int = 0,
    rng=None,
    budget: int | None = None,
) -> CertificateResult:
    """Enumerate every ordered pair of integer databases on the grid
    {0..entry_cap}^n differing by one unit in one coordinate, compute both
    exact output distributions (each at its own public true norm), and report
    the worst outcome-probability ratio.  Optionally also probes random
    real-valued pairs at L1 distance exactly 1, since the privacy definition
    quantifies over real neighbors and the grid alone checks the weaker
    integer reading."""
    return _certificate(
        n, entry_cap, c, p, m, exponent_rule, None, score_scale, real_probes, rng, budget
    )


def postprocessing_certificate(
    g,
    n: int,
    entry_cap: int,
    c: QueryClass,
    p: PrivacyParams,
    m: int,
    exponent_rule: ExponentRule = ExponentRule.PAPER_QUARTER,
    *,
    score_scale: float = 1.0,
    real_probes: int = 0,
    rng=None,
    budget: int | None = None,
) -> CertificateResult:
    """Same sweep as ``privacy_ratio_certificate`` but on the distributions
    pushed forward through a fixed outcome map ``g`` (database-independent
    post-processing cannot worsen the ratio)."""
    return _certificate(
        n, entry_cap, c, p, m, exponent_rule, g, score_scale, real_probes, rng, budget
    )


def best_sparse_db(
    d: Database, c: QueryClass, m: int, *, budget: int | None = None
) -> tuple[SparseSyntheticDatabase, float]:
    """Exhaustively find the surrogate minimizing the rescaled worst-case
    error, and that error divided by ||D||_1.  Exact ties resolve to the
    lexicographically smallest count vector."""
    _check_dimensions(c, d.n)
    _check_budget(d.n, m, budget)
    l1 = l1_norm(d)
    best_error = math.inf
    best_row = None
    for block in domain_blocks(d.n, m, BLOCK_ROWS):
        errors = -score_rows(d, c, block, l1, m)
        idx = int(np.flatnonzero(errors == errors.min())[-1])
        # Enumeration is lex-decreasing, so on exact ties the latest row seen
        # (within a block and across blocks) is the lex-smallest one.
        if errors[idx] <= best_error:
            best_error = float(errors[idx])
            best_row = block[idx].copy()
    return SparseSyntheticDatabase(best_row), float(best_error / l1 if l1 > 0 else 0.0)

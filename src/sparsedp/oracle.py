"""Brute-force verification tools.

Everything here re-derives mechanism behaviour from first principles by
exhaustive enumeration: closed-form output distributions over the whole
sparse domain, certified worst-case probability ratios across all neighboring
integer databases on a bounded grid, the same ratios after an arbitrary
post-processing map, and the best achievable surrogate for a given database.

These are the ground truth that the sampling mechanisms are tested against.
They enumerate the domain with the exact sampler's enumerator
(``domain_blocks``) and weigh it with the law the exact sampler draws from
(``exponential_law`` over the ``score_rows`` kernel), so what they print and
certify is what the sampler runs.  Their independence rests on the
tests, which hold that kernel to the per-candidate ``quality_score``, the
best surrogate to ``max_error`` and the certificates, which score a whole
grid in one batched pass, to a per-point reference.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .core import Database, QueryClass, SparseSyntheticDatabase, _check_dims, l1_norm
from .mechanisms import (
    BLOCK_ROWS, ExponentRule, PrivacyParams, _check_budget, _checked_l1, _exact_law, _safe_exp,
    composition_matrix, domain_blocks, exponential_law, score_rows,
)

__all__ = [
    "CertificateResult",
    "OutputDistribution",
    "exact_output_distribution",
    "privacy_ratio_certificate",
    "postprocessing_certificate",
    "best_sparse_db",
    "best_surrogate",
]

RATIO_SLACK = 1e-9


class OutputDistribution:
    """A (rows, n) count matrix, its probability vector and the
    ``score_rows`` vector the probabilities came from, all three read-only;
    its length is the number of rows."""

    __slots__ = ("counts", "probabilities", "scores")

    def __init__(self, counts: np.ndarray, probabilities: np.ndarray, scores: np.ndarray):
        for array in (counts, probabilities, scores):
            array.setflags(write=False)
        self.counts = counts
        self.probabilities = probabilities
        self.scores = scores

    def __len__(self) -> int:
        return len(self.probabilities)


def exact_output_distribution(
    d: Database,
    c: QueryClass,
    p: PrivacyParams,
    m: int,
    exponent_rule: ExponentRule = ExponentRule.PAPER_QUARTER,
    *,
    l1_estimate: float | None = None,
) -> OutputDistribution:
    """Closed-form output distribution of the exact release mechanism at
    ``p.alpha``, in the domain's enumeration order: the ``_exact_law`` that
    ``exponential_release_exact`` draws from.  ``l1_estimate=None`` means the
    public true norm; at that norm ``best_surrogate`` over the scores it
    keeps is ``best_sparse_db``'s answer."""
    _check_dims(c.n, d.n, "exact_output_distribution: class vs database")
    l1 = l1_norm(d) if l1_estimate is None else _checked_l1(l1_estimate)
    counts = composition_matrix(d.n, m)
    scores, probs = _exact_law(d, c, counts, l1, m, p.alpha, exponent_rule)
    return OutputDistribution(counts, probs, scores)


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


def _certificate(
    n: int,
    entry_cap: int,
    c: QueryClass,
    p: PrivacyParams,
    m: int,
    exponent_rule: ExponentRule,
    outcome_map,
    real_probes: int,
    rng,
) -> CertificateResult:
    _check_dims(c.n, n, "certificate: class vs grid")
    if entry_cap < 1:
        raise ValueError("entry_cap must be at least 1")
    if real_probes < 0:
        raise ValueError(f"real_probes must be nonnegative, got {real_probes}")
    # One pass over the domain per grid point and per probe point.
    _check_budget(n, m, passes=(entry_cap + 1) ** n + 2 * real_probes)
    if real_probes and rng is None:
        raise ValueError("real-valued probes need a generator")
    counts = composition_matrix(n, m)

    # Grid points in product order; the neighbour of a point one unit up on
    # axis i sits stride[i] rows later.  Pairs go by point, then by axis.
    grid = np.array(list(itertools.product(range(entry_cap + 1), repeat=n)))
    stride = (entry_cap + 1) ** np.arange(n - 1, -1, -1)
    lower, axis = np.nonzero(grid < entry_cap)
    upper = lower + stride[axis]

    probes_a, probes_b = [], []
    for _ in range(real_probes):
        a = rng.uniform(0.0, float(entry_cap), size=n)
        i = int(rng.integers(n))
        b = a.copy()
        if a[i] >= 1.0 and rng.random() < 0.5:
            b[i] -= 1.0
        else:
            b[i] += 1.0
        probes_a.append(a)
        probes_b.append(b)
    points = np.vstack([grid.astype(np.float64), *probes_a, *probes_b])
    probe_index = len(grid) + np.arange(real_probes)
    pairs = np.column_stack((
        np.concatenate((lower, probe_index)),
        np.concatenate((upper, probe_index + real_probes)),
    ))

    # Each point's true answers, bit for bit the matvec a Database gets.
    true_answers = (c.matrix @ points[:, :, None])[:, :, 0]
    l1s = points.sum(axis=1)
    dist = exponential_law(score_rows(c, counts, true_answers, l1s, m), m, p.alpha, exponent_rule)
    if outcome_map is None:
        labels = None
    else:
        # Each label's probability is the sum over its rows in row order.
        index: dict = {}
        label_of_row = [
            index.setdefault(outcome_map(SparseSyntheticDatabase(row)), len(index)) for row in counts
        ]
        pushed = np.zeros((len(index), len(points)))
        np.add.at(pushed, label_of_row, dist.T)
        dist, labels = pushed.T, list(index)

    # Both orders of every pair; a ratio is inf when only its denominator is
    # 0 and 1 when both are.  The first maximum in (pair, order, label) order
    # is the witness.
    x, y = dist[pairs], dist[pairs[:, ::-1]]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where((x == 0.0) & (y == 0.0), 1.0, x / y)
    pair, order, label = np.unravel_index(int(np.argmax(ratios)), ratios.shape)
    max_ratio = float(ratios[pair, order, label])
    witness = pairs[pair] if order == 0 else pairs[pair, ::-1]

    bound = _safe_exp(p.alpha)
    return CertificateResult(
        max_ratio=max_ratio,
        bound=bound,
        passed=max_ratio <= bound + RATIO_SLACK,
        witness_pair=tuple(
            tuple((grid[i] if i < len(grid) else points[i]).tolist()) for i in witness
        ),
        witness_outcome=tuple(counts[label].tolist()) if labels is None else labels[label],
        pairs_checked=2 * len(pairs),
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
    real_probes: int = 0,
    rng=None,
) -> CertificateResult:
    """Enumerate every ordered pair of integer databases on the grid
    {0..entry_cap}^n differing by one unit in one coordinate, compute both
    exact output distributions (each at its own public true norm), and report
    the worst outcome-probability ratio.  Optionally also probes random
    real-valued pairs at L1 distance exactly 1, since the privacy definition
    quantifies over real neighbors and the grid alone checks the weaker
    integer reading."""
    return _certificate(n, entry_cap, c, p, m, exponent_rule, None, real_probes, rng)


def postprocessing_certificate(
    g,
    n: int,
    entry_cap: int,
    c: QueryClass,
    p: PrivacyParams,
    m: int,
    exponent_rule: ExponentRule = ExponentRule.PAPER_QUARTER,
    *,
    real_probes: int = 0,
    rng=None,
) -> CertificateResult:
    """Same sweep as ``privacy_ratio_certificate`` but on the distributions
    pushed forward through a fixed outcome map ``g`` (database-independent
    post-processing cannot worsen the ratio)."""
    return _certificate(n, entry_cap, c, p, m, exponent_rule, g, real_probes, rng)


def _best_row(scores: np.ndarray) -> int:
    """The index of the smallest error, that is of the largest score.  Exact
    ties go to the last row: in enumeration order, which is lex-decreasing,
    that is the lex-smallest count vector."""
    return int(np.flatnonzero(scores == scores.max())[-1])


def best_surrogate(
    counts: np.ndarray, scores: np.ndarray, l1: float
) -> tuple[SparseSyntheticDatabase, float]:
    """The best row of ``counts`` by ``best_sparse_db``'s rule, given its
    ``score_rows`` ``scores`` at the true norm ``l1``, and its error divided
    by ``l1`` (0 when ``l1`` is 0)."""
    best = _best_row(scores)
    return SparseSyntheticDatabase(counts[best]), float(-scores[best] / l1 if l1 > 0 else 0.0)


def best_sparse_db(
    d: Database, c: QueryClass, m: int
) -> tuple[SparseSyntheticDatabase, float]:
    """Exhaustively find the surrogate minimizing the rescaled worst-case
    error, and that error divided by ||D||_1.  Exact ties resolve to the
    lexicographically smallest count vector.  The domain is scored a block
    at a time, and the same rule picks among the blocks' best rows."""
    _check_dims(c.n, d.n, "best_sparse_db: class vs database")
    _check_budget(d.n, m)
    l1 = l1_norm(d)
    true_answers = (c.matrix @ d.entries)[None]
    rows, scores = [], []
    for block in domain_blocks(d.n, m, BLOCK_ROWS):
        block_scores = score_rows(c, block, true_answers, [l1], m)[0]
        best = _best_row(block_scores)
        rows.append(block[best].copy())
        scores.append(block_scores[best])
    return best_surrogate(np.array(rows), np.array(scores), l1)

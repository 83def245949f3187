"""Brute-force verification tools.

Everything here re-derives mechanism behaviour from first principles by
exhaustive enumeration: closed-form output distributions over the whole
sparse domain, certified worst-case probability ratios across all neighboring
integer databases on a bounded grid, the same ratios after an arbitrary
post-processing map, and the best achievable surrogate for a given database.

These are the ground truth the samplers are tested against.  They take the
domain from the exact sampler's domain memo (``composition_matrix``;
``best_sparse_db`` streams ``domain_blocks``) and weigh it with the law the
exact sampler draws from (``_laws``: ``exponential_law`` over the
``score_rows`` kernel), so what they print and certify is what it runs.  A
certificate is three steps: its points and neighbouring pairs
(``_neighbours``), every point's law as one ``_laws`` batch and the ratio
scan (``_scan``); the post-processing certificate pushes the law through its
map before the scan.  Each refuses in the exact sampler's order: dimensions,
then a value that is not an ``ExponentRule``, then the budget, and only then
reads the domain.  Their independence rests on the tests, which hold that
kernel to the per-candidate ``quality_score``, the best surrogate to
``max_error`` and the certificates to a per-point reference.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import Database, QueryClass, SparseSyntheticDatabase, _check_dims, l1_norm
from .mechanisms import (
    BLOCK_ROWS, ExponentRule, PrivacyParams, _check_budget, _laws, _resolve_l1, _safe_exp,
    composition_matrix, domain_blocks, exponent_divisor, score_rows,
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
    l1="public",
) -> OutputDistribution:
    """Closed-form output distribution of the exact release mechanism at
    ``p.alpha``, in the domain's enumeration order: the ``_laws`` row that
    ``exponential_release_exact`` draws from.  ``l1`` is the samplers'
    "public" (the true norm) or a number; "private" is refused, since the
    oracle draws nothing.  At the public norm ``best_surrogate`` over the
    scores it keeps is ``best_sparse_db``'s answer.  A value that is not an
    ``ExponentRule``, then the L1 setting, are refused before the domain is
    read."""
    _check_dims(c.n, d.n, "exact_output_distribution: class vs database")
    exponent_divisor(exponent_rule, m)
    l1_estimate = _resolve_l1(d, p, l1, None)[0]
    counts = composition_matrix(d.n, m)
    scores, laws = _laws(c, counts, d.entries[None], [l1_estimate], m, p.alpha, exponent_rule)
    return OutputDistribution(counts, laws[0], scores[0])


@dataclass(frozen=True)
class CertificateResult:
    """Worst probability ratio found across every enumerated neighboring pair
    (plus any random real-valued probe pairs, single-axis and split alike),
    against the e^alpha bound; ``pairs_checked`` counts both orders of each."""

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


def _probe_pairs(rng, n: int, entry_cap: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` real neighbouring pairs (a, b) as two (count, n) arrays, from
    five whole-array draws of ``rng`` in this order: a uniform in
    [0, entry_cap]^n; an axis per pair; a split coin per pair; weights in
    (0, 1], normalised per row, or the axis's one-hot where the coin said
    not to split; a down coin per coordinate, heeded only where a is at
    least its weight.  So b = a +- w >= 0 with ||w||_1 = 1 up to rounding."""
    a = rng.uniform(0.0, float(entry_cap), size=(count, n))
    axis = rng.integers(n, size=count)
    split = rng.random(count) < 0.5
    w = 1.0 - rng.random((count, n))
    w /= w.sum(axis=1, keepdims=True)
    w[~split] = 0.0
    w[~split, axis[~split]] = 1.0
    down = (rng.random((count, n)) < 0.5) & (a >= w)
    return a, a + np.where(down, -w, w)


def _neighbours(n: int, entry_cap: int, c: QueryClass, m: int, rule, real_probes: int, rng) -> tuple:
    """A certificate's checks, then the domain's rows, the integer grid
    {0..entry_cap}^n in product order, every point (the grid, then every
    probe's a, then every probe's b) as one float array, and each
    neighbouring pair as two indices into it."""
    _check_dims(c.n, n, "certificate: class vs grid")
    exponent_divisor(rule, m)
    if entry_cap < 1:
        raise ValueError("entry_cap must be at least 1")
    if real_probes < 0:
        raise ValueError(f"real_probes must be nonnegative, got {real_probes}")
    # One pass over the domain per grid point and per probe point.
    g = (entry_cap + 1) ** n
    _check_budget(n, m, g + 2 * real_probes, f" ({g} grid points plus 2 x {real_probes} probes)")
    if real_probes and rng is None:
        raise ValueError("real-valued probes need a generator")
    counts = composition_matrix(n, m)

    # The neighbour of a grid point one unit up on axis i sits stride[i]
    # rows later.  Pairs go by point, then by axis, then come the probes.
    grid = np.indices((entry_cap + 1,) * n).reshape(n, -1).T
    stride = (entry_cap + 1) ** np.arange(n - 1, -1, -1)
    lower, axis = np.nonzero(grid < entry_cap)
    upper = lower + stride[axis]
    points = np.empty((g + 2 * real_probes, n))
    points[:g] = grid
    if real_probes:
        a, b = _probe_pairs(rng, n, entry_cap, real_probes)
        points[g : g + real_probes], points[g + real_probes :] = a, b
    probe_index = g + np.arange(real_probes)
    pairs = np.column_stack((
        np.concatenate((lower, probe_index)),
        np.concatenate((upper, probe_index + real_probes)),
    ))
    return counts, grid, points, pairs


def _scan(law: np.ndarray, grid, points, pairs, alpha: float, outcome) -> CertificateResult:
    """The worst ratio of ``law`` over both orders of every pair and every
    outcome column, against e^alpha; ``outcome(column)`` names the witness.

    Both orders come from one gather and its reversal.  A ratio is inf when
    only its denominator is 0, and 1 when both are: only 0/0 gives NaN, and
    only in a law with an exact zero.  The first maximum in (pair, order,
    column) order is the witness."""
    x = law[pairs]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = x / x[:, ::-1]
    if not law.all():
        ratios[np.isnan(ratios)] = 1.0
    pair, order, column = np.unravel_index(int(np.argmax(ratios)), ratios.shape)
    max_ratio = float(ratios[pair, order, column])
    witness = pairs[pair] if order == 0 else pairs[pair, ::-1]
    # alpha is finite, so an infinite ratio breaks e^alpha even where the
    # bound itself overflows to inf.
    bound = _safe_exp(alpha)
    return CertificateResult(
        max_ratio=max_ratio,
        bound=bound,
        passed=math.isfinite(max_ratio) and max_ratio <= bound + RATIO_SLACK,
        witness_pair=tuple(tuple((grid[i] if i < len(grid) else points[i]).tolist()) for i in witness),
        witness_outcome=outcome(column),
        pairs_checked=2 * len(pairs),
        real_probes=(len(points) - len(grid)) // 2,
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
    the worst outcome-probability ratio, its outcome named by its count row.
    Optionally also probes random real-valued pairs at L1 distance 1, since
    the privacy definition quantifies over real neighbors and the grid alone
    checks the weaker integer reading: about half move one coordinate by
    exactly 1 and the rest split the unit over every coordinate
    (``_probe_pairs``).  They take five draws from ``rng`` however many there
    are, after the budget check, which counts each as two passes."""
    counts, grid, points, pairs = _neighbours(n, entry_cap, c, m, exponent_rule, real_probes, rng)
    law = _laws(c, counts, points, points.sum(axis=1), m, p.alpha, exponent_rule)[1]
    return _scan(law, grid, points, pairs, p.alpha, lambda row: tuple(counts[row].tolist()))


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
    post-processing cannot worsen the ratio), its outcome named by its
    label.  Each label's probability is the sum over its rows in row order."""
    counts, grid, points, pairs = _neighbours(n, entry_cap, c, m, exponent_rule, real_probes, rng)
    law = _laws(c, counts, points, points.sum(axis=1), m, p.alpha, exponent_rule)[1]
    index: dict = {}
    label_of_row = [index.setdefault(g(SparseSyntheticDatabase(row)), len(index)) for row in counts]
    pushed = np.zeros((len(index), len(points)))
    np.add.at(pushed, label_of_row, law.T)
    return _scan(pushed.T, grid, points, pairs, p.alpha, list(index).__getitem__)


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

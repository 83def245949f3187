"""Private release mechanisms.

The centrepiece samples a sparse integer surrogate database from the finite
domain ``{D' in N^n : ||D'||_1 = m}`` with probability proportional to
``exp(score * alpha / divisor)``, where the quality score of a candidate is
the negated worst-case rescaled query error.  Two divisor rules are provided:

* ``PAPER_QUARTER`` — the literal constant 4.  Valid because the score's
  sensitivity under a unit L1 change is at most ``1 + 1/m <= 2``.
* ``TIGHT_SENSITIVITY`` — ``2 * (1 + 1/m)``, the generic exponential-weight
  divisor instantiated with the actual sensitivity bound.

Both rules preserve alpha-differential privacy; the looser quarter rule is
the default.

A Metropolis chain over the same domain provides a scalable stand-in for the
exact sampler (same stationary distribution; its privacy guarantee holds only
in the mixing limit), and a Laplace baseline answers the queries directly with
per-query noise scale ``k / alpha``.

All randomness flows through explicitly passed ``numpy.random.Generator``
instances; Laplace noise is drawn by inverse CDF from the generator's
uniforms so every experiment is reproducible bit-for-bit per seed.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import config
from .core import (
    Database,
    DomainTooLargeError,
    QueryClass,
    SparseSyntheticDatabase,
    _check_dims,
    l1_norm,
    rescale,
)

__all__ = [
    "ExponentRule",
    "PrivacyParams",
    "ReleaseOutput",
    "domain_size",
    "sparse_domain",
    "domain_blocks",
    "composition_matrix",
    "quality_score",
    "score_rows",
    "score_sensitivity",
    "exponent_divisor",
    "exponential_law",
    "exponential_release_exact",
    "ExactLawTable",
    "exponential_release_mcmc",
    "mcmc_state_counts",
    "acceptance_probability",
    "laplace_noise",
    "laplace_release",
    "estimate_l1",
    "utility_threshold",
]


class ExponentRule(enum.Enum):
    PAPER_QUARTER = "paper"
    TIGHT_SENSITIVITY = "tight"


@dataclass(frozen=True)
class PrivacyParams:
    """alpha: differential-privacy parameter."""

    alpha: float

    def __post_init__(self):
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")


@dataclass(frozen=True)
class ReleaseOutput:
    """A released surrogate: the integer vector actually sampled, its quality
    score (always <= 0), and the rescaled real-valued database handed to the
    analyst.  ``approximate`` marks MCMC outputs, whose privacy guarantee
    holds only in the mixing limit."""

    d_out: Database
    d_prime: SparseSyntheticDatabase
    score: float
    m: int
    exponent_rule: ExponentRule
    l1_estimate: float
    approximate: bool = False

    def answers(self, c: QueryClass) -> np.ndarray:
        _check_dims(c.n, self.d_out.n, "ReleaseOutput.answers: class vs release")
        return c.matrix @ self.d_out.entries


def domain_size(n: int, m: int) -> int:
    """Number of length-n nonnegative integer vectors summing to m."""
    if n < 1 or m < 0:
        raise ValueError("domain requires n >= 1 and m >= 0")
    return math.comb(n + m - 1, n - 1)


# Rows per block of a domain enumerated in pieces, and cells (rows x queries)
# per slice of the scoring kernel, whose two reused buffers (256 KB each)
# fit in L2: a pass holds a few MB at any domain size.
BLOCK_ROWS = 1 << 18
SCORE_SLICE_CELLS = 1 << 15


def _check_budget(n: int, m: int, passes: int = 1) -> int:
    """The one enumeration-budget check: ``passes`` passes over the sparse
    domain of (n, m) must fit the budget.  Returns the domain size."""
    count = domain_size(n, m)
    limit = config.domain_budget()
    if passes * count > limit:
        scored = f", scored {passes} times," if passes > 1 else ""
        raise DomainTooLargeError(
            f"sparse domain for n={n}, m={m} holds {count} elements{scored} over the "
            f"budget of {limit}; exponential_release_mcmc samples without enumerating it",
            count=passes * count,
        )
    return count


def domain_blocks(n: int, m: int, max_rows: int | None = None):
    """The domain of ``sparse_domain``, in its order, as consecutive int64
    blocks of at most ``max_rows`` rows (one block when None), with no budget
    check.  The domain is a tree of prefixes: a prefix that leaves rem of m
    has children ending in rem..0.  A prefix set whose completions fit a
    block is completed in one (rows, n) array, each column written once as
    its level's node values repeated by their completion counts.  One that
    overflows is split in half, or, if it is one prefix, grown one level
    first."""
    domain_size(n, m)
    # fill[w - 1, r]: ways to fill w more columns with total r.
    fill = np.array([[math.comb(r + w - 1, r) for r in range(m + 1)] for w in range(1, n + 1)])

    def children(rem):
        """Each node's children in order: their parents, and the rem each leaves."""
        reps = rem + 1
        parent = np.repeat(np.arange(rem.size), reps)
        left = np.arange(parent.size) - np.repeat(np.cumsum(reps) - reps, reps)
        return parent, left

    def grow(prefix, rem):
        parent, left = children(rem)
        return np.column_stack((prefix[parent], rem[parent] - left)), left

    def complete(prefix, rem):
        repeats = fill[n - prefix.shape[1] - 1, rem]
        block = np.empty((int(repeats.sum()), n), dtype=np.int64)
        for column in range(prefix.shape[1]):
            block[:, column] = np.repeat(prefix[:, column], repeats)
        for column in range(prefix.shape[1], n - 1):
            parent, left = children(rem)
            values = rem[parent] - left
            # A node has fill[n - column - 2, left] completions: one in the
            # next-to-last column.
            if column < n - 2:
                values = np.repeat(values, fill[n - column - 2, left])
            block[:, column] = values
            rem = left
        block[:, n - 1] = rem
        return block

    def blocks(prefix, rem):
        width = n - prefix.shape[1]
        if max_rows is None or fill[width - 1, rem].sum() <= max_rows:
            yield complete(prefix, rem)
        elif rem.size > 1:
            half = rem.size // 2
            yield from blocks(prefix[:half], rem[:half])
            yield from blocks(prefix[half:], rem[half:])
        else:
            yield from blocks(*grow(prefix, rem))

    yield from blocks(np.empty((1, 0), dtype=np.int64), np.array([m], dtype=np.int64))


def sparse_domain(n: int, m: int):
    """Every nonnegative integer vector of length n summing to m, exactly
    once, in lexicographically decreasing order.  Refuses with the count when
    the domain exceeds the enumeration budget."""
    if m < 1:
        raise ValueError("sparse domain requires m >= 1")
    _check_budget(n, m)
    blocks = domain_blocks(n, m, BLOCK_ROWS)
    return (SparseSyntheticDatabase(row) for block in blocks for row in block)


def composition_matrix(n: int, m: int) -> np.ndarray:
    """The same enumeration as ``sparse_domain`` as one (count, n) int matrix."""
    _check_budget(n, m)
    return next(domain_blocks(n, m))


def quality_score(
    d: Database, dp: SparseSyntheticDatabase, c: QueryClass, l1_estimate: float
) -> float:
    """Negated worst-case error of the rescaled candidate:
    -max over q in C of |q(D) - (l1_estimate / m) * q(D')|."""
    _check_dims(c.n, d.n, "quality_score: class vs database")
    _check_dims(c.n, dp.n, "quality_score: class vs candidate")
    scalewd = (_checked_l1(l1_estimate) / dp.m) * (c.matrix @ dp.counts)
    return float(-np.abs(c.matrix @ d.entries - scalewd).max())


def score_rows(
    c: QueryClass, counts: np.ndarray, true_answers, l1_estimates, m: int
) -> np.ndarray:
    """``quality_score`` of every row of ``counts`` (each summing to m) for a
    batch of B databases, given their true answers (B x k) and L1 estimates
    (B,): a (B, rows) matrix.

    The rows go in slices of about ``SCORE_SLICE_CELLS / k`` rows, and the
    batch in groups that keep a slice's pass near ``SCORE_SLICE_CELLS``
    cells; two buffers made once per call serve every slice and group.  A
    slice's candidate answers are one matmul into a (rows, k) buffer; each
    group's errors are then worked in place in a query-major (group, k,
    rows) buffer, so the maximum over queries is an elementwise maximum of k
    row vectors.  A slice has at least two rows, the last one taking the row
    before it when one is left over, because a one-row matmul goes through
    BLAS's matrix-vector path, which can round differently.  So the scores
    are bit for bit those of one matmul over all rows, and agree with
    ``quality_score`` to rounding only: a matmul may round differently in
    the last bit."""
    if m < 1:
        raise ValueError("m must be at least 1")
    true_answers = np.asarray(true_answers, dtype=np.float64)[:, :, None]
    factors = np.asarray(l1_estimates, dtype=np.float64)[:, None, None] / m
    rows, k = counts.shape[0], c.k
    step = max(2, SCORE_SLICE_CELLS // k)
    span = max(1, min(step, rows))
    group = max(1, SCORE_SLICE_CELLS // (span * k))
    scores = np.empty((len(factors), rows))
    answers = np.empty(span * k)
    work = np.empty(min(group, len(factors)) * k * span)
    for start in range(0, rows, step):
        start = max(0, min(start, rows - 2))
        piece = counts[start : start + step]
        size = len(piece)
        piece_answers = answers[: size * k].reshape(size, k)
        np.matmul(piece, c.matrix.T, out=piece_answers)
        for first in range(0, len(factors), group):
            last = min(first + group, len(factors))
            errors = work[: (last - first) * k * size].reshape(last - first, k, size)
            np.multiply(factors[first:last], piece_answers.T, out=errors)
            np.subtract(true_answers[first:last], errors, out=errors)
            np.abs(errors, out=errors)
            np.maximum.reduce(errors, axis=1, out=scores[first:last, start : start + size])
    return np.negative(scores, out=scores)


def score_sensitivity(m: int) -> float:
    """Upper bound on the quality score's change under a unit L1 change of
    the private database: 1 + 1/m."""
    if m < 1:
        raise ValueError("m must be at least 1")
    return 1.0 + 1.0 / m


def exponent_divisor(rule: ExponentRule, m: int) -> float:
    if rule is ExponentRule.PAPER_QUARTER:
        return 4.0
    return 2.0 * score_sensitivity(m)


def _safe_exp(x: float) -> float:
    """``math.exp``, reading inf where it overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def exponential_law(
    scores: np.ndarray, m: int, alpha: float, exponent_rule: ExponentRule
) -> np.ndarray:
    """The one map from scores to the exponential-weight law: the softmax of
    ``scores * alpha / exponent_divisor(exponent_rule, m)`` along the last
    axis, in log space (each row's largest logit subtracted first).  A logit
    that overflows to -inf is a zero weight; a row whose largest one does
    has no law, and is refused."""
    with np.errstate(over="ignore"):
        logits = np.multiply(scores, alpha, dtype=np.float64)
    logits /= exponent_divisor(exponent_rule, m)
    top = logits.max(axis=-1, keepdims=True)
    if (top == -np.inf).any():
        raise ValueError(f"alpha={alpha} overflows every exponential weight of a database")
    logits -= top
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits


def _exact_law(d, c, counts, l1_estimate, m, alpha, exponent_rule):
    """The exact law of one database over ``counts``: its ``score_rows`` at
    ``l1_estimate`` and their ``exponential_law`` at ``alpha``, as (scores,
    law).  The exact sampler draws from the law and the oracle prints it."""
    scores = score_rows(c, counts, (c.matrix @ d.entries)[None], [l1_estimate], m)
    return scores[0], exponential_law(scores, m, alpha, exponent_rule)[0]


def _resolve_l1(
    d: Database, p: PrivacyParams, l1, rng: np.random.Generator | None
) -> tuple[float, float]:
    """Resolve the L1-norm configuration into (estimate, alpha for weights).

    "public" uses the true norm at full alpha; "private" spends a 10% share
    of alpha on a Laplace estimate of the norm and runs the weights at the
    remaining 90%; a number is a caller-supplied estimate at full alpha.
    """
    if isinstance(l1, str):
        if l1 == "public":
            return l1_norm(d), p.alpha
        if l1 == "private":
            if rng is None:
                raise ValueError("private L1 estimation needs a generator")
            share = config.L1_ESTIMATE_ALPHA_SHARE
            return estimate_l1(d, share * p.alpha, rng), (1.0 - share) * p.alpha
        raise ValueError(f"l1 must be 'public', 'private', or a number, got {l1!r}")
    return _checked_l1(l1), p.alpha


def _checked_l1(value) -> float:
    """A caller-supplied L1 estimate, refused unless finite and nonnegative."""
    value = float(value)
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"caller-supplied L1 estimate must be finite and nonnegative, got {value}")
    return value


def _release(d, c, counts, m, exponent_rule, l1_estimate, approximate=False) -> ReleaseOutput:
    """Release surrogate ``counts`` rescaled onto the L1 estimate, with its ``quality_score``."""
    chosen = SparseSyntheticDatabase(counts)
    return ReleaseOutput(
        d_out=rescale(chosen, l1_estimate),
        d_prime=chosen,
        score=quality_score(d, chosen, c, l1_estimate),
        m=m,
        exponent_rule=exponent_rule,
        l1_estimate=l1_estimate,
        approximate=approximate,
    )


def exponential_release_exact(
    d: Database,
    c: QueryClass,
    p: PrivacyParams,
    m: int,
    rng: np.random.Generator,
    exponent_rule: ExponentRule = ExponentRule.PAPER_QUARTER,
    *,
    l1="public",
    laws: "ExactLawTable | None" = None,
) -> ReleaseOutput:
    """Draw one uniform against the cumulative ``_exact_law`` of the whole
    domain at the alpha left for the weights (0.9 alpha under
    "private"): the law ``exact_output_distribution`` returns for that alpha
    and L1 estimate, bit for bit.  Meant for desk-scale domains; refuses over the
    enumeration budget and names the MCMC fallback.  The reported score is
    ``quality_score`` of the drawn row, exactly.

    ``laws``, an ``ExactLawTable`` holding ``d``, keeps the domain and its
    databases' laws and releases.  The release is the same, and reads the
    generator the same way, with or without it."""
    _check_dims(c.n, d.n, "exponential_release_exact: class vs database")
    if laws is not None:
        if not isinstance(laws, ExactLawTable):
            raise TypeError(f"laws must be an ExactLawTable, got {type(laws).__name__}")
        return laws._draw_release(d, c, p, m, rng, exponent_rule, l1)
    if m < 1:
        raise ValueError("m must be at least 1")
    counts = composition_matrix(d.n, m)
    l1_estimate, alpha = _resolve_l1(d, p, l1, rng)
    cumulative = np.cumsum(_exact_law(d, c, counts, l1_estimate, m, alpha, exponent_rule)[1])
    idx = _draw(cumulative, rng.random())
    return _release(d, c, counts[idx], m, exponent_rule, l1_estimate)


def _draw(cumulative: np.ndarray, u: float) -> int:
    """The one exact draw: the first row whose cumulative probability exceeds
    the uniform ``u``, or the last row when rounding left the total below it."""
    return min(int(cumulative.searchsorted(u, "right")), len(cumulative) - 1)


class ExactLawTable:
    """The prepared exact sampler of a fixed set of databases: it enumerates
    the domain of (c.n, m) once, as the read-only ``counts`` (refusing m < 1
    and, as ``composition_matrix`` does, a domain over the budget), and keeps
    each database's cumulative law and each release drawn from it.  It is
    built for one class, alpha, m and rule, and releases only at the public
    L1 norm.

    A database's law is computed on its first release, by the per-call
    sampler's own ``_exact_law``, and the ``ReleaseOutput`` of a
    (database, row) pair on its first draw; later releases only draw one
    uniform.  A release is therefore the one the per-call sampler makes
    from the same generator, which it leaves in the same state.  A database
    is known by its entries; one not in the table is refused, as are a
    different class, alpha, m or rule and a non-public ``l1``, all before
    the generator is read.

    Each kept law is the size of a pass over ``counts``, so a law (and the
    releases drawn from it) is kept only while the kept laws and the new
    one fit the domain budget as passes.  A database whose law does not
    fit is released the per-call way, every time."""

    def __init__(
        self, databases, c: QueryClass, p: PrivacyParams, m: int, exponent_rule: ExponentRule
    ):
        if m < 1:
            raise ValueError("sparse domain requires m >= 1")
        self._counts = composition_matrix(c.n, m)
        self._counts.setflags(write=False)
        databases = tuple(databases)
        for d in databases:
            _check_dims(c.n, d.n, "ExactLawTable: class vs database")
        self.c, self.alpha, self.m, self.exponent_rule = c, p.alpha, m, exponent_rule
        self._index = {d.entries.tobytes(): s for s, d in enumerate(databases)}
        self._l1 = [l1_norm(d) for d in databases]
        self._cumulative: list[np.ndarray | None] = [None] * len(databases)
        self._kept = 0
        self._releases: dict[tuple[int, int], ReleaseOutput] = {}

    @property
    def counts(self) -> np.ndarray:
        return self._counts

    def _draw_release(self, d, c, p, m, rng, exponent_rule, l1) -> ReleaseOutput:
        if m != self.m:
            raise ValueError(f"ExactLawTable: built for m={self.m}, but m={m} was given")
        if (c is not self.c and not np.array_equal(c.matrix, self.c.matrix)) or (
            p.alpha != self.alpha or exponent_rule != self.exponent_rule
        ):
            raise ValueError("ExactLawTable: built for another class, alpha or exponent rule")
        if not (isinstance(l1, str) and l1 == "public"):
            raise ValueError(f"ExactLawTable: keeps laws at the public L1 norm, got l1={l1!r}")
        s = self._index.get(d.entries.tobytes())
        if s is None:
            raise ValueError("ExactLawTable: the database is not one of the table's")
        counts = self._counts
        cumulative = self._cumulative[s]
        if cumulative is None:
            law = _exact_law(d, c, counts, self._l1[s], self.m, self.alpha, exponent_rule)[1]
            cumulative = np.cumsum(law)
            if (self._kept + 1) * len(counts) <= config.domain_budget():
                self._cumulative[s] = cumulative
                self._kept += 1
        idx = _draw(cumulative, rng.random())
        if self._cumulative[s] is None:
            return _release(d, c, counts[idx], self.m, exponent_rule, self._l1[s])
        out = self._releases.get((s, idx))
        if out is None:
            out = self._releases[s, idx] = _release(
                d, c, counts[idx], self.m, exponent_rule, self._l1[s]
            )
        return out


def acceptance_probability(score_from: float, score_to: float, scale: float) -> float:
    """Metropolis acceptance for a symmetric proposal between two states with
    the given exponential-weight scale (= alpha / divisor)."""
    delta = scale * (score_to - score_from)
    if delta >= 0.0:
        return 1.0
    return math.exp(delta)


# Proposals the Metropolis chain draws at once.
CHAIN_BLOCK = 4096


def _chain(d, c, p, m, steps, rng, exponent_rule, l1, record):
    """Shared Metropolis walk.  Proposals move one unit of mass from a
    uniformly chosen coordinate to a uniformly chosen other coordinate, which
    is symmetric, so the stationary law is the exact mechanism's.

    After the L1 estimate, proposals are drawn in blocks of ``CHAIN_BLOCK``
    steps: all sources, then all destinations, then one uniform per step,
    void steps (an empty source, or n = 1) included.  The walk keeps the
    residual ``C @ D - (l1_estimate / m) * (C @ state)`` and updates it by
    two precomputed scaled columns per proposal, as ``(resid + col_i) -
    col_j``, so its running score may differ from ``quality_score`` in the
    last bits.  A step allocates nothing: it writes the candidate into the
    second of two buffers, which trade places on acceptance, and scores it
    by the magnitude at ``argmax`` (the maximum, NaN included: ``argmax``
    stops at the first NaN).  Returns the final state (a list), the L1
    estimate and the occupation counts of the steps from ``record`` on (none
    when ``record`` is None)."""
    if m < 1:
        raise ValueError("m must be at least 1")
    _check_dims(c.n, d.n, "Metropolis chain: class vs database")
    n = d.n
    l1_estimate, alpha = _resolve_l1(d, p, l1, rng)
    scale = alpha / exponent_divisor(exponent_rule, m)
    factor = float(l1_estimate) / m
    state = [0] * n
    state[0] = m
    cols = list(np.ascontiguousarray(factor * c.matrix.T))
    resid = c.matrix @ d.entries - factor * (c.matrix @ np.array(state))
    current = float(-abs(resid).max())
    trial = np.empty_like(resid)
    magnitude = np.empty_like(resid)
    add, subtract, absolute = np.add, np.subtract, np.absolute
    first_recorded = steps if record is None else record
    counts: dict[tuple, int] = {}
    for start in range(0, steps, CHAIN_BLOCK):
        size = min(CHAIN_BLOCK, steps - start)
        if n > 1:
            src = rng.integers(n, size=size)
            dst = rng.integers(n - 1, size=size)
            dst += dst >= src
        else:
            src = dst = np.zeros(size, dtype=np.int64)
        uniforms = rng.random(size)
        for step, i, j, u in zip(
            range(start, start + size), src.tolist(), dst.tolist(), uniforms.tolist()
        ):
            if state[i] and i != j:
                add(resid, cols[i], trial)
                subtract(trial, cols[j], trial)
                absolute(trial, magnitude)
                candidate = -magnitude.item(magnitude.argmax())
                if acceptance_probability(current, candidate, scale) > u:
                    state[i] -= 1
                    state[j] += 1
                    resid, trial = trial, resid
                    current = candidate
            if step >= first_recorded:
                key = tuple(state)
                counts[key] = counts.get(key, 0) + 1
    return state, l1_estimate, counts


def exponential_release_mcmc(
    d: Database,
    c: QueryClass,
    p: PrivacyParams,
    m: int,
    steps: int,
    rng: np.random.Generator,
    exponent_rule: ExponentRule = ExponentRule.PAPER_QUARTER,
    *,
    l1="public",
) -> ReleaseOutput:
    """Approximate sampler: run the Metropolis walk for ``steps`` moves from
    the all-mass-on-coordinate-0 state and release where it lands.  The
    reported score is ``quality_score`` of the released row, exactly."""
    if steps < 1:
        raise ValueError("steps must be at least 1")
    state, l1_estimate, _ = _chain(d, c, p, m, steps, rng, exponent_rule, l1, None)
    return _release(d, c, state, m, exponent_rule, l1_estimate, approximate=True)


def mcmc_state_counts(
    d: Database,
    c: QueryClass,
    p: PrivacyParams,
    m: int,
    burn_in: int,
    samples: int,
    rng: np.random.Generator,
    exponent_rule: ExponentRule = ExponentRule.PAPER_QUARTER,
    *,
    l1="public",
) -> dict[tuple, int]:
    """Occupation counts of one walk over ``samples`` post-burn-in steps;
    the empirical distribution these induce converges to the exact one."""
    if burn_in < 0 or samples < 1:
        raise ValueError("burn_in must be >= 0 and samples >= 1")
    _, _, counts = _chain(
        d, c, p, m, burn_in + samples, rng, exponent_rule, l1, record=burn_in
    )
    return counts


def _check_positive(name: str, value) -> None:
    """Refuse ``value`` unless finite and positive, naming the parameter."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


def laplace_noise(rng: np.random.Generator, scale: float, size=None):
    """Laplace(scale) noise via inverse CDF of the generator's uniforms."""
    _check_positive("scale", scale)
    u = rng.random(size) - 0.5
    magnitude = np.minimum(np.abs(u), 0.5 * (1.0 - np.finfo(np.float64).eps))
    noise = -scale * np.sign(u) * np.log1p(-2.0 * magnitude)
    if size is None:
        return float(noise)
    return noise


def laplace_release(
    d: Database, c: QueryClass, p: PrivacyParams, rng: np.random.Generator
) -> np.ndarray:
    """Baseline: answer every query directly with independent Laplace noise
    at scale k/alpha (each linear query moves by at most 1 under a unit L1
    change, and the k answers compose)."""
    _check_dims(c.n, d.n, "laplace_release: class vs database")
    true_answers = c.matrix @ d.entries
    return true_answers + laplace_noise(rng, c.k / p.alpha, size=c.k)


def estimate_l1(d: Database, alpha_share: float, rng: np.random.Generator) -> float:
    """Laplace estimate of ||D||_1 (sensitivity 1), clamped to be nonnegative.
    Clamping is post-processing, so it costs no privacy."""
    _check_positive("alpha_share", alpha_share)
    return max(0.0, l1_norm(d) + laplace_noise(rng, 1.0 / alpha_share))


def utility_threshold(m: int, n: int, eta: float, alpha: float) -> float:
    """Database mass above which releases at surrogate size ``m`` are expected
    to stay within relative error 2*eta except with small probability:
    DEFAULT_CU * m * ln(n) / (eta * alpha)."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be at least 1")
    _check_positive("eta", eta)
    _check_positive("alpha", alpha)
    return config.DEFAULT_CU * m * math.log(n) / (eta * alpha)

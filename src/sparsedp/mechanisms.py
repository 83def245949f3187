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
from dataclasses import KW_ONLY, InitVar, dataclass, field

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
    "SparseDomain",
    "quality_score",
    "score_rows",
    "score_sensitivity",
    "exponent_divisor",
    "softmax_probabilities",
    "exponential_law",
    "exponential_probabilities",
    "exponential_release_exact",
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

    @classmethod
    def parse(cls, name: str) -> "ExponentRule":
        for rule in cls:
            if rule.value == name or rule.name == name:
                return rule
        raise ValueError(f"unknown exponent rule {name!r}; expected 'paper' or 'tight'")


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
# per matmul of the scoring kernel: a pass holds a few MB at any domain size.
BLOCK_ROWS = 1 << 18
SCORE_SLICE_CELLS = 1 << 18


def _check_budget(n: int, m: int, budget: int | None, passes: int = 1) -> int:
    """The one enumeration-budget check: ``passes`` passes over the sparse
    domain of (n, m) must fit the budget.  Returns the domain size."""
    count = domain_size(n, m)
    limit = config.domain_budget(budget)
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
    check.  A block grows from prefix rows: each level repeats a prefix rem+1
    times and appends rem..0, where rem is what the prefix leaves of m.  A
    prefix set whose completions overflow a block is split in half, or, if it
    is one prefix, grown one level first."""
    domain_size(n, m)
    # fill[w - 1, r]: ways to fill w more columns with total r, needed only
    # to split blocks.
    if max_rows is not None:
        fill = np.array([[math.comb(r + w - 1, r) for r in range(m + 1)] for w in range(1, n + 1)])

    def grow(prefix, rem):
        reps = rem + 1
        parent = np.repeat(np.arange(rem.size), reps)
        left = np.arange(parent.size) - np.repeat(np.cumsum(reps) - reps, reps)
        return np.column_stack((prefix[parent], rem[parent] - left)), left

    def blocks(prefix, rem):
        width = n - prefix.shape[1]
        if max_rows is None or fill[width - 1, rem].sum() <= max_rows:
            for _ in range(width - 1):
                prefix, rem = grow(prefix, rem)
            yield np.column_stack((prefix, rem))
        elif rem.size > 1:
            half = rem.size // 2
            yield from blocks(prefix[:half], rem[:half])
            yield from blocks(prefix[half:], rem[half:])
        else:
            yield from blocks(*grow(prefix, rem))

    yield from blocks(np.empty((1, 0), dtype=np.int64), np.array([m], dtype=np.int64))


def sparse_domain(n: int, m: int, *, budget: int | None = None):
    """Every nonnegative integer vector of length n summing to m, exactly
    once, in lexicographically decreasing order.  Refuses with the count when
    the domain exceeds the enumeration budget."""
    if m < 1:
        raise ValueError("sparse domain requires m >= 1")
    _check_budget(n, m, budget)
    blocks = domain_blocks(n, m, BLOCK_ROWS)
    return (SparseSyntheticDatabase(row) for block in blocks for row in block)


def composition_matrix(n: int, m: int, *, budget: int | None = None) -> np.ndarray:
    """The same enumeration as ``sparse_domain`` as one (count, n) int matrix."""
    _check_budget(n, m, budget)
    return next(domain_blocks(n, m))


@dataclass(frozen=True, eq=False)
class SparseDomain:
    """The sparse domain of (n, m), enumerated once: ``counts`` is the
    read-only ``composition_matrix(n, m)``.  Building it runs the budget
    check; a caller that repeats exact releases at one (n, m) builds it
    once and passes it as ``domain=``.  ``exponential_release_exact`` given
    a domain checks only that its n and m match, since the library built
    the rows."""

    n: int
    m: int
    _: KW_ONLY
    budget: InitVar[int | None] = None
    counts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, budget):
        if self.m < 1:
            raise ValueError("sparse domain requires m >= 1")
        counts = composition_matrix(self.n, self.m, budget=budget)
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)


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
    (B,): a (B, rows) matrix.  One matmul per slice of about 2^18/k rows;
    within a slice the batch goes in groups that keep a pass near
    ``SCORE_SLICE_CELLS`` cells.  Agrees with ``quality_score`` to rounding
    only: a matmul may round differently in the last bit."""
    if m < 1:
        raise ValueError("m must be at least 1")
    true_answers = np.asarray(true_answers, dtype=np.float64)[:, None, :]
    factors = np.asarray(l1_estimates, dtype=np.float64)[:, None, None] / m
    step = max(1, SCORE_SLICE_CELLS // c.k)
    scores = np.empty((len(factors), counts.shape[0]))
    for start in range(0, counts.shape[0], step):
        candidate_answers = counts[start : start + step] @ c.matrix.T
        group = max(1, SCORE_SLICE_CELLS // candidate_answers.size)
        for first in range(0, len(factors), group):
            last = first + group
            scores[first:last, start : start + step] = -np.abs(
                true_answers[first:last] - factors[first:last] * candidate_answers
            ).max(axis=2)
    return scores


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


def softmax_probabilities(logits: np.ndarray) -> np.ndarray:
    """exp-and-normalize along the last axis in log space (each row's max
    subtracted first)."""
    logits = np.asarray(logits, dtype=np.float64)
    weights = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return weights / weights.sum(axis=-1, keepdims=True)


def exponential_law(
    scores: np.ndarray, m: int, alpha: float, exponent_rule: ExponentRule
) -> np.ndarray:
    """The one map from scores to the exponential-weight law: the softmax of
    ``scores * alpha / exponent_divisor(exponent_rule, m)`` along the last
    axis."""
    return softmax_probabilities(scores * alpha / exponent_divisor(exponent_rule, m))


def exponential_probabilities(
    c: QueryClass, counts: np.ndarray, true_answers, l1_estimates, m: int, alpha: float,
    exponent_rule: ExponentRule,
) -> np.ndarray:
    """The exponential-weight law of B databases (true answers B x k, L1
    estimates B): the (B, rows) ``exponential_law`` of their ``score_rows``.
    The exact sampler draws from it; the oracle prints and certifies it."""
    scores = score_rows(c, counts, true_answers, l1_estimates, m)
    return exponential_law(scores, m, alpha, exponent_rule)


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
    budget: int | None = None,
    domain: SparseDomain | None = None,
) -> ReleaseOutput:
    """Draw one uniform against the cumulative ``exponential_probabilities``
    of the whole domain at the alpha left for the weights (0.9 alpha under
    "private"): the law ``exact_output_distribution`` returns for that alpha
    and L1 estimate, bit for bit.  Meant for desk-scale domains; refuses over the
    enumeration budget and names the MCMC fallback.  The reported score is
    ``quality_score`` of the drawn row, exactly.

    ``domain`` is a prepared ``SparseDomain(d.n, m)`` used instead of
    enumerating the domain on this call.  It was checked against its own
    budget when it was built, so passing ``budget`` with it is refused.
    The release is the same, and reads the generator the same way, with or
    without it."""
    _check_dims(c.n, d.n, "exponential_release_exact: class vs database")
    if domain is None:
        counts = composition_matrix(d.n, m, budget=budget)
    else:
        if not isinstance(domain, SparseDomain):
            raise TypeError(
                "exponential_release_exact: domain must be a SparseDomain, "
                f"got {type(domain).__name__}"
            )
        if budget is not None:
            raise ValueError(
                "exponential_release_exact: a prepared domain carries its own budget; "
                "pass it as SparseDomain(n, m, budget=...)"
            )
        _check_dims(domain.n, d.n, "exponential_release_exact: domain vs database")
        if domain.m != m:
            raise ValueError(
                f"exponential_release_exact: domain was built for m={domain.m}, but m={m} was given"
            )
        counts = domain.counts
    l1_estimate, alpha = _resolve_l1(d, p, l1, rng)
    probs = exponential_probabilities(
        c, counts, (c.matrix @ d.entries)[None], [l1_estimate], m, alpha, exponent_rule
    )[0]
    idx = min(int(np.searchsorted(np.cumsum(probs), rng.random(), side="right")), len(counts) - 1)
    return _release(d, c, counts[idx], m, exponent_rule, l1_estimate)


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
    two precomputed scaled columns per proposal, so its running score may
    differ from ``quality_score`` in the last bits.  Returns the final state
    (a list), the L1 estimate and the occupation counts of the steps from
    ``record`` on (none when ``record`` is None)."""
    if m < 1:
        raise ValueError("m must be at least 1")
    _check_dims(c.n, d.n, "Metropolis chain: class vs database")
    n = d.n
    l1_estimate, alpha = _resolve_l1(d, p, l1, rng)
    scale = alpha / exponent_divisor(exponent_rule, m)
    factor = float(l1_estimate) / m
    state = [0] * n
    state[0] = m
    cols = factor * c.matrix.T
    resid = c.matrix @ d.entries - factor * (c.matrix @ np.array(state))
    current = float(-abs(resid).max())
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
                candidate_resid = resid + cols[i] - cols[j]
                candidate = float(-abs(candidate_resid).max())
                if acceptance_probability(current, candidate, scale) > u:
                    state[i] -= 1
                    state[j] += 1
                    resid = candidate_resid
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


def laplace_noise(rng: np.random.Generator, scale: float, size=None):
    """Laplace(scale) noise via inverse CDF of the generator's uniforms."""
    if scale <= 0:
        raise ValueError("scale must be positive")
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
    if alpha_share <= 0:
        raise ValueError("alpha_share must be positive")
    return max(0.0, l1_norm(d) + laplace_noise(rng, 1.0 / alpha_share))


def utility_threshold(
    m: int, n: int, eta: float, alpha: float, c_u: float = config.DEFAULT_CU
) -> float:
    """Database mass above which releases at surrogate size ``m`` are expected
    to stay within relative error 2*eta except with small probability:
    c_u * m * ln(n) / (eta * alpha)."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be at least 1")
    if eta <= 0 or alpha <= 0 or c_u <= 0:
        raise ValueError("eta, alpha, and c_u must be positive")
    return c_u * m * math.log(n) / (eta * alpha)

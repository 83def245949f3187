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

The exact sampler, ``ExactLawTable`` and the oracles take the whole domain
from one memo (``composition_matrix``): a domain depends only on the public
(n, m), so a process enumerates each one once, up to ``DOMAIN_MEMO_BYTES``
kept in all, and every caller gets a read-only view of the same rows.
"""

import enum
import math
import sys
import threading
from collections import OrderedDict
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
from .fsd import _validate_eta

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
    "exponent_divisor",
    "exponential_law",
    "exponential_release_exact",
    "ExactLawTable",
    "exponential_release_mcmc",
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
MCMC_ADVICE = "; exponential_release_mcmc samples without enumerating it"


def _check_budget(n: int, m: int, passes: int = 1, counted: str = "", advice: str = "") -> None:
    """The one enumeration-budget check: ``passes`` passes over the sparse
    domain of (n, m), whose rows hold m >= 1 units, must fit the budget.  A
    refusal says what the passes are (``counted``) and ends in ``advice``."""
    if m < 1:
        raise ValueError("m must be at least 1")
    count = domain_size(n, m)
    limit = config.domain_budget()
    if passes * count > limit:
        scored = f", scored {passes} times{counted}," if passes > 1 else ""
        raise DomainTooLargeError(
            f"sparse domain for n={n}, m={m} holds {count} elements{scored} over the "
            f"budget of {limit}{advice}",
            count=passes * count,
        )


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
    the domain exceeds the enumeration budget, naming the MCMC sampler."""
    _check_budget(n, m, advice=MCMC_ADVICE)
    blocks = domain_blocks(n, m, BLOCK_ROWS)
    return (SparseSyntheticDatabase(row) for block in blocks for row in block)


# Bytes of whole domains the memo keeps, each charged its array's
# ``sys.getsizeof``: the five domains of release-exact's strata take 1.6 MB.
DOMAIN_MEMO_BYTES = 1 << 22


class _DomainMemo:
    """Whole domains, ``next(domain_blocks(n, m))`` made read-only, by their
    (n, m), least recently used first.  They hold at most
    ``DOMAIN_MEMO_BYTES`` in all (read when a domain is kept): keeping one
    drops the least recently used until they fit, and a domain over the cap
    on its own is enumerated on every call and never kept.  The key and the
    rows are public, so the memo keeps no state that depends on data."""

    def __init__(self):
        self.domains: OrderedDict[tuple[int, int], np.ndarray] = OrderedDict()
        self.held = 0
        self.lock = threading.Lock()

    def get(self, n: int, m: int) -> np.ndarray:
        with self.lock:
            counts = self.domains.get((n, m))
            if counts is not None:
                self.domains.move_to_end((n, m))
                return counts
        counts = next(domain_blocks(n, m))
        counts.setflags(write=False)
        size = sys.getsizeof(counts)
        if size <= DOMAIN_MEMO_BYTES:
            with self.lock:
                if (n, m) not in self.domains:
                    self.domains[n, m] = counts
                    self.held += size
                while self.held > DOMAIN_MEMO_BYTES:
                    self.held -= sys.getsizeof(self.domains.popitem(last=False)[1])
        return counts


_DOMAINS = _DomainMemo()


def _domain(n: int, m: int, advice: str = "") -> np.ndarray:
    """The one whole-domain enumeration: ``_check_budget`` on every call
    (refusing with ``advice``), then a read-only view of the memo's rows.  A
    view cannot be made writable, so no caller can change another's rows."""
    _check_budget(n, m, advice=advice)
    return _DOMAINS.get(n, m).view()


def composition_matrix(n: int, m: int) -> np.ndarray:
    """The same enumeration as ``sparse_domain`` as one read-only (count, n)
    int64 matrix, from the domain memo: a process enumerates an (n, m) once
    while it stays in the memo."""
    return _domain(n, m)


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
    cells; buffers made once per call serve every slice and group.  A
    slice's candidate answers are one query-major matmul, ``matrix @
    piece.T``, into a (k, rows) buffer.  A group's errors are worked in
    place along its longer axis: in a (group, k, rows) buffer, where the
    maximum over queries is one of k contiguous row vectors, or, for a
    group longer than the slice, in a (k, rows, group) buffer, whose
    maximum fills a (rows, group) block copied transposed into the scores.
    Each cell takes the same operations either way, and a maximum is exact
    in any order.  The matmul rests on the two gemm orientations summing
    each entry's n products in the same order, which the tests check
    against one row-major matmul.  A class of one query keeps the
    row-major ``piece @ matrix.T``, written through the same buffer viewed
    as (rows, 1): the other orientation takes BLAS's vector path, which can
    round differently.  For the same reason a slice has at least two rows,
    the last one taking the row before it when one is left over.  So the
    scores are bit for bit those of one matmul over all rows, and agree
    with ``quality_score`` to rounding only: a matmul may round differently
    in the last bit."""
    if m < 1:
        raise ValueError("m must be at least 1")
    true_answers = np.asarray(true_answers, dtype=np.float64)
    factors = np.asarray(l1_estimates, dtype=np.float64) / m
    rows, k, batch = counts.shape[0], c.k, len(factors)
    step = max(2, SCORE_SLICE_CELLS // k)
    span = max(1, min(step, rows))
    group = max(1, SCORE_SLICE_CELLS // (span * k))
    along_batch = min(group, batch) > span
    scores = np.empty((batch, rows))
    answers = np.empty(span * k)
    work = np.empty(min(group, batch) * k * span)
    block = np.empty(min(group, batch) * span if along_batch else 0)
    for start in range(0, rows, step):
        start = max(0, min(start, rows - 2))
        piece = counts[start : start + step]
        size = len(piece)
        piece_answers = answers[: k * size].reshape(k, size)
        if k == 1:
            np.matmul(piece, c.matrix.T, out=piece_answers.reshape(size, 1))
        else:
            np.matmul(c.matrix, piece.T, out=piece_answers)
        for first in range(0, batch, group):
            last = min(first + group, batch)
            if along_batch:
                errors = work[: k * size * (last - first)].reshape(k, size, last - first)
                np.multiply(factors[first:last], piece_answers[:, :, None], out=errors)
                np.subtract(true_answers[first:last].T[:, None, :], errors, out=errors)
                top = block[: size * (last - first)].reshape(size, last - first)
                np.maximum.reduce(np.abs(errors, out=errors), axis=0, out=top)
                scores[first:last, start : start + size] = top.T
            else:
                errors = work[: (last - first) * k * size].reshape(last - first, k, size)
                np.multiply(factors[first:last, None, None], piece_answers, out=errors)
                np.subtract(true_answers[first:last, :, None], errors, out=errors)
                np.abs(errors, out=errors)
                np.maximum.reduce(errors, axis=1, out=scores[first:last, start : start + size])
    return np.negative(scores, out=scores)


def exponent_divisor(rule: ExponentRule, m: int) -> float:
    """The rule's divisor at surrogate size m; a value that is not an
    ``ExponentRule`` is refused, never read as one."""
    if rule is ExponentRule.PAPER_QUARTER:
        return 4.0
    if rule is not ExponentRule.TIGHT_SENSITIVITY:
        raise ValueError(f"exponent_rule must be an ExponentRule, got {rule!r}")
    if m < 1:
        raise ValueError("m must be at least 1")
    return 2.0 * (1.0 + 1.0 / m)


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


def _laws(c, counts, entries, l1_estimates, m, alpha, exponent_rule):
    """The one exact law, of a batch of databases over ``counts``: their
    ``score_rows`` at ``l1_estimates`` and the ``exponential_law`` of those at
    ``alpha``, as (scores, laws), both (databases, rows).  ``entries`` is
    (databases, n), and the true answers are one stacked matmul, bit for bit
    the matvec each Database gets.  The exact sampler and ``ExactLawTable``
    draw from a batch of one, the oracle prints one, and the certificates
    scan a batch of their points."""
    true_answers = (c.matrix @ entries[:, :, None])[:, :, 0]
    scores = score_rows(c, counts, true_answers, l1_estimates, m)
    return scores, exponential_law(scores, m, alpha, exponent_rule)


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
) -> ReleaseOutput:
    """Draw one uniform against the cumulative ``_laws`` row of the whole
    domain at the alpha left for the weights (0.9 alpha under
    "private"): the law ``exact_output_distribution`` returns for that alpha
    and L1 estimate, bit for bit.  Meant for desk-scale domains; refuses over the
    enumeration budget and names the MCMC fallback.  A value that is not an
    ``ExponentRule`` is refused first, before the domain or the generator is
    read.  The reported score is ``quality_score`` of the drawn row, exactly."""
    _check_dims(c.n, d.n, "exponential_release_exact: class vs database")
    exponent_divisor(exponent_rule, m)
    counts = _domain(d.n, m, MCMC_ADVICE)
    l1_estimate, alpha = _resolve_l1(d, p, l1, rng)
    law = _laws(c, counts, d.entries[None], [l1_estimate], m, alpha, exponent_rule)[1][0]
    idx = _draw(np.cumsum(law), rng.random())
    return _release(d, c, counts[idx], m, exponent_rule, l1_estimate)


def _draw(cumulative: np.ndarray, u: float) -> int:
    """The one exact draw: the first row whose cumulative probability exceeds
    the uniform ``u``, or the last row when rounding left the total below it."""
    return min(int(cumulative.searchsorted(u, "right")), len(cumulative) - 1)


class ExactLawTable:
    """The prepared exact sampler of a fixed set of databases: it takes the
    domain of (c.n, m) from the domain memo, as the read-only ``counts``, and
    keeps each database's cumulative law and each release drawn from it.  It
    refuses in ``exponential_release_exact``'s order: a database of another
    length, a value that is not an ``ExponentRule``, then m < 1 and a domain
    over the budget.  It is built for one class, alpha, m and rule, and
    releases only at the public L1 norm.

    A database's law is computed on its first release, by the per-call
    sampler's own ``_laws``, and the ``ReleaseOutput`` of a
    (database, row) pair on its first draw; later releases only draw one
    uniform.  A release is therefore the one ``exponential_release_exact``
    makes from the same generator, which it leaves in the same state.  A
    database is known by its entries; one not in the table is refused
    before the generator is read.

    Each kept law is the size of a pass over ``counts``, so a law is kept
    only while the kept laws and the new one fit the domain budget as
    passes.  A database whose law does not fit computes it again on each
    release.  Every drawn release is kept, whether or not its law was, so a
    repeated (database, row) draw returns the same object."""

    def __init__(
        self, databases, c: QueryClass, p: PrivacyParams, m: int, exponent_rule: ExponentRule
    ):
        databases = tuple(databases)
        for d in databases:
            _check_dims(c.n, d.n, "ExactLawTable: class vs database")
        exponent_divisor(exponent_rule, m)
        self._counts = _domain(c.n, m, MCMC_ADVICE)
        self.c, self.alpha, self.m, self.exponent_rule = c, p.alpha, m, exponent_rule
        self._index = {d.entries.tobytes(): s for s, d in enumerate(databases)}
        self._l1 = [l1_norm(d) for d in databases]
        self._cumulative: dict[int, np.ndarray] = {}
        self._releases: dict[tuple[int, int], ReleaseOutput] = {}

    @property
    def counts(self) -> np.ndarray:
        return self._counts

    def release(self, d: Database, rng: np.random.Generator) -> ReleaseOutput:
        """One exact release of ``d``, one of the table's databases."""
        s = self._index.get(d.entries.tobytes())
        if s is None:
            raise ValueError("ExactLawTable: the database is not one of the table's")
        c, counts, exponent_rule = self.c, self._counts, self.exponent_rule
        cumulative = self._cumulative.get(s)
        if cumulative is None:
            law = _laws(c, counts, d.entries[None], [self._l1[s]], self.m, self.alpha, exponent_rule)[1]
            cumulative = np.cumsum(law[0])
            if (len(self._cumulative) + 1) * len(counts) <= config.domain_budget():
                self._cumulative[s] = cumulative
        idx = _draw(cumulative, rng.random())
        out = self._releases.get((s, idx))
        if out is None:
            out = self._releases[s, idx] = _release(
                d, c, counts[idx], self.m, exponent_rule, self._l1[s]
            )
        return out


# Proposals the Metropolis chain draws at once.
CHAIN_BLOCK = 4096


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
    """Approximate sampler: run a Metropolis walk for ``steps`` moves from
    the all-mass-on-coordinate-0 state and release where it lands.  The
    reported score is ``quality_score`` of the released row, exactly.  A
    value that is not an ``ExponentRule`` is refused before the generator is
    read.

    Proposals move one unit of mass from a uniformly chosen coordinate to a
    uniformly chosen other coordinate, which is symmetric, so the stationary
    law is the exact mechanism's.  After the L1 estimate, proposals are
    drawn in blocks of ``CHAIN_BLOCK`` steps: all sources, then all
    destinations, then one uniform per step, void steps (an empty source, or
    n = 1) included.  A candidate whose score change ``delta`` (scaled by
    alpha / divisor) is nonnegative, or has ``exp(delta)`` above the step's
    uniform, is accepted; a NaN ``delta`` is rejected.

    The walk keeps the residual ``C @ D - (l1_estimate / m) * (C @ state)``
    sign-doubled, as ``[r, -r]``, and adds two precomputed scaled columns,
    each as ``[col, -col]``, per proposal: ``(resid + col_i) - col_j``, whose
    running score may differ from ``quality_score`` in the last bits.
    Rounding is symmetric, so the halves stay exact negations (an exact
    cancellation gives +0.0 in both), and a candidate scores minus its value
    at ``argmax``: the largest magnitude, or the first NaN.  A zero score
    may read +0.0 where ``-|t|`` read -0.0; ``delta >= 0.0`` holds for both.
    A step allocates nothing: it writes into the second of two buffers,
    which trade places on acceptance."""
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if m < 1:
        raise ValueError("m must be at least 1")
    _check_dims(c.n, d.n, "Metropolis chain: class vs database")
    n = d.n
    divisor = exponent_divisor(exponent_rule, m)
    l1_estimate, alpha = _resolve_l1(d, p, l1, rng)
    scale = alpha / divisor
    factor = float(l1_estimate) / m
    state = [0] * n
    state[0] = m
    scaled = np.ascontiguousarray(factor * c.matrix.T)
    cols = list(np.hstack((scaled, -scaled)))
    resid = c.matrix @ d.entries - factor * (c.matrix @ np.array(state))
    current = float(-abs(resid).max())
    resid = np.concatenate((resid, -resid))
    trial = np.empty_like(resid)
    add, subtract, exp = np.add, np.subtract, math.exp
    for start in range(0, steps, CHAIN_BLOCK):
        size = min(CHAIN_BLOCK, steps - start)
        if n > 1:
            src = rng.integers(n, size=size)
            dst = rng.integers(n - 1, size=size)
            dst += dst >= src
        else:
            src = dst = np.zeros(size, dtype=np.int64)
        uniforms = rng.random(size)
        for i, j, u in zip(src.tolist(), dst.tolist(), uniforms.tolist()):
            if state[i] and i != j:
                add(resid, cols[i], trial)
                subtract(trial, cols[j], trial)
                candidate = -trial.item(trial.argmax())
                delta = scale * (candidate - current)
                if delta >= 0.0 or exp(delta) > u:
                    state[i] -= 1
                    state[j] += 1
                    resid, trial = trial, resid
                    current = candidate
    return _release(d, c, state, m, exponent_rule, l1_estimate, approximate=True)


def _check_positive(name: str, value) -> None:
    """Refuse ``value`` unless finite and positive, naming the parameter."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


# laplace_noise clips |u| at LAPLACE_CLIP, so its largest draw is, by the
# same multiply, scale * LAPLACE_TAIL: -log of the float epsilon, about 36.04.
LAPLACE_CLIP = 0.5 * (1.0 - np.finfo(np.float64).eps)
LAPLACE_TAIL = -float(np.log1p(-2.0 * LAPLACE_CLIP))


def laplace_noise(rng: np.random.Generator, scale: float, size=None):
    """Laplace(scale) noise via inverse CDF of the generator's uniforms."""
    _check_positive("scale", scale)
    u = rng.random(size) - 0.5
    magnitude = np.minimum(np.abs(u), LAPLACE_CLIP)
    noise = -scale * np.sign(u) * np.log1p(-2.0 * magnitude)
    if size is None:
        return float(noise)
    return noise


def _laplace_scale(sensitivity: float, alpha: float, name: str) -> float:
    """The Laplace scale ``sensitivity / alpha`` at privacy ``alpha``; an
    alpha so small that the scale's largest draw overflows is refused under
    ``name``."""
    _check_positive(name, alpha)
    scale = sensitivity / alpha
    if math.isinf(scale * LAPLACE_TAIL):
        raise ValueError(
            f"{name}={alpha!r} is too small: the Laplace scale {sensitivity!r}/{name} "
            "overflows to inf in its largest draw"
        )
    return scale


def _check_noisy_value(what: str, value: float, scale: float) -> None:
    """Refuse, before the draw, a nonnegative true ``value`` that a Laplace
    draw at ``scale`` could carry past the largest float: ``|value + noise|``
    is at most ``value + scale * LAPLACE_TAIL``, and rounding is monotone."""
    if not math.isfinite(value + scale * LAPLACE_TAIL):
        raise ValueError(
            f"{what} {value!r} plus the largest Laplace draw at scale {scale!r} overflows to inf"
        )


def laplace_release(
    d: Database, c: QueryClass, p: PrivacyParams, rng: np.random.Generator
) -> np.ndarray:
    """Baseline: answer every query directly with independent Laplace noise
    at scale k/alpha (each linear query moves by at most 1 under a unit L1
    change, and the k answers compose)."""
    _check_dims(c.n, d.n, "laplace_release: class vs database")
    scale = _laplace_scale(c.k, p.alpha, "alpha")
    answers = c.matrix @ d.entries
    _check_noisy_value("the largest true answer", float(answers.max()), scale)
    return answers + laplace_noise(rng, scale, size=c.k)


def estimate_l1(d: Database, alpha_share: float, rng: np.random.Generator) -> float:
    """Laplace estimate of ||D||_1 (sensitivity 1), clamped to be nonnegative.
    Clamping is post-processing, so it costs no privacy."""
    scale = _laplace_scale(1.0, alpha_share, "alpha_share")
    norm = l1_norm(d)
    _check_noisy_value("the L1 norm", norm, scale)
    return max(0.0, norm + laplace_noise(rng, scale))


def utility_threshold(m: int, n: int, eta: float, alpha: float) -> float:
    """Database mass above which releases at surrogate size ``m`` are expected
    to stay within relative error 2*eta except with small probability:
    DEFAULT_CU * m * ln(n) / (eta * alpha)."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be at least 1")
    eta = _validate_eta(eta)
    _check_positive("alpha", alpha)
    return config.DEFAULT_CU * m * math.log(n) / (eta * alpha)

"""Reconstruction attack against linear-query release mechanisms.

Pipeline: find a shattered subset of basis vectors, keep the largest bucket
of indices whose thresholds lie within one gamma-width of each other, and map
every half-size subset ``T`` of that bucket to the query ``q_T`` realizing
the pattern "1 exactly on T".  Databases ``D_T`` (indicator vectors of the
subsets) then satisfy a gap inequality

    q_T(D_T) - q_T(D_T') >= (gamma / 2) * |T symdiff T'|

so given any mechanism output that answers the family's queries to within
``eps``, the subset minimizing ``v(T') = q_T'(D_T') - q_T'(answers)`` can
mislabel at most ``4 * eps / gamma`` elements.  The experiment driver runs
this recovery against a mechanism and measures how often a distinguished
element survives a one-element swap of the hidden subset, which bounds the
privacy any accurate mechanism can claim.
"""

import itertools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import config
from .core import Database, DimensionMismatchError, QueryClass
from .core import evaluate  # noqa: F401  (only the benchmark's tracer wraps it; ROADMAP item 6)
from .fsd import ShatteringWitness, fsd
from .mechanisms import ReleaseOutput, _safe_exp

__all__ = [
    "FamilySearchError",
    "ShatteredFamily",
    "AttackReport",
    "partition_buckets",
    "build_family",
    "reconstruct",
    "attack_experiment",
]


class FamilySearchError(RuntimeError):
    """No usable shattered family exists at the requested parameters."""


def partition_buckets(witness: ShatteringWitness) -> tuple[int, tuple[int, ...]]:
    """Split the witness subset into ceil(1/gamma) threshold buckets (bucket j
    holds indices with (j-1)*gamma < r <= j*gamma) and return the largest one
    with its bucket number; ties go to the smallest j.  The winner always has
    at least floor(gamma * |S|) members, and its thresholds span at most
    gamma."""
    gamma = witness.gamma
    if math.isinf(1.0 / gamma):  # no bucket number of a float threshold is finite
        raise FamilySearchError(f"gamma={gamma} is too small: the bucket count 1/gamma overflows")
    n_buckets = math.ceil(1.0 / gamma)
    members: dict[int, list[int]] = {}
    for index, r in zip(witness.subset, witness.thresholds):
        j = math.ceil(r / gamma - 1e-12)
        j = min(max(j, 1), n_buckets)
        members.setdefault(j, []).append(index)
    j_star = max(members, key=lambda j: (len(members[j]), -j))
    return j_star, tuple(members[j_star])


class ShatteredFamily:
    """A bucket of basis indices plus everything a reconstruction trial
    reads, computed once.  Subset ``s`` is ``subsets()[s]`` (lexicographic
    order) and ``databases[s]`` its indicator D_T.  ``used`` holds the
    distinct indices of the queries the family uses, increasing, and
    ``used_rows`` their coefficient rows; subset s's query is
    ``used[used_position[s]]``.  ``base[s]`` is q_T(D_T) for T = subset s,
    the dot product ``evaluate`` takes, and ``members[s]`` marks T's indices
    among the class's n coordinates."""

    def __init__(
        self,
        query_class: QueryClass,
        witness: ShatteringWitness,
        j_star: int,
        bucket: tuple[int, ...],
    ):
        if len(bucket) % 2 != 0 or len(bucket) < 2:
            raise ValueError("bucket must have even size >= 2")
        if len(bucket) > config.MAX_FAMILY_SIZE:
            raise ValueError(
                f"bucket size {len(bucket)} exceeds the d<={config.MAX_FAMILY_SIZE} "
                "cap on exhaustive reconstruction"
            )
        if not set(bucket) <= set(witness.subset):
            raise ValueError("bucket must be a subset of the witness subset")
        self.query_class = query_class
        self.witness = witness
        self.j_star = j_star
        self.bucket = bucket
        self.gamma = witness.gamma
        self._subsets = tuple(itertools.combinations(bucket, len(bucket) // 2))
        self._position = {tuple(sorted(t)): s for s, t in enumerate(self._subsets)}
        self._outside = np.array([[i for i in bucket if i not in t] for t in self._subsets])
        indicators = np.zeros((len(self._subsets), self.n))
        for row, t in zip(indicators, self._subsets):
            row[list(t)] = 1.0
        self.databases = tuple(map(Database, indicators))
        self.members = indicators != 0.0

        queries = [self.query_index_for(t) for t in self._subsets]
        self.used, self.used_position = np.unique(queries, return_inverse=True)
        self.used_rows = query_class.matrix[self.used]
        self.base = np.array(
            [float(query_class.matrix[q] @ d_t.entries) for q, d_t in zip(queries, self.databases)]
        )

    @property
    def d(self) -> int:
        return len(self.bucket)

    @property
    def n(self) -> int:
        return self.query_class.n

    def subsets(self) -> tuple[tuple[int, ...], ...]:
        """All half-size subsets of the bucket, lexicographically ordered."""
        return self._subsets

    def query_index_for(self, subset) -> int:
        members = set(subset)
        return self.witness.assignment[tuple(int(i in members) for i in self.witness.subset)]

    def database_for(self, subset) -> Database:
        """The held indicator of a half-size subset of the bucket, given in
        any order."""
        position = self._position.get(tuple(sorted(subset)))
        if position is None:
            raise ValueError(f"{tuple(subset)} is not a half-size subset of the bucket {self.bucket}")
        return self.databases[position]


def build_family(c: QueryClass, gamma: float, d_max: int) -> ShatteredFamily:
    """Run the dimension search, bucket the witness, and assemble the family.

    An odd bucket drops its last index to get an even d (costing at most one
    element of the recovery bound).  Fails if no shattered pair exists."""
    result = fsd(c, gamma, d_max)
    if result.witness is None or result.d < 2:
        raise FamilySearchError(
            f"no shattered subset of size >= 2 at gamma={gamma} (found d={result.d})"
        )
    witness = result.witness
    j_star, bucket = partition_buckets(witness)
    if len(bucket) % 2 != 0:
        bucket = bucket[:-1]
    if len(bucket) < 2:
        raise FamilySearchError(
            f"largest threshold bucket has fewer than 2 usable indices at gamma={gamma}"
        )
    return ShatteredFamily(c, witness, j_star, bucket)


# Trials per chunk: a chunk's draws and releases come first, then one array
# pass reconstructs them all, so a chunk's answers do not grow with the
# trial count.
TRIAL_CHUNK = 256


def _used_answers(output, family: ShatteredFamily) -> np.ndarray:
    """A mechanism output's answers to ``family.used``.  The output is a
    synthetic database or, as from the Laplace baseline, a vector of answers
    to every query of the family's class."""
    if isinstance(output, ReleaseOutput):
        output = output.d_out
    if isinstance(output, Database):
        if output.n != family.n:
            raise DimensionMismatchError(
                f"mechanism output has dimension {output.n}, the family's class {family.n}"
            )
        return family.used_rows @ output.entries
    answers = np.asarray(output, dtype=np.float64)
    if answers.shape != (family.query_class.k,):
        raise ValueError(
            f"mechanism output must be a Database or a length-{family.query_class.k} "
            f"answer vector, got shape {answers.shape}"
        )
    bad = np.flatnonzero(~np.isfinite(answers))
    if bad.size:
        raise ValueError(f"mechanism output holds non-finite answers at query indices {bad.tolist()}")
    return answers[family.used]


def reconstruct(answers_db: Database, family: ShatteredFamily) -> tuple[int, ...]:
    """Recover the hidden subset from any synthetic-database output: minimize
    v(T') = q_T'(D_T') - q_T'(answers) over half-size subsets, ties to the
    lexicographically smallest."""
    used_answers = _used_answers(answers_db, family)
    return family.subsets()[int(np.argmin(family.base - used_answers[family.used_position]))]


def _reconstruct_chunk(family: ShatteredFamily, hidden, xs, answers):
    """The per-trial arrays (eps_hat, |T symdiff T*|, x in T*, x in
    T*_swapped) of a chunk, from its hidden subsets, distinguished elements
    and ``used`` answers (hidden and swapped, 2 x trials x used), with T* and
    T*_swapped as ``reconstruct`` picks them.  The hidden subsets' true
    answers add their ``used_rows`` columns in index order, as ``evaluate``'s
    dot product sums them; they are not tabulated, as all subsets would take
    C(d, d/2)^2 floats, 1.3 GB at d = 16."""
    true_answers = np.zeros_like(answers[0])
    columns = family.used_rows.T
    for index in family.members[hidden].nonzero()[1].reshape(len(hidden), -1).T:
        true_answers += columns[index]
    eps_hat = np.abs(true_answers - answers[0]).max(axis=1)
    star, star_swapped = np.argmin(family.base - answers[:, :, family.used_position], axis=2)
    members = family.members
    symdiff = (members[hidden] != members[star]).sum(axis=1)
    return eps_hat, symdiff, members[star, xs], members[star_swapped, xs]


@dataclass(frozen=True)
class AttackReport:
    """Summary of a reconstruction experiment.  ``eps_hat`` and ``symdiff`` hold
    each completed trial's realized error and |T symdiff T*|, in trial order,
    as read-only arrays, outside equality and ``to_dict``."""

    trials: int
    completed: int
    mechanism_failures: int
    symdiff_counts: dict[int, int]
    mean_symdiff: float
    mean_eps_hat: float
    reconstruction_bound_violations: int
    vacuous_fraction: float
    recovery_rate_target: float
    recovery_rate_swapped: float
    recovery_ratio: float | None
    alpha: float
    single_change_bound: float
    double_change_bound: float
    epsilon_floor: float
    eps_hat: np.ndarray = field(repr=False, compare=False)
    symdiff: np.ndarray = field(repr=False, compare=False)
    # The hidden subset and its swap differ by two unit changes, so the
    # <=1-change privacy definition only implies the doubled bound.
    implied_bound: str = "double_change"

    def __post_init__(self):
        self.eps_hat.setflags(write=False)
        self.symdiff.setflags(write=False)

    def to_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.compare}
        doc["symdiff_counts"] = {str(k): v for k, v in sorted(self.symdiff_counts.items())}
        return doc


def attack_experiment(
    mechanism,
    family: ShatteredFamily,
    trials: int,
    rng: np.random.Generator,
    *,
    alpha: float,
) -> AttackReport:
    """Run ``trials`` independent reconstruction rounds against a mechanism.

    Each round hides a uniformly random half-size subset T, runs the
    mechanism on D_T, reconstructs T*, and checks the recovery bound
    |T symdiff T*| <= 4 * eps_hat / gamma with eps_hat the realized error on
    the family's own queries.  The round also swaps one hidden element for an
    outside one and reruns, to estimate how distinguishable membership is;
    the resulting rate ratio is reported against both e^alpha and e^(2*alpha).

    ``mechanism`` is ``callable(database, generator) -> Database | answer
    vector | ReleaseOutput``.  A ``RuntimeError`` or ``ArithmeticError`` it
    raises (a budget refusal, say) is counted and the trial skipped; other
    exceptions are programming errors and propagate.  Every trial draws
    from ``rng`` itself, in trial order: ``integers(len(subsets))`` for the
    hidden subset, ``integers(d/2)`` for the element swapped out and
    ``integers(d/2)`` for the one swapped in, then whatever the mechanism
    draws on D_T and on the swapped database.  A failed trial keeps the draws
    it made.  Each completed round is recorded once, in the per-trial arrays
    its chunk's reconstruction returns; the report is tallied from them after
    the last chunk and keeps two of them, ``eps_hat`` and ``symdiff``.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    subsets, outside, position = family.subsets(), family._outside, family._position
    gamma = family.gamma
    d = family.d
    half = d // 2

    failures = 0
    # A trial only draws and releases; its chunk is reconstructed at once.
    # Each per-trial array is a list of chunk pieces, freed as it is joined.
    columns = [[np.empty(0, dtype)] for dtype in (np.float64, np.int64, bool, bool)]
    for start in range(0, trials, TRIAL_CHUNK):
        size = min(TRIAL_CHUNK, trials - start)
        answers = np.empty((2, size, len(family.used)))
        hidden, xs = np.empty((2, size), dtype=np.int64)
        done = 0
        for _ in range(size):
            s_hidden = int(rng.integers(len(subsets)))
            t_hidden = subsets[s_hidden]
            a = int(rng.integers(half))
            y = int(outside[s_hidden, int(rng.integers(half))])
            s_swapped = position[tuple(sorted(t_hidden[:a] + t_hidden[a + 1 :] + (y,)))]
            try:
                out_hidden = mechanism(family.databases[s_hidden], rng)
                out_swapped = mechanism(family.databases[s_swapped], rng)
            except (RuntimeError, ArithmeticError):
                failures += 1
                continue
            answers[0, done] = _used_answers(out_hidden, family)
            answers[1, done] = _used_answers(out_swapped, family)
            hidden[done], xs[done] = s_hidden, t_hidden[a]
            done += 1
        if done:
            chunk = _reconstruct_chunk(family, hidden[:done], xs[:done], answers[:, :done])
            for column, array in zip(columns, chunk):
                column.append(array)

    eps_hat, symdiff, hit, hit_swapped = (np.concatenate(columns.pop(0)) for _ in range(4))
    completed = len(eps_hat)

    def mean(total):
        return total / completed if completed else 0.0

    # One scratch array holds the float sum in trial order (np.sum pairs terms; the built-in
    # sum compensates from Python 3.12 on), then the bound, offset once vacuous is read.
    bound = np.add.accumulate(eps_hat)
    total_eps = float(bound[-1]) if completed else 0.0
    np.multiply(eps_hat, 4.0, out=bound)
    with np.errstate(over="ignore"):  # past the float range a bound is inf, and vacuous
        bound /= gamma
    vacuous = mean(int(np.count_nonzero(bound >= d)))
    bound += 1e-9
    rate_target = mean(int(np.count_nonzero(hit)))
    rate_swapped = mean(int(np.count_nonzero(hit_swapped)))
    if completed == 0:
        ratio = None
    elif rate_swapped == 0.0:
        ratio = math.inf if rate_target > 0 else 1.0
    else:
        ratio = rate_target / rate_swapped
    tally = np.bincount(symdiff)
    first = {int(np.argmax(symdiff == v)): v for v in np.flatnonzero(tally).tolist()}
    return AttackReport(
        trials=trials,
        completed=completed,
        mechanism_failures=failures,
        symdiff_counts={v: int(tally[v]) for _, v in sorted(first.items())},
        mean_symdiff=mean(int(symdiff.sum())),
        mean_eps_hat=mean(total_eps),
        reconstruction_bound_violations=int(np.count_nonzero(symdiff > bound)),
        vacuous_fraction=vacuous,
        recovery_rate_target=rate_target,
        recovery_rate_swapped=rate_swapped,
        recovery_ratio=ratio,
        alpha=alpha,
        single_change_bound=_safe_exp(alpha),
        double_change_bound=_safe_exp(2 * alpha),
        epsilon_floor=gamma * d / (4.0 * (_safe_exp(alpha) + 1.0)),
        eps_hat=eps_hat,
        symdiff=symdiff,
    )


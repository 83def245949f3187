"""Shattering certificates and the fat-shattering dimension of finite classes.

A subset ``S`` of basis vectors is gamma-shattered by a class ``C`` when some
threshold vector ``r`` admits, for every sign pattern ``b`` over ``S``, a
query whose basis values sit at least ``gamma`` above ``r`` on the 1-marked
coordinates and at least ``gamma`` below it on the 0-marked ones.  The
dimension is the largest cardinality of a shattered subset.

The search eliminates ``r`` analytically instead of scanning it: an
assignment ``b -> q_b`` extends to a valid ``r`` iff on every coordinate the
smallest 1-side basis value clears the largest 0-side basis value by at least
``2*gamma`` (any valid ``r`` forces the 1-side to ``>= r+gamma`` and the
0-side to ``<= r-gamma``, so the gap is at least ``2*gamma``; conversely the
midpoint of the two extremes satisfies both displayed inequalities).  That
leaves a finite depth-first search over pattern assignments with
per-coordinate interval pruning.

Everything here is exponential-time by design: the dimension is a
combinatorial quantity and exactness at small scale is the goal.  Searches
are guarded by a subset-size cap and a node budget; running out of budget
degrades the answer to a best-found lower bound flagged ``exact=False``.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import config
from .core import QueryClass

__all__ = [
    "ShatteringWitness",
    "FsdResult",
    "SearchBudgetExceeded",
    "verify_shattering",
    "is_gamma_shattered",
    "fsd",
    "choose_m",
]


class SearchBudgetExceeded(RuntimeError):
    """The shattering search ran out of its node budget before finishing."""


def _validate_gamma(gamma: float) -> float:
    gamma = float(gamma)
    if not 0.0 < gamma <= 0.5:
        raise ValueError(f"gamma must lie in (0, 1/2], got {gamma}")
    return gamma


@dataclass(frozen=True)
class ShatteringWitness:
    """Self-contained certificate that ``subset`` is gamma-shattered.

    ``assignment`` maps every bit pattern over the subset (a 0/1 tuple
    aligned with ``subset`` order) to the index of the realizing query;
    ``thresholds`` is the vector ``r``.  ``verify_shattering`` re-checks the
    certificate against a class from scratch.
    """

    subset: tuple[int, ...]
    thresholds: tuple[float, ...]
    assignment: dict[tuple[int, ...], int]
    gamma: float

    def __post_init__(self):
        d = len(self.subset)
        if d < 1:
            raise ValueError("witness subset must be nonempty")
        if len(set(self.subset)) != d:
            raise ValueError("witness subset indices must be distinct")
        if len(self.thresholds) != d:
            raise ValueError("thresholds must match subset length")
        # The search interface restricts gamma to (0, 1/2]; a hand-built
        # witness may carry any positive margin and simply fail verification
        # (gamma > 1/2 can never verify, since basis values live in [0,1]).
        if not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        want = 1 << d
        if len(self.assignment) != want or set(self.assignment) != set(
            itertools.product((0, 1), repeat=d)
        ):
            raise ValueError(f"assignment must cover all {want} patterns")

    @property
    def d(self) -> int:
        return len(self.subset)

    def to_dict(self) -> dict:
        return {
            "subset": list(self.subset),
            "thresholds": [float(r) for r in self.thresholds],
            "gamma": float(self.gamma),
            "assignment": {
                "".join(map(str, pattern)): int(qi) for pattern, qi in sorted(self.assignment.items())
            },
        }


def verify_shattering(c: QueryClass, w: ShatteringWitness) -> bool:
    """Re-check a witness against the definition, coordinate by coordinate.

    Comparisons are non-strict and exact (tolerance 0): coefficients are
    exact inputs, and witnesses are built so the inequalities hold in
    floating point as written.
    """
    for i in w.subset:
        if not 0 <= i < c.n:
            raise IndexError(f"witness subset index {i} out of range for n={c.n}")
    for pattern, qi in w.assignment.items():
        if not 0 <= qi < c.k:
            raise IndexError(f"witness query index {qi} out of range for k={c.k}")
        for t, i in enumerate(w.subset):
            value = float(c.matrix[qi, i])
            if pattern[t] == 1:
                if not value >= w.thresholds[t] + w.gamma:
                    return False
            else:
                if not value <= w.thresholds[t] - w.gamma:
                    return False
    return True


class _NodeBudget:
    __slots__ = ("remaining", "used")

    def __init__(self, limit: int):
        self.remaining = int(limit)
        self.used = 0

    def spend(self, nodes: int):
        """Spend ``nodes`` search nodes; if fewer remain, spend what is left
        and raise, so an exhausted search always reports ``used == limit``."""
        if nodes > self.remaining:
            self.used += self.remaining
            self.remaining = 0
            raise SearchBudgetExceeded("shattering search exceeded its node budget")
        self.remaining -= nodes
        self.used += nodes


def _pick_threshold(low: float, high: float, gamma: float) -> float:
    # Any r in [low+gamma, high-gamma] works in exact arithmetic; try the
    # midpoint first and fall back to the interval ends if rounding bites.
    for r in ((low + high) / 2.0, high - gamma, low + gamma):
        if high >= r + gamma and low <= r - gamma:
            return float(r)
    raise AssertionError("no representable threshold despite a 2*gamma gap")


def _search_assignment(basis: np.ndarray, gamma: float, budget: _NodeBudget):
    """DFS for a full pattern->query assignment over ``basis`` (k x d basis
    values restricted to the candidate subset).  Returns (assignment dict,
    thresholds) or None.

    The state is one vector ``bounds = [max0, -min1]``: the largest basis
    value on each coordinate's 0-side so far and the negated smallest on its
    1-side.  Against the row ``[v, -v]`` a pattern checks one half per
    coordinate (``v - max0`` where it is 1, ``-v - (-min1) == min1 - v``
    where it is 0; each must reach 2*gamma) and raises the bound in the
    other half.  A value that does not widen its interval passes the check,
    since the interval already has that gap, so checking every coordinate
    decides as checking only the widening ones does.  A node tests all k
    rows at once and recurses only into the rows that fit, in row order.
    The budget counts every row tried, fitting or not: the rows skipped
    before a candidate are spent with it, and the rows after the last
    candidate once it fails."""
    k, d = basis.shape
    patterns = list(itertools.product((0, 1), repeat=d))
    ones = np.array(patterns, dtype=bool)
    checked = np.hstack([ones, ~ones])
    # Subtracting +inf from the unchecked half of the bounds makes it pass.
    unchecked_offset = np.where(checked, 0.0, np.inf)
    signed = np.hstack([basis, -basis])
    chosen: list[int] = []
    threshold = 2.0 * gamma

    def fitting_rows(idx: int, bounds: np.ndarray) -> np.ndarray:
        # A function of its own so that the k gaps are freed before the
        # recursion: a frame per pattern would otherwise hold 2^d of them.
        gaps = np.minimum.reduce(signed - (bounds - unchecked_offset[idx]), axis=1)
        return (gaps >= threshold).nonzero()[0]

    def recurse(idx: int, bounds: np.ndarray):
        if idx == len(patterns):
            return bounds
        fitting = fitting_rows(idx, bounds)
        tried = -1
        if fitting.size:
            raised = np.maximum(bounds, np.where(checked[idx], -np.inf, signed[fitting]))
            for qi, child in zip(fitting.tolist(), raised):
                budget.spend(qi - tried)
                tried = qi
                chosen.append(qi)
                found = recurse(idx + 1, child)
                if found is not None:
                    return found
                chosen.pop()
        budget.spend(k - 1 - tried)
        return None

    found = recurse(0, np.full(2 * d, -np.inf))
    if found is None:
        return None
    max0, min1 = found[:d], -found[d:]
    assignment = {pattern: qi for pattern, qi in zip(patterns, chosen)}
    thresholds = tuple(_pick_threshold(float(max0[t]), float(min1[t]), gamma) for t in range(d))
    return assignment, thresholds


def is_gamma_shattered(
    c: QueryClass,
    subset,
    gamma: float,
    *,
    budget: int | None = None,
) -> ShatteringWitness | None:
    """Decide whether ``subset`` is gamma-shattered; return a witness if so.

    Raises ``SearchBudgetExceeded`` if the node budget runs out before the
    search completes (so ``None`` always means a definite "not shattered").
    """
    gamma = _validate_gamma(gamma)
    subset = tuple(int(i) for i in subset)
    if len(subset) < 1:
        raise ValueError("subset must contain at least one index")
    if len(set(subset)) != len(subset):
        raise ValueError("subset indices must be distinct")
    for i in subset:
        if not 0 <= i < c.n:
            raise IndexError(f"subset index {i} out of range for n={c.n}")
    tracker = _NodeBudget(config.node_budget(budget))
    found = _search_assignment(c.matrix[:, subset], gamma, tracker)
    if found is None:
        return None
    assignment, thresholds = found
    return ShatteringWitness(subset=subset, thresholds=thresholds, assignment=assignment, gamma=gamma)


@dataclass(frozen=True)
class FsdResult:
    """Outcome of a dimension search.  ``exact=False`` means the node budget
    ran out and ``d`` is only a lower bound."""

    d: int
    witness: ShatteringWitness | None
    nodes_explored: int
    exact: bool

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "witness": self.witness.to_dict() if self.witness is not None else None,
            "nodes_explored": self.nodes_explored,
            "exact": self.exact,
        }


def fsd(c: QueryClass, gamma: float, d_max: int, *, budget: int | None = None) -> FsdResult:
    """Largest ``d <= d_max`` such that some size-d subset of basis vectors is
    gamma-shattered, together with a witness.

    Searches subset sizes bottom-up and stops at the first empty level:
    shattering is downward closed (restrict the assignment to sub-patterns),
    so an empty level proves every larger level empty too.  Among equally
    large shattered subsets the lexicographically smallest index set wins.

    The same closure prunes within a level: a d-subset with an unshattered
    (d-1)-subset is skipped unsearched.  Verdicts are kept for two levels
    only, the current one and the one below, whose scan stopped at its first
    shattered subset and so left the later ones undecided.  Until the
    current level has seen a search fail, a subset is skipped only when a
    (d-1)-subset is already known to be unshattered (searched or skipped
    below); after the first failure, its undecided (d-1)-subsets are also
    searched, in lex order, until one proves unshattered or all are
    shattered.  Waiting for a failure keeps a level whose first subset is
    shattered at exactly its unpruned cost, as on boolean product classes;
    deciding (d-1)-subsets from the start cost 3.7x the nodes there.

    Every search, of a subset or of a (d-1)-subset, spends from one budget,
    so ``nodes_explored`` counts the rows tried by all of them.  When the
    search is exact, ``d`` and the witness are those of the unpruned scan:
    every skipped subset is unshattered and the first shattered subset is
    found by the same DFS.  Only the node count moves.  It usually falls
    (1.8-1.9x on uniform random classes whose top level is empty), but it
    rises where the searched (d-1)-subsets cost more than the skips save:
    in two samples of 2,825 random small classes (k 2-23, n 2-9), 13% and
    21% of the classes used more nodes, at worst 1.58x and 1.39x.  So a
    budget-limited search can stop at a different point, and return a
    different lower bound, than the unpruned scan would.
    """
    gamma = _validate_gamma(gamma)
    if d_max < 1:
        raise ValueError(f"d_max must be at least 1, got {d_max}")
    tracker = _NodeBudget(config.node_budget(budget))

    def search(subset: tuple[int, ...]):
        return _search_assignment(c.matrix[:, subset], gamma, tracker)

    best_d = 0
    best_witness: ShatteringWitness | None = None
    exact = True
    below: dict[tuple[int, ...], bool] = {}  # level d-1: subset -> shattered
    try:
        for d in range(1, min(d_max, c.n) + 1):
            level: dict[tuple[int, ...], bool] = {}
            level_witness = None
            failed = False
            for subset in itertools.combinations(range(c.n), d):
                faces = list(itertools.combinations(subset, d - 1)) if d > 1 else []
                pruned = any(below.get(face) is False for face in faces)
                if failed and not pruned:
                    for face in faces:
                        if face not in below:
                            below[face] = search(face) is not None
                            if not below[face]:
                                pruned = True
                                break
                if pruned:
                    level[subset] = False
                    continue
                found = search(subset)
                level[subset] = found is not None
                if found is not None:
                    assignment, thresholds = found
                    level_witness = ShatteringWitness(
                        subset=subset, thresholds=thresholds, assignment=assignment, gamma=gamma
                    )
                    break
                failed = True
            if level_witness is None:
                break
            best_d, best_witness = d, level_witness
            below = level
    except SearchBudgetExceeded:
        exact = False
    return FsdResult(d=best_d, witness=best_witness, nodes_explored=tracker.used, exact=exact)


def choose_m(eta: float, d: int, c_m: float = config.DEFAULT_CM) -> int:
    """Surrogate size for target relative error ``eta`` and dimension ``d``:
    ceil(c_m * (d * ln^2(1/eta) + ln 2) / eta^2), floored at 1.

    The ln 2 term is the failure-probability contribution at delta = 1/2, the
    value under which a good surrogate exists by the averaging argument.
    """
    eta = float(eta)
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must lie in (0, 1], got {eta}")
    if d < 0:
        raise ValueError("d must be nonnegative")
    if c_m <= 0:
        raise ValueError("c_m must be positive")
    log_term = math.log(1.0 / eta)
    m = math.ceil(c_m * (d * log_term * log_term + math.log(2.0)) / (eta * eta))
    return max(int(m), 1)

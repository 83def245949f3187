"""Shattering certificates and the fat-shattering dimension of finite classes.

A subset ``S`` of basis vectors is gamma-shattered by a class ``C`` when some
threshold vector ``r`` admits, for every sign pattern ``b`` over ``S``, a
query whose basis values sit at least ``gamma`` above ``r`` on the 1-marked
coordinates and at least ``gamma`` below it on the 0-marked ones.  The
dimension is the largest cardinality of a shattered subset.

The search scans threshold vectors drawn from the class itself.  Choosing a
realizing query ``q_b`` for every pattern extends to a valid ``r`` iff on
every coordinate the smallest 1-side value clears the largest 0-side value
by at least ``2*gamma`` (any valid ``r`` puts the 1-side at ``>= r+gamma``
and the 0-side at ``<= r-gamma``; conversely the midpoint of the two
extremes works).  So ``S`` is shattered iff some ``v``, with each ``v_t`` a
value of column ``t``, gives every pattern a query with ``q_t - v_t >=
2*gamma`` where ``b_t = 1`` and ``q_t <= v_t`` where ``b_t = 0``: take
``v_t`` the largest 0-side value of a valid choice; conversely, rows that
realize every pattern under ``v`` have 0-side values ``<= v_t``, and float
subtraction is monotone, so their 1-side values clear the 0-side maximum by
``2*gamma`` too.  That leaves at most k^d candidate vectors, searched by
branch and bound over coordinates.

Everything here is exponential-time by design: the dimension is a
combinatorial quantity and exactness at small scale is the goal.  Searches
are guarded by a subset-size cap and a budget of comparisons (one row tested
against one threshold candidate); running out of budget degrades the answer
to a best-found lower bound flagged ``exact=False``.
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
    """The shattering search ran out of its budget of comparisons before
    finishing."""


def _validate_gamma(gamma: float) -> float:
    gamma = float(gamma)
    if not 0.0 < gamma <= 0.5:
        raise ValueError(f"gamma must lie in (0, 1/2], got {gamma}")
    return gamma


def _validate_eta(eta: float) -> float:
    eta = float(eta)
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must lie in (0, 1], got {eta}")
    return eta


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


def _pick_threshold(low: float, high: float, gamma: float) -> float:
    # Any r in [low+gamma, high-gamma] works in exact arithmetic; try the
    # midpoint first and fall back to the interval ends if rounding bites.
    for r in ((low + high) / 2.0, high - gamma, low + gamma):
        if high >= r + gamma and low <= r - gamma:
            return float(r)
    raise AssertionError("no representable threshold despite a 2*gamma gap")


class _ThresholdSearch:
    """The threshold search of one ``fsd`` or ``is_gamma_shattered`` call.

    ``search(subset)`` returns the lex-first threshold vector ``v`` over the
    columns ``subset`` under which every pattern has a realizing row: (v,
    first realizing row per pattern in ``itertools.product`` order), or None.

    Coordinates are fixed in order, each column's distinct values tried in
    increasing order.  ``live[p]`` marks the rows that realize partial
    pattern ``p`` over the coordinates fixed so far; a row realizes at most
    one pattern, so ``v_t`` survives only if each of the 2^(t+1) extended
    partial patterns keeps at least 2^(d-t-1) rows.  One pass counts those
    rows for every candidate the budget can still pay for.  The search may
    charge ``budget`` comparisons in all, k per candidate tried: the
    candidates skipped before a survivor are spent with it, the rest once
    the last survivor fails.  ``used`` counts the comparisons charged.

    Work is shared between the subsets of a call without sharing any
    comparison's charge:

    - A column's table, its sorted distinct values with the ``<= v`` and
      ``>= v + 2*gamma`` masks of each, is built on the column's first use.
      It keeps only the candidates the budget left at that point can pay
      for, which no later node can exceed.
    - Subsets are searched in lex order, and a node's survivors and child
      ``live`` arrays depend only on the columns and candidates above it and
      on the subset size.  So the nodes of the current subset's prefix are
      kept, depth by depth, and dropped once a subset leaves that prefix or
      the size changes.  A kept node replays its survivors and spends as it
      did, so the comparisons charged, and where the budget runs out, are
      those of a search from scratch; survivors counted under a larger
      budget than is left only reach a spend that raises.  Nodes on the
      last coordinate are not kept, since no later subset reaches them.
    """

    def __init__(self, matrix: np.ndarray, gamma: float, budget: int):
        self.matrix = matrix
        self.margin = 2.0 * gamma
        self.remaining = int(budget)
        self.used = 0
        self.tables = {}  # column -> (candidates, distinct count, masks)
        self.subset = ()
        self.nodes = []  # nodes[t]: {candidate path: (survivors, children)}
        self.root = np.ones((1, matrix.shape[0]), dtype=bool)

    def _table(self, i: int):
        column = self.matrix[:, i]
        values = np.unique(column)
        # Candidates past the remaining budget are never tested.
        reach = values[: self.remaining // column.size, None]
        # masks[j] holds candidate j's 0-side and 1-side rows.
        masks = np.stack([column <= reach, column - reach >= self.margin], axis=1)
        table = self.tables[i] = reach[:, 0], values.size, masks
        return table

    def spend(self, units: int):
        """Spend ``units`` comparisons; if fewer remain, spend what is left
        and raise, so an exhausted search always reports ``used == budget``."""
        if units > self.remaining:
            self.used += self.remaining
            self.remaining = 0
            raise SearchBudgetExceeded("shattering search exceeded its node budget")
        self.remaining -= units
        self.used += units

    def search(self, subset: tuple[int, ...]):
        d = len(subset)
        shared = 0
        if d == len(self.subset):
            while shared < d - 1 and subset[shared] == self.subset[shared]:
                shared += 1
        nodes = self.nodes
        del nodes[shared:]
        nodes += [{} for _ in range(d - 1 - shared)]
        self.subset = subset
        spend, tables = self.spend, self.tables
        k = self.matrix.shape[0]

        def recurse(t: int, live: np.ndarray, path: tuple[int, ...]):
            if t == d:
                v = tuple(float(tables[i][0][j]) for i, j in zip(subset, path))
                return v, live.argmax(axis=1)
            _, count, masks = tables.get(subset[t]) or self._table(subset[t])
            node = nodes[t].get(path) if t < d - 1 else None
            if node is None:
                reach = masks[: self.remaining // k]
                weights, need = live.astype(np.float64), 1 << (d - 1 - t)
                fits = (weights @ reach[:, 0].T >= need).all(axis=0)
                fits &= (weights @ reach[:, 1].T >= need).all(axis=0)
                node = fits.nonzero()[0].tolist(), {}
                if t < d - 1:
                    nodes[t][path] = node
            fits, children = node
            tried = -1
            for j in fits:
                spend(k * (j - tried))
                tried = j
                child = children.get(j)
                if child is None:
                    # Partial pattern p extends to 2p (bit 0) and 2p + 1 (bit 1).
                    child = (live[:, None] & masks[j]).reshape(-1, k)
                    if t < d - 1:
                        children[j] = child
                found = recurse(t + 1, child, path + (j,))
                if found is not None:
                    return found
            spend(k * (count - 1 - tried))
            return None

        return recurse(0, self.root, ())


def _witness(c: QueryClass, subset: tuple[int, ...], gamma: float, rows) -> ShatteringWitness:
    """The witness in which each pattern takes its row from ``rows``, the
    first realizing rows of the lex-first threshold vector (see the module
    docstring for why ``_pick_threshold`` then finds ``r``)."""
    basis = c.matrix[:, subset]
    patterns = list(itertools.product((0, 1), repeat=len(subset)))
    ones = np.array(patterns, dtype=bool)
    values = basis[rows]
    max0 = np.where(ones, -np.inf, values).max(axis=0)
    min1 = np.where(ones, values, np.inf).min(axis=0)
    thresholds = tuple(_pick_threshold(float(lo), float(hi), gamma) for lo, hi in zip(max0, min1))
    assignment = dict(zip(patterns, rows.tolist()))
    return ShatteringWitness(
        subset=subset, thresholds=thresholds, assignment=assignment, gamma=gamma
    )


def is_gamma_shattered(
    c: QueryClass,
    subset,
    gamma: float,
    *,
    budget: int | None = None,
) -> ShatteringWitness | None:
    """Decide whether ``subset`` is gamma-shattered; return a witness if so.

    Raises ``SearchBudgetExceeded`` if the comparison budget runs out before
    the search completes (so ``None`` always means a definite "not
    shattered").
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
    search = _ThresholdSearch(c.matrix, gamma, config.node_budget(budget))
    found = search.search(subset)
    return None if found is None else _witness(c, subset, gamma, found[1])


@dataclass(frozen=True)
class FsdResult:
    """Outcome of a dimension search.  ``nodes_explored`` counts comparisons,
    one row tested against one threshold candidate, over every subset
    searched.  ``exact=False`` means the budget ran out and ``d`` is only a
    lower bound."""

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

    Searches subset sizes bottom-up, each level's subsets in lex order, and
    stops at the first empty level: shattering is downward closed (restrict
    the witness to sub-patterns), so an empty level proves every larger level
    empty too.  Among equally large shattered subsets the lexicographically
    smallest index set wins; its witness comes from the lex-first threshold
    vector.  Every subset search spends from one budget of ``budget``
    comparisons (``DEFAULT_NODE_BUDGET`` when None), so ``nodes_explored``
    counts them all.  The subsets share one ``_ThresholdSearch``, its column
    tables and its replayed prefixes, which charges what searching each
    subset alone would.
    """
    gamma = _validate_gamma(gamma)
    if d_max < 1:
        raise ValueError(f"d_max must be at least 1, got {d_max}")
    search = _ThresholdSearch(c.matrix, gamma, config.node_budget(budget))
    best = None  # (subset, realizing rows) of the last shattered level
    exact = True
    try:
        for d in range(1, min(d_max, c.n) + 1):
            for subset in itertools.combinations(range(c.n), d):
                found = search.search(subset)
                if found is not None:
                    break
            if found is None:
                break
            best = subset, found[1]
    except SearchBudgetExceeded:
        exact = False
    witness = _witness(c, best[0], gamma, best[1]) if best else None
    return FsdResult(
        d=witness.d if witness else 0, witness=witness, nodes_explored=search.used, exact=exact
    )


def choose_m(eta: float, d: int) -> int:
    """Surrogate size for target relative error ``eta`` and dimension ``d``:
    ceil(DEFAULT_CM * (d * ln^2(1/eta) + ln 2) / eta^2), floored at 1.

    The ln 2 term is the failure-probability contribution at delta = 1/2, the
    value under which a good surrogate exists by the averaging argument.
    """
    eta = _validate_eta(eta)
    if d < 0:
        raise ValueError("d must be nonnegative")
    log_term = math.log(1.0 / eta)
    m = math.ceil(config.DEFAULT_CM * (d * log_term * log_term + math.log(2.0)) / (eta * eta))
    return max(int(m), 1)

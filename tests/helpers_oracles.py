"""Independent brute-force oracles and generators used by the test suite.

These deliberately re-derive results through different algorithms than the
library (full enumeration instead of pruned search, threshold sweeps and
assignment DFS instead of a vectorised branch and bound, definitional grids
instead of analytic elimination) so agreement is meaningful.
"""

import itertools
import json
import math

import numpy as np

from sparsedp import (
    CertificateResult,
    Database,
    ExponentRule,
    PrivacyParams,
    QueryClass,
    ShatteringWitness,
    SparseSyntheticDatabase,
    __version__,
    attack,
    best_sparse_db,
    config,
    exact_output_distribution,
    l1_norm,
    load_database,
    load_query_class,
    mechanisms,
    quality_score,
)
from sparsedp.core import _check_dims
from sparsedp.mechanisms import (
    _resolve_l1,
    acceptance_probability,
    composition_matrix,
    estimate_l1,
    exponent_divisor,
    score_rows,
)
from sparsedp.fsd import _pick_threshold
from sparsedp.oracle import RATIO_SLACK


def random_query_class(rng: np.random.Generator, k: int, n: int) -> QueryClass:
    return QueryClass(rng.uniform(0.0, 1.0, size=(k, n)))


def boolean_indicator_class(n: int) -> QueryClass:
    """All 2^n subset-indicator queries on n coordinates."""
    queries = []
    for size in range(n + 1):
        for subset in itertools.combinations(range(n), size):
            row = np.zeros(n)
            row[list(subset)] = 1.0
            queries.append(row)
    return QueryClass(queries)


def assignment_enumeration_shattered(c: QueryClass, subset, gamma: float) -> bool:
    """Exhaustive k^(2^d) enumeration of pattern->query assignments, checking
    the per-coordinate separation directly.  Only viable for tiny cases."""
    d = len(subset)
    patterns = list(itertools.product((0, 1), repeat=d))
    values = c.matrix[:, list(subset)]
    for assign in itertools.product(range(c.k), repeat=len(patterns)):
        ok = True
        for t in range(d):
            ones = [values[assign[i], t] for i, b in enumerate(patterns) if b[t] == 1]
            zeros = [values[assign[i], t] for i, b in enumerate(patterns) if b[t] == 0]
            if min(ones) - max(zeros) < 2.0 * gamma:
                ok = False
                break
        if ok:
            return True
    return False


def _threshold_membership_pairs(values: np.ndarray, gamma: float) -> list[tuple[int, int]]:
    """Distinct (high-set bitmask, low-set bitmask) pairs realizable by some
    threshold r for one coordinate: high = {q : v_q >= r + gamma}, low =
    {q : v_q <= r - gamma}."""
    breakpoints = sorted(set([v - gamma for v in values] + [v + gamma for v in values]))
    candidates = set(breakpoints)
    for a, b in zip(breakpoints, breakpoints[1:]):
        candidates.add((a + b) / 2.0)
    candidates.update([0.0, 1.0])
    pairs = set()
    for r in candidates:
        high = 0
        low = 0
        for q, v in enumerate(values):
            if v >= r + gamma:
                high |= 1 << q
            if v <= r - gamma:
                low |= 1 << q
        if high and low:
            pairs.add((high, low))
    return sorted(pairs)


def threshold_sweep_shattered(c: QueryClass, subset, gamma: float) -> bool:
    """Complete decision procedure by sweeping candidate thresholds: the
    subset is shattered iff some choice of per-coordinate threshold leaves
    every pattern a nonempty intersection of high/low query sets."""
    d = len(subset)
    per_coord = [
        _threshold_membership_pairs(c.matrix[:, subset[t]], gamma) for t in range(d)
    ]
    if any(not pairs for pairs in per_coord):
        return False
    patterns = list(itertools.product((0, 1), repeat=d))
    for combo in itertools.product(*per_coord):
        feasible = True
        for pattern in patterns:
            mask = ~0
            for t, bit in enumerate(pattern):
                mask &= combo[t][0] if bit else combo[t][1]
                if mask == 0:
                    feasible = False
                    break
            if not feasible:
                break
        if feasible:
            return True
    return False


def rgrid_shattered(c: QueryClass, subset, gamma: float, resolution: float) -> bool:
    """Definitional grid check: scan r over a grid of the given resolution and
    test whether every pattern has a realizing query.  Finds witnesses only
    when they are not knife-edge, so it one-sidedly implies shattering."""
    d = len(subset)
    axis = np.arange(0.0, 1.0 + resolution / 2.0, resolution)
    values = c.matrix[:, list(subset)]
    patterns = list(itertools.product((0, 1), repeat=d))
    for r in itertools.product(axis, repeat=d):
        ok = True
        for pattern in patterns:
            found = False
            for q in range(c.k):
                good = True
                for t, bit in enumerate(pattern):
                    if bit == 1:
                        if not values[q, t] >= r[t] + gamma:
                            good = False
                            break
                    elif not values[q, t] <= r[t] - gamma:
                        good = False
                        break
                if good:
                    found = True
                    break
            if not found:
                ok = False
                break
        if ok:
            return True
    return False


class ReferenceBudgetExceeded(Exception):
    pass


def per_node_search(basis: np.ndarray, gamma: float, budget: list[int]):
    """Reference shattering DFS that tries the k queries of a node one at a
    time and spends one node per query tried, before testing it.  ``budget``
    is [remaining, used]; running out raises ``ReferenceBudgetExceeded``.
    Returns (assignment, min1, max0) or None."""
    k, d = basis.shape
    patterns = list(itertools.product((0, 1), repeat=d))
    min1 = [np.inf] * d
    max0 = [-np.inf] * d
    chosen: list[int] = []
    threshold = 2.0 * gamma

    def recurse(idx: int) -> bool:
        if idx == len(patterns):
            return True
        pattern = patterns[idx]
        for qi in range(k):
            if budget[0] <= 0:
                raise ReferenceBudgetExceeded
            budget[0] -= 1
            budget[1] += 1
            row = basis[qi]
            ok = True
            touched = []
            for t in range(d):
                v = row[t]
                if pattern[t] == 1:
                    if v < min1[t]:
                        if v - max0[t] < threshold:
                            ok = False
                            break
                        touched.append((t, min1[t], True))
                        min1[t] = v
                elif v > max0[t]:
                    if min1[t] - v < threshold:
                        ok = False
                        break
                    touched.append((t, max0[t], False))
                    max0[t] = v
            if ok:
                chosen.append(qi)
                if recurse(idx + 1):
                    return True
                chosen.pop()
            for t, old, was_min in reversed(touched):
                if was_min:
                    min1[t] = old
                else:
                    max0[t] = old
        return False

    if not recurse(0):
        return None
    return dict(zip(patterns, chosen)), tuple(min1), tuple(max0)


def per_node_fsd(c: QueryClass, gamma: float, d_max: int, budget: int):
    """``fsd`` driven by ``per_node_search``, every subset searched in lex
    order up to each level's first shattered one: (d, subset, assignment,
    min1, max0, nodes used, exact) with the middle four None for d = 0."""
    state = [budget, 0]
    best = (0, None, None, None, None)
    exact = True
    try:
        for d in range(1, min(d_max, c.n) + 1):
            level = None
            for subset in itertools.combinations(range(c.n), d):
                found = per_node_search(c.matrix[:, subset], gamma, state)
                if found is not None:
                    level = (d, subset) + found
                    break
            if level is None:
                break
            best = level
    except ReferenceBudgetExceeded:
        exact = False
    return best + (state[1], exact)


def _realizes(row, v, pattern, margin: float) -> bool:
    return all(
        (q - r >= margin) if bit else (q <= r) for q, r, bit in zip(row, v, pattern)
    )


def brute_force_thresholds(c: QueryClass, subset, gamma: float):
    """Scan every threshold vector ``v`` (each ``v_t`` a value of column
    ``t``, in lex order) for the first under which every pattern has a
    realizing row: (v, first realizing row per pattern in
    ``itertools.product`` order), or None."""
    basis = c.matrix[:, list(subset)].tolist()
    d = len(subset)
    patterns = list(itertools.product((0, 1), repeat=d))
    margin = 2.0 * gamma
    columns = [sorted(set(row[t] for row in basis)) for t in range(d)]
    for v in itertools.product(*columns):
        rows = []
        for pattern in patterns:
            row = next(
                (q for q, row in enumerate(basis) if _realizes(row, v, pattern, margin)), None
            )
            if row is None:
                break
            rows.append(row)
        else:
            return v, rows
    return None


def witness_from_rows(c: QueryClass, subset, gamma: float, rows) -> ShatteringWitness:
    """The witness that assigns pattern i (in ``itertools.product`` order) to
    ``rows[i]``, each threshold picked from its coordinate's 0-side maximum
    and 1-side minimum."""
    d = len(subset)
    patterns = list(itertools.product((0, 1), repeat=d))
    thresholds = []
    for t, i in enumerate(subset):
        max0 = max(float(c.matrix[q, i]) for q, b in zip(rows, patterns) if b[t] == 0)
        min1 = min(float(c.matrix[q, i]) for q, b in zip(rows, patterns) if b[t] == 1)
        thresholds.append(_pick_threshold(max0, min1, gamma))
    return ShatteringWitness(
        subset=tuple(subset), thresholds=tuple(thresholds),
        assignment=dict(zip(patterns, rows)), gamma=gamma,
    )


def per_candidate_search(basis: np.ndarray, gamma: float, budget: list[int]):
    """Reference threshold search that tries a column's candidates one at a
    time, in increasing order, and spends k comparisons on each before
    testing it.  ``budget`` is [remaining, used]; when fewer than k remain it
    spends them and raises ``ReferenceBudgetExceeded`` carrying the
    coordinate, the candidate's index and the column's candidate count.
    Returns (v, first realizing row per pattern) or None."""
    k, d = basis.shape
    columns = basis.T.tolist()
    margin = 2.0 * gamma

    def recurse(t, live, chosen):
        # live[p]: the rows realizing partial pattern p over coordinates < t
        if t == d:
            return tuple(chosen), [rows[0] for rows in live]
        column = columns[t]
        candidates = sorted(set(column))
        for index, v in enumerate(candidates):
            spent = min(k, budget[0])
            budget[0] -= spent
            budget[1] += spent
            if spent < k:
                raise ReferenceBudgetExceeded(t, index, len(candidates))
            extended = []
            for rows in live:
                extended.append([q for q in rows if column[q] <= v])
                extended.append([q for q in rows if column[q] - v >= margin])
            if all(len(rows) >= 2 ** (d - 1 - t) for rows in extended):
                found = recurse(t + 1, extended, chosen + [v])
                if found is not None:
                    return found
        return None

    return recurse(0, [list(range(k))], [])


def per_candidate_fsd(c: QueryClass, gamma: float, d_max: int, budget: int):
    """``fsd`` driven by ``per_candidate_search``: (d, witness, nodes used,
    exact, stop), the witness None for d = 0.  ``stop`` is None for an exact
    search, else (level, index of the subset in its level, coordinate,
    candidate index, candidate count) where the budget ran out."""
    state = [budget, 0]
    best = None
    stop = None
    try:
        for d in range(1, min(d_max, c.n) + 1):
            level = None
            for position, subset in enumerate(itertools.combinations(range(c.n), d)):
                found = per_candidate_search(c.matrix[:, subset], gamma, state)
                if found is not None:
                    level = witness_from_rows(c, subset, gamma, found[1])
                    break
            if level is None:
                break
            best = level
    except ReferenceBudgetExceeded as e:
        stop = (d, position) + e.args
    return (best.d if best else 0), best, state[1], stop is None, stop


def fsd_by_sweep(c: QueryClass, gamma: float, d_max: int) -> int:
    """Exhaustive dimension via the threshold-sweep decision procedure."""
    best = 0
    for d in range(1, min(d_max, c.n) + 1):
        if not any(
            threshold_sweep_shattered(c, s, gamma) for s in itertools.combinations(range(c.n), d)
        ):
            break
        best = d
    return best


def vc_dimension(c: QueryClass) -> int:
    """Set-shattering dimension of a boolean-valued class: largest subset on
    which the query restrictions realize all sign patterns."""
    best = 0
    for d in range(1, c.n + 1):
        found = False
        for subset in itertools.combinations(range(c.n), d):
            projections = {
                tuple(int(round(v)) for v in c.matrix[q, list(subset)]) for q in range(c.k)
            }
            if len(projections) == 2**d:
                found = True
                break
        if not found:
            break
        best = d
    return best


def softmax(logits) -> np.ndarray:
    """exp(logits - max) / its sum, the textbook way, kept apart from the
    library's ``exponential_law``."""
    logits = np.asarray(logits, dtype=np.float64)
    weights = np.exp(logits - logits.max())
    return weights / weights.sum()


def total_variation(p: dict, q: dict) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(key, 0.0) - q.get(key, 0.0)) for key in keys)


def law_by_row(dist) -> dict:
    """An ``OutputDistribution`` as {count tuple: probability}."""
    return dict(zip(map(tuple, dist.counts.tolist()), dist.probabilities.tolist()))


def real_probe_pairs(rng, n: int, entry_cap: int, count: int) -> list:
    """The certificates' real-valued probe pairs, drawn from ``rng`` in the
    library's order: a point in [0, entry_cap]^n, then one coordinate moved
    down by 1 (when it can be, with probability 1/2) or else up by 1."""
    pairs = []
    for _ in range(count):
        a = rng.uniform(0.0, float(entry_cap), size=n)
        i = int(rng.integers(n))
        b = a.copy()
        if a[i] >= 1.0 and rng.random() < 0.5:
            b[i] -= 1.0
        else:
            b[i] += 1.0
        pairs.append((a, b))
    return pairs


def per_point_certificate(
    n, entry_cap, c, p, m, exponent_rule, outcome_map=None, *, real_probes=0, rng=None,
):
    """The ratio certificate one grid point at a time: each point's
    distribution from its own kernel call, pushed forward through a dict, and
    both orders of every pair scanned label by label with a strict ``>``.
    The library computes the same certificate over whole arrays.  The
    divisor is read through ``mechanisms`` at call time, so a test that
    patches ``mechanisms.exponent_divisor`` mis-weights this reference too."""
    counts = composition_matrix(n, m)
    if outcome_map is None:
        labels = [tuple(int(x) for x in row) for row in counts]
    else:
        labels = [outcome_map(SparseSyntheticDatabase(row)) for row in counts]

    def distribution(entries) -> dict:
        d = Database(np.asarray(entries, dtype=np.float64))
        scores = score_rows(c, counts, [c.matrix @ d.entries], [l1_norm(d)], m)[0]
        probs = softmax(scores * p.alpha / mechanisms.exponent_divisor(exponent_rule, m))
        out: dict = {}
        for label, prob in zip(labels, probs):
            out[label] = out.get(label, 0.0) + float(prob)
        return out

    grid = list(itertools.product(range(entry_cap + 1), repeat=n))
    dists = {point: distribution(point) for point in grid}
    max_ratio, witness_pair, witness_outcome, pairs_checked = 0.0, None, None, 0

    def consider(a, b, dist_a, dist_b):
        nonlocal max_ratio, witness_pair, witness_outcome, pairs_checked
        for x, y, dist_x, dist_y in ((a, b, dist_a, dist_b), (b, a, dist_b, dist_a)):
            for label, u in dist_x.items():
                v = dist_y.get(label, 0.0)
                ratio = float("inf") if v == 0.0 and u > 0.0 else (1.0 if u == v == 0.0 else u / v)
                if ratio > max_ratio:
                    max_ratio, witness_outcome = ratio, label
                    witness_pair = (tuple(x), tuple(y))
        pairs_checked += 2

    for point in grid:
        for i in range(n):
            if point[i] + 1 <= entry_cap:
                up = point[:i] + (point[i] + 1,) + point[i + 1 :]
                consider(point, up, dists[point], dists[up])

    for a, b in real_probe_pairs(rng, n, entry_cap, real_probes):
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


def columnwise_scores(c: QueryClass, counts, true_answers, l1_estimates, m: int) -> np.ndarray:
    """The scores of ``score_rows`` from one matmul over all of ``counts``,
    one (B, rows, k) error array and a maximum over its last axis: the
    formula the kernel held before it worked in slices of reused buffers."""
    t = np.asarray(true_answers, dtype=np.float64)[:, None, :]
    f = np.asarray(l1_estimates, dtype=np.float64)[:, None, None] / m
    return -np.abs(t - f * (counts @ c.matrix.T)).max(axis=2)


def grown_domain_blocks(n: int, m: int, max_rows=None):
    """``domain_blocks`` grown a level at a time: each level repeats every
    prefix row rem+1 times and ``column_stack``s rem..0 onto the copies, so
    a block's earlier columns are copied once per later level."""
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


def reference_walk(d, c, p, m, steps, rng, exponent_rule, l1="public", record=None):
    """The Metropolis walk one step at a time, rescoring every candidate from
    scratch with ``quality_score``.  It reads the generator as the library's
    chain does: the L1 estimate, then per block of ``mechanisms.CHAIN_BLOCK``
    steps every source, every destination and one uniform per step.  Returns
    the final state, its score, the L1 estimate and the occupation counts of
    the steps from ``record`` on."""
    n = d.n
    alpha = p.alpha
    if l1 == "public":
        l1_estimate = l1_norm(d)
    elif l1 == "private":
        share = config.L1_ESTIMATE_ALPHA_SHARE
        l1_estimate = estimate_l1(d, share * alpha, rng)
        alpha = (1.0 - share) * alpha
    else:
        l1_estimate = float(l1)
    scale = alpha / exponent_divisor(exponent_rule, m)

    def score(state):
        return quality_score(d, SparseSyntheticDatabase(np.array(state)), c, l1_estimate)

    state = (m,) + (0,) * (n - 1)
    current = score(state)
    counts: dict = {}
    step = 0
    while step < steps:
        size = min(mechanisms.CHAIN_BLOCK, steps - step)
        if n > 1:
            sources = rng.integers(n, size=size)
            destinations = rng.integers(n - 1, size=size)
        uniforms = rng.random(size)
        for t in range(size):
            if n > 1 and state[sources[t]] > 0:
                i = int(sources[t])
                j = int(destinations[t])
                if j >= i:
                    j += 1
                candidate = list(state)
                candidate[i] -= 1
                candidate[j] += 1
                candidate_score = score(candidate)
                if acceptance_probability(current, candidate_score, scale) > uniforms[t]:
                    state, current = tuple(candidate), candidate_score
            if record is not None and step >= record:
                counts[state] = counts.get(state, 0) + 1
            step += 1
    return state, current, l1_estimate, counts


def allocating_chain_reference(d, c, p, m, steps, rng, exponent_rule, l1, record):
    """The Metropolis chain as the library ran it before its steps reused
    two residual buffers: each candidate residual is a new array
    ``resid + cols[i] - cols[j]`` scored by ``-abs(...).max()``.  Same
    arguments and return value as ``mechanisms._chain``; ``CHAIN_BLOCK`` is
    read through ``mechanisms`` at call time, so a patched block size applies
    here too."""
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
    for start in range(0, steps, mechanisms.CHAIN_BLOCK):
        size = min(mechanisms.CHAIN_BLOCK, steps - start)
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


def oracle_stdout_by_dicts(
    db_path, class_path, alpha: float, m: int, exponent: str, best_sparse: bool
) -> str:
    """What ``sparsedp oracle`` prints, built from one dict per domain row,
    ``best_sparse_db``'s own search for the best surrogate and
    ``json.dumps``; the CLI encodes the columns directly and takes the best
    surrogate from the distribution's scores."""
    d, c = load_database(db_path), load_query_class(class_path)
    dist = exact_output_distribution(d, c, PrivacyParams(alpha), m, ExponentRule(exponent))
    result = {
        "distribution": [
            {"counts": counts, "probability": prob}
            for counts, prob in zip(dist.counts.tolist(), dist.probabilities.tolist())
        ]
    }
    if best_sparse:
        best, relative_error = best_sparse_db(d, c, m)
        result["best_sparse"] = {"counts": best.counts.tolist(), "relative_error": relative_error}
    config = {
        "alpha": alpha, "best_sparse": best_sparse, "command": "oracle", "db": str(db_path),
        "exponent": exponent, "m": m, "out": None, "query_class": str(class_path),
    }
    document = {"version": __version__, "config": config, "result": result}
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def _true_answers(family, subset) -> np.ndarray:
    """The family's ``used`` queries on the subset's indicator, one column
    added per member in index order (the library's former
    ``ShatteredFamily.true_answers``)."""
    total = np.zeros(len(family.used))
    for i in sorted(subset):
        total += family.used_rows[:, i]
    return total


def per_trial_attack_reference(mechanism, family, trials, rng, *, alpha=None):
    """``attack_experiment`` as the library ran it before trials were
    reconstructed a chunk at a time: all children spawned up front, and each
    trial drawn, released and reconstructed on its own, with Python set and
    list operations.  Same arguments and return value."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    subsets = family.subsets()
    gamma = family.gamma
    d = family.d
    children = rng.spawn(trials)

    failures = 0
    completed = 0
    violations = 0
    vacuous = 0
    hits_target = 0
    hits_swapped = 0
    total_symdiff = 0
    total_eps = 0.0
    symdiff_counts: dict[int, int] = {}
    per_trial: list[tuple[float, int]] = []

    for trial_rng in children:
        s_hidden = int(trial_rng.integers(len(subsets)))
        t_hidden = subsets[s_hidden]
        inside = list(t_hidden)
        outside = [i for i in family.bucket if i not in t_hidden]
        x = inside[int(trial_rng.integers(len(inside)))]
        y = outside[int(trial_rng.integers(len(outside)))]
        t_swapped = tuple(sorted(set(t_hidden) - {x} | {y}))

        d_hidden = family.databases[s_hidden]
        d_swapped = family.database_for(t_swapped)
        try:
            out_hidden = mechanism(d_hidden, trial_rng)
            out_swapped = mechanism(d_swapped, trial_rng)
        except (RuntimeError, ArithmeticError):
            failures += 1
            continue

        answers_hidden = attack._used_answers(out_hidden, family)
        answers_swapped = attack._used_answers(out_swapped, family)
        eps_hat = float(np.abs(_true_answers(family, t_hidden) - answers_hidden).max())
        t_star = subsets[attack._argmin_subset(family, answers_hidden)]
        t_star_swapped = subsets[attack._argmin_subset(family, answers_swapped)]

        symdiff = len(set(t_hidden) ^ set(t_star))
        bound = 4.0 * eps_hat / gamma
        if symdiff > bound + 1e-9:
            violations += 1
        if bound >= d:
            vacuous += 1
        hits_target += x in t_star
        hits_swapped += x in t_star_swapped
        total_symdiff += symdiff
        total_eps += eps_hat
        symdiff_counts[symdiff] = symdiff_counts.get(symdiff, 0) + 1
        per_trial.append((float(eps_hat), symdiff))
        completed += 1

    rate_target = hits_target / completed if completed else 0.0
    rate_swapped = hits_swapped / completed if completed else 0.0
    if completed == 0:
        ratio = None
    elif rate_swapped == 0.0:
        ratio = math.inf if rate_target > 0 else 1.0
    else:
        ratio = rate_target / rate_swapped
    return attack.AttackReport(
        trials=trials,
        completed=completed,
        mechanism_failures=failures,
        symdiff_counts=symdiff_counts,
        mean_symdiff=total_symdiff / completed if completed else 0.0,
        mean_eps_hat=total_eps / completed if completed else 0.0,
        reconstruction_bound_violations=violations,
        vacuous_fraction=vacuous / completed if completed else 0.0,
        recovery_rate_target=rate_target,
        recovery_rate_swapped=rate_swapped,
        recovery_ratio=ratio,
        alpha=alpha,
        single_change_bound=attack._safe_exp(alpha) if alpha is not None else None,
        double_change_bound=attack._safe_exp(2 * alpha) if alpha is not None else None,
        epsilon_floor=(
            gamma * d / (4.0 * (attack._safe_exp(alpha) + 1.0)) if alpha is not None else None
        ),
        per_trial=tuple(per_trial),
    )


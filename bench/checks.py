"""Output checks for benchmark jobs.

``check(doc)`` takes the JSON document a ``sparsedp`` CLI job printed,
recomputes its result through the library's public API from the same input
files (paths relative to the working directory, as in the document's
``config``), and returns the problems it found. An empty list means the job
passed.
"""

import math

import numpy as np

import sparsedp as sp
from sparsedp import config

# The MCMC chain updates its query answers incrementally, so its reported
# score may differ from a fresh quality_score in the last bits.
MCMC_SCORE_TOLERANCE = 1e-9
RATIO_SLACK = 1e-9
MASS_TOLERANCE = 1e-9
# Tolerance, per unit of ||D||_1, between best_sparse's error and the smallest
# error over the printed domain, which this check computes in another order.
ERROR_TOLERANCE = 1e-12


def _release(cfg: dict, res: dict) -> list[str]:
    db = sp.load_database(cfg["db"])
    cls = sp.load_query_class(cfg["query_class"])
    mcmc = cfg["sampler"] == "mcmc"
    m = res["m"]
    counts = np.asarray(res["d_prime"], dtype=np.int64)
    if cfg["m"] is not None and m != cfg["m"]:
        return [f"m is {m}, asked for {cfg['m']}"]
    if counts.shape != (db.n,) or (counts < 0).any() or int(counts.sum()) != m:
        return [f"d_prime {res['d_prime']} is not a nonnegative vector of length {db.n} summing to m={m}"]
    problems = []
    dp = sp.SparseSyntheticDatabase(counts)
    l1 = res["l1_estimate"]
    score = sp.quality_score(db, dp, cls, l1)
    if abs(res["score"] - score) > (MCMC_SCORE_TOLERANCE if mcmc else 0.0):
        problems.append(f"score {res['score']!r} != quality_score {score!r}")
    if res["d_out"] != [float(x) for x in sp.rescale(dp, l1).entries]:
        problems.append("d_out != rescale(d_prime, l1_estimate)")
    if res["approximate"] is not mcmc:
        problems.append(f"approximate is {res['approximate']} for sampler {cfg['sampler']}")
    if mcmc and sp.domain_size(db.n, m) <= config.DEFAULT_DOMAIN_BUDGET:
        problems.append(f"domain_size({db.n}, {m}) fits the exact sampler's budget")
    return problems


def _verify_privacy(cfg: dict, res: dict) -> list[str]:
    n, cap, probes = cfg["n"], cfg["entry_cap"], cfg["probes"]
    # Ordered pairs on the grid {0..cap}^n that differ by one unit in one
    # coordinate, plus both orders of every real-valued probe pair.
    expected_pairs = 2 * n * cap * (cap + 1) ** (n - 1) + 2 * probes
    problems = []
    if res["pass"] is not True:
        problems.append("certificate did not pass")
    if not res["max_ratio"] <= math.exp(cfg["alpha"]) + RATIO_SLACK:
        problems.append(f"max_ratio {res['max_ratio']!r} exceeds e^alpha")
    if res["pairs_checked"] != expected_pairs:
        problems.append(f"pairs_checked {res['pairs_checked']} != {expected_pairs}")
    return problems


def _oracle(cfg: dict, res: dict) -> list[str]:
    db = sp.load_database(cfg["db"])
    cls = sp.load_query_class(cfg["query_class"])
    m = cfg["m"]
    rows = np.asarray([e["counts"] for e in res["distribution"]], dtype=np.int64)
    problems = []
    if rows.shape != (sp.domain_size(db.n, m), db.n) or (rows.sum(axis=1) != m).any():
        problems.append(f"distribution does not list the {sp.domain_size(db.n, m)}-row domain")
    mass = math.fsum(e["probability"] for e in res["distribution"])
    if abs(mass - 1.0) > MASS_TOLERANCE:
        problems.append(f"probabilities sum to {mass!r}")
    best = res["best_sparse"]["counts"]
    if sum(best) != m:
        return problems + [f"best_sparse {best} does not sum to m={m}"]
    l1 = sp.l1_norm(db)
    best_error = sp.max_error(cls, db, sp.rescale(sp.SparseSyntheticDatabase(best), l1))
    row_errors = np.abs(cls.matrix @ db.entries - ((l1 / m) * rows) @ cls.matrix.T).max(axis=1)
    if best_error > row_errors.min() + ERROR_TOLERANCE * l1:
        problems.append(f"best_sparse error {best_error!r} > a domain row's {row_errors.min()!r}")
    return problems


def _attack(cfg: dict, res: dict) -> list[str]:
    problems = []
    if not res["completed"] == res["trials"] == cfg["trials"]:
        problems.append(f"completed {res['completed']} of {cfg['trials']} trials")
    if res["mechanism_failures"] != 0:
        problems.append(f"{res['mechanism_failures']} mechanism failures")
    if res["reconstruction_bound_violations"] != 0:
        problems.append(f"{res['reconstruction_bound_violations']} reconstruction bound violations")
    if cfg["mechanism"] == "identity" and res["mean_symdiff"] != 0:
        problems.append(f"identity mechanism reconstructed with mean_symdiff {res['mean_symdiff']}")
    return problems


CHECKS = {
    "release": _release,
    "verify-privacy": _verify_privacy,
    "oracle": _oracle,
    "attack": _attack,
}


def check(doc: dict) -> list[str]:
    """Problems found in one job's result document; empty when it passed."""
    cfg = doc["config"]
    return CHECKS[cfg["command"]](cfg, doc["result"])

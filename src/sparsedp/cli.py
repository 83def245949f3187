"""Command-line entry point.

Subcommands: ``release`` (run a private release), ``fsd`` (shattering
dimension search), ``attack`` (reconstruction experiment), ``verify-privacy``
(brute-force ratio certificate), and ``oracle`` (closed-form distribution and
best-surrogate dumps).  Every run prints one JSON document to stdout with
``json.dumps(doc, indent=2, sort_keys=True)``, embedding the resolved
configuration and the library version; ``oracle`` fills its distribution's
slot, a block of rows at a time, with the bytes ``json.dumps`` would print
for it.  ``--out DIR`` additionally writes the same document (plus per-trial
/ per-query CSV tables where applicable) to disk.  Identical configuration
and seed give byte-identical outputs.

Exit codes: 0 success, 1 validation error (a flag outside its ``_DOMAINS``
entry, refused before any file is read, or a malformed file), 2 budget
refusal (the domain enumeration, or a shattering search that
``release --eta --gamma`` needs exact).
"""

import argparse
import csv
import functools
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__, config
from .attack import FamilySearchError, attack_experiment, build_family
from .core import DomainTooLargeError, l1_norm, load_database, load_query_class
from .fsd import SearchBudgetExceeded, choose_m, fsd
from .mechanisms import (
    LAPLACE_TAIL,
    ExactLawTable,
    ExponentRule,
    PrivacyParams,
    exponential_release_exact,
    exponential_release_mcmc,
    laplace_release,
)
from .oracle import (
    best_sparse_db,  # unused here; the benchmark's tracer wraps it by this name
    best_surrogate,
    exact_output_distribution,
    postprocessing_certificate,
    privacy_ratio_certificate,
)


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads a "-" argument as a flag unless this private pattern
        # matches it; widened from plain decimals to what float() reads.
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE
        )

    def error(self, message):  # argparse would sys.exit(2); budget owns code 2
        raise _CliError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sparsedp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", type=Path, default=None, help="directory for JSON/CSV artifacts")

    p_release = sub.add_parser("release", help="privately release a synthetic database")
    p_release.add_argument("--db", required=True, type=Path)
    p_release.add_argument("--class", dest="query_class", required=True, type=Path)
    p_release.add_argument("--alpha", required=True, type=float)
    p_release.add_argument("--eta", type=float, default=None)
    p_release.add_argument("--gamma", type=float, default=None)
    p_release.add_argument("--m", type=int, default=None, help="override the derived surrogate size")
    p_release.add_argument("--sampler", choices=["exact", "mcmc"], default="exact")
    p_release.add_argument("--exponent", choices=["paper", "tight"], default="paper")
    p_release.add_argument("--l1", default="public", help="public, private, or a number")
    p_release.add_argument("--steps", type=int, default=10_000, help="MCMC steps")
    p_release.add_argument("--seed", type=int, default=0)
    common(p_release)

    p_fsd = sub.add_parser("fsd", help="gamma-fat-shattering dimension of a class")
    p_fsd.add_argument("--class", dest="query_class", required=True, type=Path)
    p_fsd.add_argument("--gamma", required=True, type=float)
    p_fsd.add_argument("--dmax", required=True, type=int)
    p_fsd.add_argument(
        "--budget", type=int, default=None,
        help="search budget in comparisons of a query row with a threshold "
        f"(default {config.DEFAULT_NODE_BUDGET:,})",
    )
    common(p_fsd)

    p_attack = sub.add_parser("attack", help="reconstruction experiment against a mechanism")
    p_attack.add_argument("--class", dest="query_class", required=True, type=Path)
    p_attack.add_argument("--gamma", required=True, type=float)
    p_attack.add_argument("--alpha", required=True, type=float)
    p_attack.add_argument(
        "--mechanism", choices=["exact", "mcmc", "laplace", "identity"], required=True
    )
    p_attack.add_argument("--trials", required=True, type=int)
    p_attack.add_argument("--seed", type=int, default=0)
    p_attack.add_argument("--m", type=int, default=None, help="surrogate size (default d/2)")
    p_attack.add_argument("--dmax", type=int, default=None)
    p_attack.add_argument("--steps", type=int, default=2_000, help="MCMC steps per call")
    p_attack.add_argument("--exponent", choices=["paper", "tight"], default="paper")
    common(p_attack)

    p_verify = sub.add_parser("verify-privacy", help="brute-force privacy ratio certificate")
    p_verify.add_argument("--n", required=True, type=int)
    p_verify.add_argument("--entry-cap", required=True, type=int)
    p_verify.add_argument("--class", dest="query_class", required=True, type=Path)
    p_verify.add_argument("--alpha", required=True, type=float)
    p_verify.add_argument("--m", required=True, type=int)
    p_verify.add_argument("--exponent", choices=["paper", "tight"], default="paper")
    p_verify.add_argument(
        "--postprocess",
        choices=["none", "first-coordinate", "constant"],
        default="none",
        help="also certify the pushed-forward distributions",
    )
    p_verify.add_argument("--probes", type=int, default=0, help="random real-neighbor probes")
    p_verify.add_argument("--seed", type=int, default=0)
    common(p_verify)

    p_oracle = sub.add_parser("oracle", help="closed-form distribution / best surrogate")
    p_oracle.add_argument("--db", required=True, type=Path)
    p_oracle.add_argument("--class", dest="query_class", required=True, type=Path)
    p_oracle.add_argument("--alpha", required=True, type=float)
    p_oracle.add_argument("--m", required=True, type=int)
    p_oracle.add_argument("--exponent", choices=["paper", "tight"], default="paper")
    p_oracle.add_argument("--best-sparse", action="store_true")
    common(p_oracle)

    return parser


def _resolved_config(args: argparse.Namespace) -> dict:
    out = {}
    for key, value in sorted(vars(args).items()):
        if isinstance(value, Path):
            value = str(value)
        out[key] = value
    return out


def _document(args, result: dict) -> str:
    payload = {"version": __version__, "config": _resolved_config(args), "result": result}
    return json.dumps(payload, indent=2, sort_keys=True)


def _floatstr(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


# Rows per joined block of ``_oracle_text``: one join over a whole m=20
# table holds every row's pieces at once and raised the benchmark's peak RSS.
_ORACLE_BLOCK_ROWS = 2048


def _oracle_text(text: str, counts: np.ndarray, probabilities: np.ndarray) -> str:
    """The ``oracle`` document ``text``, whose ``"distribution": []`` slot
    is filled as ``json.dumps`` prints the list of per-row dicts
    ``{"counts": counts[i].tolist(), "probability": probabilities[i]}``,
    without building them.  JSON escapes every quote inside a string, so the
    slot's text can only be that one key's.

    The table is a list of pieces, one per cell, joined a block of rows at
    a time.  Each column's distinct counts are formatted once, with the text
    that follows them folded in; column 0's pieces also carry the previous
    row's close and the row's opening, trimmed on the first row.  The text
    before and after the slot are the first and last pieces."""
    head, tail = text.split('"distribution": []')
    indent = head[head.rfind("\n") + 1 :]
    row_indent = "\n" + indent + "  "
    field_indent, item_indent = row_indent + "  ", row_indent + "    "
    close = row_indent + "},"
    opening = close + row_indent + "{" + field_indent + '"counts": [' + item_indent
    width = counts.shape[1] + 1
    last = field_indent + "]," + field_indent + '"probability": '
    follows = ["," + item_indent] * (width - 2) + [last]
    columns = []
    for offset, column in enumerate(counts.T):
        # Each distinct count is formatted once: a domain's counts repeat a
        # few small values, and formatting is most of an int's cost.
        distinct, index = np.unique(column, return_inverse=True)
        before = opening if offset == 0 else ""
        texts = [before + repr(value) + follows[offset] for value in distinct.tolist()]
        columns.append((np.array(texts, dtype=object), index))
    format_float = float.__repr__ if np.isfinite(probabilities).all() else _floatstr
    blocks = [head + '"distribution": [']
    for start in range(0, len(counts), _ORACLE_BLOCK_ROWS):
        stop = min(start + _ORACLE_BLOCK_ROWS, len(counts))
        pieces = [None] * (width * (stop - start))
        for offset, (texts, index) in enumerate(columns):
            pieces[offset::width] = texts[index[start:stop]].tolist()
        pieces[width - 1 :: width] = map(format_float, probabilities[start:stop].tolist())
        if start == 0:
            pieces[0] = pieces[0][len(close) :]
        blocks.append("".join(pieces))
    blocks.append(row_indent + "}\n" + indent + "]" + tail)
    # The column indexes are not kept while the whole text is held twice.
    del columns, index
    return "".join(blocks)


def _emit(args, text: str, tables: dict | None = None) -> None:
    """Print the document ``text``; under ``--out`` also write it, and each CSV
    file of ``tables`` (file name -> function returning its rows, called only then)."""
    print(text)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / f"{args.command}.json").write_text(text + "\n")
        for name, rows in (tables or {}).items():
            with (args.out / name).open("w", newline="") as fh:
                csv.writer(fh).writerows(rows())


def _parse_l1(raw: str):
    if raw in ("public", "private"):
        return raw
    try:
        value = float(raw)
    except ValueError:
        raise _CliError(f"--l1 must be 'public', 'private', or a number, got {raw!r}")
    if not (math.isfinite(value) and value >= 0):
        raise _CliError(f"--l1 must be finite and nonnegative, got {raw!r}")
    return value


# Each value flag's domain by argparse dest, where a (subcommand, dest) key wins:
# a whole number is its least value, a pair a float test and its domain's text.
_DOMAINS = {
    "seed": 0, "probes": 0,
    "m": 1, "n": 1, "entry_cap": 1, "trials": 1, "steps": 1, "budget": 1, "dmax": 1,
    ("attack", "dmax"): 2,  # a family needs a shattered pair
    "alpha": (lambda x: x > 0 and math.isfinite(x), "must be positive and finite"),
    "eta": (lambda x: 0 < x <= 1, "must lie in (0, 1]"),
    "gamma": (lambda x: 0 < x <= 0.5, "must lie in (0, 1/2]"),
}


def _check_flags(args) -> None:
    """Refuse a flag value outside its domain, whether or not the run uses
    the flag: the document prints it."""
    for dest, value in vars(args).items():
        domain = _DOMAINS.get((args.command, dest), _DOMAINS.get(dest))
        if isinstance(domain, int) and value is not None and value < domain:
            raise _CliError(f"--{dest.replace('_', '-')} must be at least {domain}")
        if isinstance(domain, tuple) and value is not None and not domain[0](value):
            raise _CliError(f"--{dest.replace('_', '-')} {domain[1]}, got {value!r}")


def _check_laplace_scale(alpha: float, sensitivity: float, divisor: float, what: str) -> None:
    """Refuse, before any draw, an --alpha so small that the largest draw
    at a Laplace scale ``sensitivity / divisor`` the run needs overflows."""
    if divisor == 0 or math.isinf(sensitivity / divisor * LAPLACE_TAIL):
        raise _CliError(f"--alpha {alpha!r} is too small: {what} overflows to inf in its largest draw")


def _derive_m(args, cls) -> int:
    if args.m is not None:
        return args.m
    if args.eta is None or args.gamma is None:
        raise _CliError("either --m or both --eta and --gamma are required")
    d_max = max(1, int(math.log2(cls.k)))
    result = fsd(cls, args.gamma, d_max)
    if not result.exact:
        # An m built from a lower bound on d would be too small for --eta.
        raise SearchBudgetExceeded(
            f"the shattering search at gamma={args.gamma} used its {result.nodes_explored}-"
            f"comparison budget and proved only d >= {result.d}; pass --m to set the surrogate size"
        )
    return choose_m(args.eta, result.d)


def _cmd_release(args) -> int:
    l1 = _parse_l1(args.l1)
    if l1 == "private":
        share = config.L1_ESTIMATE_ALPHA_SHARE
        _check_laplace_scale(
            args.alpha, 1.0, share * args.alpha, f"the L1 estimate's Laplace scale 1/({share}*alpha)"
        )
    db = load_database(args.db)
    cls = load_query_class(args.query_class)
    p = PrivacyParams(alpha=args.alpha)
    rule = ExponentRule(args.exponent)
    m = _derive_m(args, cls)
    rng = np.random.default_rng(args.seed)
    if args.sampler == "exact":
        out = exponential_release_exact(db, cls, p, m, rng, rule, l1=l1)
    else:
        out = exponential_release_mcmc(db, cls, p, m, args.steps, rng, rule, l1=l1)
    released = out.answers(cls)
    result = {
        "d_out": [float(x) for x in out.d_out.entries],
        "d_prime": [int(x) for x in out.d_prime.counts],
        "score": out.score,
        "m": out.m,
        "exponent_rule": out.exponent_rule.value,
        "l1_estimate": out.l1_estimate,
        "approximate": out.approximate,
        "answers": [float(x) for x in released],
    }
    rows = lambda: [["query_index", "true_answer", "released_answer", "abs_error"]] + [
        [i, repr(float(t)), repr(float(r)), repr(abs(float(t) - float(r)))]
        for i, (t, r) in enumerate(zip(cls.matrix @ db.entries, released))
    ]
    _emit(args, _document(args, result), {"per_query.csv": rows})
    return 0


def _cmd_fsd(args) -> int:
    cls = load_query_class(args.query_class)
    result = fsd(cls, args.gamma, args.dmax, budget=args.budget)
    _emit(args, _document(args, result.to_dict()))
    return 0


def _cmd_attack(args) -> int:
    cls = load_query_class(args.query_class)
    p = PrivacyParams(alpha=args.alpha)
    rule = ExponentRule(args.exponent)
    if args.mechanism == "laplace":
        _check_laplace_scale(args.alpha, cls.k, p.alpha, f"the Laplace scale k/alpha = {cls.k}/alpha")
    d_max = args.dmax if args.dmax is not None else max(2, int(math.log2(cls.k)))
    family = build_family(cls, args.gamma, d_max)
    m = args.m if args.m is not None else family.d // 2

    if args.mechanism == "identity":
        mechanism = lambda db, rng: db
    elif args.mechanism == "exact":
        # Every trial releases from one of the family's databases, so each
        # one's law is kept after its first release while it fits the budget;
        # an over-budget domain is refused here, not counted as a failure of
        # each trial.
        mechanism = ExactLawTable(family.databases, cls, p, m, rule).release
    elif args.mechanism == "mcmc":
        mechanism = lambda db, rng: exponential_release_mcmc(db, cls, p, m, args.steps, rng, rule)
    else:
        mechanism = lambda db, rng: laplace_release(db, cls, p, rng)

    rng = np.random.default_rng(args.seed)
    report = attack_experiment(mechanism, family, args.trials, rng, alpha=args.alpha)
    result = report.to_dict()
    result["family"] = {
        "bucket": list(family.bucket),
        "d": family.d,
        "gamma": family.gamma,
        "bucket_number": family.j_star,
        "m": m,
    }
    rows = lambda: [["trial", "epsilon_hat", "symdiff"]] + [
        [i, repr(e), s]
        for i, (e, s) in enumerate(zip(report.eps_hat.tolist(), report.symdiff.tolist()))
    ]
    _emit(args, _document(args, result), {"per_trial.csv": rows})
    return 0


def _cmd_verify_privacy(args) -> int:
    cls = load_query_class(args.query_class)
    if cls.n != args.n:
        raise _CliError(f"--n is {args.n} but --class has {cls.n} coordinates")
    p = PrivacyParams(alpha=args.alpha)
    rule = ExponentRule(args.exponent)
    rng = np.random.default_rng(args.seed) if args.probes else None
    if args.postprocess == "none":
        cert = privacy_ratio_certificate(
            args.n, args.entry_cap, cls, p, args.m, rule, real_probes=args.probes, rng=rng
        )
    else:
        if args.postprocess == "first-coordinate":
            g = lambda dp: int(dp.counts[0])
        else:
            g = lambda dp: 0
        cert = postprocessing_certificate(
            g, args.n, args.entry_cap, cls, p, args.m, rule, real_probes=args.probes, rng=rng
        )
    _emit(args, _document(args, cert.to_dict()))
    return 0


def _cmd_oracle(args) -> int:
    db = load_database(args.db)
    cls = load_query_class(args.query_class)
    p = PrivacyParams(alpha=args.alpha)
    rule = ExponentRule(args.exponent)
    distribution = exact_output_distribution(db, cls, p, args.m, rule)
    result = {"distribution": []}
    if args.best_sparse:
        # The distribution's scores are best_sparse_db's: one scoring pass.
        best, relative_error = best_surrogate(distribution.counts, distribution.scores, l1_norm(db))
        result["best_sparse"] = {"counts": best.counts.tolist(), "relative_error": relative_error}
    text = _document(args, result)
    _emit(args, _oracle_text(text, distribution.counts, distribution.probabilities))
    return 0


_COMMANDS = {
    "release": _cmd_release,
    "fsd": _cmd_fsd,
    "attack": _cmd_attack,
    "verify-privacy": _cmd_verify_privacy,
    "oracle": _cmd_oracle,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser ``run`` uses, built on first use: a parse never changes it."""
    return build_parser()


def run(argv) -> int:
    """Parse and execute; returns the process exit code."""
    try:
        args = _parser().parse_args(argv)
        _check_flags(args)
        return _COMMANDS[args.command](args)
    except _CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (DomainTooLargeError, SearchBudgetExceeded) as e:
        print(f"budget refusal: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError, FamilySearchError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

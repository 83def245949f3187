"""Command-line entry point.

Subcommands: ``release`` (run a private release), ``fsd`` (shattering
dimension search), ``attack`` (reconstruction experiment), ``verify-privacy``
(brute-force ratio certificate), and ``oracle`` (closed-form distribution and
best-surrogate dumps).  Every run prints one JSON document to stdout, byte for
byte as ``json.dumps(doc, indent=2, sort_keys=True)`` would, that embeds the
resolved configuration and the library version; ``--out DIR``
additionally writes the same document (plus per-trial / per-query CSV tables
where applicable) to disk.  Identical configuration and seed give
byte-identical outputs.

Exit codes: 0 success, 1 validation error (bad flags or malformed files),
2 budget refusal (the domain enumeration, or a shattering search that
``release --eta --gamma`` needs exact).
"""

import argparse
import csv
import functools
import json
import math
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__, config
from .attack import FamilySearchError, attack_experiment, build_family
from .core import DomainTooLargeError, l1_norm, load_database, load_query_class
from .fsd import SearchBudgetExceeded, _validate_eta, choose_m, fsd
from .mechanisms import (
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


def _payload(args, result: dict) -> dict:
    return {"version": __version__, "config": _resolved_config(args), "result": result}


def _floatstr(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


class _Columns:
    """Named, equal-length columns of ints or floats: a 1-d array holds one
    number per row, a 2-d array one list of numbers per row.  ``_dumps``
    prints it exactly as ``json.dumps`` prints its list of per-row dicts,
    ``[{name: column[i].tolist(), ...} for i in range(rows)]``, without
    building them."""

    __slots__ = ("columns", "rows")

    def __init__(self, columns: dict[str, np.ndarray]):
        for column in columns.values():
            if column.dtype.kind not in "iuf" or column.ndim not in (1, 2):
                raise TypeError(
                    f"a column must be a 1-d or 2-d int or float array, not {column.ndim}-d "
                    f"{column.dtype}"
                )
        lengths = {len(column) for column in columns.values()}
        if len(lengths) != 1:
            raise ValueError(f"columns must be one or more of one length, not {sorted(lengths)}")
        self.columns = columns
        self.rows = lengths.pop()


def _encode_columns(table: _Columns, depth: int, before: str, after: str) -> str:
    """One row template, filled by one ``%`` over every row's values in
    sorted-key order, as one flat tuple of ``.tolist()`` values.  The text
    ``before`` and ``after`` the table goes into the same ``%``, so no
    separate copy of the table's text is made to join it to them."""
    if not table.rows:
        return before + "[]" + after
    for key in table.columns:
        if not isinstance(key, str):
            raise TypeError(f"keys must be str, not {type(key).__name__}")
    row_indent, field_indent, item_indent = ("\n" + "  " * (depth + i) for i in (1, 2, 3))
    fields, flat_columns = [], []
    for key in sorted(table.columns):
        column = table.columns[key]
        if column.ndim == 1:
            slot = "%s"
            flat_columns.append(column)
        elif column.shape[1]:
            items = ("," + item_indent).join(["%s"] * column.shape[1])
            slot = "[" + item_indent + items + field_indent + "]"
            flat_columns.extend(column.T)
        else:
            slot = "[]"
        fields.append(encode_basestring_ascii(key).replace("%", "%%") + ": " + slot)
    row = "{" + field_indent + ("," + field_indent).join(fields) + row_indent + "}"
    width = len(flat_columns)
    flat = [None] * (width * table.rows)
    for offset, column in enumerate(flat_columns):
        if column.dtype.kind == "f":
            values = column.tolist()
            if not np.isfinite(column).all():
                values = list(map(_floatstr, values))
        else:
            # Each distinct int is formatted once: domain counts repeat a few
            # small values, and formatting is most of an int's cost.
            distinct, index = np.unique(column, return_inverse=True)
            texts = np.array(list(map(int.__repr__, distinct.tolist())), dtype=object)
            values = texts[index].tolist()
        flat[offset::width] = values
    rows = ("," + row_indent).join([row] * table.rows)
    head, tail = before.replace("%", "%%"), after.replace("%", "%%")
    template = "".join((head, "[", row_indent, rows, "\n", "  " * depth, "]", tail))
    return template % tuple(flat)


# What ``json.dumps`` prints in place of each ``_Columns``: it holds NULs,
# which no argv string can carry, so no CLI document holds it.
_MARKER = "\0columns\0"
_ENCODED_MARKER = json.dumps(_MARKER)


def _dumps(obj) -> str:
    """Exactly ``json.dumps(obj, indent=2, sort_keys=True)``, reading a
    ``_Columns`` as its list of per-row dicts: json prints a marker for each
    table, and ``_encode_columns`` prints the table in its place, at the
    marker line's depth, together with the text around it.  A document with
    tables that also holds the marker's text is refused."""
    tables = []

    def default(value):
        if isinstance(value, _Columns):
            tables.append(value)
            return _MARKER
        return json.JSONEncoder().default(value)

    text = json.dumps(obj, indent=2, sort_keys=True, default=default)
    if not tables:
        return text
    pieces = text.split(_ENCODED_MARKER)
    if len(pieces) != len(tables) + 1:
        raise ValueError("the document holds the text of the columns marker")
    text = pieces[0]
    for table, after in zip(tables, pieces[1:]):
        line = text[text.rfind("\n") + 1 :]
        text = _encode_columns(table, (len(line) - len(line.lstrip(" "))) // 2, text, after)
    # json's encoder leaves a reference cycle that holds ``default``, and so
    # ``tables``: emptied, it keeps no table's arrays alive until the cyclic
    # collector runs.
    tables.clear()
    return text


def _emit(args, payload: dict, tables: dict | None = None) -> None:
    """Print the document; under ``--out`` also write it, and each CSV file
    of ``tables`` (file name -> function returning its rows, called only then)."""
    text = _dumps(payload)
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
        return float(raw)
    except ValueError:
        raise _CliError(f"--l1 must be 'public', 'private', or a number, got {raw!r}")


def _check_at_least_one(flag: str, value: int | None) -> None:
    if value is not None and value < 1:
        raise _CliError(f"{flag} must be at least 1")


def _derive_m(args, cls) -> int:
    _check_at_least_one("--m", args.m)
    if args.m is not None:
        return args.m
    if args.eta is None or args.gamma is None:
        raise _CliError("either --m or both --eta and --gamma are required")
    _validate_eta(args.eta)
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
    if args.sampler == "mcmc":
        _check_at_least_one("--steps", args.steps)
    db = load_database(args.db)
    cls = load_query_class(args.query_class)
    p = PrivacyParams(alpha=args.alpha)
    rule = ExponentRule(args.exponent)
    l1 = _parse_l1(args.l1)
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
    _emit(args, _payload(args, result), {"per_query.csv": rows})
    return 0


def _cmd_fsd(args) -> int:
    cls = load_query_class(args.query_class)
    result = fsd(cls, args.gamma, args.dmax, budget=args.budget)
    _emit(args, _payload(args, result.to_dict()))
    return 0


def _cmd_attack(args) -> int:
    _check_at_least_one("--trials", args.trials)
    if args.mechanism == "mcmc":
        _check_at_least_one("--steps", args.steps)
    cls = load_query_class(args.query_class)
    p = PrivacyParams(alpha=args.alpha)
    rule = ExponentRule(args.exponent)
    _check_at_least_one("--m", args.m)
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
        laws = ExactLawTable(family.databases, cls, p, m, rule)
        mechanism = lambda db, rng: exponential_release_exact(db, cls, p, m, rng, rule, laws=laws)
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
        [i, repr(e), s] for i, (e, s) in enumerate(report.per_trial)
    ]
    _emit(args, _payload(args, result), {"per_trial.csv": rows})
    return 0


def _cmd_verify_privacy(args) -> int:
    _check_at_least_one("--m", args.m)
    cls = load_query_class(args.query_class)
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
    _emit(args, _payload(args, cert.to_dict()))
    return 0


def _cmd_oracle(args) -> int:
    _check_at_least_one("--m", args.m)
    db = load_database(args.db)
    cls = load_query_class(args.query_class)
    p = PrivacyParams(alpha=args.alpha)
    rule = ExponentRule(args.exponent)
    distribution = exact_output_distribution(db, cls, p, args.m, rule)
    result = {
        "distribution": _Columns(
            {"counts": distribution.counts, "probability": distribution.probabilities}
        )
    }
    if args.best_sparse:
        # The distribution's scores are best_sparse_db's: one scoring pass.
        best, relative_error = best_surrogate(distribution.counts, distribution.scores, l1_norm(db))
        result["best_sparse"] = {"counts": best.counts.tolist(), "relative_error": relative_error}
    _emit(args, _payload(args, result))
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

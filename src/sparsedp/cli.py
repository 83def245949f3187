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
import math
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import __version__, config
from .attack import FamilySearchError, attack_experiment, build_family
from .core import DomainTooLargeError, l1_norm, load_database, load_query_class
from .fsd import SearchBudgetExceeded, choose_m, fsd
from .mechanisms import (
    ExponentRule,
    PrivacyParams,
    SparseDomain,
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


def _encode_columns(table: _Columns, depth: int) -> str:
    """One row template, filled by one ``%`` over every row's values in
    sorted-key order, as one flat tuple of ``.tolist()`` values."""
    if not table.rows:
        return "[]"
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
    return ("[" + row_indent + rows + "\n" + "  " * depth + "]") % tuple(flat)


def _encode_one(value, depth: int) -> str:
    """One value by ``json``'s own ``isinstance`` order."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _floatstr(value)
    if isinstance(value, (list, tuple)):
        return _encode_lists([value], depth)[0]
    if isinstance(value, dict):
        return _encode_dicts([value], depth)[0]
    if isinstance(value, _Columns):
        return _encode_columns(value, depth)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _encode_level(values: list, depth: int) -> list[str]:
    """Encode a batch of values that sit ``depth`` levels deep.

    A batch of one exact type goes through C-level ``map`` calls; equal-length
    lists and same-key dicts are encoded one nesting level at a time, as one
    batch per level.  Anything else falls back to one value at a time.
    """
    types = set(map(type, values))
    if len(types) == 1:
        kind = types.pop()
        if kind is int:
            return list(map(int.__repr__, values))
        if kind is float:
            if all(map(math.isfinite, values)):
                return list(map(float.__repr__, values))
            return list(map(_floatstr, values))
        if kind is str:
            return list(map(encode_basestring_ascii, values))
        if (kind is list or kind is tuple) and len(set(map(len, values))) == 1:
            return _encode_lists(values, depth)
        if kind is dict and len(set(map(tuple, values))) == 1:
            return _encode_dicts(values, depth)
    return [_encode_one(value, depth) for value in values]


def _encode_lists(lists: list, depth: int) -> list[str]:
    """Equal-length lists: flatten one level, encode, regroup by one template."""
    width = len(lists[0])
    if not width:
        return ["[]"] * len(lists)
    inner = "\n" + "  " * (depth + 1)
    template = "[" + inner + ("," + inner).join(["%s"] * width) + "\n" + "  " * depth + "]"
    items = _encode_level(list(chain.from_iterable(lists)), depth + 1)
    return list(map(template.__mod__, zip(*[iter(items)] * width)))


def _encode_dicts(dicts: list, depth: int) -> list[str]:
    """Dicts with one key tuple: one column per sorted key, one template."""
    keys = list(dicts[0])
    if not keys:
        return ["{}"] * len(dicts)
    for key in keys:
        if not isinstance(key, str):
            raise TypeError(f"keys must be str, not {type(key).__name__}")
    keys.sort()
    inner = "\n" + "  " * (depth + 1)
    fields = [encode_basestring_ascii(key).replace("%", "%%") + ": %s" for key in keys]
    template = "{" + inner + ("," + inner).join(fields) + "\n" + "  " * depth + "}"
    columns = [_encode_level(list(map(itemgetter(key), dicts)), depth + 1) for key in keys]
    return list(map(template.__mod__, zip(*columns)))


def _dumps(obj) -> str:
    """Exactly ``json.dumps(obj, indent=2, sort_keys=True)`` for documents with
    str keys, reading a ``_Columns`` as its list of per-row dicts; a non-str
    key raises ``TypeError``."""
    return _encode_level([obj], 0)[0]


def _emit(args, payload: dict, tables: dict[str, list] | None = None) -> None:
    text = _dumps(payload)
    print(text)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / f"{args.command}.json").write_text(text + "\n")
        for name, rows in (tables or {}).items():
            with (args.out / name).open("w", newline="") as fh:
                csv.writer(fh).writerows(rows)


def _parse_l1(raw: str):
    if raw in ("public", "private"):
        return raw
    try:
        return float(raw)
    except ValueError:
        raise _CliError(f"--l1 must be 'public', 'private', or a number, got {raw!r}")


def _check_m(m: int | None) -> None:
    if m is not None and m < 1:
        raise _CliError("--m must be at least 1")


def _derive_m(args, cls) -> int:
    _check_m(args.m)
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
    db = load_database(args.db)
    cls = load_query_class(args.query_class)
    p = PrivacyParams(alpha=args.alpha)
    rule = ExponentRule.parse(args.exponent)
    l1 = _parse_l1(args.l1)
    m = _derive_m(args, cls)
    rng = np.random.default_rng(args.seed)
    if args.sampler == "exact":
        out = exponential_release_exact(db, cls, p, m, rng, rule, l1=l1)
    else:
        out = exponential_release_mcmc(db, cls, p, m, args.steps, rng, rule, l1=l1)
    true_answers = cls.matrix @ db.entries
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
    rows = [["query_index", "true_answer", "released_answer", "abs_error"]]
    rows += [
        [i, repr(float(t)), repr(float(r)), repr(abs(float(t) - float(r)))]
        for i, (t, r) in enumerate(zip(true_answers, released))
    ]
    _emit(args, _payload(args, result), {"per_query.csv": rows})
    return 0


def _cmd_fsd(args) -> int:
    cls = load_query_class(args.query_class)
    result = fsd(cls, args.gamma, args.dmax, budget=args.budget)
    _emit(args, _payload(args, result.to_dict()))
    return 0


def _cmd_attack(args) -> int:
    cls = load_query_class(args.query_class)
    p = PrivacyParams(alpha=args.alpha)
    rule = ExponentRule.parse(args.exponent)
    _check_m(args.m)
    d_max = args.dmax if args.dmax is not None else max(2, int(math.log2(cls.k)))
    family = build_family(cls, args.gamma, d_max)
    m = args.m if args.m is not None else family.d // 2

    if args.mechanism == "identity":
        mechanism = lambda db, rng: db
    elif args.mechanism == "exact":
        # One domain for every trial; an over-budget one is refused here, not
        # counted as a failure of each trial.
        domain = SparseDomain(cls.n, m)
        mechanism = lambda db, rng: exponential_release_exact(db, cls, p, m, rng, rule, domain=domain)
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
    rows = [["trial", "epsilon_hat", "symdiff"]]
    rows += [[i, repr(e), s] for i, (e, s) in enumerate(report.per_trial)]
    _emit(args, _payload(args, result), {"per_trial.csv": rows})
    return 0


def _cmd_verify_privacy(args) -> int:
    _check_m(args.m)
    cls = load_query_class(args.query_class)
    p = PrivacyParams(alpha=args.alpha)
    rule = ExponentRule.parse(args.exponent)
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
    _check_m(args.m)
    db = load_database(args.db)
    cls = load_query_class(args.query_class)
    p = PrivacyParams(alpha=args.alpha)
    rule = ExponentRule.parse(args.exponent)
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
    except (ValueError, OSError, FamilySearchError, KeyError, IndexError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

"""Databases, linear queries, and error measures.

A database is a nonnegative real vector ``D`` of length ``n``; a linear query
is a coefficient vector ``q`` in ``[0,1]^n`` answered by the dot product
``q . D``.  Everything else in the library is built from these two types plus
the sparse integer surrogate databases used by the release mechanisms.

All types are immutable after construction (backing arrays are marked
read-only) and all operations are pure, so values can be shared freely across
threads.
"""

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "DomainTooLargeError",
    "Database",
    "LinearQuery",
    "QueryClass",
    "SparseSyntheticDatabase",
    "evaluate",
    "l1_norm",
    "max_error",
    "rescale",
    "load_database",
    "load_query_class",
]


class DimensionMismatchError(ValueError):
    """A query or database was evaluated against an object of different length."""


class DomainTooLargeError(RuntimeError):
    """An enumeration would exceed its budget; carries the offending count."""

    def __init__(self, message: str, count: int):
        super().__init__(message)
        self.count = count


def _frozen_array(values, dtype, what: str) -> np.ndarray:
    """A read-only copy of ``values`` as ``dtype``. Complex values, and values
    the cast to an integer dtype would change (a count of 1.7), are refused,
    never truncated."""
    arr = np.array(values)
    kind = arr.dtype.kind
    if kind == "c":
        raise ValueError(f"{what} must be real, not complex")
    if kind not in "biuf":
        # Strings, None and other objects: numpy's own per-element conversion.
        arr = np.array(values, dtype=dtype)
    elif arr.dtype != dtype:
        with np.errstate(invalid="ignore"):
            cast = arr.astype(dtype)
        if cast.dtype.kind == "i" and not np.array_equal(cast, arr):
            raise ValueError(f"{what} must be whole numbers in the int64 range")
        arr = cast
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Database:
    """Nonnegative real vector of per-coordinate counts or weights."""

    entries: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.entries, np.float64, "database entries")
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("database must be a nonempty 1-d vector")
        with np.errstate(over="ignore", invalid="ignore"):
            total = arr.sum()
        # A NaN or infinite entry leaves the sum non-finite too, so the
        # entries are scanned for one only when the sum is.
        if not math.isfinite(total) and not np.isfinite(arr).all():
            raise ValueError("database entries must be finite")
        if arr.min() < 0:
            raise ValueError("database entries must be nonnegative")
        if not math.isfinite(total):
            raise ValueError("database entries must have a finite sum: the L1 norm overflows to inf")
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return self.entries.size


@dataclass(frozen=True)
class LinearQuery:
    """Coefficient vector in [0,1]^n. Out-of-range coefficients are rejected,
    never clamped: clamping would silently answer a different query."""

    coefficients: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.coefficients, np.float64, "query coefficients")
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("query must be a nonempty 1-d vector")
        if not np.all(np.isfinite(arr)):
            raise ValueError("query coefficients must be finite")
        if np.any(arr < 0) or np.any(arr > 1):
            raise ValueError("query coefficients must lie in [0, 1]")
        object.__setattr__(self, "coefficients", arr)

    @property
    def n(self) -> int:
        return self.coefficients.size


class QueryClass:
    """Finite ordered family of linear queries sharing one dimension, held as
    one read-only (k, n) coefficient matrix: query i is ``matrix[i]``."""

    def __init__(self, queries):
        rows = [q.coefficients if isinstance(q, LinearQuery) else q for q in queries]
        if not rows:
            raise ValueError("query class must contain at least one query")
        try:
            matrix = _frozen_array(rows, np.float64, "query coefficients")
        except (ValueError, TypeError):
            matrix = None
        if (
            matrix is None
            or matrix.ndim != 2
            or matrix.shape[1] < 1
            or not ((matrix >= 0) & (matrix <= 1)).all()
        ):
            # Name the first faulty query, as building each one would.
            for row in rows:
                LinearQuery(np.asarray(row))
            raise DimensionMismatchError("all queries in a class must share one dimension")
        self.matrix = matrix
        self.n = matrix.shape[1]

    @property
    def k(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self) -> str:
        return f"QueryClass(k={self.k}, n={self.n})"


@dataclass(frozen=True)
class SparseSyntheticDatabase:
    """Nonnegative integer vector with fixed L1 norm ``m`` — one element of
    the release mechanisms' finite outcome domain."""

    counts: np.ndarray
    m: int = field(init=False)

    def __post_init__(self):
        arr = _frozen_array(self.counts, np.int64, "counts")
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("counts must be a nonempty 1-d vector")
        if np.any(arr < 0):
            raise ValueError("counts must be nonnegative")
        total = int(arr.sum())
        if total < 1:
            raise ValueError("counts must sum to at least 1")
        object.__setattr__(self, "counts", arr)
        object.__setattr__(self, "m", total)

    @property
    def n(self) -> int:
        return self.counts.size

    def as_tuple(self) -> tuple:
        return tuple(int(c) for c in self.counts)


def _check_dims(a_n: int, b_n: int, what: str) -> None:
    """The one dimension check; ``what`` names the two objects compared."""
    if a_n != b_n:
        raise DimensionMismatchError(f"{what}: lengths {a_n} and {b_n} differ")


def evaluate(q: LinearQuery, d: Database) -> float:
    """Answer ``q . D``; always in [0, ||D||_1]."""
    _check_dims(q.n, d.n, "evaluate(query, database)")
    return float(q.coefficients @ d.entries)


def l1_norm(d: Database) -> float:
    """Sum of entries."""
    return float(d.entries.sum())


def max_error(c: QueryClass, d: Database, a: Database) -> float:
    """Worst-case absolute disagreement between two databases over a class:
    max over q in C of |q(D) - q(A)|."""
    _check_dims(c.n, d.n, "max_error: class vs first database")
    _check_dims(c.n, a.n, "max_error: class vs second database")
    return float(np.abs(c.matrix @ (d.entries - a.entries)).max())


def rescale(dp: SparseSyntheticDatabase, target_l1: float) -> Database:
    """Scale a surrogate with ||D'||_1 = m onto a target L1 norm:
    (target_l1 / m) * D'."""
    if target_l1 < 0:
        raise ValueError("target L1 norm must be nonnegative")
    return Database((float(target_l1) / dp.m) * dp.counts.astype(np.float64))


# ---------------------------------------------------------------------------
# File formats.
#
# Database file: JSON object {"entries": [real, ...]} or a CSV file holding a
# single row.  Query-class file: JSON object {"n": int, "queries": [[...],...]}
# or a CSV file with one row per query.  The loader dispatches on extension.
# ---------------------------------------------------------------------------


def _load_json(path: Path) -> dict:
    text = path.read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}:{e.lineno}: malformed JSON: {e.msg}") from e
    if not isinstance(data, dict):
        raise ValueError(f"{path}:1: expected a JSON object at top level")
    return data


def _load_csv_rows(path: Path) -> list[list[float]]:
    rows = []
    with path.open(newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or all(cell.strip() == "" for cell in row):
                continue
            try:
                rows.append([float(cell) for cell in row])
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: non-numeric cell in CSV row") from e
    if not rows:
        raise ValueError(f"{path}:1: empty CSV file")
    return rows


def load_database(path) -> Database:
    path = Path(path)
    if path.suffix.lower() == ".csv":
        rows = _load_csv_rows(path)
        if len(rows) != 1:
            raise ValueError(f"{path}:2: database CSV must hold exactly one row")
        return Database(np.asarray(rows[0]))
    data = _load_json(path)
    if "entries" not in data:
        raise ValueError(f"{path}:1: missing 'entries' key")
    try:
        entries = np.asarray(data["entries"], dtype=np.float64)
    except TypeError as e:
        raise ValueError(f"{path}:1: 'entries' must hold numbers: {e}") from e
    return Database(entries)


def load_query_class(path) -> QueryClass:
    path = Path(path)
    if path.suffix.lower() == ".csv":
        rows = _load_csv_rows(path)
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise ValueError(f"{path}:1: query rows have inconsistent lengths {sorted(widths)}")
        return QueryClass(rows)
    data = _load_json(path)
    if "queries" not in data:
        raise ValueError(f"{path}:1: missing 'queries' key")
    if not isinstance(data["queries"], list):
        raise ValueError(f"{path}:1: 'queries' must be a list of rows")
    try:
        cls = QueryClass(data["queries"])
    except TypeError as e:
        raise ValueError(f"{path}:1: 'queries' must hold numbers: {e}") from e
    declared_n = data.get("n")
    if declared_n is None:
        return cls
    if isinstance(declared_n, bool) or not (
        isinstance(declared_n, int) or isinstance(declared_n, float) and declared_n.is_integer()
    ):
        raise ValueError(f"{path}:1: 'n' must be a whole number, got {declared_n!r}")
    if declared_n != cls.n:
        raise ValueError(f"{path}:1: declared n={declared_n} but queries have length {cls.n}")
    return cls

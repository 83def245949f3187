"""Span tracing for the benchmark's traced runs.

A ``Tracer`` replaces ``sparsedp`` functions at the sites where the CLI and
the library look them up (module attributes such as ``sparsedp.cli.fsd``),
so the program's source is not edited. ``install()`` puts the wrappers in
place and ``uninstall()`` restores the originals; a traced job runs between
the two.

Every wrapped call records a span: name, layer, start, end, parent span and
job id. Spans stay in memory until ``write()`` at the end of a run. The
per-candidate functions ``quality_score`` and ``evaluate``, and the iteration
of ``sparse_domain``, are recorded as a call count plus total time on the
enclosing span instead of one span per call.

Layers are the package modules. A span's self time is its duration minus the
time its children cover. A layer's busy time counts only spans with no
enclosing span of the same layer, so nesting within a layer is not counted
twice; its errors are exceptions that leave such an outermost span.
"""

import importlib
import inspect
import json
from collections import defaultdict
from time import perf_counter

from sparsedp.mechanisms import domain_size

LAYERS = ("cli", "core", "fsd", "mechanisms", "oracle", "attack")

# (module, attribute, layer, how): "span" records one span per call, "count"
# a call count and total time, "iter" the time spent iterating the result.
SITES = (
    ("sparsedp.cli", "run", "cli", "span"),
    ("sparsedp.cli", "load_database", "core", "span"),
    ("sparsedp.cli", "load_query_class", "core", "span"),
    ("sparsedp.cli", "fsd", "fsd", "span"),
    ("sparsedp.cli", "choose_m", "fsd", "span"),
    ("sparsedp.cli", "exponential_release_exact", "mechanisms", "span"),
    ("sparsedp.cli", "exponential_release_mcmc", "mechanisms", "span"),
    ("sparsedp.cli", "laplace_release", "mechanisms", "span"),
    ("sparsedp.cli", "build_family", "attack", "span"),
    ("sparsedp.cli", "attack_experiment", "attack", "span"),
    ("sparsedp.cli", "privacy_ratio_certificate", "oracle", "span"),
    ("sparsedp.cli", "postprocessing_certificate", "oracle", "span"),
    ("sparsedp.cli", "exact_output_distribution", "oracle", "span"),
    ("sparsedp.cli", "best_sparse_db", "oracle", "span"),
    ("sparsedp.attack", "fsd", "fsd", "span"),
    ("sparsedp.attack", "evaluate", "core", "count"),
    ("sparsedp.oracle", "composition_matrix", "mechanisms", "span"),
    ("sparsedp.mechanisms", "sparse_domain", "mechanisms", "iter"),
    ("sparsedp.mechanisms", "quality_score", "mechanisms", "count"),
)

# Work counts taken from a span's arguments and result: name -> (needs the
# bound arguments, function of (arguments, result) -> {counter: value}).
_INFO = {
    "fsd": (False, lambda a, r: {"nodes": r.nodes_explored, "exact": int(r.exact)}),
    "exponential_release_exact": (False, lambda a, r: {"rows": domain_size(r.d_prime.n, r.m)}),
    "exponential_release_mcmc": (True, lambda a, r: {"steps": a["steps"]}),
    "composition_matrix": (False, lambda a, r: {"rows": r.shape[0]}),
    "exact_output_distribution": (False, lambda a, r: {"rows": len(r)}),
    "best_sparse_db": (True, lambda a, r: {"rows": domain_size(a["d"].n, a["m"])}),
    "privacy_ratio_certificate": (False, lambda a, r: {"pairs": r.pairs_checked}),
    "postprocessing_certificate": (False, lambda a, r: {"pairs": r.pairs_checked}),
    "attack_experiment": (True, lambda a, r: {"trials": a["trials"]}),
}

# The per-layer metrics a traced run reports: (name, unit, better).
PER_LAYER = [
    (f"{layer}.{what}", unit, "lower")
    for layer in LAYERS
    for what, unit in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"), ("errors", "count"))
] + [
    ("mechanisms.enumerate.rows_per_s", "rows/s", "higher"),
    ("mechanisms.score.rows_per_s", "rows/s", "higher"),
    ("mechanisms.score.calls", "count", "lower"),
    ("mechanisms.exact.draw_ms", "ms", "lower"),
    ("mechanisms.domain.rows", "count", "higher"),
    ("mechanisms.mcmc.steps", "count", "higher"),
    ("mechanisms.mcmc.step_us", "us", "lower"),
    ("fsd.nodes", "count", "lower"),
    ("fsd.nodes_per_s", "nodes/s", "higher"),
    ("fsd.exact_ratio", "ratio", "higher"),
    ("oracle.cert.pairs", "count", "higher"),
    ("oracle.cert.pair_us", "us", "lower"),
    ("oracle.dist.rows_per_s", "rows/s", "higher"),
    ("oracle.best.rows_per_s", "rows/s", "higher"),
    ("attack.trials", "count", "higher"),
    ("attack.trial_ms", "ms", "lower"),
    ("attack.build_family_s", "s", "lower"),
    ("core.load_s", "s", "lower"),
    ("core.evaluate.calls", "count", "lower"),
    ("cli.out_bytes", "bytes", "lower"),
]


class Span:
    __slots__ = ("id", "parent", "job", "name", "layer", "start", "end", "child_s",
                 "child_by_layer", "leaves", "info")

    def __init__(self, id, parent, job, name, layer):
        self.id, self.parent, self.job, self.name, self.layer = id, parent, job, name, layer
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.child_by_layer = defaultdict(float)
        self.leaves = {}  # name -> [calls, seconds, rows] of count/iter records
        self.info = {}

    def to_dict(self, origin: float) -> dict:
        return {
            "id": self.id,
            "parent": self.parent.id if self.parent is not None else None,
            "job": self.job,
            "name": self.name,
            "layer": self.layer,
            "start": self.start - origin,
            "end": self.end - origin,
            "self_s": self.end - self.start - self.child_s,
            "leaves": self.leaves,
            "info": self.info,
        }


class Tracer:
    def __init__(self):
        self.origin = perf_counter()
        self.job = None
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._depth = dict.fromkeys(LAYERS, 0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.busy = dict.fromkeys(LAYERS, 0.0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.errors = dict.fromkeys(LAYERS, 0)
        self.leaf_totals = defaultdict(lambda: [0, 0.0, 0])
        make = {"span": self._span_wrapper, "count": self._count_wrapper, "iter": self._iter_wrapper}
        self._sites = []
        for module_name, attr, layer, how in SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._sites.append((module, attr, original, make[how](original, attr, layer)))

    def install(self):
        for module, attr, _, wrapper in self._sites:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in self._sites:
            setattr(module, attr, original)

    def _account(self, layer, duration, self_time, outermost, failed, calls=1):
        self.calls[layer] += calls
        self.self_s[layer] += self_time
        if outermost:
            self.busy[layer] += duration
            self.errors[layer] += failed

    def _span_wrapper(self, fn, name, layer):
        needs_args, info = _INFO.get(name, (False, None))
        signature = inspect.signature(fn) if needs_args else None

        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), parent, self.job, name, layer)
            self.spans.append(span)
            self._stack.append(span)
            self._depth[layer] += 1
            failed = True
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                span.end = perf_counter()
                self._stack.pop()
                self._depth[layer] -= 1
                duration = span.end - span.start
                self._account(layer, duration, duration - span.child_s, self._depth[layer] == 0, failed)
                if parent is not None:
                    parent.child_s += duration
                    parent.child_by_layer[layer] += duration
            if info is not None:
                bound = signature.bind(*args, **kwargs).arguments if needs_args else None
                span.info = info(bound, result)
            return result

        return wrapper

    def _leaf(self, name, layer, duration, failed, rows=0):
        self._account(layer, duration, duration, self._depth[layer] == 0, failed)
        totals = self.leaf_totals[name]
        totals[0] += 1
        totals[1] += duration
        totals[2] += rows
        if self._stack:
            parent = self._stack[-1]
            parent.child_s += duration
            parent.child_by_layer[layer] += duration
            leaf = parent.leaves.setdefault(name, [0, 0.0, 0])
            leaf[0] += 1
            leaf[1] += duration
            leaf[2] += rows

    def _count_wrapper(self, fn, name, layer):
        def wrapper(*args, **kwargs):
            failed = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                self._leaf(name, layer, perf_counter() - start, failed)

        return wrapper

    def _iter_wrapper(self, fn, name, layer):
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                iterator = fn(*args, **kwargs)
            except BaseException:
                self._leaf(name, layer, perf_counter() - start, True)
                raise
            return self._timed(iterator, name, layer, perf_counter() - start)

        return wrapper

    def _timed(self, iterator, name, layer, elapsed):
        rows, failed = 0, False
        try:
            while True:
                start = perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                except BaseException:
                    failed = True
                    raise
                finally:
                    elapsed += perf_counter() - start
                rows += 1
                yield item
        finally:
            self._leaf(name, layer, elapsed, failed, rows)

    def metrics(self, out_bytes: int) -> dict[str, float]:
        """Every PER_LAYER metric over the spans recorded so far. A rate
        whose denominator is zero (its layer did no such work) reads 0."""
        count = defaultdict(int)
        seconds = defaultdict(float)
        info = defaultdict(float)
        attack_mechanism_s = 0.0
        for span in self.spans:
            count[span.name] += 1
            seconds[span.name] += span.end - span.start
            for key, value in span.info.items():
                info[f"{span.name}.{key}"] += value
            if span.name == "attack_experiment":
                attack_mechanism_s += span.child_by_layer["mechanisms"]

        def ratio(a, b):
            return a / b if b else 0.0

        sd_calls, sd_s, sd_rows = self.leaf_totals["sparse_domain"]
        qs_calls, qs_s, _ = self.leaf_totals["quality_score"]
        fsd_calls = count["fsd"]
        cert_s = seconds["privacy_ratio_certificate"] + seconds["postprocessing_certificate"]
        cert_pairs = info["privacy_ratio_certificate.pairs"] + info["postprocessing_certificate.pairs"]
        load_calls = count["load_database"] + count["load_query_class"]
        load_s = seconds["load_database"] + seconds["load_query_class"]
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.busy_s"] = self.busy[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.errors"] = self.errors[layer]
        out.update({
            "mechanisms.enumerate.rows_per_s": ratio(
                sd_rows + info["composition_matrix.rows"], sd_s + seconds["composition_matrix"]),
            "mechanisms.score.rows_per_s": ratio(qs_calls, qs_s),
            "mechanisms.score.calls": qs_calls,
            "mechanisms.exact.draw_ms": 1e3 * ratio(
                seconds["exponential_release_exact"], count["exponential_release_exact"]),
            "mechanisms.domain.rows": info["exponential_release_exact.rows"],
            "mechanisms.mcmc.steps": info["exponential_release_mcmc.steps"],
            "mechanisms.mcmc.step_us": 1e6 * ratio(
                seconds["exponential_release_mcmc"], info["exponential_release_mcmc.steps"]),
            "fsd.nodes": info["fsd.nodes"],
            "fsd.nodes_per_s": ratio(info["fsd.nodes"], seconds["fsd"]),
            "fsd.exact_ratio": ratio(info["fsd.exact"], fsd_calls),
            "oracle.cert.pairs": cert_pairs,
            "oracle.cert.pair_us": 1e6 * ratio(cert_s, cert_pairs),
            "oracle.dist.rows_per_s": ratio(
                info["exact_output_distribution.rows"], seconds["exact_output_distribution"]),
            "oracle.best.rows_per_s": ratio(info["best_sparse_db.rows"], seconds["best_sparse_db"]),
            "attack.trials": info["attack_experiment.trials"],
            "attack.trial_ms": 1e3 * ratio(
                seconds["attack_experiment"] - attack_mechanism_s, info["attack_experiment.trials"]),
            "attack.build_family_s": ratio(seconds["build_family"], count["build_family"]),
            "core.load_s": ratio(load_s, load_calls),
            "core.evaluate.calls": self.leaf_totals["evaluate"][0],
            "cli.out_bytes": out_bytes,
        })
        return out

    def write(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict(self.origin)) + "\n")

"""Tests of the benchmark harness itself.

The main ones are negative controls: every output check passes a genuine
result document and fails each corrupted copy of it. Run from the root of
the repository:

    python3 -m pytest bench/test_harness.py
"""

import contextlib
import copy
import io
import itertools
import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from sparsedp import cli  # noqa: E402


def _run_cli(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run([str(a) for a in argv]) == 0
    return json.loads(out.getvalue())


@pytest.fixture(scope="module")
def docs(tmp_path_factory) -> dict[str, dict]:
    """One genuine result document per kind of job, from small inputs."""
    d = tmp_path_factory.mktemp("inputs")
    files = {
        "db3": {"entries": [3.0, 1.5, 0.5]},
        "db8": {"entries": [float(i) for i in range(1, 9)]},
        "cls3": {"n": 3, "queries": [[1, 0, 0], [0.5, 0.5, 0], [0.2, 0.9, 0.4], [0, 0.3, 1]]},
        "cls8": {"n": 8, "queries": [[(i * j % 7) / 6 for j in range(8)] for i in range(6)]},
        "cls2": {"n": 2, "queries": [[1, 0], [0.3, 0.8]]},
        "bool4": {"n": 4, "queries": [list(r) for r in itertools.product((0.0, 1.0), repeat=4)]},
    }
    path = {}
    for name, payload in files.items():
        path[name] = d / f"{name}.json"
        path[name].write_text(json.dumps(payload))
    release = ["release", "--alpha", 1, "--seed", 3]
    return {
        "exact": _run_cli(release + ["--db", path["db3"], "--class", path["cls3"], "--m", 4]),
        "mcmc": _run_cli(release + ["--db", path["db8"], "--class", path["cls8"], "--m", 104,
                                    "--sampler", "mcmc", "--steps", 300]),
        "mcmc_small": _run_cli(release + ["--db", path["db3"], "--class", path["cls3"], "--m", 4,
                                          "--sampler", "mcmc", "--steps", 300]),
        "verify": _run_cli(["verify-privacy", "--n", 2, "--entry-cap", 2, "--class", path["cls2"],
                            "--alpha", 1, "--m", 2, "--probes", 5, "--seed", 1]),
        "oracle": _run_cli(["oracle", "--db", path["db3"], "--class", path["cls3"], "--alpha", 1,
                            "--m", 3, "--best-sparse"]),
        "identity": _run_cli(["attack", "--class", path["bool4"], "--gamma", 0.5, "--alpha", 1,
                              "--mechanism", "identity", "--trials", 5, "--seed", 2]),
        "attack_exact": _run_cli(["attack", "--class", path["bool4"], "--gamma", 0.5, "--alpha", 1,
                                  "--mechanism", "exact", "--trials", 5, "--seed", 2]),
    }


@pytest.mark.parametrize("kind", ["exact", "mcmc", "verify", "oracle", "identity", "attack_exact"])
def test_genuine_documents_pass(docs, kind):
    assert checks.check(docs[kind]) == []


def _move_one_unit(r):
    counts = r["d_prime"]
    i = next(i for i, c in enumerate(counts) if c > 0)
    counts[i] -= 1
    counts[(i + 1) % len(counts)] += 1


def _shift(key, delta):
    def corrupt(r):
        r[key] += delta
    return corrupt


def _set(key, value):
    def corrupt(r):
        r[key] = value
    return corrupt


def _scale_mass(r):
    for e in r["distribution"]:
        e["probability"] *= 0.99


def _worse_best(r):
    assert r["best_sparse"]["counts"] != [0, 0, 3]
    r["best_sparse"]["counts"] = [0, 0, 3]


def _best_off_m(r):
    r["best_sparse"]["counts"][0] += 1


CORRUPTIONS = [
    ("exact", "score off by 1e-6", _shift("score", 1e-6)),
    ("exact", "d_prime moved one unit", _move_one_unit),
    ("exact", "d_prime sums to m+1", lambda r: r["d_prime"].__setitem__(0, r["d_prime"][0] + 1)),
    ("exact", "d_out off by 1e-9", lambda r: r["d_out"].__setitem__(0, r["d_out"][0] + 1e-9)),
    ("exact", "marked approximate", _set("approximate", True)),
    ("mcmc", "score off by 1e-6", _shift("score", 1e-6)),
    ("mcmc", "marked exact", _set("approximate", False)),
    ("mcmc", "d_prime moved one unit", _move_one_unit),
    ("verify", "did not pass", _set("pass", False)),
    ("verify", "ratio above e^alpha", _set("max_ratio", math.e + 1e-6)),
    ("verify", "two pairs missing", _shift("pairs_checked", -2)),
    ("oracle", "probability mass 0.99", _scale_mass),
    ("oracle", "a domain row missing", lambda r: r["distribution"].pop()),
    ("oracle", "best_sparse not the best", _worse_best),
    ("oracle", "best_sparse sums to m+1", _best_off_m),
    ("identity", "one bound violation", _shift("reconstruction_bound_violations", 1)),
    ("identity", "a trial not completed", _shift("completed", -1)),
    ("identity", "imperfect identity reconstruction", _set("mean_symdiff", 0.5)),
    ("attack_exact", "one mechanism failure", _shift("mechanism_failures", 1)),
]


@pytest.mark.parametrize(
    "kind,corrupt", [(k, c) for k, _, c in CORRUPTIONS], ids=[f"{k}: {label}" for k, label, _ in CORRUPTIONS]
)
def test_corrupted_documents_fail(docs, kind, corrupt):
    doc = copy.deepcopy(docs[kind])
    corrupt(doc["result"])
    assert checks.check(doc) != []


def test_mcmc_release_on_an_enumerable_domain_fails(docs):
    assert any("budget" in p for p in checks.check(docs["mcmc_small"]))


def test_harness_counts_a_failed_check_as_a_failed_job(docs):
    good = run.Outcome(0.01, 0, json.dumps(docs["verify"]), "", None)
    doc = copy.deepcopy(docs["verify"])
    doc["result"]["pass"] = False
    bad = run.Outcome(0.01, 0, json.dumps(doc), "", None)
    assert run.failure(checks, good) is None
    assert run.failure(checks, bad) is not None
    assert run.failure(checks, run.Outcome(0.01, 1, "", "error: x", None)) is not None
    tally = run.Tally()
    tally.add(good, None, ["verify-privacy"])
    tally.add(bad, run.failure(checks, bad), ["verify-privacy"])
    assert tally.end_to_end()["failed_ratio"] == 0.5


def test_gauge_scales_each_time_by_the_nearest_reference_samples():
    gauge = reference.Gauge()
    # Ten samples at the reference speed, then ten on a machine twice as slow.
    gauge.at = [float(i) for i in range(20)]
    gauge.seconds = [reference.REFERENCE_S] * 10 + [2 * reference.REFERENCE_S] * 10
    assert gauge.scale(-5.0) == gauge.scale(2.0) == 1.0
    assert gauge.scale(17.0) == gauge.scale(100.0) == 0.5
    tally = run.Tally()
    tally.add(run.Outcome(0.1, 0, "{}", "", None, 2.0), None, ["release"])
    tally.add(run.Outcome(0.2, 0, "{}", "", None, 17.0), None, ["release"])
    assert tally.end_to_end()["jobs_per_s"] == pytest.approx(2 / 0.3)
    assert tally.end_to_end(gauge.scale)["jobs_per_s"] == pytest.approx(2 / 0.2)


def test_gauge_samples_time_the_reference_work():
    gauge = reference.Gauge()
    gauge.sample()
    gauge.sample()
    assert len(gauge.seconds) == 2 and all(s > 0 for s in gauge.seconds)
    assert gauge.at[0] < gauge.at[1]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_inputs_depend_only_on_the_seed(tmp_path, name):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for p in (a, b, c):
        p.mkdir()
    jobs = workloads.generate(name, 7, a)
    assert len(jobs) % workloads.BLOCK_JOBS[name] == 0
    assert jobs == workloads.generate(name, 7, b)
    assert jobs != workloads.generate(name, 8, c)
    for f in a.iterdir():
        assert f.read_bytes() == (b / f.name).read_bytes()


def test_traced_job_reports_every_per_layer_metric(docs, tmp_path):
    tracer = tracing.Tracer()
    argv = docs["attack_exact"]["config"]
    tracer.install()
    try:
        outcome = run.invoke(cli, ["attack", "--class", argv["query_class"], "--gamma", "0.5",
                                   "--alpha", "1", "--mechanism", "exact", "--trials", "5"])
    finally:
        tracer.uninstall()
    assert outcome.code == 0
    metrics = tracer.metrics(len(outcome.stdout))
    assert list(metrics) == [name for name, _, _ in tracing.PER_LAYER]
    assert metrics["attack.trials"] == 5
    assert metrics["mechanisms.exact.draw_ms"] > 0
    root = [s for s in tracer.spans if s.name == "run"]
    assert len(root) == 1 and root[0].parent is None
    total_self = sum(tracer.self_s.values())
    assert total_self == pytest.approx(root[0].end - root[0].start)
    tracer.write(tmp_path / "spans.jsonl")
    assert len((tmp_path / "spans.jsonl").read_text().splitlines()) == len(tracer.spans)


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.PER_LAYER

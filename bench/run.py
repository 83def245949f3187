"""Closed-loop benchmark of sparsedp CLI jobs.

Run from the root of a checkout:

    python3 bench/run.py --workload release-exact --seed 1 --seconds 15 --trace 0

One client runs one job at a time in this process: each job is one
``sparsedp.cli.run(argv)`` call with stdout captured in memory, so file
loading and JSON output are paid as a user pays them, but interpreter
start-up is not paid per job. Inputs are written from ``--seed`` before
timing starts (see ``workloads.py``). After each job's timing ends its output
is checked by recomputing it through the public API (see ``checks.py``).

The loop runs for ``--seconds`` and at least ``MIN_JOBS`` jobs, so that ten
job times lie above ``job_s_p90``, after ``WARMUP_JOBS`` untimed jobs, and
ends on a block boundary of the job list, so that every run has the
workload's strata in the same proportions. ``setup_s`` is the median of
``SETUP_PROBES`` fresh processes that each do what a run does before its
first job; they run one at a time, spread evenly over the loop, so they meet
the host in the same states the jobs do, and the loop's time budget leaves
them out.

Every time reported with tracing off is scaled to a fixed machine speed:
between jobs and between set-up probes the runner times a fixed reference
workload (see ``reference.py``) and divides each time by the speed measured
nearest to it, so that the host's speed drifting during and between runs
does not read as a change of the program. The raw wall-clock figures are
printed alongside.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs every job
twice in a row, untraced and then traced (see ``tracing.py``), reports the
per-layer metrics of the traced jobs, prints the per-layer table and the
tracing overhead (traced minus untraced wall-clock figures over the same
jobs), and writes the spans to ``.bench_out/``.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The
exit code is non-zero, with no JSON line, when the program's source is
missing from the checkout or a set-up step fails.
"""

import os

# One BLAS thread per process, set before numpy loads: the benchmark runs one
# job at a time and should fit a 2-core machine.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import reference
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"
RESULTS = ROOT / ".bench_out"

MIN_JOBS = 100  # p90 needs at least ten samples above it
DIGEST_JOBS = 40  # the determinism digest covers the first jobs of a run
SETUP_PROBES = 11  # setup_s is the median of this many fresh processes
WARMUP_JOBS = 3  # run untimed before the loop, so lazy first-use set-up is done

END_TO_END = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_s_p50", "s"),
    ("job_s_p90", "s"),
    ("peak_rss_mb", "MB"),
]


def load_program():
    """Import sparsedp from this checkout's ``src/`` and the harness modules
    that use it; exit with an error when the package is not there."""
    if not (SRC / "sparsedp" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'sparsedp'} is missing; run from the root of a full checkout")
    sys.path.insert(0, str(SRC))
    import sparsedp.cli

    if Path(sparsedp.__file__).resolve().parent != (SRC / "sparsedp").resolve():
        sys.exit(f"error: imported sparsedp from {sparsedp.__file__}, not from {SRC}")
    import checks
    import tracing

    return sparsedp.cli, checks, tracing


def setup_probe(args) -> None:
    """Everything a run does before its first job, in a fresh process; prints
    ``ready`` when the first job could start."""
    load_program()
    TMP.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="probe-", dir=TMP))
    try:
        workloads.generate(args.workload, args.seed, workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir)


class SetupProbes:
    """Fresh-process set-ups of one run. ``times`` holds (start, seconds) of
    each recorded probe and ``spent`` the wall time all probes took, which
    the job loop leaves out of its time budget."""

    def __init__(self, args, gauge):
        self.command = [sys.executable, __file__, "--setup-probe",
                        "--workload", args.workload, "--seed", str(args.seed)]
        self.gauge = gauge
        self.times: list[tuple[float, float]] = []
        self.spent = 0.0

    def run(self, record: bool = True) -> None:
        """One probe, then a gauge sample."""
        start = time.perf_counter()
        with subprocess.Popen(self.command, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            sys.exit(f"error: set-up probe exited with code {proc.returncode}")
        if record:
            self.times.append((start, elapsed))
        self.gauge.sample()
        self.spent += time.perf_counter() - start


@dataclass
class Outcome:
    seconds: float
    code: int | None
    stdout: str
    stderr: str
    error: str | None
    at: float = 0.0  # perf_counter() when the job started


def invoke(cli, argv) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    code = error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.run(argv)
        except Exception:
            error = traceback.format_exc()
        seconds = time.perf_counter() - start
    return Outcome(seconds, code, out.getvalue(), err.getvalue(), error, start)


def failure(checks, outcome: Outcome) -> str | None:
    """Why a job failed, or None when it exited 0 and passed its check."""
    if outcome.error is not None:
        return "raised " + outcome.error.strip().splitlines()[-1]
    if outcome.code != 0:
        return f"exit code {outcome.code}: {outcome.stderr.strip()}"
    try:
        problems = checks.check(json.loads(outcome.stdout))
    except (ValueError, KeyError, TypeError, OSError) as e:
        return f"result document could not be checked: {e!r}"
    return "; ".join(problems) or None


class Tally:
    """Job times, failures and output sizes of one side of a run."""

    def __init__(self):
        self.seconds: list[float] = []
        self.at: list[float] = []
        self.failures: list[str] = []
        self.out_bytes = 0

    def add(self, outcome: Outcome, problem: str | None, argv):
        self.seconds.append(outcome.seconds)
        self.at.append(outcome.at)
        self.out_bytes += len(outcome.stdout.encode())
        if problem is not None:
            self.failures.append(f"{' '.join(argv)}: {problem}")

    def end_to_end(self, scale=None) -> dict[str, float]:
        """Job metrics from the wall times, or from the times multiplied by
        ``scale(start)`` when a scale is given."""
        seconds = self.seconds if scale is None else [s * scale(t) for s, t in zip(self.seconds, self.at)]
        jobs = len(seconds)
        passed = jobs - len(self.failures)
        timed = sum(seconds)
        p90 = statistics.quantiles(seconds, n=10, method="inclusive")[-1] if jobs > 1 else timed
        return {
            "jobs_per_s": passed / timed if timed else 0.0,
            "job_s_p50": statistics.median(seconds) if jobs else 0.0,
            "job_s_p90": p90,
            "failed_ratio": len(self.failures) / jobs if jobs else 0.0,
        }


def run_jobs(cli, checks, jobs, block, seconds, tracer, gauge, probes):
    """The closed loop, with the set-up probes spread evenly over it. Returns
    the untraced tally, the traced tally (trace mode only) and the sha256 of
    the first DIGEST_JOBS job outputs."""
    plain, traced = Tally(), Tally()
    digest = hashlib.sha256()
    for argv in jobs[:WARMUP_JOBS]:
        invoke(cli, argv)
    gauge.sample()
    start, offset = time.perf_counter(), probes.spent

    def elapsed():
        return time.perf_counter() - start - (probes.spent - offset)

    i = 0
    while i % block or elapsed() < seconds or (tracer is None and i < MIN_JOBS):
        argv = jobs[i % len(jobs)]
        outcome = invoke(cli, argv)
        plain.add(outcome, failure(checks, outcome), argv)
        if i < DIGEST_JOBS:
            digest.update(outcome.stdout.encode())
        if tracer is not None:
            tracer.job = i
            tracer.install()
            try:
                again = invoke(cli, argv)
            finally:
                tracer.uninstall()
            problem = failure(checks, again)
            if problem is None and again.stdout != outcome.stdout:
                problem = "traced output differs from the untraced output"
            traced.add(again, problem, argv)
        if len(probes.times) < SETUP_PROBES and elapsed() >= len(probes.times) * seconds / SETUP_PROBES:
            probes.run()
        elif gauge.due():
            gauge.sample()
        i += 1
    while len(probes.times) < SETUP_PROBES:
        probes.run()
    gauge.sample()
    return plain, traced if tracer is not None else None, digest.hexdigest()


def git_commit() -> str:
    """The checked-out commit, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    with contextlib.suppress(OSError):
        return (git / ref).read_text().strip()
    with contextlib.suppress(OSError):
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def metadata(args, jobs_run: int, gauge) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": jobs_run,
        "job_s_p90_samples": jobs_run,
        "reference_samples": len(gauge.seconds),
        "reference_median_s": round(statistics.median(gauge.seconds), 6),
    }


def compare_digest(record_path: Path, digest: str) -> str:
    try:
        previous = json.loads(record_path.read_text())["digest"]
    except (OSError, ValueError, KeyError):
        return "no earlier record for this workload and seed"
    if previous == digest:
        return "unchanged since the last record for this workload and seed"
    return f"CHANGED: the last record for this workload and seed had {previous}"


def print_layer_table(tracer, tracing, metrics: dict, traced_jobs: int) -> None:
    total_self = sum(tracer.self_s.values())
    print(f"# per-layer, over {traced_jobs} traced jobs")
    print(f"#   {'layer':<11}{'calls':>10}{'busy_s':>11}{'self_s':>11}{'self %':>8}{'errors':>8}")
    for layer in tracing.LAYERS:
        share = 100.0 * tracer.self_s[layer] / total_self if total_self else 0.0
        print(f"#   {layer:<11}{tracer.calls[layer]:>10}{tracer.busy[layer]:>11.4f}"
              f"{tracer.self_s[layer]:>11.4f}{share:>7.1f}%{tracer.errors[layer]:>8}")
    for name, unit, _ in tracing.PER_LAYER[4 * len(tracing.LAYERS):]:
        print(f"#   {name:<34}{metrics[name]:>16.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0

    cli, checks, tracing = load_program()
    gauge = reference.Gauge()
    probes = SetupProbes(args, gauge)
    probes.run(record=False)  # leaves the checkout's bytecode caches written
    TMP.mkdir(exist_ok=True)
    RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP))
    tracer = tracing.Tracer() if args.trace else None
    try:
        jobs = workloads.generate(args.workload, args.seed, workdir)
        os.chdir(workdir)
        try:
            block = workloads.BLOCK_JOBS[args.workload]
            plain, traced, digest = run_jobs(cli, checks, jobs, block, args.seconds, tracer, gauge, probes)
        finally:
            os.chdir(ROOT)
    finally:
        shutil.rmtree(workdir)

    setup_times = [s for _, s in probes.times]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall = plain.end_to_end()
    wall.update(setup_s=statistics.median(setup_times), peak_rss_mb=peak_rss_mb)
    e2e = plain.end_to_end(gauge.scale)
    e2e["setup_s"] = statistics.median(s * gauge.scale(t) for t, s in probes.times)
    e2e["peak_rss_mb"] = peak_rss_mb
    attempted = len(plain.seconds) + (len(traced.seconds) if traced else 0)
    failures = plain.failures + (traced.failures if traced else [])
    meta = metadata(args, len(plain.seconds), gauge)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    digest_note = compare_digest(RESULTS / f"{stem}.json", digest)

    print(f"# sparsedp benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("# " + ", ".join(f"{k} {v}" for k, v in meta.items()))
    print(f"# setup_s probes: {', '.join(f'{t:.4f}' for t in setup_times)} s")
    print(f"# times scaled to the reference speed ({reference.REFERENCE_S} s per reference sample; "
          f"this run's median sample {statistics.median(gauge.seconds):.6f} s), then wall clock")
    for name, unit in END_TO_END + [("failed_ratio", "ratio")]:
        print(f"{name:<14}{e2e[name]:>14.6g} {unit:<5}{wall[name]:>14.6g} {unit}")
    print(f"{'jobs':<14}{len(plain.seconds):>14} ({len(plain.failures)} failed; "
          f"job_s_p90 over {len(plain.seconds)} samples)")
    print(f"digest        sha256:{digest} over the first {min(DIGEST_JOBS, len(plain.seconds))} "
          f"job outputs, {digest_note}")
    for line in failures[:5]:
        print(f"FAILED {line}")

    record = {"metadata": meta, "end_to_end": e2e, "end_to_end_wall": wall, "setup_probes_s": setup_times,
              "digest": digest, "failures": failures}
    if tracer is not None:
        metrics = tracer.metrics(traced.out_bytes)
        print_layer_table(tracer, tracing, metrics, len(traced.seconds))
        overhead = {k: v - wall[k] for k, v in traced.end_to_end().items()}
        note = "" if len(traced.seconds) >= MIN_JOBS else f" (p90 over only {len(traced.seconds)} jobs)"
        print("# tracing overhead, traced minus untraced over the same jobs: "
              + ", ".join(f"{k} {v:+.6g}" for k, v in overhead.items()) + note)
        tracer.write(RESULTS / f"{args.workload}-seed{args.seed}-spans.jsonl")
        record.update(per_layer=metrics, tracing_overhead=overhead)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    else:
        metrics = {name: e2e[name] for name, _ in END_TO_END}
        units = dict(END_TO_END)
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

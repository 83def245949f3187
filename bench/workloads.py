"""Seeded inputs and job lists for the benchmark workloads.

``generate(name, seed, directory)`` writes every database and query-class
file a workload uses into ``directory`` and returns the workload's jobs, in
run order, as ``sparsedp`` CLI argument lists. File arguments are relative
to ``directory``, so a result document does not depend on where the
directory lives. The same seed gives the same files and the same jobs.

Jobs come in blocks. A block holds one job of every stratum of its workload
(an input size or mode with its own cost), in seeded order, and the runner
ends a run on a block boundary, so every run sees the strata in fixed
proportions and the mean job cost does not depend on the seed. Flags that
are not part of a stratum (the exponent rule, ``--l1``, ``--postprocess``)
follow the stratum's phase, its index plus the block's, so that they too
are spread over the strata in the same way for every seed. The data inside
each job (entries, coefficients, the job's own ``--seed``) is drawn fresh
for every job.

This module uses only the standard library: the inputs are written in the
documented file formats, not through the program under test.
"""

import itertools
import json
import random
from pathlib import Path

ALPHA = "1.0"


class _Files:
    """Writes numbered input files into one directory."""

    def __init__(self, directory: Path):
        self.directory = directory
        self.count = 0

    def _write(self, prefix: str, payload: dict) -> str:
        name = f"{prefix}{self.count:04d}.json"
        self.count += 1
        (self.directory / name).write_text(json.dumps(payload))
        return name

    def database(self, entries) -> str:
        return self._write("db", {"entries": list(entries)})

    def query_class(self, rows) -> str:
        rows = [list(r) for r in rows]
        return self._write("cls", {"n": len(rows[0]), "queries": rows})


def _uniform_class(rng: random.Random, n: int, k: int):
    return [[rng.random() for _ in range(n)] for _ in range(k)]


def _database(rng: random.Random, n: int):
    return [rng.uniform(0.0, 50.0) for _ in range(n)]


def _job_seed(rng: random.Random) -> str:
    return str(rng.randrange(2**31))


EXPONENTS = ("paper", "tight")


def _blocks(rng: random.Random, strata: list, blocks: int):
    """(stratum, phase) for every stratum once per block, shuffled within the
    block; the phase is the stratum's index plus the block's."""
    for b in range(blocks):
        block = [(stratum, i + b) for i, stratum in enumerate(strata)]
        rng.shuffle(block)
        yield from block


# (n, m) shapes of 1.7k-6.2k domain rows, plus one of 20k rows as a fifth of
# the jobs, each crossed with k in {16, 32, 64}.
RELEASE_EXACT_SHAPES = [(4, 30), (5, 16), (6, 12), (8, 6)]
RELEASE_EXACT_LARGE = (5, 24)
RELEASE_EXACT_STRATA = [(shape, k) for shape in RELEASE_EXACT_SHAPES + [RELEASE_EXACT_LARGE] for k in (16, 32, 64)]


def release_exact(rng: random.Random, files: _Files) -> list[list[str]]:
    jobs = []
    for ((n, m), k), phase in _blocks(rng, RELEASE_EXACT_STRATA, blocks=6):
        jobs.append([
            "release",
            "--db", files.database(_database(rng, n)),
            "--class", files.query_class(_uniform_class(rng, n, k)),
            "--alpha", ALPHA,
            "--m", str(m),
            "--sampler", "exact",
            "--exponent", EXPONENTS[phase % 2],
            "--l1", ("public", "private")[phase // 2 % 2],
            "--seed", _job_seed(rng),
        ])
    return jobs


# (k, n, gamma) strata; the CLI derives d_max = log2(k), runs the search and
# sets m = choose_m(0.25, d). On these the search always finishes exactly at
# d = 2 (m = 73) in 33k-112k nodes with a spread of about 15% within a
# stratum. At gamma = 0.15, or k >= 16 with gamma = 0.2, d is 2 or 3 at
# random and the search cost is bimodal, which makes the mean cost of a run
# depend on the seed.
RELEASE_MCMC_STRATA = [(12, 8, 0.2), (12, 10, 0.2), (16, 8, 0.25), (20, 8, 0.25), (16, 10, 0.25)]


def release_mcmc(rng: random.Random, files: _Files) -> list[list[str]]:
    jobs = []
    # The search cost varies with the class, so every job gets its own class.
    # A run needs at least the runner's 100 jobs; a faster one repeats them in
    # order, which keeps every job's cost and the mix of strata.
    for (k, n, gamma), phase in _blocks(rng, RELEASE_MCMC_STRATA, blocks=20):
        jobs.append([
            "release",
            "--db", files.database(_database(rng, n)),
            "--class", files.query_class(_uniform_class(rng, n, k)),
            "--alpha", ALPHA,
            "--eta", "0.25",
            "--gamma", str(gamma),
            "--sampler", "mcmc",
            "--exponent", EXPONENTS[phase % 2],
            "--seed", _job_seed(rng),
        ])
    return jobs


# Per block: 16 certificate jobs (n x entry-cap x m x probes) and 4 oracle
# jobs, one at m=12 and three at m=20, so p50 falls among certificates and
# p90 inside the m=20 oracle jobs rather than on a boundary between kinds.
VERIFY_STRATA = [("cert", *combo) for combo in itertools.product((3, 4), (4, 5), (3, 4), (0, 200))] + [
    ("oracle", 12), ("oracle", 20), ("oracle", 20), ("oracle", 20)]


def verify(rng: random.Random, files: _Files) -> list[list[str]]:
    jobs = []
    for stratum, phase in _blocks(rng, VERIFY_STRATA, blocks=10):
        exponent = EXPONENTS[phase % 2]
        if stratum[0] == "cert":
            _, n, cap, m, probes = stratum
            jobs.append([
                "verify-privacy",
                "--n", str(n),
                "--entry-cap", str(cap),
                "--class", files.query_class(_uniform_class(rng, n, 6)),
                "--alpha", ALPHA,
                "--m", str(m),
                "--exponent", exponent,
                "--postprocess", ("none", "first-coordinate")[phase // 2 % 2],
                "--probes", str(probes),
                "--seed", _job_seed(rng),
            ])
        else:
            m = stratum[1]
            jobs.append([
                "oracle",
                "--db", files.database(_database(rng, 5)),
                "--class", files.query_class(_uniform_class(rng, 5, 16)),
                "--alpha", ALPHA,
                "--m", str(m),
                "--exponent", exponent,
                "--best-sparse",
            ])
    return jobs


# (mechanism, d, trials): exact on 10- and 56-row domains, Laplace, and the
# identity mechanism, which must reconstruct perfectly. The trial counts put
# the strata's costs in three separate groups, two cheap d <= 6 strata, exact
# at d = 6, and two dear d = 8 strata, so that job_s_p50 is the median of the
# middle stratum rather than a point where strata of close cost overlap.
ATTACK_STRATA = [("exact", 4, 100), ("exact", 6, 60), ("laplace", 6, 100), ("laplace", 8, 100), ("identity", 8, 100)]


def attack(rng: random.Random, files: _Files) -> list[list[str]]:
    jobs = []
    for (mechanism, d, trials), phase in _blocks(rng, ATTACK_STRATA, blocks=10):
        # All 2^d boolean subset queries on n = d coordinates, with the
        # coordinates in seeded order. Rows stay in product order: with the
        # rows shuffled the shattering search backtracks until its 2M-node
        # budget runs out (2.3 s at d=6).
        perm = list(range(d))
        rng.shuffle(perm)
        rows = [[row[p] for p in perm] for row in itertools.product((0.0, 1.0), repeat=d)]
        jobs.append([
            "attack",
            "--class", files.query_class(rows),
            "--gamma", "0.5",
            "--alpha", ALPHA,
            "--mechanism", mechanism,
            "--trials", str(trials),
            "--dmax", str(d),
            "--exponent", EXPONENTS[phase % 2],
            "--seed", _job_seed(rng),
        ])
    return jobs


WORKLOADS = {
    # Enumeration, per-candidate scoring and the exact draw are nearly all of
    # each job; the 20k-row fifth puts p90 on a working set larger than L2.
    "release-exact": release_exact,
    # The shattering search and the MCMC chain share each job and nothing
    # enumerates or scores the domain: enumeration and scoring changes must
    # show no change here.
    "release-mcmc": release_mcmc,
    # The same enumeration and scoring concept as release-exact, as bulk
    # vectorised passes plus per-label Python loops; oracle jobs print
    # 0.3-1.7 MB of JSON and set peak memory.
    "verify": verify,
    # Many tiny domains and per-trial reconstruction: the opposite use of the
    # mechanisms to release-exact, so added per-call set-up shows here.
    "attack": attack,
}


# Jobs per block: a run that ends on a block boundary has every stratum in
# the same proportion.
BLOCK_JOBS = {
    "release-exact": len(RELEASE_EXACT_STRATA),
    "release-mcmc": len(RELEASE_MCMC_STRATA),
    "verify": len(VERIFY_STRATA),
    "attack": len(ATTACK_STRATA),
}


def generate(name: str, seed: int, directory: Path) -> list[list[str]]:
    """Write workload ``name``'s inputs for ``seed`` into ``directory`` and
    return its jobs in run order."""
    rng = random.Random(f"{name}/{seed}")
    return WORKLOADS[name](rng, _Files(Path(directory)))

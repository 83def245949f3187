"""Seeding discipline.

Every randomized operation in the library takes a ``numpy.random.Generator``.
All experiment drivers derive their generators from a single integer seed via
the documented splitting scheme below, so runs are reproducible bit-for-bit
and trials can execute on any schedule without changing results.

Splitting scheme: the root seed ``s`` owns the stream
``default_rng(SeedSequence(s))``; the i-th child stream (one per trial index,
or per named sub-task index) is ``default_rng(SeedSequence(s, spawn_key=(i,)))``,
which is what the root generator's first ``Generator.spawn`` hands out, in
index order.
"""

import numpy as np


def make_rng(seed: int | np.random.SeedSequence | np.random.Generator) -> np.random.Generator:
    """Root generator for a run. Passing a Generator through is a no-op."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)

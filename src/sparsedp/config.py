"""Repository-wide constants: enumeration budgets and calibrated constants.

The two calibrated constants below were fixed once by seeded calibration runs
(see the notes next to each value) and are frozen; tests pin behaviour against
them.  The domain enumeration budget can be overridden through the
``FSDP_BUDGET`` environment variable; the shattering search's node budget
only per call (``budget=``, the CLI's ``--budget``).
"""

import os

# Hard wall for enumerating the sparse integer domain {D' : ||D'||_1 = m}.
# Above this the exact samplers and the brute-force oracles refuse; the
# samplers point the caller at the MCMC one.
DEFAULT_DOMAIN_BUDGET = 10_000_000

# Node budget for the exponential-time shattering search, counted in
# comparisons: one query row tested against one threshold candidate, so a
# coordinate's pass over u candidates spends k*u.  Exceeding it turns the
# result into a best-found lower bound (``exact=False``).
DEFAULT_NODE_BUDGET = 2_000_000

# Multiplier in the sample-size rule m = ceil(c_m * (d*ln^2(1/eta) + ln 2)/eta^2).
# Calibrated on 2x200 seeded random instances (n <= 5, k <= 8, eta in
# {0.25, 0.5}): the brute-force best sparse database met the target relative
# error in >= 99% of instances at c_m = 1.0.
DEFAULT_CM = 1.0

# Multiplier in the utility threshold ||D||_1 >= c_u * m * ln(n) / (eta*alpha).
# The union-bound argument gives roughly 4*(1 + ln(1/delta)/(m ln n)) for the
# quarter-exponent rule; 6.0 adds headroom and passed 200-release calibration.
DEFAULT_CU = 6.0

# Fraction of alpha spent on the private L1-norm estimate when a release is
# configured with l1="private"; the remainder drives the exponential weights.
L1_ESTIMATE_ALPHA_SHARE = 0.10

# Reconstruction is an argmin over C(d, d/2) subsets; beyond this bucket size
# the enumeration is infeasible and family construction refuses.
MAX_FAMILY_SIZE = 16


def domain_budget() -> int:
    """The sparse-domain enumeration budget: the ``FSDP_BUDGET`` environment
    variable, else ``DEFAULT_DOMAIN_BUDGET``.  A value that is not a whole
    number at least 1 raises ``ValueError`` naming the variable."""
    env = os.environ.get("FSDP_BUDGET")
    if env is None:
        return DEFAULT_DOMAIN_BUDGET
    try:
        budget = int(env)
    except ValueError:
        budget = 0
    if budget < 1:
        raise ValueError(f"FSDP_BUDGET must be a whole number at least 1, got {env!r}")
    return budget


def node_budget(override: int | None = None) -> int:
    """Resolve the shattering-search node budget: the explicit ``override``
    argument, else ``DEFAULT_NODE_BUDGET``.  ``FSDP_BUDGET`` does not apply:
    a smaller search would silently turn the dimension into a lower bound.
    A budget below 1 raises ``ValueError``: it could make no comparison."""
    if override is None:
        return DEFAULT_NODE_BUDGET
    budget = int(override)
    if budget < 1:
        raise ValueError(f"node budget must be at least 1, got {budget}")
    return budget

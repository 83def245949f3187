"""Differentially private release of linear queries over sparse synthetic
databases, with the shattering-dimension machinery that controls how large a
surrogate must be, a reconstruction attack bounding what any accurate private
mechanism can hide, and brute-force oracles that certify the claims at small
scale."""

__version__ = "0.1.0"

from .core import (
    Database,
    DimensionMismatchError,
    DomainTooLargeError,
    LinearQuery,
    QueryClass,
    SparseSyntheticDatabase,
    evaluate,
    l1_norm,
    load_database,
    load_query_class,
    max_error,
    rescale,
)
from .fsd import (
    FsdResult,
    SearchBudgetExceeded,
    ShatteringWitness,
    choose_m,
    fsd,
    is_gamma_shattered,
    verify_shattering,
)
from .mechanisms import (
    ExactLawTable,
    ExponentRule,
    PrivacyParams,
    ReleaseOutput,
    domain_size,
    estimate_l1,
    exponential_release_exact,
    exponential_release_mcmc,
    laplace_noise,
    laplace_release,
    quality_score,
    sparse_domain,
    utility_threshold,
)
from .oracle import (
    CertificateResult,
    OutputDistribution,
    best_sparse_db,
    exact_output_distribution,
    postprocessing_certificate,
    privacy_ratio_certificate,
)
from .attack import (
    AttackReport,
    FamilySearchError,
    ShatteredFamily,
    attack_experiment,
    build_family,
    partition_buckets,
    reconstruct,
)

__all__ = [name for name in dir() if not name.startswith("_")]

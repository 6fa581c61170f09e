"""Two-sample difference-in-quantile inference from order statistics.

The package provides a likelihood-ratio hypothesis test for a hypothesized
quantile difference, two confidence-interval constructions built on it (a
conservative acceptance-region search and a fast two-step method using four
order statistics), the Price-Bonnet and Donner-Zou baselines, and a seeded
Monte Carlo harness for coverage studies.
"""

__version__ = "0.1.0"

from . import errors
from .baselines import donner_zou_ci, price_bonnet_ci
from .core import (
    TWO_SAMPLE_METHODS,
    ConfidenceInterval,
    Method,
    OrderedSample,
    QuantileSpec,
    ingest_sample,
    max_likelihood_index,
    read_sample_csv,
)
from .likelihood import (
    LRStatistic,
    chi2_quantile_1df,
    chi2_sf_1df,
    log_binomial_pmf,
    lr_statistic_asymptotic,
    lr_statistic_exact,
    normal_quantile,
)
from .region import (
    AcceptanceGrid,
    LRTestResult,
    acceptance_grid,
    conservative_ci,
    lr_test,
    write_acceptance_grid_csv,
)
from .simulate import (
    COVERAGE_CSV_HEADER,
    CoverageRow,
    DistFamily,
    Distribution,
    ScenarioSpec,
    generate_pair,
    parse_distribution,
    run_coverage_study,
    true_quantile,
    write_coverage_csv,
)
from .two_step import IndexQuad, step1_indexes, two_step_ci

__all__ = [
    "__version__",
    "errors",
    "Method",
    "TWO_SAMPLE_METHODS",
    "OrderedSample",
    "QuantileSpec",
    "ConfidenceInterval",
    "ingest_sample",
    "read_sample_csv",
    "max_likelihood_index",
    "LRStatistic",
    "log_binomial_pmf",
    "lr_statistic_exact",
    "lr_statistic_asymptotic",
    "normal_quantile",
    "chi2_quantile_1df",
    "chi2_sf_1df",
    "LRTestResult",
    "AcceptanceGrid",
    "lr_test",
    "conservative_ci",
    "acceptance_grid",
    "write_acceptance_grid_csv",
    "IndexQuad",
    "step1_indexes",
    "two_step_ci",
    "price_bonnet_ci",
    "donner_zou_ci",
    "DistFamily",
    "Distribution",
    "parse_distribution",
    "ScenarioSpec",
    "CoverageRow",
    "true_quantile",
    "generate_pair",
    "run_coverage_study",
    "COVERAGE_CSV_HEADER",
    "write_coverage_csv",
]

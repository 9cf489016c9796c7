"""Adaptive FDR step-up procedures for discrete exact tests.

The package computes exact conventional and mid two-sided p-values for the
binomial test and Fisher's exact test, builds their attainable-value
supports and null CDFs, and runs step-up multiple-testing procedures whose
critical values adapt to the pooled null CDF.  A Monte Carlo harness and
count-table ingestion pipelines sit on top, exposed through the ``stepfdr``
command-line tool.
"""

from .dist import (
    DiscreteDistribution,
    Pareto,
    binomial_null,
    hypergeometric_null,
)
from .errors import DataError, InvariantViolation
from .ingest import (
    AnalysisReport,
    CountTable,
    analyze,
    filter_hiv,
    filter_methylation,
    load_counts,
    pvalue_tables,
    report_rows,
    report_summary,
)
from .pvalue import (
    PValueFlavor,
    PValueSupport,
    PValueTable,
    bt_outcome_pvalues,
    bt_support,
    fet_outcome_pvalues,
    fet_support,
    pvalue_table,
)
from .sim import (
    ProcedureStats,
    SimConfig,
    SimSummary,
    gen_binomial_pair,
    gen_copula_uniforms,
    gen_poisson_pair,
    run_cell,
    run_grid,
    summaries_to_rows,
)
from .stepup import (
    PROCEDURES,
    MaxCdf,
    MidComparison,
    StepUpResult,
    bh,
    bh_plus,
    build_max_cdf,
    critical_values,
    mid_vs_conventional,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "CountTable",
    "DataError",
    "DiscreteDistribution",
    "InvariantViolation",
    "MaxCdf",
    "MidComparison",
    "PROCEDURES",
    "Pareto",
    "ProcedureStats",
    "PValueFlavor",
    "PValueSupport",
    "PValueTable",
    "SimConfig",
    "SimSummary",
    "StepUpResult",
    "analyze",
    "bh",
    "bh_plus",
    "binomial_null",
    "bt_outcome_pvalues",
    "bt_support",
    "build_max_cdf",
    "critical_values",
    "fet_outcome_pvalues",
    "fet_support",
    "filter_hiv",
    "filter_methylation",
    "gen_binomial_pair",
    "gen_copula_uniforms",
    "gen_poisson_pair",
    "hypergeometric_null",
    "load_counts",
    "mid_vs_conventional",
    "pvalue_table",
    "pvalue_tables",
    "report_rows",
    "report_summary",
    "run_cell",
    "run_grid",
    "summaries_to_rows",
]

"""Survey scale validation: reliability, sampling adequacy, factor analysis.

The library covers the standard quantitative validation workflow for
multi-item Likert instruments: test-retest and internal-consistency
reliability, Bartlett/KMO adequacy checks with anti-image item pruning,
exploratory factor analysis (PCA and principal axis extraction, varimax
and oblimin rotation), and a seeded factor-model simulator for round-trip
verification. ``run_validation`` chains the whole pipeline; the ``psychoval``
command exposes each stage on the command line.
"""

from . import errors
from .adequacy import (
    AdequacyReport,
    PruneStep,
    PruneTrail,
    SampleAdequacyAdvice,
    bartlett_sphericity,
    kmo,
    msa_prune,
    sample_adequacy_advice,
)
from .core_stats import (
    EigenDecomposition,
    SymMatrix,
    chi_square_sf,
    correlation_matrix,
    inverse,
    log_determinant,
    sym_eigen,
)
from .efa import (
    FactorSolution,
    ItemAssignment,
    assign_items,
    extract_paf,
    extract_pca,
    fit_efa,
    retain_kaiser,
    rotate_oblimin,
    rotate_varimax,
    sort_and_sign,
    varimax_criterion,
)
from .ingest import (
    AnalysisView,
    ItemSummary,
    ScaleDefinition,
    SurveyDataset,
    complete_cases,
    describe,
    load_csv,
    load_scales,
    loads_csv,
    parse_scales,
    to_csv,
)
from .pipeline import (
    FactorScale,
    PipelineConfig,
    ValidationReport,
    render_report,
    run_validation,
)
from .reliability import (
    AlphaReport,
    RetestReport,
    alpha_from_covariance,
    cronbach_alpha,
    test_retest,
)
from .rng import Rng, derive_seed, splitmix64
from .simulate import (
    FactorModelSpec,
    equal_probability_thresholds,
    generate,
    load_model,
    parse_model,
    population_correlation,
)

__version__ = "0.1.0"

__all__ = [
    "AdequacyReport",
    "AlphaReport",
    "AnalysisView",
    "EigenDecomposition",
    "FactorModelSpec",
    "FactorScale",
    "FactorSolution",
    "ItemAssignment",
    "ItemSummary",
    "PipelineConfig",
    "PruneStep",
    "PruneTrail",
    "RetestReport",
    "Rng",
    "SampleAdequacyAdvice",
    "ScaleDefinition",
    "SurveyDataset",
    "SymMatrix",
    "ValidationReport",
    "alpha_from_covariance",
    "assign_items",
    "bartlett_sphericity",
    "chi_square_sf",
    "complete_cases",
    "correlation_matrix",
    "cronbach_alpha",
    "derive_seed",
    "describe",
    "equal_probability_thresholds",
    "errors",
    "extract_paf",
    "extract_pca",
    "fit_efa",
    "generate",
    "inverse",
    "kmo",
    "load_csv",
    "load_model",
    "load_scales",
    "loads_csv",
    "log_determinant",
    "msa_prune",
    "parse_model",
    "parse_scales",
    "population_correlation",
    "render_report",
    "retain_kaiser",
    "rotate_oblimin",
    "rotate_varimax",
    "run_validation",
    "sample_adequacy_advice",
    "sort_and_sign",
    "splitmix64",
    "sym_eigen",
    "test_retest",
    "to_csv",
    "varimax_criterion",
]

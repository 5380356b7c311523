"""Estimation of hidden networked population size and structure from
one-wave snowball samples under a stochastic block model."""

from .augmentation import (
    AugmentedState,
    BayesEstimates,
    ChainTrace,
    McmcConfig,
    draw_beta,
    draw_lambda,
    draw_population_size,
    gibbs_sweep,
    impute_strata,
    run_chain,
)
from .harness import (
    ClusterOverlay,
    StudyConfig,
    StudySummary,
    clustered_population,
    survey_scale_params,
    run_study,
    summarize_histograms,
)
from .likelihoods import (
    EscapeProbability,
    escape_probability,
    ignored_log_likelihood,
    observed_log_likelihood,
)
from .sampling import (
    DesignConfig,
    IgnoredData,
    SampleStats,
    SnowballSample,
    draw_initial,
    to_ignored_data,
    trace_one_wave,
)
from .sbm import (
    MleEstimates,
    PopulationGraph,
    SbmParams,
    SufficientCounts,
    ValidationError,
    full_log_likelihood,
    generate_population,
    mle_from_full_graph,
    sufficient_counts,
    validate_params,
)

__version__ = "0.1.0"

__all__ = [
    "AugmentedState",
    "BayesEstimates",
    "ChainTrace",
    "ClusterOverlay",
    "DesignConfig",
    "EscapeProbability",
    "IgnoredData",
    "McmcConfig",
    "MleEstimates",
    "PopulationGraph",
    "SampleStats",
    "SbmParams",
    "SnowballSample",
    "StudyConfig",
    "StudySummary",
    "SufficientCounts",
    "ValidationError",
    "clustered_population",
    "draw_beta",
    "draw_initial",
    "draw_lambda",
    "draw_population_size",
    "escape_probability",
    "full_log_likelihood",
    "generate_population",
    "gibbs_sweep",
    "ignored_log_likelihood",
    "impute_strata",
    "mle_from_full_graph",
    "observed_log_likelihood",
    "survey_scale_params",
    "run_chain",
    "run_study",
    "sufficient_counts",
    "summarize_histograms",
    "to_ignored_data",
    "trace_one_wave",
    "validate_params",
]

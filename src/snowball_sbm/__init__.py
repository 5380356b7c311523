"""Estimation of hidden networked population size and structure from
one-wave snowball samples under a stochastic block model.

The public names below resolve on first use (PEP 562): ``import snowball_sbm``
loads no submodule, and each name is looked up in its home module on every
access, so a name replaced there is the one this namespace returns.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {  # module -> the public names it defines
    "sbm": "MleEstimates PopulationGraph SampleStats SbmParams ValidationError full_log_likelihood "
           "generate_population mle_from_full_graph sufficient_counts",
    "sampling": "DesignConfig IgnoredData draw_initial trace_one_wave",
    "likelihoods": "EscapeProbability escape_probability ignored_log_likelihood observed_log_likelihood",
    "augmentation": "ChainTrace McmcConfig draw_params draw_population_size gibbs_sweep impute_strata "
                    "run_chain",
    "harness": "ClusterOverlay StudyConfig StudySummary clustered_population run_study summarize_histograms "
               "survey_scale_params",
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_HOMES)


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)


def __dir__():
    return sorted([*globals(), *__all__])

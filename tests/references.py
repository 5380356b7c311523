"""Independent reference computations that the tests compare the package
against. The package never calls them: the sweep integrates the unobserved
links out, and the escape probability 1 - p is computed another way."""

import numpy as np

from snowball_sbm import SampleStats, SbmParams, ValidationError
from snowball_sbm.logmath import xlog1py
from snowball_sbm.sbm import pair_totals_from_counts, symmetric_from_upper


def impute_link_counts(stats: SampleStats, n, strata_all_counts, beta: np.ndarray, rngs) -> np.ndarray:
    """Impute each row's link counts (R, P) for every pair not touched by the initial sample.

    Pairs with both endpoints outside the initial sample (wave-wave,
    wave-unsampled, unsampled-unsampled) are the unobserved ones; for each
    stratum pair the count is Binomial(pairs available, beta). The completed
    stratum counts are checked against N and the observed wave first. The
    sweep integrates these links out instead; this uncollapsed draw is the
    reference for that collapsed step.
    """
    strata_all_counts = np.asarray(strata_all_counts, dtype=np.int64)
    if (strata_all_counts.sum(axis=-1) != n).any():
        raise ValidationError("stratum counts do not sum to the population size")
    outside = strata_all_counts - stats.counts_s0
    if (outside < stats.counts_s1).any():
        raise ValidationError("stratum counts inconsistent with the observed wave")
    totals = pair_totals_from_counts(outside).tolist()
    draws = [list(map(rng.binomial, row, p)) for rng, row, p in zip(rngs, totals, beta.tolist())]
    return np.array(draws, dtype=np.int64)


def wave_inclusion_probability(counts_s0, params: SbmParams) -> float:
    """p' = sum_k lambda_k (1 - prod_l (1 - beta_{k,l})^{n0l}).

    The marginal probability that a unit outside the initial sample joins the
    wave, given only the initial sample's stratum composition; the wave size
    is Binomial(N - n0, p') under the model.
    """
    counts = np.asarray(counts_s0, dtype=np.float64)
    beta = symmetric_from_upper(params.beta, counts.size)
    log_avoid = xlog1py(counts[None, :], -beta).sum(axis=1)
    return float(np.sum(params.lam * -np.expm1(log_avoid)))

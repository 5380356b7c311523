"""Observed and label-free likelihoods of a one-wave snowball sample.

Both likelihoods share their middle factors (sampled strata plus observed
link indicators); they differ only in a combinatorial head term. Computing
the shared part once makes the algebraic relationship between the two hold
to the last bit.
"""

from dataclasses import dataclass

import numpy as np

from .logmath import count_times_log, log_binom, xlog1py
from .sampling import SampleStats
from .sbm import SbmParams, SufficientCounts, ValidationError, counts_log_likelihood, symmetric_from_upper


@dataclass(frozen=True)
class EscapeProbability:
    """Probability that a unit outside the initial sample is linked to none
    of its members, given the initial sample's strata. Carried in both plain
    and log form; the log form is what large-N likelihood tails need.
    """

    one_minus_p: float
    log_one_minus_p: float


def stratum_escape_log_weights(counts_s0: np.ndarray, params: SbmParams) -> np.ndarray:
    """Per-stratum log(lambda_k * prod_i (1 - beta_{C_i,k})) over the initial sample.
    ``params`` has ``lam`` (..., G) and ``beta`` (..., P), leading axes as the counts'."""
    counts = np.asarray(counts_s0, dtype=np.float64)
    beta = symmetric_from_upper(params.beta, counts.shape[-1])  # G x G, read by a member's stratum C_i
    with np.errstate(divide="ignore"):
        log_lam = np.log(params.lam)
    return log_lam + xlog1py(counts[..., :, None], -beta).sum(axis=-2)


def escape_terms(log_weights: np.ndarray):
    """``(1 - p, log(1 - p), stratum probabilities)`` from per-stratum escape
    log weights (last axis; leading axes are replicates). Where no unit can
    escape, 1 - p is 0, its log -inf and the probabilities NaN. The
    probabilities are P(stratum k | no link into S0), the stratum law of an
    unsampled unit."""
    top = log_weights.max(axis=-1, keepdims=True)
    with np.errstate(invalid="ignore"):
        weights = np.exp(log_weights - top)
        total = weights.sum(axis=-1, keepdims=True)
        log_omp = np.where(top == -np.inf, -np.inf, np.minimum(top + np.log(total), 0.0))[..., 0]
        return np.exp(log_omp), log_omp, weights / total


def escape_probability(strata_s0, params: SbmParams) -> EscapeProbability:
    """Evaluate 1 - p = sum_k lambda_k prod_{i in S0} (1 - beta_{C_i,k})."""
    counts = np.bincount(np.asarray(strata_s0, dtype=np.int64), minlength=params.n_strata)
    one_minus_p, log_omp, _ = escape_terms(stratum_escape_log_weights(counts, params))
    return EscapeProbability(one_minus_p=float(one_minus_p), log_one_minus_p=float(log_omp))


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


def _sampled_block_log_terms(stats: SampleStats, params: SbmParams) -> float:
    """Stratum terms for all sampled units plus link terms for observed pairs."""
    observed = SufficientCounts(
        strata_counts=stats.counts_sampled,
        link_counts=stats.link_counts,
        pair_totals=stats.pair_totals,
    )
    return counts_log_likelihood(observed, params)


def _escape_tail(stats: SampleStats, n: int, params: SbmParams) -> float:
    """(n - n0 - n1) log(1 - p): no unsampled unit links into the initial
    sample. The sweep takes log(1 - p) the same way."""
    _, log_omp, _ = escape_terms(stratum_escape_log_weights(stats.counts_s0, params))
    return count_times_log(n - stats.n_sampled, log_omp)


def _check_support(stats: SampleStats, n: int):
    if n < stats.n_sampled:
        raise ValidationError(
            f"population size {n} below sampled count {stats.n_sampled} (support violation)"
        )


def observed_log_likelihood(stats: SampleStats, n: int, params: SbmParams) -> float:
    """Log-likelihood of the labeled sample at population size ``n``.

    Includes the design factor 1/C(n, n0) from conditioning on the initial
    sample size, so the value is monotonically decreasing in ``n``.
    """
    _check_support(stats, n)
    return -log_binom(n, stats.n0) + _sampled_block_log_terms(stats, params) + _escape_tail(stats, n, params)


def ignored_log_likelihood(stats: SampleStats, n: int, params: SbmParams) -> float:
    """Log-likelihood of the sample pattern with unit labels ignored.

    The C(n - n0, n1) head term counts the ways the wave can sit inside the
    population, which is what makes this likelihood informative about ``n``.
    """
    _check_support(stats, n)
    head = log_binom(n - stats.n0, stats.n1)
    return head + _sampled_block_log_terms(stats, params) + _escape_tail(stats, n, params)

"""Observed and label-free likelihoods of a one-wave snowball sample.

Both likelihoods share their middle factors (sampled strata plus observed
link indicators); they differ only in a combinatorial head term. Computing
the shared part once makes the algebraic relationship between the two hold
to the last bit.
"""

from dataclasses import dataclass

import numpy as np

from .logmath import count_times_log, log_binom, xlog1py
from .sbm import SampleStats, SbmParams, ValidationError, counts_log_likelihood, symmetric_from_upper


@dataclass(frozen=True)
class EscapeProbability:
    """Probability that a unit outside the initial sample is linked to none
    of its members, given the initial sample's strata. Carried in both plain
    and log form; the log form is what large-N likelihood tails need.
    """

    one_minus_p: float
    log_one_minus_p: float


def stratum_escape_log_weights(counts_s0: np.ndarray, lam: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Per-stratum log(lambda_k * prod_i (1 - beta_{C_i,k})) over the initial sample,
    from ``lam`` (..., G) and ``beta`` (..., P), leading axes as the counts'."""
    counts = np.asarray(counts_s0, dtype=np.float64)
    g = counts.shape[-1]  # beta is expanded to G x G, read by a member's stratum C_i
    with np.errstate(divide="ignore"):
        log_lam = np.log(lam)
    if beta.max() < 1:  # every log1p(-beta) is finite: no zero-count mask needed
        return log_lam + (counts[..., :, None] * symmetric_from_upper(np.log1p(-beta), g)).sum(axis=-2)
    return log_lam + xlog1py(counts[..., :, None], -symmetric_from_upper(beta, g)).sum(axis=-2)


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
    one_minus_p, log_omp, _ = escape_terms(stratum_escape_log_weights(counts, params.lam, params.beta))
    return EscapeProbability(one_minus_p=float(one_minus_p), log_one_minus_p=float(log_omp))


def n_free_terms(stats: SampleStats, params: SbmParams) -> tuple[float, float]:
    """``(block, log(1 - p))``, the factors of both likelihoods that do not
    depend on N: the stratum terms of all sampled units plus the link terms
    of the observed pairs, and the log escape probability, taken as the sweep
    takes it. Compute them once to evaluate a likelihood at many N."""
    _, log_omp, _ = escape_terms(stratum_escape_log_weights(stats.counts_s0, params.lam, params.beta))
    return counts_log_likelihood(stats, params), float(log_omp)


def _check_support(stats: SampleStats, n: int):
    if n < stats.n_sampled:
        raise ValidationError(
            f"population size {n} below sampled count {stats.n_sampled} (support violation)"
        )


def observed_log_likelihood(stats: SampleStats, n: int, params: SbmParams, terms=None) -> float:
    """Log-likelihood of the labeled sample at population size ``n``;
    ``terms`` is :func:`n_free_terms` of ``(stats, params)``, computed here
    when not given.

    Includes the design factor 1/C(n, n0) from conditioning on the initial
    sample size, so the value is monotonically decreasing in ``n``. The tail
    (n - n0 - n1) log(1 - p) says no unsampled unit links into the initial sample.
    """
    _check_support(stats, n)
    block, log_omp = terms or n_free_terms(stats, params)
    return -log_binom(n, stats.n0) + block + count_times_log(n - stats.n_sampled, log_omp)


def ignored_log_likelihood(stats: SampleStats, n: int, params: SbmParams, terms=None) -> float:
    """Log-likelihood of the sample pattern with unit labels ignored;
    ``terms`` as in :func:`observed_log_likelihood`.

    The C(n - n0, n1) head term counts the ways the wave can sit inside the
    population, which is what makes this likelihood informative about ``n``.
    """
    _check_support(stats, n)
    block, log_omp = terms or n_free_terms(stats, params)
    return log_binom(n - stats.n0, stats.n1) + block + count_times_log(n - stats.n_sampled, log_omp)

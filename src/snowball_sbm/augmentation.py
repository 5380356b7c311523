"""Gibbs data-augmentation sampler for population size and model parameters.

Each sweep draws, in order: the population size from its label-free
posterior, stratum memberships for the unsampled block, link counts for all
unobserved pairs, then the conjugate Dirichlet/Beta parameter updates given
the completed realization.

A sweep costs O(G^2), independent of the sample size, and of the cap on N
unless the cap binds (then N is drawn from a grid over the truncated support).
The sample enters only through its sufficient statistics
(:class:`~snowball_sbm.sampling.SampleStats`), computed once per chain. The
unsampled units' strata are exchangeable given the sample, so a multinomial
count vector replaces per-unit labels; the parameter posteriors consume only
link counts and pair totals, so unobserved links are drawn as binomial pair
counts rather than materialized edges; and N is drawn as a truncated
negative binomial (see :func:`draw_population_size`). All three are
distribution-exact.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc

from .likelihoods import EscapeProbability, escape_probability
from .logmath import log_binom
from .sampling import IgnoredData, SampleStats
from .sbm import (
    SbmParams,
    SufficientCounts,
    ValidationError,
    _freeze,
    beta_matrix_from_upper,
    check_int,
    pair_totals_from_counts,
    upper_indices,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class McmcConfig:
    """Chain settings and priors.

    The flat prior on the population size is improper, so its posterior is
    truncated at a cap: ``n_max_cap`` when given, otherwise
    ``cap_multiplier`` times the sampled count. Cap hits are counted and
    reported so truncation pressure is visible.
    """

    chain_length: int = 1000
    burn_in_fraction: float = 0.1
    n_max_cap: int | None = None
    cap_multiplier: float = 100.0
    prior_alpha: float | tuple[float, ...] = 1.0
    prior_gamma: tuple[float, float] = (1.0, 1.0)
    seed: int | None = None

    def __post_init__(self):
        check_int(self.chain_length, "chain_length", 1)
        if not (0.0 <= self.burn_in_fraction < 1.0):
            raise ValidationError("burn_in_fraction must be in [0, 1)")
        if self.cap_multiplier < 1.0:
            raise ValidationError("cap_multiplier must be >= 1")
        if np.any(np.asarray(self.prior_alpha) <= 0) or min(self.prior_gamma) <= 0:
            raise ValidationError("prior hyperparameters must be positive")

    def effective_cap(self, n_sampled: int) -> int:
        cap = self.n_max_cap
        if cap is None:
            cap = max(int(math.ceil(self.cap_multiplier * n_sampled)), n_sampled)
        if cap < n_sampled:
            raise ValidationError(f"cap {cap} below sampled count {n_sampled}")
        return cap


def population_size_log_weights(n0: int, n1: int, log_one_minus_p: float, cap: int):
    """Unnormalized log posterior of N on its truncated support.

    Returns ``(support, log_weights)``. The weight at N is
    C(N - n0, n1) * (1 - p)^(N - n0 - n1); in terms of the excess
    M = N - n0 - n1 this is a negative-binomial kernel with n1 + 1 successes
    at success probability p, truncated at the cap. Requires 1 - p > 0.
    """
    support = np.arange(n0 + n1, cap + 1, dtype=np.int64)
    excess = np.arange(support.size, dtype=np.float64)
    return support, log_binom(support - n0, n1) + excess * log_one_minus_p


def draw_population_size(
    stats: SampleStats,
    params: SbmParams,
    cfg: McmcConfig,
    rng: np.random.Generator,
    size: int | None = None,
    escape: EscapeProbability | None = None,
):
    """Draw N from its posterior given the sample statistics and current params.

    The excess M = N - n0 - n1 is NB(n1 + 1, p) truncated at
    K = cap - n0 - n1. While the mass above K is below one half, M comes
    from ``rng.negative_binomial`` and only draws above K are redrawn (under
    two tries each on average); otherwise, and when p = 0, from the inverse
    CDF on the grid 0..K, where rejection could take unboundedly long. Both
    paths draw from the same truncated law, so cap hits stay exact.
    Vectorized over ``size`` draws; with ``size=None`` a single int is
    returned. ``escape`` is ``escape_probability(stats.strata_s0, params)``
    when the caller already has it.
    """
    n_sampled = stats.n_sampled
    cap = cfg.effective_cap(n_sampled)
    if escape is None:
        escape = escape_probability(stats.strata_s0, params)
    if escape.one_minus_p == 0.0:
        return n_sampled if size is None else np.full(size, n_sampled, dtype=np.int64)
    successes, k_max = stats.n1 + 1, cap - n_sampled
    p = -math.expm1(escape.log_one_minus_p)
    shape = 1 if size is None else size
    if p > 0.0 and betainc(successes, k_max + 1, p) > 0.5:
        excess = rng.negative_binomial(successes, p, shape)
        over = np.flatnonzero(excess > k_max)
        while over.size:
            excess[over] = rng.negative_binomial(successes, p, over.size)
            over = over[excess[over] > k_max]
    else:
        _, log_w = population_size_log_weights(stats.n0, stats.n1, escape.log_one_minus_p, cap)
        cdf = np.cumsum(np.exp(log_w - log_w.max()))
        excess = np.minimum(np.searchsorted(cdf, rng.random(shape) * cdf[-1], side="right"), k_max)
    drawn = n_sampled + excess
    return int(drawn[0]) if size is None else drawn


def imputation_probabilities(
    stats: SampleStats, params: SbmParams, escape: EscapeProbability | None = None
) -> np.ndarray:
    """Stratum distribution of one unsampled unit given the observed data.

    Proportional to lambda_k times the probability of avoiding every
    initial-sample member; identical for all unsampled units.
    """
    if escape is None:
        escape = escape_probability(stats.strata_s0, params)
    if escape.stratum_probabilities is None:
        raise ValidationError("inconsistent state: an unsampled unit cannot avoid the initial sample")
    return escape.stratum_probabilities


def impute_strata(
    stats: SampleStats,
    n: int,
    params: SbmParams,
    rng: np.random.Generator,
    escape: EscapeProbability | None = None,
) -> np.ndarray:
    """Impute strata for the N - n0 - n1 unsampled units, as counts per stratum."""
    n_missing = n - stats.n_sampled
    if n_missing < 0:
        raise ValidationError("population size below sampled count")
    if n_missing == 0:
        return np.zeros(params.n_strata, dtype=np.int64)
    probs = imputation_probabilities(stats, params, escape)
    return rng.multinomial(n_missing, probs).astype(np.int64)


def impute_link_counts(
    stats: SampleStats,
    n: int,
    strata_all_counts: np.ndarray,
    params: SbmParams,
    rng: np.random.Generator,
) -> np.ndarray:
    """Impute link counts for every pair not touched by the initial sample.

    Pairs with both endpoints outside the initial sample (wave-wave,
    wave-unsampled, unsampled-unsampled) are the unobserved ones; for each
    stratum pair the count is Binomial(pairs available, beta).
    """
    g = params.n_strata
    strata_all_counts = np.asarray(strata_all_counts, dtype=np.int64)
    if int(strata_all_counts.sum()) != n:
        raise ValidationError("stratum counts do not sum to the population size")
    outside = strata_all_counts - stats.counts_s0
    if (outside < stats.counts_s1).any():
        raise ValidationError("stratum counts inconsistent with the observed wave")
    totals = pair_totals_from_counts(outside)
    iu = upper_indices(g)
    draws = rng.binomial(totals[iu], params.beta[iu])
    out = np.zeros((g, g), dtype=np.int64)
    out[iu] = draws
    out.T[iu] = draws
    return out


def lambda_posterior_params(strata_counts: np.ndarray, cfg: McmcConfig) -> np.ndarray:
    alpha = np.asarray(cfg.prior_alpha, dtype=np.float64)
    return np.asarray(strata_counts, dtype=np.float64) + alpha


def beta_posterior_params(counts: SufficientCounts, cfg: McmcConfig):
    """Per-pair Beta parameters (successes + g1, failures + g2)."""
    g1, g2 = cfg.prior_gamma
    a = counts.link_counts + g1
    b = counts.pair_totals - counts.link_counts + g2
    return a.astype(np.float64), b.astype(np.float64)


def draw_lambda(strata_counts, cfg: McmcConfig, rng: np.random.Generator) -> np.ndarray:
    return rng.dirichlet(lambda_posterior_params(strata_counts, cfg))


def draw_beta(counts: SufficientCounts, cfg: McmcConfig, rng: np.random.Generator) -> np.ndarray:
    a, b = beta_posterior_params(counts, cfg)
    g = counts.strata_counts.size
    iu = upper_indices(g)
    return beta_matrix_from_upper(rng.beta(a[iu], b[iu]), g)


def assemble_full_counts(
    stats: SampleStats, strata_unsampled: np.ndarray, imputed_links: np.ndarray
) -> SufficientCounts:
    """Sufficient counts of the completed realization: observed plus imputed."""
    strata_counts = stats.counts_sampled + np.asarray(strata_unsampled, dtype=np.int64)
    return SufficientCounts(
        strata_counts=strata_counts,
        link_counts=stats.link_counts + np.asarray(imputed_links, dtype=np.int64),
        pair_totals=pair_totals_from_counts(strata_counts),
    )


@dataclass(frozen=True)
class AugmentedState:
    """One Gibbs state: current N, imputed stratum counts for the unsampled
    block, imputed link counts, and current (lambda, beta). The arrays are
    fresh each sweep and never written after the state is built."""

    n: int
    strata_unsampled: np.ndarray
    imputed_link_counts: np.ndarray
    params: SbmParams


def initial_state(stats: SampleStats) -> AugmentedState:
    """Overdispersed-but-plausible start: sample stratum proportions, smoothed
    observed link fractions, and twice the sampled count for N."""
    g = stats.n_strata
    lam0 = stats.counts_sampled / stats.n_sampled if stats.n_sampled else np.full(g, 1.0 / g)
    beta0 = (stats.link_counts + 1.0) / (stats.pair_totals + 2.0)
    return AugmentedState(
        n=2 * stats.n_sampled,
        strata_unsampled=np.zeros(g, dtype=np.int64),
        imputed_link_counts=np.zeros((g, g), dtype=np.int64),
        params=SbmParams(lam=lam0, beta=beta0),
    )


def gibbs_sweep(
    state: AugmentedState, stats: SampleStats, cfg: McmcConfig, rng: np.random.Generator
) -> AugmentedState:
    """One full scan; sub-draws happen in a fixed order so the kernel is a
    well-defined Gibbs cycle.

    The escape probability feeds both the draw of N and the imputed strata,
    so it is computed once per sweep.
    """
    params = state.params
    escape = escape_probability(stats.strata_s0, params)
    n_new = draw_population_size(stats, params, cfg, rng, escape=escape)
    strata_un = impute_strata(stats, n_new, params, rng, escape=escape)
    imputed = impute_link_counts(stats, n_new, stats.counts_sampled + strata_un, params, rng)
    counts = assemble_full_counts(stats, strata_un, imputed)
    lam = draw_lambda(counts.strata_counts, cfg, rng)
    beta = draw_beta(counts, cfg, rng)
    return AugmentedState(
        n=n_new,
        strata_unsampled=strata_un,
        imputed_link_counts=imputed,
        params=SbmParams(lam=lam, beta=beta),
    )


@dataclass(frozen=True)
class BayesEstimates:
    """Posterior means (and spreads) over the retained part of a chain."""

    n_mean: float
    n_rounded: int
    lam: np.ndarray
    beta_upper: np.ndarray
    n_sd: float
    lam_sd: np.ndarray
    beta_upper_sd: np.ndarray


@dataclass(frozen=True)
class ChainTrace:
    """Per-iteration draws of (N, lambda, beta) plus derived summaries."""

    n_draws: np.ndarray
    lam_draws: np.ndarray
    beta_upper_draws: np.ndarray
    burn_in: int
    cap: int
    cap_hits: int
    seed: int | None
    n_strata: int

    @property
    def chain_length(self) -> int:
        return self.n_draws.size

    def retained(self):
        keep = slice(self.burn_in, None)
        return self.n_draws[keep], self.lam_draws[keep], self.beta_upper_draws[keep]

    def estimates(self) -> BayesEstimates:
        n_kept, lam_kept, beta_kept = self.retained()
        n_mean = float(n_kept.mean())
        return BayesEstimates(
            n_mean=n_mean,
            n_rounded=int(round(n_mean)),
            lam=lam_kept.mean(axis=0),
            beta_upper=beta_kept.mean(axis=0),
            n_sd=float(n_kept.std()),
            lam_sd=lam_kept.std(axis=0),
            beta_upper_sd=beta_kept.std(axis=0),
        )


def run_chain(data: IgnoredData, cfg: McmcConfig, n_strata: int | None = None) -> ChainTrace:
    """Run the full augmentation chain and record every state.

    ``n_strata`` defaults to the smallest G consistent with the observed
    labels; pass it explicitly when the population has strata the sample
    missed. Fully deterministic given ``cfg.seed``.
    """
    if data.n0 == 0:
        raise ValidationError("empty initial sample (n0 = 0): the sample carries no information")
    g = n_strata if n_strata is not None else data.min_strata()
    stats = SampleStats.from_data(data, g)
    cap = cfg.effective_cap(stats.n_sampled)
    rng = np.random.default_rng(cfg.seed)
    state = initial_state(stats)
    iu = upper_indices(g)
    length = cfg.chain_length
    n_draws = np.zeros(length, dtype=np.int64)
    lam_draws = np.zeros((length, g))
    beta_draws = np.zeros((length, g * (g + 1) // 2))
    for it in range(length):
        state = gibbs_sweep(state, stats, cfg, rng)
        n_draws[it] = state.n
        lam_draws[it] = state.params.lam
        beta_draws[it] = state.params.beta[iu]
    burn = int(length * cfg.burn_in_fraction)
    cap_hits = int(np.count_nonzero(n_draws == cap))
    if cap_hits:
        logger.info("population-size cap %d hit %d times over %d sweeps", cap, cap_hits, length)
    return ChainTrace(
        n_draws=_freeze(n_draws),
        lam_draws=_freeze(lam_draws),
        beta_upper_draws=_freeze(beta_draws),
        burn_in=burn,
        cap=cap,
        cap_hits=cap_hits,
        seed=cfg.seed,
        n_strata=g,
    )

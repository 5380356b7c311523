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
distribution-exact. :func:`run_chains` advances many chains in lockstep, one
sweep (:func:`lockstep_sweep`) of all of them at a time, each on its own seed.
"""

import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np
from scipy.special import betainc

from .likelihoods import EscapeProbability, escape_probability, escape_terms, stratum_escape_log_weights
from .logmath import log_binom
from .sampling import IgnoredData, SampleStats
from .sbm import (
    SbmParams,
    SufficientCounts,
    ValidationError,
    _freeze,
    check_int,
    pair_totals_from_counts,
    symmetric_from_upper,
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


def _takes_negative_binomial(n1, k_max, p):
    """Whether the excess is drawn by rejection: its mass above K is below 1/2 (vectorized)."""
    return betainc(n1 + 1, k_max + 1, p) > 0.5


def _draw_excess(rng, n0: int, n1: int, log_omp: float, k_max: int, rejection, shape):
    """``shape`` draws of the excess M in 0..K, by rejection or on the grid."""
    if rejection:
        p = -math.expm1(log_omp)
        excess = rng.negative_binomial(n1 + 1, p, shape)
        over = (excess > k_max).nonzero()[0]
        while over.size:
            excess[over] = rng.negative_binomial(n1 + 1, p, over.size)
            over = over[excess[over] > k_max]
        return excess
    _, log_w = population_size_log_weights(n0, n1, log_omp, n0 + n1 + k_max)
    cdf = np.cumsum(np.exp(log_w - log_w.max()))
    return np.minimum(np.searchsorted(cdf, rng.random(shape) * cdf[-1], side="right"), k_max)


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
    k_max = cfg.effective_cap(n_sampled) - n_sampled
    if escape is None:
        escape = escape_probability(stats.strata_s0, params)
    if escape.one_minus_p == 0.0:
        return n_sampled if size is None else np.full(size, n_sampled, dtype=np.int64)
    log_omp = escape.log_one_minus_p
    rejection = _takes_negative_binomial(stats.n1, k_max, -math.expm1(log_omp))
    excess = _draw_excess(rng, stats.n0, stats.n1, log_omp, k_max, rejection, 1 if size is None else size)
    return int(n_sampled + excess[0]) if size is None else n_sampled + excess


def imputation_probabilities(
    stats: SampleStats, params: SbmParams, escape: EscapeProbability | None = None
) -> np.ndarray:
    """Stratum distribution of one unsampled unit given the observed data.

    Proportional to lambda_k times the probability of avoiding every
    initial-sample member; identical for all unsampled units.
    """
    if escape is None:
        escape = escape_probability(stats.strata_s0, params)
    _check_unsampled(1, escape.log_one_minus_p)
    return escape.stratum_probabilities


def _check_unsampled(n_missing, log_omp):
    """Unsampled counts must be >= 0, and 0 where no unit can avoid S0 (vectorized)."""
    if np.less(n_missing, 0).any():
        raise ValidationError("population size below sampled count")
    if (np.greater(n_missing, 0) & (log_omp == -np.inf)).any():
        raise ValidationError("inconsistent state: an unsampled unit cannot avoid the initial sample")


def impute_strata(
    stats: SampleStats,
    n: int,
    params: SbmParams,
    rng: np.random.Generator,
    escape: EscapeProbability | None = None,
) -> np.ndarray:
    """Impute strata for the N - n0 - n1 unsampled units, as counts per stratum."""
    if escape is None:
        escape = escape_probability(stats.strata_s0, params)
    n_missing = n - stats.n_sampled
    _check_unsampled(n_missing, escape.log_one_minus_p)
    if n_missing == 0:
        return np.zeros(params.n_strata, dtype=np.int64)
    return rng.multinomial(n_missing, escape.stratum_probabilities).astype(np.int64)


def _unobserved_pair_totals(stats, n, strata_all_counts) -> np.ndarray:
    """Pairs per stratum pair with both ends outside the initial sample, after
    checking the completed stratum counts against N and the observed wave.
    With a :class:`StackedStats`, ``n`` and the counts carry its replicate axis."""
    strata_all_counts = np.asarray(strata_all_counts, dtype=np.int64)
    if (strata_all_counts.sum(axis=-1) != n).any():
        raise ValidationError("stratum counts do not sum to the population size")
    outside = strata_all_counts - stats.counts_s0
    if (outside < stats.counts_s1).any():
        raise ValidationError("stratum counts inconsistent with the observed wave")
    return pair_totals_from_counts(outside)


def _pair_draws(draw, first: list, second: list) -> list:
    """One scalar ``draw(a, b)`` per stratum pair. It consumes the Generator's
    stream exactly as one array-valued call, without numpy's array checks."""
    return [draw(a, b) for a, b in zip(first, second)]


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
    iu = upper_indices(g)
    totals = _unobserved_pair_totals(stats, n, strata_all_counts)
    draws = _pair_draws(rng.binomial, totals[iu].tolist(), params.beta[iu].tolist())
    return symmetric_from_upper(np.array(draws, dtype=np.int64), g)


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
    return symmetric_from_upper(np.array(_pair_draws(rng.beta, a[iu].tolist(), b[iu].tolist())), g)


def assemble_full_counts(
    stats: "SampleStats | StackedStats", strata_unsampled: np.ndarray, imputed_links: np.ndarray
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
    """One Gibbs state: N, the unsampled block's imputed stratum counts, imputed
    link counts, and (lambda, beta). R states advanced together carry a leading
    replicate axis on every field. The arrays are never written once built."""

    n: int | np.ndarray
    strata_unsampled: np.ndarray
    imputed_link_counts: np.ndarray
    lam: np.ndarray
    beta: np.ndarray

    @property
    def params(self) -> SbmParams:
        return SbmParams(lam=self.lam, beta=self.beta)


def _stack(cls, items, **given):
    """A ``cls`` whose fields but those ``given`` stack the same-named attribute of ``items``."""
    names = [f.name for f in fields(cls) if f.name not in given]
    return cls(**given, **{name: np.array([getattr(item, name) for item in items]) for name in names})


def initial_state(stats: SampleStats) -> AugmentedState:
    """Overdispersed-but-plausible start: sample stratum proportions, smoothed
    observed link fractions, and twice the sampled count for N."""
    g = stats.n_strata
    lam0 = stats.counts_sampled / stats.n_sampled if stats.n_sampled else np.full(g, 1.0 / g)
    beta0 = (stats.link_counts + 1.0) / (stats.pair_totals + 2.0)
    return AugmentedState(
        2 * stats.n_sampled, np.zeros(g, np.int64), np.zeros((g, g), np.int64), lam0, beta0
    )


@dataclass(frozen=True)
class StackedStats:
    """What a sweep reads of R samples' :class:`SampleStats`, along a leading
    replicate axis, and each chain's cap on N."""

    n0: np.ndarray
    n1: np.ndarray
    n_sampled: np.ndarray
    counts_s0: np.ndarray
    counts_s1: np.ndarray
    counts_sampled: np.ndarray
    link_counts: np.ndarray
    cap: np.ndarray

    @classmethod
    def of(cls, stats: Sequence[SampleStats], cfg: McmcConfig) -> "StackedStats":
        return _stack(cls, stats, cap=np.array([cfg.effective_cap(s.n_sampled) for s in stats]))


def lockstep_sweep(
    state: AugmentedState, stats: StackedStats, cfg: McmcConfig, rngs: Sequence[np.random.Generator]
) -> AugmentedState:
    """One Gibbs sweep (N, unsampled strata, unobserved links, lambda, beta)
    of R chains. The deterministic work runs once on arrays with a leading
    replicate axis; chain r makes the Generator calls the sub-draws make
    alone, in the same order, on ``rngs[r]`` only."""
    g = state.lam.shape[-1]
    iu = (slice(None), *upper_indices(g))
    one_minus_p, log_omp, probs = escape_terms(stratum_escape_log_weights(stats.counts_s0, state))
    k_max = stats.cap - stats.n_sampled
    p = -np.array([math.expm1(v) for v in log_omp.tolist()])  # np.expm1 can differ in the last bit
    rejection = _takes_negative_binomial(stats.n1, k_max, p)
    n = stats.n_sampled.copy()
    for r in one_minus_p.nonzero()[0].tolist():
        n[r] += _draw_excess(rngs[r], stats.n0[r], stats.n1[r], log_omp[r], k_max[r], rejection[r], 1)[0]
    n_missing = n - stats.n_sampled
    _check_unsampled(n_missing, log_omp)
    strata_un = np.zeros_like(stats.counts_s0)
    for r in n_missing.nonzero()[0].tolist():
        strata_un[r] = rngs[r].multinomial(n_missing[r], probs[r])
    totals = _unobserved_pair_totals(stats, n, stats.counts_sampled + strata_un)
    draws = map(_pair_draws, [rng.binomial for rng in rngs], totals[iu].tolist(), state.beta[iu].tolist())
    imputed = symmetric_from_upper(np.array(list(draws), dtype=np.int64), g)
    counts = assemble_full_counts(stats, strata_un, imputed)
    alpha = lambda_posterior_params(counts.strata_counts, cfg)
    lam = np.array([rng.dirichlet(row) for rng, row in zip(rngs, alpha)])
    a, b = beta_posterior_params(counts, cfg)
    draws = map(_pair_draws, [rng.beta for rng in rngs], a[iu].tolist(), b[iu].tolist())
    return AugmentedState(n, strata_un, imputed, lam, symmetric_from_upper(np.array(list(draws)), g))


def gibbs_sweep(
    state: AugmentedState, stats: SampleStats, cfg: McmcConfig, rng: np.random.Generator
) -> AugmentedState:
    """One full scan of one chain: :func:`lockstep_sweep` on a batch of one."""
    batch = lockstep_sweep(_stack(AugmentedState, [state]), StackedStats.of([stats], cfg), cfg, [rng])
    return AugmentedState(int(batch.n[0]), *(getattr(batch, f.name)[0] for f in fields(batch)[1:]))


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


def chain_stats(data: IgnoredData, cfg: McmcConfig, n_strata: int | None = None) -> SampleStats:
    """The statistics a chain on ``data`` reads, after checking that the sample
    is not empty and fits under the cap on N. ``n_strata`` defaults to the
    smallest G consistent with the labels; pass it when the population has
    strata the sample missed."""
    if data.n0 == 0:
        raise ValidationError("empty initial sample (n0 = 0): the sample carries no information")
    stats = SampleStats.from_data(data, n_strata if n_strata is not None else data.min_strata())
    cfg.effective_cap(stats.n_sampled)
    return stats


def run_chains(stats: Sequence[SampleStats], cfg: McmcConfig, seeds: Sequence) -> list[ChainTrace]:
    """Run one chain per sample (all with the same G) in lockstep. Chain r
    draws from ``default_rng(seeds[r])`` alone, so it equals :func:`run_chain`
    with that seed. R traces of length L hold 8 R L (1 + G + G(G+1)/2) bytes.
    """
    batch = StackedStats.of(stats, cfg)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    state = _stack(AugmentedState, [initial_state(s) for s in stats])
    (replicates, g), length = state.lam.shape, cfg.chain_length
    iu = (slice(None), *upper_indices(g))
    n_draws = np.zeros((replicates, length), dtype=np.int64)
    lam_draws = np.zeros((replicates, length, g))
    beta_draws = np.zeros((replicates, length, g * (g + 1) // 2))
    for it in range(length):
        state = lockstep_sweep(state, batch, cfg, rngs)
        n_draws[:, it], lam_draws[:, it], beta_draws[:, it] = state.n, state.lam, state.beta[iu]
    caps = batch.cap.tolist()
    cap_hits = np.count_nonzero(n_draws == batch.cap[:, None], axis=1).tolist()
    for cap, hits in zip(caps, cap_hits):
        if hits:
            logger.info("population-size cap %d hit %d times over %d sweeps", cap, hits, length)
    burn = int(length * cfg.burn_in_fraction)
    chains = zip(_freeze(n_draws), _freeze(lam_draws), _freeze(beta_draws), caps, cap_hits, seeds)
    return [ChainTrace(n, lam, beta, burn, cap, hits, seed, g) for n, lam, beta, cap, hits, seed in chains]


def run_chain(data: IgnoredData, cfg: McmcConfig, n_strata: int | None = None) -> ChainTrace:
    """Run the full augmentation chain and record every state; ``n_strata``
    as in :func:`chain_stats`. Fully deterministic given ``cfg.seed``."""
    return run_chains([chain_stats(data, cfg, n_strata)], cfg, [cfg.seed])[0]

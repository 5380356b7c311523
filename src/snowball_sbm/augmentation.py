"""Gibbs data-augmentation sampler for population size and model parameters.

Each sweep (:func:`gibbs_sweep`) draws, in order: the population size from
its label-free posterior, stratum memberships for the unsampled block, then
the conjugate Dirichlet/Beta parameter updates. It advances R chains at
once: the deterministic work runs once on arrays with a leading replicate
axis, and each of the four sub-draws makes row r's draws on ``rngs[r]``
only. Many i.i.d. draws of one conditional come from R identical rows that
share one Generator (``[rng] * R``).

A sweep costs O(G^2) per chain, independent of the sample size, and of the
cap on N unless the cap binds (then N is drawn from a grid over the
truncated support). The sample enters only through its sufficient statistics
(:class:`~snowball_sbm.sampling.SampleStats`), computed once per chain. The
unsampled units' strata are exchangeable given the sample, so a multinomial
count vector replaces per-unit labels; N is drawn as a truncated negative
binomial; and the links among pairs with no endpoint in the initial sample,
which only beta's conditional would read, are integrated out of it (a
collapsed Gibbs step, :func:`posterior_counts`). All three are exact.
"""

import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

# escape_probability is unused here: bench/test_bench.py checks the tracer patches this reference
from .likelihoods import escape_probability, escape_terms, stratum_escape_log_weights  # noqa: F401
from .sampling import IgnoredData, SampleStats
from .sbm import (
    SufficientCounts,
    ValidationError,
    _freeze,
    _is_finite_number,
    check_int,
    pair_totals_from_counts,
)

logger = logging.getLogger(__name__)
Rngs = Sequence[np.random.Generator]  # one Generator per row of a batch


def _positive_numbers(values) -> bool:
    return all(_is_finite_number(v) and v > 0 for v in values)


@dataclass(frozen=True)
class McmcConfig:
    """Chain settings and priors.

    The flat prior on the population size is improper, so its posterior is
    truncated at a cap: ``n_max_cap`` when given, otherwise
    ``cap_multiplier`` times the sampled count. Cap hits are counted and
    reported so truncation pressure is visible. ``prior_alpha`` is one
    Dirichlet weight for every stratum or a list of G of them.
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
        if self.n_max_cap is not None:
            check_int(self.n_max_cap, "n_max_cap", 1)
        if not (_is_finite_number(self.burn_in_fraction) and 0.0 <= self.burn_in_fraction < 1.0):
            raise ValidationError(f"burn_in_fraction must be in [0, 1), got {self.burn_in_fraction!r}")
        if not (_is_finite_number(self.cap_multiplier) and self.cap_multiplier >= 1.0):
            raise ValidationError(f"cap_multiplier must be a finite number >= 1, got {self.cap_multiplier!r}")
        alpha, gamma = self.prior_alpha, self.prior_gamma
        if isinstance(alpha, (list, tuple, np.ndarray)):
            alpha = tuple(alpha)
            object.__setattr__(self, "prior_alpha", alpha)
        values = alpha if isinstance(alpha, tuple) else (alpha,)
        if not (values and _positive_numbers(values)):
            raise ValidationError(f"prior_alpha must be a positive number or a list of them, got {alpha!r}")
        if not (isinstance(gamma, (list, tuple, np.ndarray)) and len(gamma) == 2
                and _positive_numbers(gamma)):
            raise ValidationError(f"prior_gamma must be a pair of positive numbers, got {gamma!r}")
        object.__setattr__(self, "prior_gamma", tuple(gamma))

    def check_strata(self, g: int):
        """Raise unless ``prior_alpha`` fits G strata."""
        if isinstance(self.prior_alpha, tuple) and len(self.prior_alpha) != g:
            raise ValidationError(f"prior_alpha must have length G = {g}, got {len(self.prior_alpha)}")

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
    # log C(n1 + M, n1) = sum_{i=1..M} log(1 + n1 / i), accumulated along the grid
    log_head = np.zeros(support.size)
    np.cumsum(np.log1p(n1 / excess[1:]), out=log_head[1:])
    return support, log_head + excess * log_one_minus_p


def _takes_negative_binomial(n1, k_max, p):
    """Whether the excess is drawn by rejection: its mean (n1 + 1)(1 - p)/p is
    at most K (vectorized). The mass above K is then below about 1/2."""
    return (p > 0) & ((n1 + 1) * (1 - p) <= k_max * p)


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


def draw_population_size(stats: SampleStats, cap: np.ndarray, log_omp: np.ndarray, rngs: Rngs,
                         size: int | None = None):
    """Draw each row's N from its posterior given the stacked sample
    statistics, each row's ``cap`` on N and ``log_omp``, the log escape
    probability log(1 - p) at the current params.

    The excess M = N - n0 - n1 is NB(n1 + 1, p) truncated at
    K = cap - n0 - n1. While the mean of M is at most K, its mass above K is
    below about one half, so M comes from ``rng.negative_binomial`` and only
    draws above K are redrawn (fewer than two tries each on average);
    otherwise from the inverse CDF on the grid 0..K, where rejection could
    take unboundedly long. Both paths draw from the same truncated law, so
    cap hits stay exact. Where 1 - p = 0, N is the sampled count and nothing
    is drawn. Returns shape (R,), or (R, size) with ``size`` draws per row.
    """
    k_max = cap - stats.n_sampled
    p = -np.array([math.expm1(v) for v in log_omp.tolist()])  # np.expm1 can differ in the last bit
    rejection = _takes_negative_binomial(stats.n1, k_max, p)
    shape = 1 if size is None else size
    excess = np.zeros((len(rngs), shape), dtype=np.int64)
    for r in np.exp(log_omp).nonzero()[0].tolist():
        excess[r] = _draw_excess(rngs[r], stats.n0[r], stats.n1[r], log_omp[r], k_max[r], rejection[r], shape)
    n = stats.n_sampled[:, None] + excess
    return n[:, 0] if size is None else n


def impute_strata(stats: SampleStats, n: np.ndarray, probs: np.ndarray, rngs: Rngs) -> np.ndarray:
    """Impute strata for each row's N - n0 - n1 unsampled units, as counts per
    stratum: multinomial over ``probs``, the stratum distribution of a unit
    linked to no initial-sample member (NaN in rows where no unit can be)."""
    n_missing = n - stats.n_sampled
    if (n_missing < 0).any():
        raise ValidationError("population size below sampled count")
    if ((n_missing > 0) & np.isnan(probs[:, 0])).any():
        raise ValidationError("inconsistent state: an unsampled unit cannot avoid the initial sample")
    strata_un = np.zeros_like(stats.counts_s0)
    for r in n_missing.nonzero()[0].tolist():
        strata_un[r] = rngs[r].multinomial(n_missing[r], probs[r])
    return strata_un


def _pair_draws(draw, first: list, second: list) -> list:
    """One scalar ``draw(a, b)`` per stratum pair. It consumes the Generator's
    stream exactly as one array-valued call, without numpy's array checks."""
    return [draw(a, b) for a, b in zip(first, second)]


def impute_link_counts(stats: SampleStats, n, strata_all_counts, beta: np.ndarray, rngs: Rngs) -> np.ndarray:
    """Impute each row's link counts (R, P) for every pair not touched by the initial sample.

    Pairs with both endpoints outside the initial sample (wave-wave,
    wave-unsampled, unsampled-unsampled) are the unobserved ones; for each
    stratum pair the count is Binomial(pairs available, beta). The completed
    stratum counts are checked against N and the observed wave first. The
    sweep integrates these links out instead; the tests use this draw as the
    reference for that collapsed step.
    """
    strata_all_counts = np.asarray(strata_all_counts, dtype=np.int64)
    if (strata_all_counts.sum(axis=-1) != n).any():
        raise ValidationError("stratum counts do not sum to the population size")
    outside = strata_all_counts - stats.counts_s0
    if (outside < stats.counts_s1).any():
        raise ValidationError("stratum counts inconsistent with the observed wave")
    totals = pair_totals_from_counts(outside).tolist()
    draws = map(_pair_draws, [rng.binomial for rng in rngs], totals, beta.tolist())
    return np.array(list(draws), dtype=np.int64)


def lambda_posterior_params(strata_counts: np.ndarray, cfg: McmcConfig) -> np.ndarray:
    alpha = np.asarray(cfg.prior_alpha, dtype=np.float64)
    return np.asarray(strata_counts, dtype=np.float64) + alpha


def beta_posterior_params(counts: SufficientCounts, cfg: McmcConfig):
    """Per-pair Beta parameters (successes + g1, failures + g2)."""
    g1, g2 = cfg.prior_gamma
    a = counts.link_counts + g1
    b = counts.pair_totals - counts.link_counts + g2
    return a.astype(np.float64), b.astype(np.float64)


def draw_lambda(strata_counts: np.ndarray, cfg: McmcConfig, rngs: Rngs) -> np.ndarray:
    """Each row's stratum probabilities from the Dirichlet posterior given its (R, G) counts."""
    alpha = lambda_posterior_params(strata_counts, cfg)
    return np.array([rng.dirichlet(row) for rng, row in zip(rngs, alpha)])


def draw_beta(counts: SufficientCounts, cfg: McmcConfig, rngs: Rngs) -> np.ndarray:
    """Each row's (R, P) link probabilities from the per-pair Beta posteriors
    given its (R, ...) :func:`posterior_counts`."""
    a, b = beta_posterior_params(counts, cfg)
    draws = map(_pair_draws, [rng.beta for rng in rngs], a.tolist(), b.tolist())
    return np.array(list(draws))


def posterior_counts(stats, strata_unsampled: np.ndarray) -> SufficientCounts:
    """The counts lambda's and beta's conditionals read: the completed stratum
    counts, the observed link counts M, and the totals T* of the pairs with at
    least one endpoint in the initial sample, all of them observed. The links
    among the other pairs integrate out, so beta's posterior is
    Beta(M + g1, T* - M + g2); T* is not the completed pair totals."""
    counts = stats.counts_sampled + np.asarray(strata_unsampled, dtype=np.int64)
    touching = pair_totals_from_counts(counts) - pair_totals_from_counts(counts - stats.counts_s0)
    return SufficientCounts(counts, stats.link_counts, touching)


@dataclass(frozen=True)
class AugmentedState:
    """The Gibbs states of R chains, each field with a leading replicate axis:
    N, the unsampled block's imputed stratum counts, and (lambda, beta), beta
    per stratum pair in upper-triangle order. The arrays are never written
    once built."""

    n: np.ndarray
    strata_unsampled: np.ndarray
    lam: np.ndarray
    beta: np.ndarray


def initial_state(stats: SampleStats) -> AugmentedState:
    """Overdispersed-but-plausible start of one chain per row of the stacked
    ``stats``: sample stratum proportions and smoothed observed link
    fractions. The sweep reads only (lambda, beta) of a state, so the start N
    (twice the sampled count) and unsampled strata (none) are placeholders."""
    return AugmentedState(
        2 * stats.n_sampled,
        np.zeros_like(stats.counts_s0),
        stats.counts_sampled / stats.n_sampled[:, None],
        (stats.link_counts + 1.0) / (stats.pair_totals + 2.0),
    )


def gibbs_sweep(state: AugmentedState, stats: SampleStats, cap: np.ndarray, cfg: McmcConfig,
                rngs: Rngs) -> AugmentedState:
    """One Gibbs sweep (N, unsampled strata, lambda, beta) of R chains on the
    stacked ``stats`` under their caps on N; chain r draws on ``rngs[r]``
    only, in that order."""
    _, log_omp, probs = escape_terms(stratum_escape_log_weights(stats.counts_s0, state))
    n = draw_population_size(stats, cap, log_omp, rngs)
    strata_un = impute_strata(stats, n, probs, rngs)
    counts = posterior_counts(stats, strata_un)
    lam = draw_lambda(counts.strata_counts, cfg, rngs)
    return AugmentedState(n, strata_un, lam, draw_beta(counts, cfg, rngs))


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
    is not empty and fits under the cap on N, and that the prior fits G.
    ``n_strata`` defaults to the smallest G consistent with the labels; pass
    it when the population has strata the sample missed."""
    if data.n0 == 0:
        raise ValidationError("empty initial sample (n0 = 0): the sample carries no information")
    stats = SampleStats.from_data(data, n_strata if n_strata is not None else data.min_strata())
    cfg.effective_cap(stats.n_sampled)
    cfg.check_strata(stats.n_strata)
    return stats


def run_chains(stats: Sequence[SampleStats], cfg: McmcConfig, seeds: Sequence) -> list[ChainTrace]:
    """Run one chain per sample (all with the same G, each from
    :func:`chain_stats`) in lockstep. Chain r draws from
    ``default_rng(seeds[r])`` alone, so it equals :func:`run_chain` with that
    seed. R traces of length L hold 8 R L (1 + G + G(G+1)/2) bytes.
    """
    cap = np.array([cfg.effective_cap(s.n_sampled) for s in stats])
    batch = SampleStats.stack(stats)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    state = initial_state(batch)
    (replicates, g), length = state.lam.shape, cfg.chain_length
    n_draws = np.zeros((replicates, length), dtype=np.int64)
    lam_draws = np.zeros((replicates, length, g))
    beta_draws = np.zeros((replicates, length, state.beta.shape[-1]))
    for it in range(length):
        state = gibbs_sweep(state, batch, cap, cfg, rngs)
        n_draws[:, it], lam_draws[:, it], beta_draws[:, it] = state.n, state.lam, state.beta
    caps = cap.tolist()
    cap_hits = np.count_nonzero(n_draws == cap[:, None], axis=1).tolist()
    for chain_cap, hits in zip(caps, cap_hits):
        if hits:
            logger.info("population-size cap %d hit %d times over %d sweeps", chain_cap, hits, length)
    burn = int(length * cfg.burn_in_fraction)
    chains = zip(_freeze(n_draws), _freeze(lam_draws), _freeze(beta_draws), caps, cap_hits, seeds)
    return [ChainTrace(n, lam, beta, burn, cap, hits, seed, g) for n, lam, beta, cap, hits, seed in chains]


def run_chain(data: IgnoredData, cfg: McmcConfig, n_strata: int | None = None) -> ChainTrace:
    """Run the full augmentation chain and record every state; ``n_strata``
    as in :func:`chain_stats`. Fully deterministic given ``cfg.seed``."""
    return run_chains([chain_stats(data, cfg, n_strata)], cfg, [cfg.seed])[0]

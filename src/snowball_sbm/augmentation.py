"""Gibbs data-augmentation sampler for population size and model parameters.

Each sweep (:func:`gibbs_sweep`) draws, in order: the population size from
its label-free posterior, stratum memberships for the unsampled block, then
the conjugate Dirichlet/Beta parameter updates. It advances R chains at
once: the deterministic work runs once on arrays with a leading replicate
axis, and chain r draws on ``rngs[r]`` only. The two imputation draws are
per chain: :func:`draw_population_size` and :func:`impute_strata` take one
chain's Generator and numbers, and every sweep calls them once per chain.
The parameter draws, :func:`draw_lambda` and :func:`draw_beta`, take the
batch, so many i.i.d. draws of them come from R identical rows that share
one Generator (``[rng] * R``). Every draw is a scalar Generator call, which
skips numpy's checks of array arguments yet consumes the stream exactly as
the array calls that define a chain: a scalar draw runs the same sampler as
a size-1 draw, ``multinomial`` over two strata is one ``binomial`` draw on
the first, and ``dirichlet`` is one ``standard_gamma`` draw per stratum
times the reciprocal of their running sum, as numpy computes it (except
where the largest weight is below 0.1 and numpy breaks sticks).

:func:`run_chains` takes this lockstep sweep for two or more chains. A
single chain (``estimate``, :func:`run_chain`, a one-replicate study) runs
the same sweep in Python numbers instead (``_one_chain_draws``), where
numpy's per-call cost on one row would be most of the sweep; it calls the
same two imputation draws and makes the same Generator calls and float
operations, so a replicate rerun alone reproduces its lockstep row bit for
bit.

A sweep costs O(G^2) per chain, independent of the sample size, and of the
cap on N unless the cap binds (then N is drawn from a grid over the
truncated support). The sample enters only through its sufficient statistics
(:class:`~snowball_sbm.sbm.SampleStats`), computed once per chain. The
unsampled units' strata are exchangeable given the sample, so a multinomial
count vector replaces per-unit labels; N is drawn as a truncated negative
binomial; and the links among pairs with no endpoint in the initial sample,
which only beta's conditional would read, are integrated out of it (a
collapsed Gibbs step, in :func:`conjugate_params`). All three are exact.
"""

import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

# escape_probability is unused here: bench/test_bench.py checks the tracer patches this reference
from .likelihoods import escape_probability, escape_terms, stratum_escape_log_weights  # noqa: F401
from .sampling import IgnoredData
from .sbm import (
    INT64_MAX,
    MAX_POPULATION,
    SampleStats,
    ValidationError,
    _freeze,
    _is_finite_number,
    _upper_positions,
    check_draws,
    check_int,
    estimand_blocks,
    pair_totals_from_counts,
    upper_indices,
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
    ``cap_multiplier`` times the sampled count; either is at most
    MAX_POPULATION, since a binding cap sets the size of N's grid. Cap hits
    are counted and reported so truncation pressure is visible.
    ``prior_alpha`` is one Dirichlet weight for every stratum or a list of G
    of them.
    """

    chain_length: int = 1000
    burn_in_fraction: float = 0.1
    n_max_cap: int | None = None
    cap_multiplier: float = 100.0
    prior_alpha: float | tuple[float, ...] = 1.0
    prior_gamma: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self):
        check_int(self.chain_length, "chain_length", 1, INT64_MAX)
        if self.n_max_cap is not None:
            check_int(self.n_max_cap, "n_max_cap", 1, MAX_POPULATION)
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
            if cap > MAX_POPULATION:
                raise ValidationError(f"cap_multiplier {self.cap_multiplier!r} x sampled count {n_sampled} "
                                      f"is a cap of {cap}, above the limit of {MAX_POPULATION}")
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


def draw_population_size(rng: np.random.Generator, n0: int, n1: int, log_omp: float, k_max: int,
                         size: int | None = None):
    """Draw one chain's N from its posterior given the block sizes, ``log_omp``,
    the log escape probability log(1 - p) at the current params, and
    ``k_max``, the cap on N less the sampled count.

    The excess M = N - n0 - n1 is NB(n1 + 1, p) truncated at K = ``k_max``.
    While the mean of M is at most K, its mass above K is below about one
    half, so M comes from ``rng.negative_binomial`` and only draws above K
    are redrawn (fewer than two tries each on average); otherwise from the
    inverse CDF on the grid 0..K, where rejection could take unboundedly
    long. Both paths draw from the same truncated law, so cap hits stay
    exact. Where 1 - p = 0, N is the sampled count and nothing is drawn
    (``math.exp`` and ``np.exp`` both round to 0 below -1075 log 2).
    Returns an int, or an array of ``size`` i.i.d. draws.
    """
    if math.exp(log_omp) == 0:
        return n0 + n1 if size is None else np.full(size, n0 + n1, dtype=np.int64)
    p = -math.expm1(log_omp)  # np.expm1 can differ in the last bit
    if not _takes_negative_binomial(n1, k_max, p):
        _, log_w = population_size_log_weights(n0, n1, log_omp, n0 + n1 + k_max)
        cdf = np.cumsum(np.exp(log_w - log_w.max()))
        excess = np.minimum(np.searchsorted(cdf, rng.random(size) * cdf[-1], side="right"), k_max)
        return n0 + n1 + (int(excess) if size is None else excess)
    if size is None:  # one scalar draw, redrawn while above K
        excess = rng.negative_binomial(n1 + 1, p)
        while excess > k_max:
            excess = rng.negative_binomial(n1 + 1, p)
        return n0 + n1 + excess
    excess = rng.negative_binomial(n1 + 1, p, size)
    over = (excess > k_max).nonzero()[0]
    while over.size:
        excess[over] = rng.negative_binomial(n1 + 1, p, over.size)
        over = over[excess[over] > k_max]
    return n0 + n1 + excess


def impute_strata(rng: np.random.Generator, missing: int, probs) -> list:
    """Impute the strata of one chain's ``missing`` unsampled units, as a list
    of G counts: multinomial over ``probs``, the stratum distribution of a
    unit linked to no initial-sample member (NaN where no unit can be)."""
    if missing < 0:
        raise ValidationError("population size below sampled count")
    if not missing:
        return [0] * len(probs)
    if math.isnan(probs[0]):
        raise ValidationError("inconsistent state: an unsampled unit cannot avoid the initial sample")
    if len(probs) == 2:  # numpy's multinomial makes one binomial draw, on the first stratum
        first = rng.binomial(missing, probs[0])
        return [first, missing - first]
    return rng.multinomial(missing, probs).tolist()


def conjugate_params(stats: SampleStats, strata_unsampled: np.ndarray, cfg: McmcConfig):
    """Each row's Dirichlet parameters for lambda, ``alpha`` (R, G): the
    completed stratum counts plus ``prior_alpha``; and Beta parameters for
    beta, ``a`` and ``b`` (R, P): M + g1 and T* - M + g2, where M is the
    observed link count and T* the total of the pairs with at least one
    endpoint in the initial sample, all of them observed. The links among the
    other pairs integrate out, so T* is not the completed pair totals."""
    counts = stats.counts_sampled + np.asarray(strata_unsampled, dtype=np.int64)
    all_pairs, outside = pair_totals_from_counts(np.array([counts, counts - stats.counts_s0]))
    g1, g2 = cfg.prior_gamma
    links = stats.link_counts
    alpha = counts.astype(np.float64) + np.asarray(cfg.prior_alpha, dtype=np.float64)
    a = np.asarray(links + g1, dtype=np.float64)
    b = np.asarray(all_pairs - outside - links + g2, dtype=np.float64)
    return alpha, a, b


def draw_lambda(alpha: np.ndarray, rngs: Rngs) -> np.ndarray:
    """Each row's stratum probabilities from Dirichlet(``alpha[r]``), bit for
    bit ``rngs[r].dirichlet``: a cumulative sum adds in its order, which
    ``sum`` does not for G >= 8."""
    if (alpha.max(axis=-1) < 0.1).any():  # numpy's dirichlet breaks sticks there
        return np.array([rng.dirichlet(row) for rng, row in zip(rngs, alpha)])
    gam = np.array([g for rng, row in zip(rngs, alpha.tolist()) for g in map(rng.standard_gamma, row)])
    gam = gam.reshape(alpha.shape)
    return gam * (1.0 / gam.cumsum(axis=-1)[..., -1:])


def draw_beta(a: np.ndarray, b: np.ndarray, rngs: Rngs) -> np.ndarray:
    """Each row's (R, P) link probabilities, one Beta(``a[r, i]``,
    ``b[r, i]``) draw per stratum pair."""
    draws = [x for rng, ra, rb in zip(rngs, a.tolist(), b.tolist()) for x in map(rng.beta, ra, rb)]
    return np.array(draws).reshape(a.shape)


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
    n0, n1, k_max = stats.n0.tolist(), stats.n1.tolist(), (cap - stats.n0 - stats.n1).tolist()
    n = list(map(draw_population_size, rngs, n0, n1, log_omp.tolist(), k_max))
    missing = [m - a - b for m, a, b in zip(n, n0, n1)]
    strata_un = np.array(list(map(impute_strata, rngs, missing, probs.tolist())))
    alpha, a, b = conjugate_params(stats, strata_un, cfg)
    return AugmentedState(np.array(n), strata_un, draw_lambda(alpha, rngs), draw_beta(a, b, rngs))


@dataclass(frozen=True)
class ChainTrace:
    """Every sweep's draws of one chain, as an (L, 1 + G + G(G+1)/2) table
    whose columns are :func:`~snowball_sbm.sbm.estimand_names`, with the
    chain's burn-in, cap on N, cap hits and seed."""

    draws: np.ndarray
    burn_in: int
    cap: int
    cap_hits: int
    seed: int | None
    n_strata: int

    @property
    def chain_length(self) -> int:
        return self.draws.shape[0]

    def reduce(self, fn) -> np.ndarray:
        """``fn(block, axis=0)`` of the draws after burn-in, one value per
        column, such as ``np.mean``. Each estimand's block of columns is
        reduced on its own, so its figures have the bits of that estimand's
        own array: numpy sums a lone column pairwise, but the columns of a
        wider block row by row."""
        kept = self.draws[self.burn_in:]
        return np.concatenate([fn(kept[:, cols], axis=0) for cols in estimand_blocks(self.n_strata)])


def chain_stats(data: IgnoredData, cfg: McmcConfig, n_strata: int | None = None) -> SampleStats:
    """The statistics a chain on ``data`` reads, after checking that the sample
    is not empty and fits under the cap on N, that the prior fits G and that
    the draws table fits its limit. ``n_strata`` defaults to the smallest G
    consistent with the labels; pass it when the population has strata the sample missed."""
    if data.n0 == 0:
        raise ValidationError("empty initial sample (n0 = 0): the sample carries no information")
    stats = SampleStats.from_data(data, n_strata if n_strata is not None else data.min_strata())
    cfg.effective_cap(stats.n_sampled)
    cfg.check_strata(stats.n_strata)
    check_draws(1, cfg.chain_length, stats.n_strata, "chain_length")
    return stats


def _one_chain_draws(stats: SampleStats, cap: int, cfg: McmcConfig, rng: np.random.Generator) -> np.ndarray:
    """The (L, 1 + G + G(G+1)/2) draws table of one chain, bit for bit that
    of :func:`gibbs_sweep` on ``stats`` stacked with R = 1: the same
    Generator calls in the same order, on a state held in Python numbers.
    Each float operation is the one numpy makes for a row: its ufuncs on
    scalars, sums added left to right (numpy's order for fewer than 8
    terms), lambda as each gamma draw times the reciprocal of their running
    sum. Three rare steps run the batched function on a batch of one: the
    escape terms where some beta is 1 or G >= 8, lambda where numpy's
    dirichlet breaks sticks."""
    g = stats.n_strata
    start = initial_state(stats)
    lam, beta = start.lam[0].tolist(), start.beta[0].tolist()
    n0, n1 = int(stats.n0[0]), int(stats.n1[0])
    n_sampled, k_max = n0 + n1, cap - n0 - n1
    counts_s0, sampled = stats.counts_s0[0].tolist(), stats.counts_sampled[0].tolist()
    pairs = list(zip(*(ix.tolist() for ix in upper_indices(g))))
    # stratum k's escape log weight adds count_i * log1p(-beta[pair of i and k]) over strata i
    columns = [list(zip(map(float, counts_s0), column)) for column in _upper_positions(g).T.tolist()]
    links = stats.link_counts[0].tolist()
    prior = np.broadcast_to(np.asarray(cfg.prior_alpha, dtype=np.float64), g).tolist()
    g1, g2 = cfg.prior_gamma
    a = np.asarray(stats.link_counts[0] + g1, dtype=np.float64).tolist()
    rows = []
    with np.errstate(divide="ignore"):  # log(0) of a stratum with lambda 0 is -inf, as in the batch
        for _ in range(cfg.chain_length):
            if g >= 8 or max(beta) >= 1:
                state = AugmentedState(None, None, np.array([lam]), np.array([beta]))
                _, log_omp, probs = escape_terms(stratum_escape_log_weights(stats.counts_s0, state))
                log_omp, probs = float(log_omp[0]), probs[0].tolist()
            else:
                log1m_beta = [float(np.log1p(-b)) for b in beta]
                log_w = []
                for x, column in zip(lam, columns):
                    total = 0.0  # added in order, as _sum_in_order does
                    for c, j in column:
                        total += c * log1m_beta[j]
                    log_w.append(float(np.log(x)) + total)
                top = max(log_w)
                if top == -math.inf:
                    log_omp, probs = -math.inf, [math.nan] * g
                else:
                    w = [float(np.exp(x - top)) for x in log_w]
                    total = _sum_in_order(w)
                    log_omp, probs = min(top + float(np.log(total)), 0.0), [x / total for x in w]

            n = draw_population_size(rng, n0, n1, log_omp, k_max)
            strata_un = impute_strata(rng, n - n_sampled, probs)
            counts = [c + u for c, u in zip(sampled, strata_un)]
            outside = [c - c0 for c, c0 in zip(counts, counts_s0)]
            alpha = [float(c) + pa for c, pa in zip(counts, prior)]
            totals = zip(_pair_totals(counts, pairs), _pair_totals(outside, pairs), links)
            b = [float(t - o - m + g2) for t, o, m in totals]

            if max(alpha) < 0.1:
                lam = draw_lambda(np.array([alpha]), [rng])[0].tolist()
            else:
                gam = [rng.standard_gamma(x) for x in alpha]
                recip = 1.0 / _sum_in_order(gam)
                lam = [x * recip for x in gam]
            beta = [rng.beta(x, y) for x, y in zip(a, b)]
            rows.append([n, *lam, *beta])
    return np.array(rows, dtype=np.float64)


def _sum_in_order(values: list) -> float:
    """``values`` added left to right, numpy's order for fewer than 8 terms
    (the built-in ``sum`` of floats is compensated from Python 3.12 on)."""
    return reduce(add, values, 0.0)


def _pair_totals(counts: list, pairs: list) -> list:
    """:func:`~snowball_sbm.sbm.pair_totals_from_counts` of one row of counts, in Python ints."""
    return [counts[k] * (counts[k] - 1) // 2 if k == l else counts[k] * counts[l] for k, l in pairs]


def run_chains(stats: Sequence[SampleStats], cfg: McmcConfig, seeds: Sequence) -> list[ChainTrace]:
    """Run one chain per sample (all with the same G, each from
    :func:`chain_stats`). Chain r draws from ``default_rng(seeds[r])``
    alone, so it equals :func:`run_chain` with that seed: a study's
    replicate rerun alone reproduces its row. Two or more chains run in
    lockstep through :func:`gibbs_sweep`, their draws tables views of one
    (R, L, 1 + G + G(G+1)/2) float64 array filled a sweep at a time; a
    single chain runs the same sweep in Python numbers, which cost less than
    numpy calls on one row.
    """
    cap = np.array([cfg.effective_cap(s.n_sampled) for s in stats])
    batch = SampleStats.stack(stats)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    replicates, g, length = len(stats), batch.n_strata, cfg.chain_length
    if replicates == 1:
        draws = _one_chain_draws(batch, int(cap[0]), cfg, rngs[0])[None]
    else:
        state = initial_state(batch)
        _, lam, beta = estimand_blocks(g)
        draws = np.zeros((replicates, length, 1 + g + state.beta.shape[-1]))
        for it in range(length):
            state = gibbs_sweep(state, batch, cap, cfg, rngs)
            sweep = draws[:, it]
            sweep[:, 0], sweep[:, lam], sweep[:, beta] = state.n, state.lam, state.beta
    caps = cap.tolist()
    cap_hits = np.count_nonzero(draws[:, :, 0] == cap[:, None], axis=1).tolist()
    for chain_cap, hits in zip(caps, cap_hits):
        if hits:
            logger.info("population-size cap %d hit %d times over %d sweeps", chain_cap, hits, length)
    burn = int(length * cfg.burn_in_fraction)
    chains = zip(_freeze(draws), caps, cap_hits, seeds)
    return [ChainTrace(table, burn, cap, hits, seed, g) for table, cap, hits, seed in chains]


def run_chain(data: IgnoredData, cfg: McmcConfig, seed=None, *, n_strata: int | None = None) -> ChainTrace:
    """Run the full augmentation chain and record every state; ``n_strata``
    as in :func:`chain_stats`. Fully deterministic given ``seed``."""
    return run_chains([chain_stats(data, cfg, n_strata)], cfg, [seed])[0]

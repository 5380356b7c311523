"""Simulation-based calibration of the whole Gibbs cycle (Talts et al. 2018,
arXiv:1804.06788).

Each instance draws (N, lambda, beta) from the chain's own prior, builds a
population and a one-wave sample through the library, and runs the chain on
that sample. If the sweep samples the posterior, the rank of the truth among
thinned posterior draws is uniform. The per-conditional oracles check each
sub-draw alone; this test checks that the sweep puts them together right.
"""

import time

import numpy as np
from scipy.stats import chisquare

from snowball_sbm import DesignConfig, McmcConfig, SbmParams, draw_initial, generate_population
from snowball_sbm import trace_one_wave
from snowball_sbm.augmentation import chain_stats, run_chains
from snowball_sbm.sbm import estimand_names

N0 = 12
CAP = 150
INSTANCES = 400
THIN = 20
BINS = 10
ESTIMANDS = ("N", "lambda_1", "beta_1_1", "beta_1_2", "beta_2_2")


def rank_histogram_pvalue(ranks: np.ndarray, n_draws: int) -> float:
    """Chi-square p-value of ranks in 0..n_draws against the discrete uniform,
    pooled into BINS bins (bins may hold unequal numbers of rank values)."""
    bin_of = np.arange(n_draws + 1) * BINS // (n_draws + 1)
    observed = np.bincount(bin_of[ranks], minlength=BINS)
    expected = np.bincount(bin_of, minlength=BINS) / (n_draws + 1) * ranks.size
    return chisquare(observed, expected).pvalue


def test_simulation_based_calibration():
    """N is uniform on n0..cap. The sampler's prior on N is flat up to the
    cap, and a fixed-size design forces N >= n0, so this is the prior the
    chain assumes; a floor above n0 would make the test itself miscalibrated."""
    start = time.time()
    rng = np.random.default_rng(1)
    cfg = McmcConfig(chain_length=1000, n_max_cap=CAP, prior_gamma=(1.0, 8.0))
    truths, stats, seeds = [], [], []
    for _ in range(INSTANCES):
        n = int(rng.integers(N0, CAP + 1))
        lam = rng.dirichlet([1.0, 1.0])  # prior_alpha = 1
        beta_upper = rng.beta(*cfg.prior_gamma, size=3)
        graph = generate_population(SbmParams(lam, beta_upper), n, seed=int(rng.integers(2**31)))
        design = DesignConfig(mode="fixed_size", n0=N0)
        sample = trace_one_wave(graph, draw_initial(graph, design, int(rng.integers(2**31))))
        stats.append(chain_stats(sample, cfg, 2))
        truths.append([n, lam[0], *beta_upper])
        seeds.append(int(rng.integers(2**31)))

    ranks = []
    columns = [estimand_names(2).index(name) for name in ESTIMANDS]
    for trace, truth in zip(run_chains(stats, cfg, seeds), truths):
        draws = trace.draws[trace.burn_in:, columns][THIN - 1 :: THIN]
        below = (draws < truth).sum(axis=0)
        ties = (draws == truth).sum(axis=0)  # N is discrete: break ties at random
        ranks.append(below + rng.integers(0, ties + 1))
    ranks = np.array(ranks)
    pvalues = {name: rank_histogram_pvalue(ranks[:, j], draws.shape[0]) for j, name in enumerate(ESTIMANDS)}
    elapsed = time.time() - start
    detail = ", ".join(f"{name} p={p:.2g}" for name, p in pvalues.items())
    # a 1% family-wise level over the five histograms
    assert min(pvalues.values()) > 0.01 / len(ESTIMANDS), f"rank histograms not uniform: {detail}"
    assert elapsed < 60, f"took {elapsed:.1f} s"
    print(f"SBC: PASS ({detail}; {INSTANCES} instances, {draws.shape[0]} thinned draws each, {elapsed:.1f}s)")

"""Mixing regression of the Gibbs chain along N on large samples.

N and beta are strongly coupled in the posterior: a larger N means more
non-links between the initial sample and the unsampled block, and so a
smaller beta. A sweep that drew beta given imputed links among the pairs the
sample never observes tied each beta to its last value and crawled along
that ridge; with those links integrated out of beta's conditional the chain
gets six to ten times as many effective draws of N. This test pins that gain.
"""

import time

import numpy as np

from snowball_sbm import DesignConfig, McmcConfig, SbmParams, draw_initial, generate_population
from snowball_sbm import trace_one_wave
from snowball_sbm.augmentation import chain_stats, run_chains
from snowball_sbm.sbm import estimand_names

from ess import effective_sample_size

N = 15_000
N0 = 750
# survey-scale link probabilities scaled by 595 / N, so each stratum keeps
# its survey-scale mean degree
PARAMS = SbmParams([0.425, 0.575], [b * 595 / N for b in (0.0046, 0.0014, 0.0058)])
SWEEPS = 4000
# the median ESS of N per retained draw; a sweep that imputes the unobserved
# links gives 0.005-0.006 on these samples, the collapsed sweep 0.036
MIN_ESS_PER_DRAW = 0.015


def test_population_size_mixes_on_large_samples():
    start = time.time()
    cfg = McmcConfig(chain_length=SWEEPS)
    stats = []
    for seed in (1, 2, 3, 4):
        graph = generate_population(PARAMS, N, seed=seed)
        design = DesignConfig(mode="fixed_size", n0=N0)
        sample = trace_one_wave(graph, draw_initial(graph, design, seed + 100))
        stats.append(chain_stats(sample, cfg, 2))
    per_draw = []
    for trace in run_chains(stats, cfg, [1001, 1002, 1003, 1004]):
        n_kept = trace.draws[trace.burn_in:, estimand_names(2).index("N")]
        per_draw.append(effective_sample_size(n_kept) / n_kept.size)
    elapsed = time.time() - start
    detail = ", ".join(f"{value:.4f}" for value in per_draw)
    assert np.median(per_draw) >= MIN_ESS_PER_DRAW, f"ESS(N) per retained draw: {detail}"
    assert elapsed < 10, f"took {elapsed:.1f} s"
    print(f"mixing: PASS (ESS(N) per retained draw {detail}; {elapsed:.1f}s)")

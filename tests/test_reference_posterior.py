"""The chain against an independent posterior: importance sampling on the
(lambda, beta) marginal, with N's law given (lambda, beta) exact
(:func:`references.importance_posterior`).

SBC checks the chain's calibration averaged over the prior, and the
enumerations stop at N <= 6. Here the posterior mean and sd of every
estimand on seeded samples at G = 1, 2 and 3, at survey scale (N 595,
n0 89) and large scale (N 15 000, n0 750), must match the reference within
z = 4 on the combined Monte Carlo error; the cap on N binds on one sample.
"""

import time

import numpy as np

from snowball_sbm import DesignConfig, McmcConfig, SbmParams, draw_initial, generate_population, trace_one_wave
from snowball_sbm.augmentation import chain_stats, run_chain
from snowball_sbm.sbm import estimand_names

from ess import effective_sample_size
from references import importance_posterior, pareto_k_hat

SWEEPS = 4000
Z = 4.0
PARAMS = {  # G -> (lambda, beta upper) at survey scale; large scale divides beta by 15 000 / 595
    1: ([1.0], [0.004]),
    2: ([0.425, 0.575], [0.0046, 0.0014, 0.0058]),
    3: ([0.3, 0.3, 0.4], [0.006, 0.0015, 0.001, 0.005, 0.002, 0.0045]),
}
SCALES = {"survey": (595, 89), "large": (15_000, 750)}
CAPPED = ("survey", 1, 480)  # (scale, G, cap on N) of the sample whose cap binds


def sample(scale: str, g: int):
    n, n0 = SCALES[scale]
    lam, beta = PARAMS[g]
    params = SbmParams(lam, np.array(beta) * SCALES["survey"][0] / n)
    graph = generate_population(params, n, seed=10 * g + n0)
    return trace_one_wave(graph, draw_initial(graph, DesignConfig(mode="fixed_size", n0=n0), seed=g))


def chain_moments(trace, columns):
    """Mean and sd of ``columns`` after burn-in, with their Monte Carlo errors
    from the effective sample size of the draws and of their squared
    deviations."""
    kept = trace.draws[trace.burn_in:, columns]
    mean, sd = kept.mean(axis=0), kept.std(axis=0)
    dev2 = (kept - mean) ** 2
    ess = np.array([effective_sample_size(column) for column in kept.T])
    ess_dev2 = np.array([effective_sample_size(column) for column in dev2.T])
    return mean, sd, sd / np.sqrt(ess), dev2.std(axis=0) / np.sqrt(ess_dev2) / (2 * sd)


def test_pareto_k_hat_recovers_generalized_pareto_shapes():
    """k-hat of 4 000 weights drawn from a generalized Pareto law of shape k
    is close to k; PSIS's prior pulls it slightly toward 1/2."""
    rng = np.random.default_rng(0)
    for k in (0.2, 0.5, 0.9):
        weights = (rng.random(4000) ** -k - 1) / k
        assert abs(pareto_k_hat(np.log(weights)) - k) < 0.15, k


def test_chain_matches_importance_sampling_reference():
    start = time.time()
    failures, rows = [], []
    for scale in SCALES:
        for g in PARAMS:
            cap = CAPPED[2] if (scale, g) == CAPPED[:2] else None
            cfg = McmcConfig(chain_length=SWEEPS, n_max_cap=cap)
            data = sample(scale, g)
            stats = chain_stats(data, cfg, g)
            cap = cfg.effective_cap(stats.n_sampled)
            trace = run_chain(data, cfg, seed=g, n_strata=g)
            ref = importance_posterior(stats, cfg, cap, seed=g)
            names = estimand_names(g)
            columns = [j for j, name in enumerate(names) if g > 1 or name != "lambda_1"]  # 1 at G = 1
            mean, sd, mcse_mean, mcse_sd = chain_moments(trace, columns)
            z_mean = (mean - ref.mean[columns]) / np.hypot(mcse_mean, ref.mcse_mean[columns])
            z_sd = (sd - ref.sd[columns]) / np.hypot(mcse_sd, ref.mcse_sd[columns])
            where = f"{scale} G={g} (n0 {data.n0}, n1 {data.n1}, cap {cap}, {trace.cap_hits} cap hits)"
            rows.append(f"{where}: N {ref.mean[0]:.0f} sd {ref.sd[0]:.0f}, k-hat {ref.k_hat:.2f}, "
                        f"ESS {ref.ess:.0f}, max |z| mean {np.abs(z_mean).max():.2f}, sd {np.abs(z_sd).max():.2f}")
            if (scale, g) == CAPPED[:2] and trace.cap_hits == 0:
                failures.append(f"{where}: the cap does not bind")
            if not ref.k_hat < 0.7:
                failures.append(f"{where}: Pareto k-hat {ref.k_hat:.2f}: the reference is not reliable")
            for j, z_m, z_s, m in zip(columns, z_mean, z_sd, mean):
                if abs(z_m) > Z or abs(z_s) > Z:
                    failures.append(f"{where} {names[j]}: chain mean {m:.6g} vs {ref.mean[j]:.6g}, z mean {z_m:.2f}, "
                                    f"z sd {z_s:.2f}")
    detail = "\n".join(rows)
    assert not failures, "\n".join(failures) + "\n" + detail
    print(f"{detail}\n{time.time() - start:.1f} s")

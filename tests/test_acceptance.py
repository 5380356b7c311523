"""Acceptance criteria, one test per criterion, run at stated tolerances.

Each test prints a PASS line on success (visible with -s or -rA); a failing
criterion fails its test with the measured value in the message.
"""

import json
import time
from fractions import Fraction
from math import comb, prod

import numpy as np
from scipy.stats import binomtest, chi2_contingency, chisquare, nbinom

from snowball_sbm import (
    ClusterOverlay,
    DesignConfig,
    McmcConfig,
    SbmParams,
    StudyConfig,
    draw_beta,
    draw_initial,
    draw_lambda,
    generate_population,
    impute_link_counts,
    run_study,
    sufficient_counts,
    to_ignored_data,
    trace_one_wave,
    wave_inclusion_probability,
)
from snowball_sbm.augmentation import beta_posterior_params, lambda_posterior_params, posterior_counts
from snowball_sbm.harness import SURVEY_SCALE_N, survey_scale_params
from snowball_sbm.likelihoods import ignored_log_likelihood, observed_log_likelihood
from snowball_sbm.logmath import log_binom
from snowball_sbm.sampling import IgnoredData, SampleStats
from snowball_sbm.sbm import symmetric_from_upper

from test_augmentation import (
    FRAC_BETA,
    FRAC_LAM,
    PARAMS_FRAC,
    brute_force_stratum_marginals,
    draw_n,
    escape_of,
    repeat_rows,
    stacked,
)
from test_likelihoods import make_data, stats_of


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def synthetic_data(n0, n1):
    """Minimal valid label-free data with the requested block sizes (G=1)."""
    links = [[0, n0 + j] for j in range(n1)]
    return IgnoredData(
        strata_s0=np.zeros(n0, dtype=int), strata_s1=np.zeros(n1, dtype=int), links=links
    )


def test_criterion_1_population_size_oracle():
    """Empirical PMF of the N draw vs direct enumeration, plus the
    negative-binomial mean identity."""
    start = time.time()
    rng = np.random.default_rng(20250809)
    worst_tv = worst_mean_err = 0.0
    for trial in range(20):
        n0 = int(rng.integers(1, 61))
        n1 = int(rng.integers(0, 31))
        one_minus_p = float(rng.uniform(0.05, 0.6))
        p = 1.0 - one_minus_p
        mu = (n1 + 1) * one_minus_p / p
        sd = np.sqrt((n1 + 1) * one_minus_p) / p
        cap = n0 + n1 + int(np.ceil(mu + 20 * sd + 50))
        assert nbinom.sf(cap - n0 - n1, n1 + 1, p) < 1e-6  # cap tail is negligible
        beta = 1.0 - one_minus_p ** (1.0 / n0)
        params = SbmParams([1.0], [beta])
        stats = stats_of(synthetic_data(n0, n1), params)
        draws = draw_n(stats, params, McmcConfig(n_max_cap=cap), np.random.default_rng(trial), size=200_000)
        support = np.arange(n0 + n1, cap + 1)
        weights = np.array(
            [comb(int(n) - n0, n1) * one_minus_p ** (int(n) - n0 - n1) for n in support]
        )
        pmf = weights / weights.sum()
        emp = np.bincount(draws - support[0], minlength=support.size) / draws.size
        tv = 0.5 * np.abs(emp - pmf).sum()
        mean_err = abs(draws.mean() - (n0 + n1 + mu)) / (n0 + n1 + mu)
        assert tv < 0.01, f"TV {tv:.4f} at setting {trial} (n0={n0}, n1={n1}, p={p:.3f})"
        assert mean_err < 0.01, f"mean error {mean_err:.4f} at setting {trial}"
        worst_tv = max(worst_tv, tv)
        worst_mean_err = max(worst_mean_err, mean_err)
    elapsed = time.time() - start
    assert elapsed < 60
    report(1, f"worst TV {worst_tv:.4f}, worst mean err {worst_mean_err:.5f}, {elapsed:.1f}s")


def test_criterion_2_stratum_imputation_oracle():
    """Single-unit stratum conditional vs exact-rational enumeration of the
    joint model over all completions, on every enumerable instance shape."""
    start = time.time()
    rng = np.random.default_rng(7)
    instances = 0
    for n0 in (1, 2, 3):
        for n1 in (0, 1, 2):
            for n_total in range(n0 + n1 + 1, 7):
                # randomized but seeded strata and links, valid by construction
                strata_s0 = rng.integers(0, 2, n0).tolist()
                strata_s1 = rng.integers(0, 2, n1).tolist()
                pairs = [
                    (i, j) for i in range(n0) for j in range(i + 1, n0) if rng.random() < 0.5
                ]
                pairs += [(int(rng.integers(0, n0)), n0 + j) for j in range(n1)]
                data = make_data(strata_s0, strata_s1, pairs)
                marginal, joint = brute_force_stratum_marginals(
                    data, n_total, FRAC_LAM, FRAC_BETA
                )
                probs = escape_of(stats_of(data, PARAMS_FRAC), PARAMS_FRAC)[2]
                for k in range(2):
                    assert abs(probs[k] - float(marginal[k])) < 1e-10, (
                        f"n0={n0} n1={n1} N={n_total} stratum {k}: "
                        f"{probs[k]} vs {float(marginal[k])}"
                    )
                if n_total - n0 - n1 >= 2:
                    for k in range(2):
                        for l in range(2):
                            assert abs(float(joint[k][l]) - probs[k] * probs[l]) < 1e-10
                instances += 1
    elapsed = time.time() - start
    assert elapsed < 30
    report(2, f"{instances} instances enumerated exactly, {elapsed:.1f}s")


def test_criterion_3_link_imputation_equivalence():
    """Binomial pair counts vs a per-edge Bernoulli reference, two-sample
    chi-square per stratum pair."""
    start = time.time()
    params = SbmParams([0.5, 0.5], [0.4, 0.25, 0.6])
    stats = stats_of(make_data([0, 1], [0, 1], [(0, 2), (1, 3)]), params)
    strata_all = np.array([3, 3])
    outside = [0, 1, 0, 1]  # wave plus unsampled strata
    n_draws = 50_000

    rng = np.random.default_rng(11)
    fast = symmetric_from_upper(impute_link_counts(
        stacked(stats, rows=n_draws), np.full(n_draws, 6), np.tile(strata_all, (n_draws, 1)),
        np.broadcast_to(params.beta, (n_draws, 3)), [rng] * n_draws,
    ), 2)
    ref_rng = np.random.default_rng(12)
    beta = symmetric_from_upper(params.beta, 2)
    pairs = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    pair_probs = np.array([beta[outside[a], outside[b]] for a, b in pairs])
    bern = ref_rng.random((n_draws, len(pairs))) < pair_probs
    ref = np.zeros((n_draws, 2, 2), dtype=int)
    for idx, (a, b) in enumerate(pairs):
        k, l = sorted((outside[a], outside[b]))
        ref[:, k, l] += bern[:, idx]

    totals = {(0, 0): 1, (0, 1): 4, (1, 1): 1}
    pvals = []
    for (k, l), t in totals.items():
        obs_f = np.bincount(fast[:, k, l], minlength=t + 1)
        obs_r = np.bincount(ref[:, k, l], minlength=t + 1)
        keep = (obs_f + obs_r) > 0
        result = chi2_contingency(np.vstack([obs_f[keep], obs_r[keep]]))
        assert result.pvalue > 0.01, f"stratum pair ({k},{l}): p={result.pvalue:.4f}"
        pvals.append(result.pvalue)
    elapsed = time.time() - start
    assert elapsed < 30
    report(3, f"chi-square p-values {['%.3f' % p for p in pvals]}, {elapsed:.1f}s")


def rising(x, k):
    return prod(x + i for i in range(k))


def test_collapsed_beta_conditional_matches_link_mixture():
    """The sweep's beta conditional, with the links among pairs that miss the
    initial sample integrated out, against the two-step draw it replaces:
    X unobserved links ~ beta-binomial given the observed pairs, then
    Beta(M + X + g1, T_all - M - X + g2). First two moments, exactly."""
    strata_s0, strata_s1, unsampled = [0, 1, 1], [0, 1], [0, 0, 1]
    links = [(0, 1), (0, 3), (2, 4), (1, 4)]
    units = strata_s0 + strata_s1 + unsampled
    stats = SampleStats.from_data(make_data(strata_s0, strata_s1, links), 2)
    cfg = McmcConfig(prior_gamma=(0.5, 2.0))
    a, b = (symmetric_from_upper(x, 2) for x in
            beta_posterior_params(posterior_counts(stacked(stats), [np.bincount(unsampled, minlength=2)]), cfg))

    # by hand, one pair of units at a time: unit i < n0 is in the initial sample
    n0, g1, g2 = len(strata_s0), Fraction(0.5), Fraction(2)
    observed, t_all, t_unobs = {}, {}, {}
    for i in range(len(units)):
        for j in range(i + 1, len(units)):
            kl = tuple(sorted((units[i], units[j])))
            t_all[kl] = t_all.get(kl, 0) + 1
            t_unobs[kl] = t_unobs.get(kl, 0) + (i >= n0)
            observed[kl] = observed.get(kl, 0) + ((i, j) in links)

    # the two-step reference imputes links on exactly the pairs counted above
    saturated = symmetric_from_upper(impute_link_counts(stacked(stats), [len(units)], [np.bincount(units)],
                                                        np.ones((1, 3)), [np.random.default_rng(0)])[0], 2)
    for (k, l), t in t_unobs.items():
        assert saturated[k, l] == t
        m, t_obs = observed[k, l], t_all[k, l] - t
        mean = second = Fraction(0)
        for x in range(t + 1):
            weight = (comb(t, x) * rising(m + g1, x) * rising(t_obs - m + g2, t - x)
                      / rising(t_obs + g1 + g2, t))
            aa, bb = m + x + g1, t_all[k, l] - m - x + g2
            mean += weight * aa / (aa + bb)
            second += weight * aa * (aa + 1) / ((aa + bb) * (aa + bb + 1))
        fa, fb = Fraction(a[0, k, l]), Fraction(b[0, k, l])
        assert fa / (fa + fb) == mean, f"pair ({k},{l}) mean"
        assert fa * (fa + 1) / ((fa + fb) * (fa + fb + 1)) == second, f"pair ({k},{l}) second moment"
    print(f"collapsed beta conditional: exact moments on {len(t_unobs)} pairs, T_unobs {t_unobs}")


def test_criterion_4_conjugate_posterior_correctness():
    """Hand-counted posterior parameters and Dirichlet/Beta moments."""
    start = time.time()
    from snowball_sbm import PopulationGraph

    adj = np.zeros((6, 6), dtype=bool)
    for u, v in [(0, 1), (1, 2), (2, 3)]:
        adj[u, v] = adj[v, u] = True
    graph = PopulationGraph(strata=np.array([0, 0, 0, 1, 1, 1]), edges=np.argwhere(np.triu(adj)))
    counts = sufficient_counts(graph)
    cfg = McmcConfig()

    assert lambda_posterior_params(counts.strata_counts, cfg).tolist() == [4.0, 4.0]
    a, b = (symmetric_from_upper(x, 2) for x in beta_posterior_params(counts, cfg))
    assert (a[0, 0], b[0, 0]) == (3.0, 2.0)
    assert (a[0, 1], b[0, 1]) == (2.0, 9.0)
    assert (a[1, 1], b[1, 1]) == (1.0, 4.0)

    n_draws = 50_000
    rng = np.random.default_rng(40)
    lam_draws = draw_lambda(np.tile(counts.strata_counts, (n_draws, 1)), cfg, [rng] * n_draws)
    beta_draws = symmetric_from_upper(draw_beta(repeat_rows(counts, n_draws), cfg, [rng] * n_draws), 2)

    lam_mean, lam_var = 0.5, (4 * 4) / (8**2 * 9)
    assert abs(lam_draws[:, 0].mean() - lam_mean) < 3 * np.sqrt(lam_var / n_draws)
    checks = []
    for (k, l), (aa, bb) in {(0, 0): (3, 2), (0, 1): (2, 9), (1, 1): (1, 4)}.items():
        mean = aa / (aa + bb)
        var = aa * bb / ((aa + bb) ** 2 * (aa + bb + 1))
        err = abs(beta_draws[:, k, l].mean() - mean)
        assert err < 3 * np.sqrt(var / n_draws), f"beta ({k},{l}) moment off by {err:.5f}"
        checks.append(err)
    elapsed = time.time() - start
    assert elapsed < 30
    report(4, f"params exact, max moment err {max(checks):.2e}, {elapsed:.1f}s")


def test_criterion_5_likelihood_properties():
    """Strict monotone decrease of the labeled likelihood in N, and the
    combinatorial identity between the two likelihoods."""
    start = time.time()
    rng = np.random.default_rng(50)
    for instance in range(50):
        g = int(rng.integers(1, 4))
        lam = rng.dirichlet(np.ones(g))
        params = SbmParams(lam, rng.uniform(0.02, 0.5, g * (g + 1) // 2))
        n0 = int(rng.integers(1, 12))
        n1 = int(rng.integers(0, 10))
        strata_s0 = rng.integers(0, g, n0).tolist()
        strata_s1 = rng.integers(0, g, n1).tolist()
        pairs = [(i, j) for i in range(n0) for j in range(i + 1, n0) if rng.random() < 0.3]
        pairs += [(int(rng.integers(0, n0)), n0 + j) for j in range(n1)]
        data = make_data(strata_s0, strata_s1, pairs)
        stats = stats_of(data, params)
        n_grid = np.arange(data.n_sampled, data.n_sampled + 501)
        observed = np.array([observed_log_likelihood(stats, int(n), params) for n in n_grid])
        assert np.all(np.diff(observed) < 0), f"instance {instance} not strictly decreasing"
        for n in (data.n_sampled, data.n_sampled + 17, data.n_sampled + 500):
            gap = ignored_log_likelihood(stats, int(n), params) - observed_log_likelihood(
                stats, int(n), params
            )
            expected = float(log_binom(n - n0, n1) + log_binom(n, n0))
            assert abs(gap - expected) < 1e-9
    elapsed = time.time() - start
    assert elapsed < 10
    report(5, f"50 instances, grid of 501 sizes each, {elapsed:.1f}s")


def test_criterion_6_desk_scale_study_well_specified():
    """Survey-scale well-specified study: stratum share recovered within
    0.04, link probabilities within a factor of 2, median size in band."""
    start = time.time()
    cfg = StudyConfig(
        replicates=200,
        design=DesignConfig(mode="fixed_size", n0=89),
        mcmc=McmcConfig(chain_length=1000, burn_in_fraction=0.1),
        master_seed=20240601,
        params=survey_scale_params(),
        population_size=SURVEY_SCALE_N,
    )
    summary = run_study(cfg)
    assert not summary.failures
    mean_lam1 = summary.stats["lambda_1"]["mean"]
    assert abs(mean_lam1 - 0.425) < 0.04, f"mean lambda_1 {mean_lam1:.4f}"
    beta_names = ["beta_1_1", "beta_1_2", "beta_2_2"]
    targets = summary.targets.beta
    ratios = []
    for name, target in zip(beta_names, targets):
        mean_beta = summary.stats[name]["mean"]
        ratio = mean_beta / target
        assert 0.5 < ratio < 2.0, f"{name} mean {mean_beta:.5f} vs target {target:.5f}"
        ratios.append(ratio)
    median_n = summary.stats["N"]["median"]
    assert 450 <= median_n <= 800, f"median N {median_n:.1f}"
    # 15% initial samples grow to roughly 36% of the population after one wave
    assert 0.28 <= summary.mean_final_fraction <= 0.44, summary.mean_final_fraction
    elapsed = time.time() - start
    assert elapsed < 600
    report(
        6,
        f"mean lambda_1 {mean_lam1:.4f}, beta ratios {['%.2f' % r for r in ratios]}, "
        f"median N {median_n:.0f}, final fraction {summary.mean_final_fraction:.2f}, {elapsed:.0f}s",
    )


def test_criterion_7_bias_direction_on_clustered_population():
    """Clustered surrogate: the size estimate overshoots the truth."""
    start = time.time()
    cfg = StudyConfig(
        replicates=100,
        design=DesignConfig(mode="fixed_size", n0=89),
        mcmc=McmcConfig(chain_length=1000, burn_in_fraction=0.1),
        master_seed=20240602,
        params=survey_scale_params(),
        population_size=SURVEY_SCALE_N,
        clustering=ClusterOverlay(),
    )
    summary = run_study(cfg)
    assert not summary.failures
    n_hat = summary.estimates_for("N")
    over = int((n_hat > summary.true_n).sum())
    sign_p = binomtest(over, n_hat.size, 0.5, alternative="greater").pvalue
    assert n_hat.mean() > summary.true_n, f"mean {n_hat.mean():.1f} <= {summary.true_n}"
    assert sign_p < 0.05, f"sign test p={sign_p:.4f} ({over}/{n_hat.size} above truth)"
    elapsed = time.time() - start
    assert elapsed < 600
    report(
        7,
        f"mean N {n_hat.mean():.0f} > true {summary.true_n}, {over}/{n_hat.size} above, "
        f"sign p {sign_p:.2e}, {elapsed:.0f}s",
    )


def test_criterion_8_wave_size_law():
    """Wave size against Binomial(N - n0, p') by chi-square goodness of fit,
    conditioning on the modal initial stratum composition."""
    start = time.time()
    params = SbmParams([0.5, 0.5], [0.08, 0.04, 0.06])
    n, n0 = 40, 6
    by_comp = {}
    for seed in range(10_000):
        graph = generate_population(params, n, seed=seed)
        s0 = draw_initial(graph, DesignConfig(mode="fixed_size", n0=n0, seed=seed + 50_000))
        sample = trace_one_wave(graph, s0)
        comp = tuple(int(c) for c in np.bincount(sample.strata_s0, minlength=2))
        by_comp.setdefault(comp, []).append(sample.n1)
    comp, waves = max(by_comp.items(), key=lambda kv: len(kv[1]))
    waves = np.array(waves)
    p_prime = wave_inclusion_probability(np.array(comp), params)
    trials = n - n0

    support = np.arange(trials + 1)
    expected_pmf = np.array([comb(trials, k) * p_prime**k * (1 - p_prime) ** (trials - k)
                             for k in support])
    observed = np.bincount(waves, minlength=trials + 1).astype(float)
    expected = expected_pmf * waves.size
    # pool bins until every expected count is at least 5
    obs_b, exp_b, acc_o, acc_e = [], [], 0.0, 0.0
    for o, e in zip(observed, expected):
        acc_o, acc_e = acc_o + o, acc_e + e
        if acc_e >= 5:
            obs_b.append(acc_o)
            exp_b.append(acc_e)
            acc_o = acc_e = 0.0
    obs_b[-1] += acc_o
    exp_b[-1] += acc_e
    result = chisquare(obs_b, exp_b)
    assert result.pvalue > 0.01, f"GOF p={result.pvalue:.4f} on composition {comp}"
    elapsed = time.time() - start
    assert elapsed < 60
    report(
        8,
        f"composition {comp} with {waves.size} sims, p' {p_prime:.3f}, "
        f"GOF p {result.pvalue:.3f}, {elapsed:.0f}s",
    )


def test_criterion_9_cli_determinism(tmp_path):
    """estimate and simulate produce byte-identical outputs on re-run."""
    start = time.time()
    from snowball_sbm import io
    from snowball_sbm.cli import main

    params = SbmParams([0.5, 0.5], [0.2, 0.08, 0.15])
    params_path = str(tmp_path / "params.json")
    io.save_params(params, params_path)
    pop_dir = str(tmp_path / "pop")
    assert main(["generate", "--params", params_path, "--n", "60", "--seed", "1",
                 "--out", pop_dir]) == 0
    sample_path = str(tmp_path / "sample.json")
    assert main(["sample", "--edges", f"{pop_dir}/edges.tsv", "--strata", f"{pop_dir}/strata.csv",
                 "--design", "bernoulli:0.2", "--seed", "2", "--out", sample_path]) == 0

    for tag in ("x", "y"):
        assert main(["estimate", "--sample", sample_path, "--chain-length", "120",
                     "--seed", "3", "--out", str(tmp_path / f"est_{tag}")]) == 0
    for name in ("trace.csv", "summary.json"):
        a = (tmp_path / "est_x" / name).read_bytes()
        b = (tmp_path / "est_y" / name).read_bytes()
        assert a == b, f"estimate output {name} differs between runs"

    study_cfg = {
        "population": {"params": {"lambda": [0.5, 0.5], "beta": [0.2, 0.08, 0.15]}, "n": 60},
        "replicates": 4,
        "design": {"mode": "fixed_size", "n0": 10},
        "mcmc": {"chain_length": 80},
        "master_seed": 9,
        "threads": 2,
    }
    cfg_path = tmp_path / "study.json"
    cfg_path.write_text(json.dumps(study_cfg))
    for tag in ("x", "y"):
        assert main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / f"study_{tag}")]) == 0
    names = sorted(p.name for p in (tmp_path / "study_x").iterdir())
    assert "estimates.csv" in names and "summary.json" in names
    for name in names:
        a = (tmp_path / "study_x" / name).read_bytes()
        b = (tmp_path / "study_y" / name).read_bytes()
        assert a == b, f"simulate output {name} differs between runs"
    elapsed = time.time() - start
    report(9, f"estimate and simulate byte-identical, {elapsed:.1f}s")

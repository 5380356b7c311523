"""The package runs on numpy alone. Its log-space arithmetic and the branch
test of the population-size draw are checked here against the scipy.special
formulas they stand in for, and the command-line module is checked to import
without scipy."""

import subprocess
import sys

import numpy as np
import pytest
from scipy.special import betainc, gammaln, xlog1py, xlogy

from snowball_sbm import SampleStats, SbmParams
from snowball_sbm.augmentation import _takes_negative_binomial, population_size_log_weights
from snowball_sbm.likelihoods import stratum_escape_log_weights
from snowball_sbm.logmath import log_binom
from snowball_sbm.sbm import counts_log_likelihood, pair_totals_from_counts, symmetric_from_upper

from references import wave_inclusion_probability

# lambda with an empty stratum; beta with impossible and certain pairs
EDGE_PARAMS = SbmParams([0.0, 0.4, 0.6], [0.0, 0.0, 1.0, 1.0, 0.05, 0.0])


def random_params(rng, g):
    return SbmParams(rng.dirichlet(np.ones(g)), rng.uniform(0, 1, g * (g + 1) // 2))


def random_counts(rng, params):
    """Counts the params give positive probability: no units in an empty
    stratum, no links where beta is 0 and every pair linked where it is 1."""
    g = params.n_strata
    strata_counts = np.where(params.lam > 0, rng.integers(0, 30, g), 0)
    totals = pair_totals_from_counts(strata_counts)
    links = np.zeros(totals.size, dtype=np.int64)
    for pair, (b, total) in enumerate(zip(params.beta, totals)):
        links[pair] = total if b == 1 else 0 if b == 0 else rng.integers(0, total + 1)
    return SampleStats(n0=int(strata_counts.sum()), n1=0, counts_s0=strata_counts, counts_s1=np.zeros(g),
                       link_counts=links, pair_totals=totals)


def scipy_counts_log_likelihood(counts, params):
    m, t, b = counts.link_counts, counts.pair_totals, params.beta
    return xlogy(counts.counts_sampled, params.lam).sum() + xlogy(m, b).sum() + xlog1py(t - m, -b).sum()


def test_counts_log_likelihood_matches_scipy():
    rng = np.random.default_rng(3)
    cases = [(EDGE_PARAMS, random_counts(rng, EDGE_PARAMS)) for _ in range(20)]
    for _ in range(200):
        params = random_params(rng, int(rng.integers(1, 5)))
        cases.append((params, random_counts(rng, params)))
    for params, counts in cases:
        got = counts_log_likelihood(counts, params)
        assert np.isfinite(got)
        np.testing.assert_allclose(got, scipy_counts_log_likelihood(counts, params), rtol=1e-12)


def test_zero_counts_times_log_zero_are_zero():
    """All-zero counts at lambda 0 and beta 0 or 1 give 0, never NaN."""
    g = EDGE_PARAMS.n_strata
    zero = SampleStats(n0=0, n1=0, counts_s0=np.zeros(g), counts_s1=np.zeros(g),
                       link_counts=np.zeros(g * (g + 1) // 2), pair_totals=np.zeros(g * (g + 1) // 2))
    assert counts_log_likelihood(zero, EDGE_PARAMS) == 0.0
    with np.errstate(divide="ignore"):
        log_lam = np.log(EDGE_PARAMS.lam)
    np.testing.assert_array_equal(stratum_escape_log_weights(np.zeros(g), EDGE_PARAMS.lam, EDGE_PARAMS.beta), log_lam)


def test_stratum_escape_log_weights_match_scipy():
    """Batched over a leading replicate axis, as the sweep calls it, with zero
    counts in strata whose beta row holds a 1."""
    rng = np.random.default_rng(4)
    for g in (1, 2, 3, 5):
        params = [EDGE_PARAMS] * 4 if g == 3 else [random_params(rng, g) for _ in range(4)]
        params += [random_params(rng, g) for _ in range(20)]
        lam = np.array([p.lam for p in params])
        beta_upper = np.array([p.beta for p in params])
        beta = symmetric_from_upper(beta_upper, g)
        counts = rng.integers(0, 40, (len(params), g)) * (rng.random((len(params), g)) < 0.7)
        counts[beta.max(axis=2) == 1] = 0
        # stacked along a leading replicate axis, as the sweep passes its state
        got = stratum_escape_log_weights(counts, lam, beta_upper)
        with np.errstate(divide="ignore"):
            expected = np.log(lam) + xlog1py(counts[:, :, None].astype(float), -beta).sum(axis=1)
        assert not np.isnan(got).any()
        np.testing.assert_allclose(got, expected, rtol=1e-12)
        for r, p in enumerate(params):
            log_avoid = xlog1py(counts[r][None, :].astype(float), -beta[r]).sum(axis=1)
            np.testing.assert_allclose(wave_inclusion_probability(counts[r], p),
                                       np.sum(p.lam * -np.expm1(log_avoid)), rtol=1e-12, atol=1e-300)


def test_log_binom_matches_gammaln():
    """Both sides difference log-gamma terms as large as log Gamma(n + 1), so
    they agree to 1e-12 of that scale; where the terms cancel little, that is
    1e-12 of the value itself."""
    rng = np.random.default_rng(5)
    for n in np.unique(np.round(np.logspace(0, 7, 300)).astype(np.int64)).tolist():
        for k in {0, 1, n // 3, n // 2, n - 1, n, int(rng.integers(0, n + 1))}:
            expected = gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)
            got = log_binom(n, k)
            assert isinstance(got, float)
            assert abs(got - expected) <= 1e-12 * max(1.0, gammaln(n + 1.0))
            if min(k, n - k) >= n // 3 > 0:
                assert got == pytest.approx(expected, rel=1e-12)
    assert log_binom(10**7, 0) == 0.0 and log_binom(10**7, 10**7) == 0.0


@pytest.mark.parametrize("log_omp", [0.0, -0.004])
@pytest.mark.parametrize("n1", [0, 1, 7, 126, 1400, 5000])
@pytest.mark.parametrize("k_max", [0, 1, 50, 20_000, 1_000_000])
def test_population_size_grid_weights_match_gammaln(n1, k_max, log_omp):
    """log C(N - n0, n1) to 1e-9 relative; the weight adds (N - n0 - n1) log(1 - p),
    whose sum with it may cancel, so there the bound is relative to both terms."""
    n0 = 89
    support, got = population_size_log_weights(n0, n1, log_omp, n0 + n1 + k_max)
    excess = np.arange(k_max + 1, dtype=np.float64)
    head = gammaln(n1 + excess + 1.0) - gammaln(n1 + 1.0) - gammaln(excess + 1.0)
    np.testing.assert_array_equal(support, np.arange(n0 + n1, n0 + n1 + k_max + 1))
    assert got[0] == 0.0
    tail = excess * log_omp
    assert (np.abs(got - (head + tail)) <= 1e-9 * (np.abs(head) + np.abs(tail))).all()


def test_mean_rule_sends_no_heavy_tail_to_rejection():
    """Rejection is chosen only where the truncated excess keeps at least half
    its mass, so a redraw takes at most two tries on average."""
    n1 = np.array([0, 1, 2, 5, 20, 126, 1000, 5000], dtype=np.float64)
    p = np.concatenate([np.logspace(-6, -1e-9, 60), [0.5, 0.9, 0.999999]])
    k_max = np.array([0, 1, 3, 10, 100, 10**3, 10**4, 10**5, 10**6, 10**7, 10**8, 10**9], dtype=np.float64)
    n1, p, k_max = (a.ravel() for a in np.meshgrid(n1, p, k_max, indexing="ij"))
    rejection = _takes_negative_binomial(n1, k_max, p)
    kept_mass = betainc(n1 + 1, k_max + 1, p)  # P(excess <= K) under NB(n1 + 1, p)
    assert rejection.any() and not rejection.all()
    assert kept_mass[rejection].min() >= 0.5
    assert not _takes_negative_binomial(np.array([5]), np.array([10]), np.array([0.0]))[0]


def test_cli_imports_without_scipy():
    code = "import sys, snowball_sbm.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"

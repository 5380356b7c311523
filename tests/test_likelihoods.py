"""Escape probabilities and the two sample likelihoods, checked against
naive product-form evaluation on small instances."""

from itertools import product
from math import comb

import numpy as np
import pytest

from snowball_sbm import (
    IgnoredData,
    McmcConfig,
    SampleStats,
    SbmParams,
    ValidationError,
    escape_probability,
    ignored_log_likelihood,
    observed_log_likelihood,
)
from snowball_sbm.sbm import symmetric_from_upper

from dense_links import dense_links
from references import lambda_beta_log_marginal, wave_inclusion_probability


def make_data(strata_s0, strata_s1, link_pairs):
    """Canonical-index data; link_pairs use 0-based (i, j) with i < j."""
    return IgnoredData(
        strata_s0=np.array(strata_s0, dtype=int),
        strata_s1=np.array(strata_s1, dtype=int),
        links=np.array(link_pairs, dtype=int).reshape(-1, 2),
    )


def stats_of(data, params):
    """The sample statistics that the program's draws and likelihoods read."""
    return SampleStats.from_data(data, params.n_strata)


def observed_direct(data, n, lam, beta):
    """Naive factor-by-factor evaluation of the labeled-sample likelihood."""
    n0, n1 = data.n0, data.n1
    links = dense_links(data)
    val = 1.0 / comb(n, n0)
    for i in range(n0):
        val *= lam[data.strata_s0[i]]
    for i in range(n0):
        for j in range(i + 1, n0):
            b = beta[data.strata_s0[i], data.strata_s0[j]]
            val *= b if links[i, j] else 1.0 - b
    for j in range(n1):
        val *= lam[data.strata_s1[j]]
        for i in range(n0):
            b = beta[data.strata_s0[i], data.strata_s1[j]]
            val *= b if links[i, n0 + j] else 1.0 - b
    one_minus_p = sum(
        lam[k] * np.prod([1.0 - beta[data.strata_s0[i], k] for i in range(n0)])
        for k in range(len(lam))
    )
    return val * one_minus_p ** (n - n0 - n1)


def ignored_direct(data, n, lam, beta):
    head = comb(n - data.n0, data.n1)
    return head * observed_direct(data, n, lam, beta) * comb(n, data.n0)


@pytest.fixture
def params_g2():
    return SbmParams([0.4, 0.6], [0.1, 0.2, 0.3])


class TestEscapeProbability:
    def test_zero_beta_gives_one(self):
        params = SbmParams([0.3, 0.7], [0.0, 0.0, 0.0])
        assert escape_probability([0, 1, 1], params).one_minus_p == pytest.approx(1.0)

    def test_single_block_half(self):
        params = SbmParams([1.0], [0.5])
        assert escape_probability([0, 0, 0], params).one_minus_p == pytest.approx(0.125)

    def test_two_block_hand_value(self, params_g2):
        # 0.4*(0.9*0.8) + 0.6*(0.8*0.7) = 0.624
        esc = escape_probability([0, 1], params_g2)
        assert esc.one_minus_p == pytest.approx(0.624, abs=1e-12)
        assert esc.log_one_minus_p == pytest.approx(np.log(0.624), abs=1e-12)

    def test_bounds_on_randomized_params(self):
        rng = np.random.default_rng(123)
        for _ in range(200):
            g = rng.integers(1, 4)
            lam = rng.dirichlet(np.ones(g))
            beta_upper = rng.random(g * (g + 1) // 2)
            params = SbmParams(lam, beta_upper)
            strata = rng.integers(0, g, size=rng.integers(0, 6))
            esc = escape_probability(strata, params)
            assert 0.0 <= esc.one_minus_p <= 1.0

    def test_tiny_beta_accuracy(self):
        # realistic survey-scale magnitudes: direct products stay accurate here,
        # so they can cross-check the log-space path
        params = SbmParams([0.425, 0.575], [0.0046, 0.0014, 0.0058])
        strata = np.array([0] * 38 + [1] * 51)
        esc = escape_probability(strata, params)
        direct = 0.425 * (1 - 0.0046) ** 38 * (1 - 0.0014) ** 51 + 0.575 * (1 - 0.0014) ** 38 * (
            1 - 0.0058
        ) ** 51
        assert esc.one_minus_p == pytest.approx(direct, rel=1e-12)


class TestWaveInclusionProbability:
    def test_zero_beta(self):
        params = SbmParams([0.3, 0.7], [0.0, 0.0, 0.0])
        assert wave_inclusion_probability([2, 3], params) == 0.0

    def test_single_block(self):
        params = SbmParams([1.0], [0.5])
        assert wave_inclusion_probability([2], params) == pytest.approx(0.75)

    def test_two_block_hand_value(self, params_g2):
        # 0.4*(1-0.9*0.8) + 0.6*(1-0.8*0.7) = 0.376
        val = wave_inclusion_probability([1, 1], params_g2)
        assert val == pytest.approx(0.376, abs=1e-12)

    def test_coincides_with_escape_for_singleton_strata(self, params_g2):
        # p' = 1 - (1 - p) for any initial-sample composition: one member per
        # stratum, then seeded random compositions with some beta 0 and 1
        cases = [([1, 1], params_g2)]
        rng = np.random.default_rng(31)
        for _ in range(200):
            g = int(rng.integers(1, 5))
            beta = rng.choice([0.0, 1.0, *rng.uniform(0, 1, 4)], g * (g + 1) // 2)
            cases.append((rng.integers(0, 6, g), SbmParams(rng.dirichlet(np.ones(g)), beta)))
        for counts, params in cases:
            val = wave_inclusion_probability(counts, params)
            esc = escape_probability(np.repeat(np.arange(params.n_strata), counts), params)
            assert val == pytest.approx(1.0 - esc.one_minus_p, abs=1e-12)


class TestObservedLogLikelihood:
    def test_empty_sample_is_zero(self, params_g2):
        data = make_data([], [], [])
        stats = stats_of(data, params_g2)
        assert observed_log_likelihood(stats, 50, params_g2) == pytest.approx(0.0, abs=1e-9)

    def test_support_violation(self, params_g2):
        data = make_data([0], [1], [(0, 1)])
        stats = stats_of(data, params_g2)
        with pytest.raises(ValidationError, match="support"):
            observed_log_likelihood(stats, 1, params_g2)

    def test_worked_instance_matches_direct_product(self, params_g2):
        data = make_data([0, 1], [0, 1, 1], [(0, 1), (0, 2), (1, 3), (0, 4), (1, 4)])
        stats = stats_of(data, params_g2)
        for n in (5, 8, 20):
            direct = np.log(observed_direct(data, n, params_g2.lam, symmetric_from_upper(params_g2.beta, 2)))
            assert observed_log_likelihood(stats, n, params_g2) == pytest.approx(direct, abs=1e-10)

    def test_monotonically_decreasing_in_n(self, params_g2):
        data = make_data([0, 1], [1], [(0, 2), (1, 2)])
        stats = stats_of(data, params_g2)
        values = [observed_log_likelihood(stats, n, params_g2) for n in range(3, 60)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestIgnoredLogLikelihood:
    def test_worked_instance_matches_direct_product(self, params_g2):
        data = make_data([0, 1], [0, 1, 1], [(0, 1), (0, 2), (1, 3), (0, 4), (1, 4)])
        stats = stats_of(data, params_g2)
        for n in (5, 9, 30):
            direct = np.log(ignored_direct(data, n, params_g2.lam, symmetric_from_upper(params_g2.beta, 2)))
            assert ignored_log_likelihood(stats, n, params_g2) == pytest.approx(direct, abs=1e-10)

    def test_identity_with_observed(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            g = int(rng.integers(1, 4))
            lam = rng.dirichlet(np.ones(g))
            params = SbmParams(lam, rng.uniform(0.05, 0.6, g * (g + 1) // 2))
            n0 = int(rng.integers(1, 5))
            n1 = int(rng.integers(0, 4))
            strata_s0 = rng.integers(0, g, n0).tolist()
            strata_s1 = rng.integers(0, g, n1).tolist()
            pairs = [(i, j) for i in range(n0) for j in range(i + 1, n0) if rng.random() < 0.4]
            pairs += [(int(rng.integers(0, n0)), n0 + j) for j in range(n1)]
            data = make_data(strata_s0, strata_s1, pairs)
            stats = stats_of(data, params)
            n = n0 + n1 + int(rng.integers(0, 40))
            gap = ignored_log_likelihood(stats, n, params) - observed_log_likelihood(stats, n, params)
            from snowball_sbm.logmath import log_binom

            expected = float(log_binom(n - n0, n1) + log_binom(n, n0))
            assert gap == pytest.approx(expected, abs=1e-9)

    def test_flat_in_n_when_no_links_possible(self):
        # with beta = 0 and an empty wave the value cannot depend on N
        params = SbmParams([0.5, 0.5], [0.0, 0.0, 0.0])
        data = make_data([0, 1], [], [])
        stats = stats_of(data, params)
        values = {ignored_log_likelihood(stats, n, params) for n in range(2, 40)}
        assert max(values) - min(values) < 1e-12

    def test_interior_maximum_in_n(self, params_g2):
        data = make_data([0, 0, 1, 1, 0], [1, 0, 1, 1, 0], [(i, 5 + j) for i, j in
                                                            [(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)]])
        stats = stats_of(data, params_g2)
        grid = np.arange(10, 80)
        values = np.array([ignored_log_likelihood(stats, int(n), params_g2) for n in grid])
        peak = int(values.argmax())
        assert 0 < peak < grid.size - 1
        diffs = np.sign(np.diff(values))
        # unimodal: increasing then decreasing
        assert np.all(diffs[:peak] >= 0) and np.all(diffs[peak:] <= 0)

    def test_label_free_within_blocks(self, params_g2):
        # permuting canonical labels inside each block leaves both likelihoods unchanged
        rng = np.random.default_rng(5)
        data = make_data([0, 1, 1], [0, 1], [(0, 1), (1, 2), (0, 3), (2, 4)])
        stats = stats_of(data, params_g2)
        for _ in range(10):
            p0 = rng.permutation(data.n0)
            p1 = rng.permutation(data.n1)
            cols = np.concatenate([p0, data.n0 + p1])
            permuted = IgnoredData(
                strata_s0=data.strata_s0[p0],
                strata_s1=data.strata_s1[p1],
                links=np.argsort(cols)[data.links],
            )
            permuted_stats = stats_of(permuted, params_g2)
            for n in (5, 12):
                assert ignored_log_likelihood(permuted_stats, n, params_g2) == pytest.approx(
                    ignored_log_likelihood(stats, n, params_g2), abs=1e-12
                )
                assert observed_log_likelihood(permuted_stats, n, params_g2) == pytest.approx(
                    observed_log_likelihood(stats, n, params_g2), abs=1e-12
                )


class TestLambdaBetaMarginal:
    """The reference (lambda, beta) marginal against the label-free likelihood
    summed over N one value at a time, plus the log priors."""

    INSTANCES = [  # (strata_s0, strata_s1, links, lambda, beta upper triangle)
        ([0], [0], [(0, 1)], [1.0], [0.3]),
        ([0, 0], [], [(0, 1)], [1.0], [0.6]),
        ([0, 1], [1], [(0, 2)], [0.4, 0.6], [0.2, 0.35, 0.5]),
        ([0, 1, 1], [0, 1], [(0, 1), (0, 3), (2, 4)], [0.7, 0.3], [0.45, 0.25, 0.3]),
        ([1, 1, 1], [0], [(2, 3)], [0.5, 0.5], [0.9, 0.2, 0.4]),
    ]
    PRIORS = [McmcConfig(), McmcConfig(prior_alpha=0.5, prior_gamma=(2.0, 0.7))]

    @staticmethod
    def brute_force(stats, params, cfg, cap):
        from scipy.special import logsumexp
        from scipy.stats import beta, dirichlet

        log_lik = [ignored_log_likelihood(stats, n, params) for n in range(stats.n_sampled, cap + 1)]
        alpha = np.broadcast_to(cfg.prior_alpha, params.lam.shape)
        log_prior = dirichlet.logpdf(params.lam, alpha) + beta.logpdf(params.beta, *cfg.prior_gamma).sum()
        return logsumexp(log_lik) + log_prior

    def test_matches_brute_force_sum_over_n(self):
        from scipy.stats import nbinom

        below_half = 0
        for (s0, s1, links, lam, beta), cfg in product(self.INSTANCES, self.PRIORS):
            params = SbmParams(lam, beta)
            stats = stats_of(make_data(s0, s1, links), params)
            p = 1 - escape_probability(s0, params).one_minus_p
            assert p >= 0.2
            # with p >= 0.2 and n1 <= 2, the mass of N beyond 400 extra units is below 1e-30
            for cap in (stats.n_sampled, stats.n_sampled + 3, stats.n_sampled + 40, None):
                want = self.brute_force(stats, params, cfg, cap or stats.n_sampled + 400)
                got = lambda_beta_log_marginal(stats, params, cfg, cap)
                assert got == pytest.approx(want, abs=1e-10), (s0, s1, links, lam, beta, cap)
                if cap is not None:
                    below_half += nbinom.cdf(cap - stats.n_sampled, stats.n1 + 1, p) < 0.5
        assert below_half > 0  # a cap that cuts off most of N's mass

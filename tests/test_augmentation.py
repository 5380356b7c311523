"""Gibbs sampler pieces against enumeration, reference implementations, and
closed-form conjugate posteriors."""

from fractions import Fraction
from itertools import product
from math import comb, expm1

import numpy as np
import pytest

import snowball_sbm.augmentation as augmentation
from snowball_sbm import (
    DesignConfig,
    McmcConfig,
    SbmParams,
    ValidationError,
    draw_beta,
    draw_initial,
    draw_lambda,
    draw_population_size,
    generate_population,
    gibbs_sweep,
    impute_strata,
    run_chain,
    sufficient_counts,
    trace_one_wave,
)
from snowball_sbm.augmentation import (
    chain_stats,
    conjugate_params,
    initial_state,
    population_size_log_weights,
    run_chains,
)
from snowball_sbm.likelihoods import escape_terms, stratum_escape_log_weights
from snowball_sbm.sampling import IgnoredData
from snowball_sbm.sbm import SampleStats, estimand_names, symmetric_from_upper

from dense_links import dense_links
from references import impute_link_counts
from test_likelihoods import make_data, stats_of


def stacked(stats, rows=1):
    """``rows`` copies of one sample's statistics, as a sweep reads them."""
    return SampleStats.stack([stats] * rows)


def cap_of(stats, cfg):
    """One chain's cap on N, as :func:`run_chains` passes it to a sweep."""
    return np.array([cfg.effective_cap(stats.n_sampled)])


def draw_args(stats, params, cfg):
    """One chain's ``(n0, n1, log(1 - p), K)`` as :func:`gibbs_sweep` passes
    them to :func:`draw_population_size`."""
    log_omp = escape_of(stacked(stats), params)[1][0]
    return stats.n0, stats.n1, log_omp.item(), int(cap_of(stats, cfg)[0]) - stats.n_sampled


def escape_of(stats, params):
    """``(1 - p, log(1 - p), unsampled stratum probabilities)``, computed as
    :func:`gibbs_sweep` computes them; leading axes are those of ``stats``."""
    return escape_terms(stratum_escape_log_weights(stats.counts_s0, params))


def draw_n(stats, params, cfg, rng, size):
    """``size`` draws of N for one sample, through the sweep's draw of N."""
    return draw_population_size(rng, *draw_args(stats, params, cfg), size)


def full_observation_params(graph, cfg):
    """One row of :func:`conjugate_params` on the sample that observes all of
    ``graph``: every unit in the initial sample, none left unsampled."""
    stats = stacked(SampleStats.from_data(trace_one_wave(graph, np.arange(graph.n_nodes)), graph.n_strata))
    return [x[0] for x in conjugate_params(stats, np.zeros_like(stats.counts_s0), cfg)]


def enumerate_population_size_pmf(n0, n1, one_minus_p, cap):
    """Direct enumeration of the truncated posterior of N."""
    support = np.arange(n0 + n1, cap + 1)
    weights = np.array(
        [comb(int(n) - n0, n1) * one_minus_p ** (int(n) - n0 - n1) for n in support],
        dtype=float,
    )
    return support, weights / weights.sum()


def empirical_pmf(draws, support):
    counts = np.bincount(draws - support[0], minlength=support.size)
    return counts / draws.size


class TestDrawPopulationSize:
    def test_mass_collapses_when_no_escape(self):
        # every stratum certainly links to the initial sample: 1 - p = 0
        params = SbmParams([1.0], [1.0])
        data = make_data([0, 0], [0], [(0, 2), (1, 2)])
        stats = stats_of(data, params)
        cfg = McmcConfig(n_max_cap=50)
        rng = np.random.default_rng(0)
        draws = draw_n(stats, params, cfg, rng, size=500)
        assert np.all(draws == 3)

    def test_pmf_matches_enumeration(self):
        params = SbmParams([1.0], [0.1])  # escape prob fixed by n0
        data = make_data([0] * 5, [0] * 3, [(i, 5 + i) for i in range(3)])
        stats = stats_of(data, params)
        cfg = McmcConfig(n_max_cap=200)
        rng = np.random.default_rng(42)
        draws = draw_n(stats, params, cfg, rng, size=200_000)
        one_minus_p = (1 - 0.1) ** 5
        support, pmf = enumerate_population_size_pmf(5, 3, one_minus_p, 200)
        tv = 0.5 * np.abs(empirical_pmf(draws, support) - pmf).sum()
        assert tv < 0.01

    def test_binding_cap_matches_enumeration_on_both_paths(self):
        """Caps on both sides of the switch between the negative-binomial
        draw and the grid: the law and the share of draws at the cap must
        match enumeration."""
        from scipy.stats import nbinom

        params = SbmParams([1.0], [0.1])
        data = make_data([0] * 5, [0] * 3, [(i, 5 + i) for i in range(3)])
        stats = stats_of(data, params)
        one_minus_p = 0.9**5
        n_s = 8
        tails = []
        for offset in (0, 3, 10, 40):
            cap = n_s + offset
            rng = np.random.default_rng(offset)
            draws = draw_n(stats, params, McmcConfig(n_max_cap=cap), rng, size=200_000)
            support, pmf = enumerate_population_size_pmf(5, 3, one_minus_p, cap)
            emp = empirical_pmf(draws, support)
            assert 0.5 * np.abs(emp - pmf).sum() < 0.01
            se_at_cap = np.sqrt(pmf[-1] * (1 - pmf[-1]) / draws.size)
            assert abs(emp[-1] - pmf[-1]) <= 4 * se_at_cap
            tails.append(nbinom.sf(offset, 4, 1 - one_minus_p))
        # the untruncated mass above the cap decides the path: both are exercised
        assert max(tails) >= 0.5 > min(tails)

    def test_untruncated_mean_identity(self):
        # cap chosen far enough out that truncation is negligible
        params = SbmParams([1.0], [1 - 0.5 ** (1 / 50)])  # (1-b)^50 = 0.5
        data = make_data([0] * 50, [0] * 30, [(i, 50 + i) for i in range(30)])
        stats = stats_of(data, params)
        cfg = McmcConfig(n_max_cap=400)
        rng = np.random.default_rng(7)
        draws = draw_n(stats, params, cfg, rng, size=200_000)
        expected = 50 + 30 + 31 * 0.5 / 0.5
        assert abs(draws.mean() - expected) / expected < 0.01

    def test_single_draw_is_int(self):
        params = SbmParams([1.0], [0.2])
        data = make_data([0, 0], [0], [(0, 2)])
        stats = stats_of(data, params)
        value = draw_population_size(np.random.default_rng(1), *draw_args(stats, params, McmcConfig()))
        assert type(value) is int
        assert value >= 3

    def test_cap_below_sample_rejected(self):
        params = SbmParams([1.0], [0.2])
        data = make_data([0, 0], [0], [(0, 2)])
        stats = stats_of(data, params)
        with pytest.raises(ValidationError, match="cap"):
            draw_n(stats, params, McmcConfig(n_max_cap=2), np.random.default_rng(1), size=1)

    def test_weights_flat_when_escape_certain_and_no_wave(self):
        support, log_w = population_size_log_weights(4, 0, 0.0, 20)
        assert support[0] == 4 and support[-1] == 20
        assert np.allclose(log_w, log_w[0])


def brute_force_stratum_marginals(data, n, lam_frac, beta_frac):
    """Enumerate every stratum assignment for the unsampled block and every
    completion of the unobserved adjacency, in exact rational arithmetic.

    Returns the marginal distribution of one unsampled unit's stratum (they
    are exchangeable) and the joint over the first two when present, for
    independence checking.
    """
    g = len(lam_frac)
    n0, n1 = data.n0, data.n1
    n_s = n0 + n1
    n_bar = n - n_s
    strata_s = list(data.strata_s0) + list(data.strata_s1)
    links = dense_links(data)

    def edge_factor(k, l, present):
        return beta_frac[k][l] if present else 1 - beta_frac[k][l]

    base = Fraction(1)
    for i in range(n_s):
        base *= lam_frac[strata_s[i]]
    for i in range(n0):
        for j in range(i + 1, n_s):
            base *= edge_factor(strata_s[i], strata_s[j], bool(links[i, j]))

    total = Fraction(0)
    marg = [Fraction(0)] * g
    joint2 = [[Fraction(0)] * g for _ in range(g)]
    for c_bar in product(range(g), repeat=n_bar):
        w = base
        for c in c_bar:
            w *= lam_frac[c]
            for i in range(n0):
                w *= 1 - beta_frac[strata_s[i]][c]  # observed absence of links to S0
        free_strata = strata_s[n0:] + list(c_bar)  # wave + unsampled: links unobserved
        nf = len(free_strata)
        pairs = [(a, b) for a in range(nf) for b in range(a + 1, nf)]
        for completion in product((0, 1), repeat=len(pairs)):
            wy = w
            for (a, b), present in zip(pairs, completion):
                wy *= edge_factor(free_strata[a], free_strata[b], bool(present))
            total += wy
            if n_bar:
                marg[c_bar[0]] += wy
            if n_bar >= 2:
                joint2[c_bar[0]][c_bar[1]] += wy
    marginal = [m / total for m in marg]
    joint = [[v / total for v in row] for row in joint2]
    return marginal, joint


FRAC_LAM = [Fraction(2, 5), Fraction(3, 5)]
FRAC_BETA = [
    [Fraction(1, 4), Fraction(1, 10)],
    [Fraction(1, 10), Fraction(1, 3)],
]
PARAMS_FRAC = SbmParams(
    [float(x) for x in FRAC_LAM],
    [float(FRAC_BETA[0][0]), float(FRAC_BETA[0][1]), float(FRAC_BETA[1][1])],
)


class TestImputeStrata:
    def test_zero_beta_reduces_to_lambda(self):
        params = SbmParams([0.3, 0.7], [0.0, 0.0, 0.0])
        data = make_data([0, 1], [], [])
        stats = stats_of(data, params)
        probs = escape_of(stats, params)[2]
        assert probs == pytest.approx([0.3, 0.7], abs=1e-14)

    def test_hand_value(self):
        # lam (.5,.5), one initial member of stratum 1, within-stratum beta .5:
        # unsampled stratum-1 weight .5*.5, stratum-2 weight .5*1 -> P(1) = 1/3
        params = SbmParams([0.5, 0.5], [0.5, 0.0, 0.5])
        data = make_data([0], [], [])
        stats = stats_of(data, params)
        probs = escape_of(stats, params)[2]
        assert probs == pytest.approx([1 / 3, 2 / 3], abs=1e-14)

    def test_counts_are_multinomial_given_probs(self):
        params = SbmParams([0.5, 0.5], [0.5, 0.0, 0.5])
        data = make_data([0], [], [])
        stats = stats_of(data, params)
        rng = np.random.default_rng(3)
        probs = escape_of(stacked(stats), params)[2][0].tolist()
        draws = np.array([impute_strata(rng, 30, probs) for _ in range(20_000)])
        assert np.all(draws.sum(axis=1) == 30)
        se = np.sqrt(30 * (1 / 3) * (2 / 3) / 20_000)
        assert abs(draws[:, 0].mean() - 10.0) < 3 * se

    def test_no_unsampled_units(self):
        params = SbmParams([1.0], [1.0])
        data = make_data([0], [0], [(0, 1)])
        stats = stats_of(data, params)
        probs = escape_of(stacked(stats), params)[2][0].tolist()
        assert impute_strata(np.random.default_rng(0), 0, probs) == [0]

    def test_impossible_escape_rejected(self):
        params = SbmParams([1.0], [1.0])
        data = make_data([0], [0], [(0, 1)])
        stats = stats_of(data, params)
        probs = escape_of(stacked(stats), params)[2][0].tolist()
        with pytest.raises(ValidationError, match="avoid"):
            impute_strata(np.random.default_rng(0), 3, probs)
        with pytest.raises(ValidationError, match="below sampled count"):
            impute_strata(np.random.default_rng(0), -1, probs)

    @pytest.mark.parametrize(
        "strata_s0,strata_s1,pairs,n_total",
        [
            ([0], [], [], 4),
            ([0], [1], [(0, 1)], 5),
            ([0, 1], [0], [(0, 2), (1, 2)], 5),
            ([0, 1], [0], [(0, 1), (0, 2)], 6),
            ([0, 0, 1], [1], [(0, 3)], 6),
            ([1, 1], [0, 0], [(0, 2), (1, 3)], 6),
        ],
    )
    def test_matches_joint_model_enumeration(self, strata_s0, strata_s1, pairs, n_total):
        """End-to-end check of the single-unit conditional against the full
        joint model, conditioned on the observed pattern."""
        data = make_data(strata_s0, strata_s1, pairs)
        stats = stats_of(data, PARAMS_FRAC)
        marginal, joint = brute_force_stratum_marginals(data, n_total, FRAC_LAM, FRAC_BETA)
        probs = escape_of(stats, PARAMS_FRAC)[2]
        for k in range(2):
            assert probs[k] == pytest.approx(float(marginal[k]), abs=1e-10)
        if n_total - data.n_sampled >= 2:
            # units are conditionally independent: joint factorizes
            for k in range(2):
                for l in range(2):
                    assert float(joint[k][l]) == pytest.approx(
                        probs[k] * probs[l], abs=1e-10
                    )


class TestImputeLinkCounts:
    def test_zero_beta_all_zero(self):
        params = SbmParams([0.5, 0.5], [0.0, 0.0, 0.0])
        data = make_data([0], [], [])
        stats = stats_of(data, params)
        counts = impute_link_counts(stacked(stats), np.array([10]), np.array([[5, 5]]), params.beta[None],
                                    [np.random.default_rng(0)])
        assert counts.sum() == 0

    def test_beta_one_saturates(self):
        params = SbmParams([0.5, 0.5], [1.0, 1.0, 1.0])
        data = make_data([0], [], [])
        stats = stats_of(data, params)
        counts = impute_link_counts(stacked(stats), np.array([8]), np.array([[4, 4]]), params.beta[None],
                                    [np.random.default_rng(0)])[0]
        # outside the initial sample: 3 of stratum 1, 4 of stratum 2
        assert counts.tolist() == [3, 12, 6]

    def test_inconsistent_counts_rejected(self):
        params = SbmParams([0.5, 0.5], [0.1, 0.1, 0.1])
        data = make_data([0], [1], [(0, 1)])
        stats = stats_of(data, params)
        with pytest.raises(ValidationError):
            impute_link_counts(stacked(stats), np.array([4]), np.array([[4, 0]]), params.beta[None],
                               [np.random.default_rng(0)])

    def test_matches_per_edge_reference(self):
        """Pair-count binomial imputation must be distribution-equal to
        imputing each unobserved link as an independent Bernoulli."""
        params = SbmParams([0.5, 0.5], [0.4, 0.25, 0.6])
        data = make_data([0, 1], [0, 1], [(0, 2), (1, 3)])
        stats = stats_of(data, params)
        strata_all = np.array([3, 3])  # adds one unsampled unit per stratum
        n_total = 6
        outside = [0, 1, 0, 1]  # strata of wave + unsampled units
        n_draws = 50_000

        rng = np.random.default_rng(11)
        fast = symmetric_from_upper(impute_link_counts(
            stacked(stats, rows=n_draws), np.full(n_draws, n_total), np.tile(strata_all, (n_draws, 1)),
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

        for k in range(2):
            for l in range(k, 2):
                t = {(0, 0): 1, (0, 1): 4, (1, 1): 1}[(k, l)]
                b = beta[k, l]
                for sample in (fast[:, k, l], ref[:, k, l]):
                    se_mean = np.sqrt(t * b * (1 - b) / n_draws)
                    assert abs(sample.mean() - t * b) < 3 * se_mean
                obs_f = np.bincount(fast[:, k, l], minlength=t + 1)
                obs_r = np.bincount(ref[:, k, l], minlength=t + 1)
                from scipy.stats import chi2_contingency

                keep = (obs_f + obs_r) > 0
                stat = chi2_contingency(np.vstack([obs_f[keep], obs_r[keep]]))
                assert stat.pvalue > 0.01


class TestConjugateDraws:
    def hand_graph(self):
        # strata (1,1,1,2,2,2), edges: 2 within stratum 1, 1 cross, 0 within 2
        strata = [0, 0, 0, 1, 1, 1]
        adj = np.zeros((6, 6), dtype=bool)
        for u, v in [(0, 1), (1, 2), (2, 3)]:
            adj[u, v] = adj[v, u] = True
        from snowball_sbm import PopulationGraph

        return PopulationGraph(strata=np.array(strata), edges=np.argwhere(np.triu(adj)))

    def test_posterior_parameterizations_exact(self):
        alpha, a, b = full_observation_params(self.hand_graph(), McmcConfig())
        assert alpha.tolist() == [4.0, 4.0]
        # pairs (1,1): M=2 of C(3,2)=3; (1,2): M=1 of 9; (2,2): M=0 of 3
        assert a.tolist() == [3.0, 2.0, 1.0]
        assert b.tolist() == [2.0, 9.0, 4.0]

    def test_lambda_single_stratum_degenerate(self):
        draw = draw_lambda(np.array([[13.0]]), [np.random.default_rng(0)])
        assert draw[0].tolist() == [1.0]

    def test_lambda_prior_only_uniform_mean(self):
        rng = np.random.default_rng(21)
        draws = draw_lambda(np.ones((50_000, 2)), [rng] * 50_000)
        se = np.sqrt(0.25 / (2 + 1) / 50_000)  # Dirichlet(1,1) variance = 1/12
        assert abs(draws[:, 0].mean() - 0.5) < 3 * se

    def test_lambda_moments(self):
        rng = np.random.default_rng(22)
        draws = draw_lambda(np.tile([31.0, 71.0], (50_000, 1)), [rng] * 50_000)
        mean = 31 / 102
        var = (31 / 102) * (71 / 102) / 103
        assert abs(draws[:, 0].mean() - mean) < 3 * np.sqrt(var / 50_000)

    def test_beta_moments_and_prior_only(self):
        links, totals = np.array([0, 5, 0]), np.array([55, 110, 45])  # stratum counts (11, 10)
        a, b = np.tile(links + 1.0, (50_000, 1)), np.tile(totals - links + 1.0, (50_000, 1))
        rng = np.random.default_rng(23)
        draws = draw_beta(a, b, [rng] * 50_000)
        mean = 6 / 112
        var = (6 * 106) / (112**2 * 113)
        assert draws.shape == (50_000, 3)  # one draw per stratum pair
        assert abs(draws[:, 1].mean() - mean) < 3 * np.sqrt(var / 50_000)
        # no pair and no link: the Beta(1, 1) prior, uniform
        uni = draw_beta(np.ones((50_000, 3)), np.ones((50_000, 3)), [rng] * 50_000)[:, 0]
        assert abs(uni.mean() - 0.5) < 3 * np.sqrt(1 / 12 / 50_000)
        assert abs(np.quantile(uni, 0.25) - 0.25) < 0.01


def touching_pair_totals(data, strata_unsampled):
    """Pairs with at least one endpoint in the initial sample, per stratum
    pair in upper-triangle order, counted one pair of units at a time."""
    units = [*data.strata_s0, *data.strata_s1, *np.repeat(np.arange(2), strata_unsampled)]
    totals = np.zeros((2, 2), dtype=np.int64)
    for a in range(data.n0):
        for b in range(a + 1, len(units)):
            k, l = sorted((units[a], units[b]))
            totals[k, l] += 1
    return totals[np.triu_indices(2)]


class TestGibbsSweep:
    def setup_data(self):
        params = SbmParams([0.5, 0.5], [0.3, 0.1, 0.2])
        graph = generate_population(params, 30, seed=3)
        return trace_one_wave(graph, draw_initial_ids(graph, 6))

    def test_cap_pins_population_size(self):
        data = self.setup_data()
        stats = SampleStats.from_data(data, 2)
        cfg = McmcConfig(n_max_cap=data.n_sampled)
        rng = np.random.default_rng(5)
        state = initial_state(stacked(stats))
        for _ in range(10):
            state = gibbs_sweep(state, stacked(stats), cap_of(stats, cfg), cfg, [rng])
            assert state.n[0] == data.n_sampled
            assert state.strata_unsampled.sum() == 0

    def test_deterministic_given_seed_and_state(self):
        data = self.setup_data()
        stats = SampleStats.from_data(data, 2)
        cfg = McmcConfig()
        state = initial_state(stacked(stats))
        a = gibbs_sweep(state, stacked(stats), cap_of(stats, cfg), cfg, [np.random.default_rng(9)])
        b = gibbs_sweep(state, stacked(stats), cap_of(stats, cfg), cfg, [np.random.default_rng(9)])
        assert a.n == b.n
        assert np.array_equal(a.strata_unsampled, b.strata_unsampled)
        assert np.array_equal(a.lam, b.lam)
        assert np.array_equal(a.beta, b.beta)

    def test_state_invariants_preserved(self):
        data = self.setup_data()
        stats = SampleStats.from_data(data, 2)
        cfg = McmcConfig()
        rng = np.random.default_rng(17)
        state = initial_state(stacked(stats))
        for _ in range(50):
            state = gibbs_sweep(state, stacked(stats), cap_of(stats, cfg), cfg, [rng])
            assert state.n[0] >= data.n_sampled
            assert state.strata_unsampled.sum() == state.n[0] - data.n_sampled
            assert state.lam[0].sum() == pytest.approx(1.0)
            assert np.all(state.beta >= 0) and np.all(state.beta <= 1)
            _, a, b = conjugate_params(stacked(stats), state.strata_unsampled, cfg)
            g1, g2 = cfg.prior_gamma
            assert np.array_equal((a[0] - g1) + (b[0] - g2), touching_pair_totals(data, state.strata_unsampled[0]))


def same_bits(a, b) -> bool:
    return np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()


class TestStreamEquivalence:
    """Each row's scalar Generator calls give the values of the array-valued
    calls that define a chain, and leave the row's stream where they do."""

    def test_lambda_is_dirichlet_bit_for_bit(self):
        meta = np.random.default_rng([2024, 1])
        checked = gamma_path = 0
        while checked < 2000:
            g, rows = int(meta.integers(1, 11)), int(meta.integers(1, 9))
            prior = [0.5, 1.0, 0.05, tuple(meta.uniform(0.01, 3.0, g))][checked % 4]
            counts = meta.integers(0, 10**4, (rows, g)) * (meta.random((rows, g)) < 0.7)
            if prior == 0.05 and meta.random() < 0.5:
                counts[0] = 0  # a row whose largest weight is below 0.1: numpy breaks sticks
            alpha = counts + np.asarray(prior, dtype=np.float64)
            seeds = meta.integers(0, 2**63, rows)
            rngs = [np.random.default_rng(s) for s in seeds]
            got = draw_lambda(alpha, rngs)
            for r, seed in enumerate(seeds):
                reference = np.random.default_rng(seed)
                assert same_bits(got[r], reference.dirichlet(alpha[r])), (alpha[r], seed)
                assert rngs[r].random() == reference.random()
            gamma_path += rows * bool(alpha.max(axis=-1).min() >= 0.1)
            checked += rows
        assert 1000 < gamma_path < checked  # both of numpy's algorithms were met

    @staticmethod
    def reference_excess(rng, n0, n1, log_omp, k_max):
        """The excess as a size-1 array draw makes it: ``negative_binomial``
        redrawn while above K, or one ``random(1)`` on the grid."""
        p = -expm1(log_omp)
        if p > 0 and (n1 + 1) * (1 - p) <= k_max * p:
            excess, redraws = rng.negative_binomial(n1 + 1, p, 1), 0
            over = (excess > k_max).nonzero()[0]
            while over.size:
                excess[over] = rng.negative_binomial(n1 + 1, p, over.size)
                over = over[excess[over] > k_max]
                redraws += 1
            return int(excess[0]), redraws
        _, log_w = population_size_log_weights(n0, n1, log_omp, n0 + n1 + k_max)
        cdf = np.cumsum(np.exp(log_w - log_w.max()))
        return int(min(np.searchsorted(cdf, rng.random(1) * cdf[-1], side="right")[0], k_max)), 0

    def test_single_population_draw_is_array_draw(self):
        meta = np.random.default_rng([2024, 2])
        rows = 2000
        n0, n1 = meta.integers(1, 200, rows), meta.integers(0, 300, rows)
        p = meta.uniform(0.02, 0.9, rows)
        log_omp = np.log1p(-p)
        log_omp[:20] = -np.inf  # no unit can escape: nothing is drawn
        log_omp[20:40] = -800.0  # nor where 1 - p underflows to 0
        mean = (n1 + 1) * (1 - p) / p
        # K at the mean (rejection, about half the draws redrawn) or below it (grid)
        k_max = np.ceil(mean * np.where(np.arange(rows) % 4 == 0, 0.6, 1.0)).astype(np.int64) + 1
        seeds = meta.integers(0, 2**63, rows)
        rngs = [np.random.default_rng(s) for s in seeds]
        rows_args = zip(rngs, n0.tolist(), n1.tolist(), log_omp.tolist(), k_max.tolist())
        got = [draw_population_size(*args) for args in rows_args]
        assert {type(n) for n in got} == {int}
        redraws = 0
        for r, seed in enumerate(seeds):
            reference = np.random.default_rng(seed)
            excess, tries = 0, 0
            if np.exp(log_omp[r]) != 0:
                excess, tries = self.reference_excess(reference, n0[r], n1[r], log_omp[r], k_max[r])
            assert got[r] == n0[r] + n1[r] + excess
            assert rngs[r].random() == reference.random()
            redraws += tries
        assert redraws > 200

    @pytest.mark.parametrize("g", [2, 3])  # two strata take one binomial draw
    def test_imputation_is_multinomial(self, g):
        meta = np.random.default_rng([2024, 3, g])
        rows = 2000
        n_missing = meta.integers(0, 10**4, rows) * (meta.random(rows) < 0.9)
        weights = meta.random((rows, g)) ** 3
        probs = weights / weights.sum(axis=-1, keepdims=True)
        seeds = meta.integers(0, 2**63, rows)
        rngs = [np.random.default_rng(s) for s in seeds]
        got = [impute_strata(rng, m, q) for rng, m, q in zip(rngs, n_missing.tolist(), probs.tolist())]
        for r, seed in enumerate(seeds):
            reference = np.random.default_rng(seed)
            expected = reference.multinomial(n_missing[r], probs[r]) if n_missing[r] else [0] * g
            assert got[r] == list(expected) and {type(c) for c in got[r]} == {int}
            assert rngs[r].random() == reference.random()


def draw_initial_ids(graph, n0):
    return draw_initial(graph, DesignConfig(mode="fixed_size", n0=n0), 1)


def seeded_sample(params, n, q, seed):
    """A one-wave sample of a Bernoulli(``q``) initial sample in a population
    of ``n`` units drawn under ``params``, all on ``seed``."""
    graph = generate_population(params, n, seed=seed)
    return trace_one_wave(graph, draw_initial(graph, DesignConfig(mode="bernoulli", q=q), seed))


def random_params(g, seed):
    """Seeded G-stratum params; beta shrinks with G, so one wave leaves units unsampled."""
    rng = np.random.default_rng([g, seed])
    return SbmParams(rng.dirichlet(np.full(g, 5.0)), rng.uniform(0.05, 0.25, g * (g + 1) // 2) / g)


class TestOneChainSweep:
    """A lone chain runs the sweep in Python numbers. It must give the bits,
    the cap hits and the stream of its row among lockstep chains."""

    @staticmethod
    def assert_lone_chain_is_row_zero(samples, cfg, seeds):
        for s, t, seed, other in ((*samples, *seeds), (*samples[::-1], *seeds[::-1])):
            lone = run_chains([s], cfg, [seed])[0]
            row = run_chains([s, t], cfg, [seed, other])[0]
            assert lone.draws.tobytes() == row.draws.tobytes()
            assert lone.cap_hits == row.cap_hits

    @pytest.mark.parametrize("g", [1, 2, 3, 9])  # G >= 8 sums its escape terms as numpy does
    def test_lone_chain_is_its_lockstep_row(self, g, monkeypatch):
        wide = seeded_sample(random_params(g, g), 50 * g + 50, 0.1, g)  # many units left unsampled
        near_census = seeded_sample(random_params(g, g + 100), 12 * g + 12, 0.6, g + 100)
        cfg = McmcConfig(chain_length=300, n_max_cap=wide.n_sampled + 3, prior_alpha=tuple(np.linspace(0.5, 2.0, g)))
        binding, free = chain_stats(wide, cfg, g), chain_stats(near_census, cfg, g)
        grid_draws = []
        log_weights = augmentation.population_size_log_weights

        def counted(*args):
            grid_draws.append(args)
            return log_weights(*args)

        monkeypatch.setattr(augmentation, "population_size_log_weights", counted)
        assert run_chains([binding], cfg, [7])[0].cap_hits > 0 and grid_draws
        assert run_chains([free], cfg, [8])[0].cap_hits == 0
        self.assert_lone_chain_is_row_zero((binding, free), cfg, (7, 8))

    def test_link_probability_of_one(self):
        """A pair whose observed pairs are all linked, under a Beta prior with
        tiny g2, draws beta = 1: the escape weights take ``xlog1py``."""
        params = SbmParams([0.5, 0.5], [1.0, 0.05, 0.1])
        samples = [seeded_sample(params, 40, 0.3, seed) for seed in (2, 3)]
        cfg = McmcConfig(chain_length=300, prior_gamma=(1.0, 0.001), n_max_cap=60)
        stats = [chain_stats(data, cfg, 2) for data in samples]
        assert (run_chains(stats[:1], cfg, [5])[0].draws[:, 3] == 1.0).any()
        self.assert_lone_chain_is_row_zero(stats, cfg, (5, 6))


class TestRunChain:
    def test_single_iteration_trace(self):
        params = SbmParams([0.5, 0.5], [0.3, 0.1, 0.2])
        graph = generate_population(params, 20, seed=8)
        data = trace_one_wave(graph, draw_initial_ids(graph, 4))
        trace = run_chain(data, McmcConfig(chain_length=1, burn_in_fraction=0.0), 2)
        assert trace.chain_length == 1
        assert trace.reduce(np.mean).tolist() == trace.draws[0].tolist()
        assert trace.reduce(np.std).tolist() == [0.0] * trace.draws.shape[1]

    def test_estimates_are_retained_column_means(self):
        params = SbmParams([0.5, 0.5], [0.3, 0.1, 0.2])
        graph = generate_population(params, 25, seed=12)
        data = trace_one_wave(graph, draw_initial_ids(graph, 5))
        trace = run_chain(data, McmcConfig(chain_length=40, burn_in_fraction=0.1), 3)
        assert trace.burn_in == 4
        assert trace.reduce(np.mean) == pytest.approx(trace.draws[4:].mean(axis=0), abs=1e-12)
        assert trace.reduce(np.std) == pytest.approx(trace.draws[4:].std(axis=0), abs=1e-12)

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_reduce_gives_the_bits_of_each_estimand_array(self, g):
        """Each block of columns reduces as that estimand's own contiguous
        array does (N as integers), whatever the summation order numpy picks
        for a column of a wider table."""
        pairs = g * (g + 1) // 2
        params = SbmParams(np.full(g, 1.0 / g), np.linspace(0.1, 0.3, pairs))
        graph = generate_population(params, 40, seed=40 + g)
        data = trace_one_wave(graph, draw_initial_ids(graph, 8))
        trace = run_chain(data, McmcConfig(chain_length=3000), 41 + g, n_strata=g)
        kept = trace.draws[trace.burn_in:]
        n = kept[:, 0].astype(np.int64)
        lam, beta = kept[:, 1:1 + g].copy(), kept[:, 1 + g:].copy()
        for fn in (np.mean, np.std):
            assert trace.reduce(fn).tolist() == [fn(n), *fn(lam, axis=0), *fn(beta, axis=0)], fn.__name__

    def test_full_observation_reduces_to_full_graph_posterior(self):
        """With the whole population sampled and the cap at N, the parameter
        draws must use the full-graph conjugate posteriors exactly."""
        params = SbmParams([0.5, 0.5], [0.4, 0.2, 0.3])
        graph = generate_population(params, 12, seed=14)
        data = trace_one_wave(graph, np.arange(12))
        assert data.n0 == 12 and data.n1 == 0
        full = sufficient_counts(graph)
        stats = SampleStats.from_data(data, 2)
        batch = stacked(stats)
        probs = escape_of(batch, initial_state(batch))[2][0].tolist()
        strata_un = impute_strata(np.random.default_rng(0), 0, probs)
        alpha, a, b = conjugate_params(batch, [strata_un], McmcConfig())
        assert np.array_equal(alpha[0], full.counts_sampled + 1.0)
        assert np.array_equal(a[0], full.link_counts + 1.0)
        assert np.array_equal(b[0], full.pair_totals - full.link_counts + 1.0)

    def test_estimates_invariant_to_node_relabeling(self):
        params = SbmParams([0.4, 0.6], [0.3, 0.15, 0.25])
        graph = generate_population(params, 30, seed=21)
        s0 = draw_initial_ids(graph, 6)
        base = run_chain(
            trace_one_wave(graph, s0), McmcConfig(chain_length=50), 77
        )
        perm = np.random.default_rng(1).permutation(30)
        relabeled_graph = type(graph)(
            strata=graph.strata[perm], edges=np.argsort(perm)[graph.edges]
        )
        inverse = np.argsort(perm)
        other = run_chain(
            trace_one_wave(relabeled_graph, inverse[s0]),
            McmcConfig(chain_length=50), 77,
        )
        for name, column, relabeled in zip(estimand_names(2), base.draws.T, other.draws.T):
            assert np.array_equal(column, relabeled), name

    def test_marginal_agrees_with_longer_reference_chain(self):
        """Self-consistency: the post-burn-in marginal of one parameter should
        match a 10x longer chain from the same kernel."""
        from scipy.stats import ks_2samp

        params = SbmParams([0.5, 0.5], [0.3, 0.1, 0.2])
        graph = generate_population(params, 60, seed=31)
        data = trace_one_wave(graph, draw_initial_ids(graph, 12))
        short = run_chain(data, McmcConfig(chain_length=1000), 100)
        long = run_chain(data, McmcConfig(chain_length=10_000), 200)
        column = estimand_names(2).index("lambda_1")
        lam_short = short.draws[short.burn_in::10, column]
        lam_long = long.draws[long.burn_in::10, column]
        assert ks_2samp(lam_short, lam_long).pvalue > 0.01

    def test_stray_stratum_label_rejected(self):
        data = make_data([0, 2], [], [])
        with pytest.raises(ValidationError):
            run_chain(data, McmcConfig(chain_length=2), 0, n_strata=2)

"""Gibbs sampler pieces against enumeration, reference implementations, and
closed-form conjugate posteriors."""

from dataclasses import fields
from fractions import Fraction
from itertools import product
from math import comb

import numpy as np
import pytest

from snowball_sbm import (
    McmcConfig,
    SbmParams,
    SufficientCounts,
    ValidationError,
    draw_beta,
    draw_lambda,
    draw_population_size,
    generate_population,
    gibbs_sweep,
    impute_link_counts,
    impute_strata,
    run_chain,
    sufficient_counts,
    to_ignored_data,
    trace_one_wave,
)
from snowball_sbm.augmentation import (
    beta_posterior_params,
    initial_state,
    lambda_posterior_params,
    population_size_log_weights,
    posterior_counts,
)
from snowball_sbm.likelihoods import escape_terms, stratum_escape_log_weights
from snowball_sbm.sampling import IgnoredData, SampleStats
from snowball_sbm.sbm import symmetric_from_upper

from dense_links import dense_links
from test_likelihoods import make_data, stats_of


def stacked(stats, rows=1):
    """``rows`` copies of one sample's statistics, as a sweep reads them."""
    return SampleStats.stack([stats] * rows)


def cap_of(stats, cfg):
    """One chain's cap on N, as :func:`run_chains` passes it to a sweep."""
    return np.array([cfg.effective_cap(stats.n_sampled)])


def escape_of(stats, params):
    """``(1 - p, log(1 - p), unsampled stratum probabilities)``, computed as
    :func:`gibbs_sweep` computes them; leading axes are those of ``stats``."""
    return escape_terms(stratum_escape_log_weights(stats.counts_s0, params))


def draw_n(stats, params, cfg, rng, size):
    """``size`` draws of N for one sample, through the sweep's sub-draw."""
    batch = stacked(stats)
    return draw_population_size(batch, cap_of(stats, cfg), escape_of(batch, params)[1], [rng], size)[0]


def repeat_rows(counts, rows):
    """``rows`` copies of ``counts`` along a leading replicate axis."""
    names = [f.name for f in fields(counts)]
    return SufficientCounts(**{name: np.repeat([getattr(counts, name)], rows, axis=0) for name in names})


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
        batch = stacked(stats)
        value = draw_population_size(batch, cap_of(stats, McmcConfig()), escape_of(batch, params)[1],
                                     [np.random.default_rng(1)])
        assert value.shape == (1,) and value.dtype == np.int64
        assert value[0] >= 3

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
        batch = stacked(stats, rows=20_000)
        draws = impute_strata(batch, np.full(20_000, 31), escape_of(batch, params)[2], [rng] * 20_000)
        assert np.all(draws.sum(axis=1) == 30)
        se = np.sqrt(30 * (1 / 3) * (2 / 3) / 20_000)
        assert abs(draws[:, 0].mean() - 10.0) < 3 * se

    def test_no_unsampled_units(self):
        params = SbmParams([1.0], [1.0])
        data = make_data([0], [0], [(0, 1)])
        stats = stats_of(data, params)
        batch = stacked(stats)
        counts = impute_strata(batch, np.array([2]), escape_of(batch, params)[2], [np.random.default_rng(0)])
        assert counts[0].tolist() == [0]

    def test_impossible_escape_rejected(self):
        params = SbmParams([1.0], [1.0])
        data = make_data([0], [0], [(0, 1)])
        stats = stats_of(data, params)
        with pytest.raises(ValidationError, match="avoid"):
            batch = stacked(stats)
            impute_strata(batch, np.array([5]), escape_of(batch, params)[2], [np.random.default_rng(0)])

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
        counts = sufficient_counts(self.hand_graph())
        cfg = McmcConfig()
        assert lambda_posterior_params(counts.strata_counts, cfg).tolist() == [4.0, 4.0]
        a, b = beta_posterior_params(counts, cfg)
        # pairs (1,1): M=2 of C(3,2)=3; (1,2): M=1 of 9; (2,2): M=0 of 3
        assert a.tolist() == [3.0, 2.0, 1.0]
        assert b.tolist() == [2.0, 9.0, 4.0]

    def test_lambda_single_stratum_degenerate(self):
        cfg = McmcConfig()
        draw = draw_lambda(np.array([[12]]), cfg, [np.random.default_rng(0)])
        assert draw[0].tolist() == [1.0]

    def test_lambda_prior_only_uniform_mean(self):
        cfg = McmcConfig()
        rng = np.random.default_rng(21)
        draws = draw_lambda(np.zeros((50_000, 2), dtype=np.int64), cfg, [rng] * 50_000)
        se = np.sqrt(0.25 / (2 + 1) / 50_000)  # Dirichlet(1,1) variance = 1/12
        assert abs(draws[:, 0].mean() - 0.5) < 3 * se

    def test_lambda_moments(self):
        cfg = McmcConfig()
        rng = np.random.default_rng(22)
        draws = draw_lambda(np.tile([30, 70], (50_000, 1)), cfg, [rng] * 50_000)
        mean = 31 / 102
        var = (31 / 102) * (71 / 102) / 103
        assert abs(draws[:, 0].mean() - mean) < 3 * np.sqrt(var / 50_000)

    def test_beta_moments_and_prior_only(self):
        counts = SufficientCounts(
            strata_counts=np.array([11, 10]),
            link_counts=np.array([0, 5, 0]),
            pair_totals=np.array([55, 110, 45]),
        )
        cfg = McmcConfig()
        rng = np.random.default_rng(23)
        draws = draw_beta(repeat_rows(counts, 50_000), cfg, [rng] * 50_000)
        mean = 6 / 112
        var = (6 * 106) / (112**2 * 113)
        assert draws.shape == (50_000, 3)  # one draw per stratum pair
        assert abs(draws[:, 1].mean() - mean) < 3 * np.sqrt(var / 50_000)
        # pair total 0 on a diagonal cell -> Beta(1,1): uniform
        empty = SufficientCounts(
            strata_counts=np.array([1, 0]),
            link_counts=np.zeros(3, dtype=int),
            pair_totals=np.zeros(3, dtype=int),
        )
        uni = draw_beta(repeat_rows(empty, 50_000), cfg, [rng] * 50_000)[:, 0]
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
        sample = trace_one_wave(graph, draw_initial_ids(graph, 6))
        return to_ignored_data(sample)

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
        cfg = McmcConfig(seed=9)
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
            counts = posterior_counts(stacked(stats), state.strata_unsampled)
            assert np.array_equal(counts.pair_totals[0], touching_pair_totals(data, state.strata_unsampled[0]))


def draw_initial_ids(graph, n0):
    from snowball_sbm import DesignConfig, draw_initial

    return draw_initial(graph, DesignConfig(mode="fixed_size", n0=n0, seed=1))


class TestRunChain:
    def test_single_iteration_trace(self):
        params = SbmParams([0.5, 0.5], [0.3, 0.1, 0.2])
        graph = generate_population(params, 20, seed=8)
        data = to_ignored_data(trace_one_wave(graph, draw_initial_ids(graph, 4)))
        trace = run_chain(data, McmcConfig(chain_length=1, burn_in_fraction=0.0, seed=2))
        assert trace.chain_length == 1
        est = trace.estimates()
        assert est.n_mean == trace.n_draws[0]
        assert est.lam.tolist() == trace.lam_draws[0].tolist()

    def test_estimates_are_retained_column_means(self):
        params = SbmParams([0.5, 0.5], [0.3, 0.1, 0.2])
        graph = generate_population(params, 25, seed=12)
        data = to_ignored_data(trace_one_wave(graph, draw_initial_ids(graph, 5)))
        trace = run_chain(data, McmcConfig(chain_length=40, burn_in_fraction=0.1, seed=3))
        assert trace.burn_in == 4
        est = trace.estimates()
        assert est.n_mean == pytest.approx(trace.n_draws[4:].mean(), abs=1e-12)
        assert est.lam == pytest.approx(trace.lam_draws[4:].mean(axis=0), abs=1e-12)

    def test_full_observation_reduces_to_full_graph_posterior(self):
        """With the whole population sampled and the cap at N, the parameter
        draws must use the full-graph conjugate posteriors exactly."""
        params = SbmParams([0.5, 0.5], [0.4, 0.2, 0.3])
        graph = generate_population(params, 12, seed=14)
        sample = trace_one_wave(graph, np.arange(12))
        data = to_ignored_data(sample)
        assert data.n0 == 12 and data.n1 == 0
        full = sufficient_counts(graph)
        stats = SampleStats.from_data(data, 2)
        state = initial_state(stacked(stats))
        batch = stacked(stats)
        rng = np.random.default_rng(0)
        n_new = np.array([12])
        strata_un = impute_strata(batch, n_new, escape_of(batch, state)[2], [rng])
        assembled = posterior_counts(batch, strata_un)
        assert np.array_equal(assembled.strata_counts[0], full.strata_counts)
        assert np.array_equal(assembled.link_counts[0], full.link_counts)
        assert np.array_equal(assembled.pair_totals[0], full.pair_totals)

    def test_estimates_invariant_to_node_relabeling(self):
        params = SbmParams([0.4, 0.6], [0.3, 0.15, 0.25])
        graph = generate_population(params, 30, seed=21)
        s0 = draw_initial_ids(graph, 6)
        base = run_chain(
            to_ignored_data(trace_one_wave(graph, s0)), McmcConfig(chain_length=50, seed=77)
        )
        perm = np.random.default_rng(1).permutation(30)
        relabeled_graph = type(graph)(
            strata=graph.strata[perm], edges=np.argsort(perm)[graph.edges]
        )
        inverse = np.argsort(perm)
        other = run_chain(
            to_ignored_data(trace_one_wave(relabeled_graph, inverse[s0])),
            McmcConfig(chain_length=50, seed=77),
        )
        assert np.array_equal(base.n_draws, other.n_draws)
        assert np.array_equal(base.lam_draws, other.lam_draws)
        assert np.array_equal(base.beta_upper_draws, other.beta_upper_draws)

    def test_marginal_agrees_with_longer_reference_chain(self):
        """Self-consistency: the post-burn-in marginal of one parameter should
        match a 10x longer chain from the same kernel."""
        from scipy.stats import ks_2samp

        params = SbmParams([0.5, 0.5], [0.3, 0.1, 0.2])
        graph = generate_population(params, 60, seed=31)
        data = to_ignored_data(trace_one_wave(graph, draw_initial_ids(graph, 12)))
        short = run_chain(data, McmcConfig(chain_length=1000, seed=100))
        long = run_chain(data, McmcConfig(chain_length=10_000, seed=200))
        lam_short = short.retained()[1][::10, 0]
        lam_long = long.retained()[1][::10, 0]
        assert ks_2samp(lam_short, lam_long).pvalue > 0.01

    def test_stray_stratum_label_rejected(self):
        data = make_data([0, 2], [], [])
        with pytest.raises(ValidationError):
            run_chain(data, McmcConfig(chain_length=2, seed=0), n_strata=2)

"""Model core: validation, generation, counts, likelihood, MLEs."""

from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

from snowball_sbm import (
    PopulationGraph,
    SampleStats,
    SbmParams,
    ValidationError,
    full_log_likelihood,
    generate_population,
    mle_from_full_graph,
    sufficient_counts,
    trace_one_wave,
)
from snowball_sbm.likelihoods import n_free_terms
from snowball_sbm.sbm import MAX_POPULATION, counts_log_likelihood, pair_totals_from_counts, symmetric_from_upper


def two_block_params():
    return SbmParams([0.5, 0.5], [0.1, 0.05, 0.1])


def graph_from_edges(strata, edges):
    n = len(strata)
    adj = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        adj[u, v] = adj[v, u] = True
    return PopulationGraph(strata=np.array(strata), edges=np.argwhere(np.triu(adj)))


class TestValidation:
    def test_well_formed(self):
        params = two_block_params()
        assert params.lam.tolist() == [0.5, 0.5] and params.beta.tolist() == [0.1, 0.05, 0.1]

    def test_lambda_sum_violation(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            SbmParams([0.7, 0.4], [0.1, 0.05, 0.1])

    def test_beta_out_of_range(self):
        with pytest.raises(ValidationError, match="beta out of range"):
            SbmParams([0.5, 0.5], [0.1, 1.2, 0.1])

    def test_negative_lambda(self):
        with pytest.raises(ValidationError, match="negative"):
            SbmParams([1.5, -0.5], [0.1, 0.05, 0.1])

    def test_empty_params_rejected(self):
        with pytest.raises(ValidationError):
            SbmParams(lam=np.zeros(0), beta=np.zeros(0))

    def test_nan_lambda_rejected(self):
        with pytest.raises(ValidationError, match="lambda has non-finite"):
            SbmParams([np.nan, 0.5], [0.1, 0.05, 0.1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_beta_rejected(self, bad):
        with pytest.raises(ValidationError, match="beta has non-finite"):
            SbmParams([0.5, 0.5], [bad, 0.1, 0.1])


class TestGeneration:
    def test_zero_beta_gives_empty_graph(self):
        params = SbmParams([1.0], [0.0])
        graph = generate_population(params, 20, seed=0)
        assert graph.adjacency.sum() == 0

    def test_beta_one_gives_complete_graph(self):
        params = SbmParams([1.0], [1.0])
        graph = generate_population(params, 4, seed=0)
        assert len(graph.edge_list()) == 6

    def test_symmetric_zero_diagonal(self):
        graph = generate_population(two_block_params(), 50, seed=1)
        assert np.array_equal(graph.adjacency, graph.adjacency.T)
        assert not np.diagonal(graph.adjacency).any()

    def test_deterministic_given_seed(self):
        a = generate_population(two_block_params(), 80, seed=123)
        b = generate_population(two_block_params(), 80, seed=123)
        assert np.array_equal(a.strata, b.strata)
        assert np.array_equal(a.adjacency, b.adjacency)

    def test_stratum_counts_binomial_moments(self):
        # survey-scale stratum split; beta zero so only strata are drawn
        params = SbmParams([0.425, 0.575], [0.0, 0.0, 0.0])
        n, draws = 595, 10_000
        counts = np.empty(draws)
        for i in range(draws):
            counts[i] = (generate_population(params, n, seed=i).strata == 0).sum()
        expected = n * 0.425
        se = np.sqrt(n * 0.425 * 0.575 / draws)
        assert abs(counts.mean() - expected) < 3 * se

    def test_single_block_edge_count_binomial_moments(self):
        # one stratum reduces to a Bernoulli random graph
        params = SbmParams([1.0], [0.2])
        n, draws = 30, 4000
        totals = np.empty(draws)
        for i in range(draws):
            totals[i] = generate_population(params, n, seed=i).adjacency.sum() // 2
        pairs = n * (n - 1) // 2
        se_mean = np.sqrt(pairs * 0.2 * 0.8 / draws)
        assert abs(totals.mean() - pairs * 0.2) < 3 * se_mean

    def test_negative_size_rejected(self):
        with pytest.raises(ValidationError):
            generate_population(two_block_params(), -1, seed=0)

    def test_size_above_limit_rejected_before_drawing(self):
        with pytest.raises(ValidationError, match=f"population size must be at most {MAX_POPULATION}, got"):
            generate_population(two_block_params(), MAX_POPULATION + 1, seed=0)


class TestSufficientCounts:
    def test_hand_count(self):
        graph = graph_from_edges([0, 0, 1], [(0, 1)])
        counts = sufficient_counts(graph)
        assert counts.counts_sampled.tolist() == [2, 1]
        assert counts.link_counts.tolist() == [1, 0, 0]  # pairs (1,1), (1,2), (2,2)
        assert counts.pair_totals.tolist() == [1, 2, 0]

    def test_empty_graph(self):
        graph = graph_from_edges([0, 1, 1], [])
        assert sufficient_counts(graph).link_counts.sum() == 0

    def test_matches_brute_force_pair_enumeration(self):
        graph = generate_population(two_block_params(), 20, seed=5)
        counts = sufficient_counts(graph)
        g = 2
        m = np.zeros((g, g), dtype=int)
        for i in range(20):
            for j in range(i + 1, 20):
                if graph.adjacency[i, j]:
                    k, l = sorted((graph.strata[i], graph.strata[j]))
                    m[k, l] += 1
        assert counts.link_counts.tolist() == [m[0, 0], m[0, 1], m[1, 1]]
        assert counts.counts_sampled.sum() == 20
        assert counts.link_counts.sum() == graph.adjacency.sum() // 2

    def test_invariant_under_node_relabeling(self):
        graph = generate_population(two_block_params(), 10, seed=9)
        rng = np.random.default_rng(0)
        for _ in range(5):
            perm = rng.permutation(10)
            permuted = PopulationGraph(
                strata=graph.strata[perm], edges=np.argsort(perm)[graph.edges]
            )
            a, b = sufficient_counts(graph), sufficient_counts(permuted)
            assert np.array_equal(a.counts_sampled, b.counts_sampled)
            assert np.array_equal(a.link_counts, b.link_counts)

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_counts_are_the_statistics_of_a_census(self, g):
        """A full graph's counts are those of the sample whose initial sample
        is every unit, and its likelihood is that sample's observed block."""
        rng = np.random.default_rng(g)
        params = SbmParams(rng.dirichlet(np.ones(g)), rng.uniform(0.05, 0.4, g * (g + 1) // 2))
        graph = generate_population(params, 40, seed=g)
        counts = sufficient_counts(graph, g)
        census = SampleStats.from_data(trace_one_wave(graph, np.arange(graph.n_nodes)), g)
        for f in fields(SampleStats):
            assert np.array_equal(getattr(counts, f.name), getattr(census, f.name)), f.name
        assert (counts.n0, counts.n1) == (40, 0)
        assert full_log_likelihood(graph, params) == n_free_terms(counts, params)[0]


class TestSampleStatsCheck:
    """0 <= M <= T per stratum pair, through the constructor and ``stack``."""

    FIELDS = {"n0": 3, "n1": 0, "counts_s0": [2, 1], "counts_s1": [0, 0], "pair_totals": [1, 2, 0]}

    @pytest.mark.parametrize("links", [[-1, 0, 0], [0, 3, 0]], ids=["negative", "above-total"])
    def test_link_counts_outside_pair_totals_rejected(self, links):
        with pytest.raises(ValidationError, match="^link counts exceed pair totals$"):
            SampleStats(link_counts=links, **self.FIELDS)
        good = SampleStats(link_counts=[1, 2, 0], **self.FIELDS)
        bad = SimpleNamespace(link_counts=links, **self.FIELDS)  # stack reads fields only
        with pytest.raises(ValidationError, match="^link counts exceed pair totals$"):
            SampleStats.stack([good, bad])
        assert SampleStats.stack([good, good]).link_counts.tolist() == [[1, 2, 0]] * 2


def likelihood_direct(graph, lam, beta):
    """Naive product-form evaluation, one factor per node and pair."""
    val = 1.0
    for s in graph.strata:
        val *= lam[s]
    n = graph.n_nodes
    for i in range(n):
        for j in range(i + 1, n):
            b = beta[graph.strata[i], graph.strata[j]]
            val *= b if graph.adjacency[i, j] else 1.0 - b
    return val


class TestFullLogLikelihood:
    def test_single_block_half_probability(self):
        params = SbmParams([1.0], [0.5])
        graph = graph_from_edges([0, 0, 0], [(0, 1)])
        assert full_log_likelihood(graph, params) == pytest.approx(3 * np.log(0.5))

    def test_impossible_edge_is_minus_inf(self):
        params = SbmParams([0.5, 0.5], [0.0, 0.0, 0.5])
        graph = graph_from_edges([0, 0], [(0, 1)])
        assert full_log_likelihood(graph, params) == -np.inf

    def test_zero_beta_zero_links_is_finite(self):
        params = SbmParams([0.5, 0.5], [0.0, 0.0, 0.5])
        graph = graph_from_edges([0, 0, 1], [])
        assert np.isfinite(full_log_likelihood(graph, params))

    def test_matches_term_by_term_oracle(self):
        params = SbmParams([0.3, 0.7], [0.4, 0.15, 0.25])
        graph = generate_population(params, 10, seed=11)
        direct = np.log(likelihood_direct(graph, params.lam, symmetric_from_upper(params.beta, 2)))
        assert full_log_likelihood(graph, params) == pytest.approx(direct, abs=1e-10)

    def test_finite_for_interior_params(self):
        params = SbmParams([0.6, 0.4], [0.2, 0.1, 0.3])
        for seed in range(5):
            graph = generate_population(params, 40, seed=seed)
            assert np.isfinite(full_log_likelihood(graph, params))


class TestMle:
    def test_closed_form_on_hand_graph(self):
        graph = graph_from_edges([0, 0, 1, 1], [(0, 1), (0, 2)])
        est = mle_from_full_graph(graph)
        assert est.lam.tolist() == [0.5, 0.5]
        # (1,1): 1 link out of C(2,2)=1 pair; (1,2): 1 link out of 4 cross pairs
        assert est.beta.tolist() == [1.0, 0.25, 0.0]

    def test_survey_scale_stratum_fractions(self):
        # integer split that realizes the survey-scale stratum shares exactly
        strata = [0] * 17 + [1] * 23
        graph = graph_from_edges(strata, [])
        est = mle_from_full_graph(graph)
        assert est.lam.tolist() == [0.425, 0.575]

    def test_recovers_generating_link_probabilities_at_scale(self):
        # survey-scale generating values: sparse links, uneven strata
        params = SbmParams([0.425, 0.575], [0.0046, 0.0014, 0.0058])
        graph = generate_population(params, 595, seed=40)
        est = mle_from_full_graph(graph)
        counts = sufficient_counts(graph)
        for b_hat, b_true, t in zip(est.beta, params.beta, counts.pair_totals):
            se = np.sqrt(b_true * (1 - b_true) / t)
            assert abs(b_hat - b_true) < 4 * se

    def test_single_block_complete_graph(self):
        graph = graph_from_edges([0, 0, 0], [(0, 1), (0, 2), (1, 2)])
        assert mle_from_full_graph(graph).beta.tolist() == [1.0]

    def test_empty_stratum_pair_reports_nan(self):
        graph = graph_from_edges([0, 0], [(0, 1)])
        est = mle_from_full_graph(graph, n_strata=2)
        assert est.beta[0] == 1.0
        assert np.isnan(est.beta[1:]).all()  # pairs (1,2) and (2,2)

    def test_empty_graph_rejected(self):
        graph = PopulationGraph(strata=np.zeros(0, dtype=int), edges=np.zeros((0, 2), int))
        with pytest.raises(ValidationError):
            mle_from_full_graph(graph)

    def test_maximizes_log_likelihood(self):
        rng = np.random.default_rng(77)
        for seed in range(4):
            graph = generate_population(two_block_params(), 15, seed=seed)
            est = mle_from_full_graph(graph)
            beta_hat = np.nan_to_num(est.beta, nan=0.5)
            best = counts_log_likelihood(
                sufficient_counts(graph), SbmParams(lam=est.lam, beta=beta_hat)
            )
            counts = sufficient_counts(graph)
            for k in range(2):
                for delta in (-1e-3, 1e-3):
                    lam = est.lam.copy()
                    lam[k] = max(lam[k] + delta, 0.0)
                    lam = lam / lam.sum()
                    ll = counts_log_likelihood(counts, SbmParams(lam=lam, beta=beta_hat))
                    assert ll <= best + 1e-9
            for pair in range(3):
                for delta in (-1e-3, 1e-3):
                    b = beta_hat.copy()
                    b[pair] = min(max(b[pair] + delta, 0.0), 1.0)
                    ll = counts_log_likelihood(counts, SbmParams(lam=est.lam, beta=b))
                    assert ll <= best + 1e-9


class TestPairTotals:
    def test_formula(self):
        totals = pair_totals_from_counts(np.array([3, 4]))
        assert totals.tolist() == [3, 12, 6]  # C(3,2), 3*4, C(4,2)

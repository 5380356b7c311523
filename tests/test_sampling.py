"""Initial designs, wave tracing, and the label-free reduction."""

from dataclasses import fields

import numpy as np
import pytest

from snowball_sbm import (
    DesignConfig,
    IgnoredData,
    PopulationGraph,
    SampleStats,
    SbmParams,
    ValidationError,
    draw_initial,
    generate_population,
    trace_one_wave,
)

from dense_links import dense_links
from references import trace_then_relabel


def star_graph(leaves):
    n = leaves + 1
    adj = np.zeros((n, n), dtype=bool)
    adj[0, 1:] = adj[1:, 0] = True
    return PopulationGraph(strata=np.zeros(n, dtype=int), edges=np.argwhere(np.triu(adj)))


@pytest.fixture
def small_population():
    params = SbmParams([0.5, 0.5], [0.25, 0.1, 0.2])
    return generate_population(params, 40, seed=2)


class TestDrawInitial:
    def test_q_zero_empty(self, small_population):
        cfg = DesignConfig(mode="bernoulli", q=0.0)
        assert draw_initial(small_population, cfg, 1).size == 0

    def test_q_one_everyone(self, small_population):
        cfg = DesignConfig(mode="bernoulli", q=1.0)
        assert draw_initial(small_population, cfg, 1).tolist() == list(range(40))

    def test_bernoulli_binomial_moments(self):
        graph = PopulationGraph(strata=np.zeros(595, dtype=int), edges=np.zeros((0, 2), int))
        sizes = np.empty(10_000)
        for i in range(10_000):
            sizes[i] = draw_initial(graph, DesignConfig(mode="bernoulli", q=0.15), i).size
        se = np.sqrt(595 * 0.15 * 0.85 / 10_000)
        assert abs(sizes.mean() - 89.25) < 3 * se

    def test_fixed_size(self, small_population):
        ids = draw_initial(small_population, DesignConfig(mode="fixed_size", n0=7), 3)
        assert ids.size == 7
        assert np.unique(ids).size == 7

    def test_fixed_size_too_large(self, small_population):
        cfg = DesignConfig(mode="fixed_size", n0=41)
        with pytest.raises(ValidationError, match="exceeds"):
            draw_initial(small_population, cfg, 3)

    def test_degree_biased_prefers_hubs(self):
        graph = star_graph(30)
        hits = 0
        for seed in range(400):
            ids = draw_initial(graph, DesignConfig(mode="degree_biased", n0=1), seed)
            hits += 0 in ids
        # center carries weight 31 of 91; uniform would give ~13/400
        assert hits > 60

    def test_degree_biased_can_pick_isolated_nodes(self):
        graph = PopulationGraph(strata=np.zeros(5, dtype=int), edges=np.zeros((0, 2), int))
        ids = draw_initial(graph, DesignConfig(mode="degree_biased", n0=3), 0)
        assert ids.size == 3

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            DesignConfig(mode="bernoulli", q=1.5)
        with pytest.raises(ValidationError):
            DesignConfig(mode="fixed_size")
        with pytest.raises(ValidationError):
            DesignConfig(mode="census")


class TestTraceOneWave:
    def test_everyone_sampled_no_wave(self, small_population):
        sample = trace_one_wave(small_population, np.arange(40))
        assert sample.n1 == 0

    def test_star_center_pulls_all_leaves(self):
        sample = trace_one_wave(star_graph(6), [0])
        assert sample.n1 == 6
        assert dense_links(sample).tolist() == [[False] + [True] * 6]

    def test_wave_is_exactly_linked_complement(self, small_population):
        s0 = draw_initial(small_population, DesignConfig(mode="fixed_size", n0=8), 4)
        sample = trace_one_wave(small_population, s0)
        adj = small_population.adjacency
        expected = sorted(set(np.flatnonzero(adj[s0].any(axis=0))) - set(s0.tolist()))
        assert sample.n1 == len(expected)
        assert np.array_equal(sample.strata_s1, small_population.strata[expected])
        assert np.array_equal(dense_links(sample), adj[np.ix_(s0, np.concatenate([s0, expected]))])

    def test_deterministic(self, small_population):
        s0 = [1, 5, 9]
        a = trace_one_wave(small_population, s0)
        b = trace_one_wave(small_population, s0)
        for f in fields(a):
            assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name

    def test_unknown_ids_rejected(self, small_population):
        with pytest.raises(ValidationError):
            trace_one_wave(small_population, [41])

    def test_every_wave_member_linked_to_s0(self, small_population):
        s0 = draw_initial(small_population, DesignConfig(mode="bernoulli", q=0.2), 8)
        sample = trace_one_wave(small_population, s0)
        wave_block = dense_links(sample)[:, sample.n0 :]
        assert wave_block.any(axis=0).all()

    @pytest.mark.parametrize("links", [[[2, 3]], [[0, 4]]])
    def test_links_must_join_initial_sample_to_final_sample(self, links):
        """A wave-wave link, and a link to an index past the final sample (n0 2, n1 2)."""
        with pytest.raises(ValidationError, match=r"no endpoint in the initial sample|outside 0\.\.3"):
            IgnoredData(strata_s0=[0, 0], strata_s1=[0, 0], links=[[0, 2], [1, 3], *links])


@pytest.mark.parametrize("mode", ["bernoulli", "fixed_size", "degree_biased"])
def test_trace_one_wave_matches_trace_then_relabel(mode):
    """Field for field, on seeded sparse graphs with isolated units, for
    initial samples drawn under each design, an empty one and a census."""
    rng = np.random.default_rng(31)
    isolated = 0
    for seed in range(10):
        n = int(rng.integers(2, 61))
        graph = generate_population(SbmParams([0.5, 0.5], [0.04, 0.01, 0.03]), n, seed=seed)
        isolated += int((graph.degrees() == 0).sum())
        n0 = int(rng.integers(0, n + 1))
        design = DesignConfig(mode, q=0.3) if mode == "bernoulli" else DesignConfig(mode, n0=n0)
        for s0 in (draw_initial(graph, design, seed), [], np.arange(n)):
            data, reference = trace_one_wave(graph, s0), trace_then_relabel(graph, s0)
            for f in fields(IgnoredData):
                assert np.array_equal(getattr(data, f.name), getattr(reference, f.name)), f.name
                assert getattr(data, f.name).dtype == getattr(reference, f.name).dtype, f.name
    assert isolated > 0


class TestToIgnoredData:
    """The label-free reduction that trace_one_wave returns."""

    def test_empty_sample(self):
        graph = PopulationGraph(strata=np.zeros(5, dtype=int), edges=np.zeros((0, 2), int))
        data = trace_one_wave(graph, [])
        assert data.n0 == 0 and data.n1 == 0
        assert dense_links(data).size == 0

    def test_hand_construction(self):
        # two initial nodes linked to each other, one wave node linked to both
        adj = np.zeros((4, 4), dtype=bool)
        adj[0, 1] = adj[1, 0] = True
        adj[0, 2] = adj[2, 0] = True
        adj[1, 2] = adj[2, 1] = True
        graph = PopulationGraph(strata=np.array([0, 1, 0, 1]), edges=np.argwhere(np.triu(adj)))
        data = trace_one_wave(graph, [0, 1])
        assert (data.n0, data.n1) == (2, 1)
        links = dense_links(data)
        pairs = {(i + 1, j + 1) for i in range(2) for j in range(3) if i < j and links[i, j]}
        assert pairs == {(1, 2), (1, 3), (2, 3)}

    def test_population_hint_not_carried(self, small_population):
        """A traced sample holds no node id and not the population size."""
        data = trace_one_wave(small_population, [0, 1, 2])
        assert [f.name for f in fields(data)] == ["strata_s0", "strata_s1", "links"]
        assert not hasattr(data, "population_hint")

    def test_relabeling_gives_isomorphic_reduction(self, small_population):
        # permuting node ids must leave every label-free invariant unchanged
        rng = np.random.default_rng(10)
        s0 = draw_initial(small_population, DesignConfig(mode="fixed_size", n0=6), 11)
        base = trace_one_wave(small_population, s0)
        for _ in range(5):
            perm = rng.permutation(40)
            relabeled = PopulationGraph(
                strata=small_population.strata[perm],
                edges=np.argsort(perm)[small_population.edges],
            )
            inverse = np.argsort(perm)
            mapped_s0 = inverse[s0]
            data = trace_one_wave(relabeled, mapped_s0)
            assert (data.n0, data.n1) == (base.n0, base.n1)
            assert sorted(data.strata_s0) == sorted(base.strata_s0)
            assert sorted(data.strata_s1) == sorted(base.strata_s1)
            # degree-into-initial-sample multiset, split by block
            assert sorted(dense_links(data)[:, : data.n0].sum(axis=1)) == sorted(
                dense_links(base)[:, : base.n0].sum(axis=1)
            )
            assert sorted(dense_links(data)[:, data.n0 :].sum(axis=0)) == sorted(
                dense_links(base)[:, base.n0 :].sum(axis=0)
            )
            assert dense_links(data).sum() == dense_links(base).sum()

    def test_validation_rejects_unlinked_wave_unit(self):
        links = np.zeros((0, 2), dtype=int)
        with pytest.raises(ValidationError, match="no link"):
            IgnoredData(strata_s0=np.array([0]), strata_s1=np.array([0]), links=links)


class TestWaveSizeLaw:
    def test_moments_against_binomial(self):
        """Wave size given the initial strata composition is Binomial(N - n0, p')."""
        from references import wave_inclusion_probability

        params = SbmParams([0.5, 0.5], [0.08, 0.04, 0.06])
        n, n0 = 40, 6
        by_comp = {}
        for seed in range(3000):
            graph = generate_population(params, n, seed=seed)
            s0 = draw_initial(graph, DesignConfig(mode="fixed_size", n0=n0), seed + 10_000)
            sample = trace_one_wave(graph, s0)
            comp = tuple(np.bincount(sample.strata_s0, minlength=2))
            by_comp.setdefault(comp, []).append(sample.n1)
        comp, waves = max(by_comp.items(), key=lambda kv: len(kv[1]))
        waves = np.array(waves, dtype=float)
        p_prime = wave_inclusion_probability(np.array(comp), params)
        mean = (n - n0) * p_prime
        var = (n - n0) * p_prime * (1 - p_prime)
        assert abs(waves.mean() - mean) < 3 * np.sqrt(var / waves.size)


def test_sample_stats_are_sufficient_statistics_only():
    """What the chain reads of a sample is O(G^2), whatever n0: no field
    holds one entry per unit. Stacking R samples' statistics puts sample r's
    in row r of every field."""
    graph = generate_population(SbmParams([0.4, 0.6], [0.002, 0.001, 0.003]), 3000, seed=2)
    stats = [
        SampleStats.from_data(
            trace_one_wave(graph, draw_initial(graph, DesignConfig("fixed_size", n0=n0), n0)), 2
        )
        for n0 in (750, 40)
    ]
    assert stats[0].n0 == 750
    for f in fields(SampleStats):
        assert np.size(getattr(stats[0], f.name)) <= 2 * 2, f.name
    stacked = SampleStats.stack(stats)
    for f in fields(SampleStats):
        for r, one in enumerate(stats):
            assert np.array_equal(getattr(stacked, f.name)[r], getattr(one, f.name)), f.name
    assert stacked.n_strata == 2
    assert stacked.n_sampled.tolist() == [one.n_sampled for one in stats]

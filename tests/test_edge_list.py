"""The edge-list population graph and sample: every graph operation against
the same quantity computed from the dense `.adjacency` view, the
constructor's and the loader's input checks, and memory bounds that dense
population or sample matrices cannot meet."""

import tracemalloc

import numpy as np
import pytest

from snowball_sbm import (
    ClusterOverlay,
    DesignConfig,
    PopulationGraph,
    SampleStats,
    SbmParams,
    ValidationError,
    clustered_population,
    draw_initial,
    generate_population,
    sufficient_counts,
    trace_one_wave,
)
from snowball_sbm import io
from snowball_sbm.sbm import symmetric_from_upper

from dense_links import dense_links


def random_params(rng, g):
    lam = rng.dirichlet(np.ones(g))
    return SbmParams(lam, rng.uniform(0.0, 0.4, g * (g + 1) // 2))


def random_graphs(count=12):
    """Seeded block-model graphs with N <= 60 and G <= 3."""
    rng = np.random.default_rng(2024)
    for seed in range(count):
        g = int(rng.integers(1, 4))
        n = int(rng.integers(2, 61))
        yield seed, g, generate_population(random_params(rng, g), n, seed=seed)


def dense_link_counts(adj, strata, g):
    """Links per stratum pair, in upper-triangle order."""
    m = np.zeros((g, g), dtype=np.int64)
    for i, j in zip(*np.nonzero(np.triu(adj, 1))):
        k, l = sorted((strata[i], strata[j]))
        m[k, l] += 1
    return m[np.triu_indices(g)]


def test_edges_are_canonical():
    for _, _, graph in random_graphs():
        u, v = graph.edges[:, 0], graph.edges[:, 1]
        assert graph.edges.dtype == np.int64
        assert np.all(u < v)
        keys = u * graph.n_nodes + v
        assert np.all(np.diff(keys) > 0)  # sorted, no pair twice
        assert graph.edge_list() is graph.edges


def test_sufficient_counts_match_dense():
    for _, g, graph in random_graphs():
        counts = sufficient_counts(graph, g)
        assert np.array_equal(counts.link_counts, dense_link_counts(graph.adjacency, graph.strata, g))
        assert np.array_equal(counts.counts_sampled, np.bincount(graph.strata, minlength=g))


def test_degrees_match_dense():
    for _, _, graph in random_graphs():
        assert np.array_equal(graph.degrees(), graph.adjacency.sum(axis=1))


def test_trace_one_wave_matches_dense():
    rng = np.random.default_rng(7)
    for _, _, graph in random_graphs():
        adj = graph.adjacency
        n = graph.n_nodes
        for s0 in ([], list(range(n)), rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)):
            s0 = np.sort(np.asarray(s0, dtype=np.int64))
            sample = trace_one_wave(graph, s0)
            reached = adj[s0].any(axis=0)
            reached[s0] = False
            s1 = np.flatnonzero(reached)
            assert sample.n1 == s1.size
            assert np.array_equal(sample.strata_s1, graph.strata[s1])
            assert np.array_equal(dense_links(sample), adj[np.ix_(s0, np.concatenate([s0, s1]))])


def test_sample_statistics_match_dense():
    """Observed link counts M and pair totals T per stratum pair, by a loop
    over every observed pair (within S0, and S0 x wave) of the dense view."""
    rng = np.random.default_rng(9)
    for _, g, graph in random_graphs():
        n = graph.n_nodes
        s0 = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        data = trace_one_wave(graph, s0)
        strata = np.concatenate([data.strata_s0, data.strata_s1])
        links = dense_links(data)
        m = np.zeros((g, g), dtype=np.int64)
        t = np.zeros((g, g), dtype=np.int64)
        for i in range(data.n0):
            for j in range(i + 1, data.n_sampled):
                k, l = sorted((strata[i], strata[j]))
                t[k, l] += 1
                m[k, l] += links[i, j]
        stats = SampleStats.from_data(data, g)
        assert np.array_equal(stats.link_counts, m[np.triu_indices(g)])
        assert np.array_equal(stats.pair_totals, t[np.triu_indices(g)])


def test_clique_overlay_matches_dense():
    """The overlay as a dense matrix: background graph, then each clique's
    block set to linked and its diagonal cleared, drawing the same RNG."""
    rng = np.random.default_rng(11)
    for seed in range(8):
        g = int(rng.integers(1, 4))
        n = int(rng.integers(6, 61))
        params = random_params(rng, g)
        overlay = ClusterOverlay(clique_size=int(rng.integers(2, 5)),
                                 background_scale=float(rng.choice([0.0, 0.5, 1.0])))
        graph = clustered_population(params, n, overlay, seed=seed)

        ref_rng = np.random.default_rng(seed)
        beta = symmetric_from_upper(params.beta, g)
        beta_bg = np.array(beta, copy=True)
        np.fill_diagonal(beta_bg, np.diagonal(beta) * overlay.background_scale)
        base = generate_population(SbmParams(lam=params.lam, beta=beta_bg[np.triu_indices(g)]), n, seed=ref_rng)
        adj = base.adjacency
        size = overlay.clique_size
        for k in range(g):
            members = ref_rng.permutation(np.flatnonzero(base.strata == k))
            n_k = members.size
            removed = (1.0 - overlay.background_scale) * beta[k, k] * n_k * (n_k - 1) / 2.0
            for c in range(min(int(round(removed / (size * (size - 1) // 2))), n_k // size)):
                group = members[c * size : (c + 1) * size]
                adj[np.ix_(group, group)] = True
                adj[group, group] = False
        assert np.array_equal(graph.strata, base.strata)
        assert np.array_equal(graph.adjacency, adj)


class TestConstructorChecks:
    def test_canonicalizes_pair_and_row_order(self):
        graph = PopulationGraph(strata=np.zeros(4, dtype=int), edges=[[3, 1], [0, 2], [1, 0]])
        assert graph.edges.tolist() == [[0, 1], [0, 2], [1, 3]]

    def test_empty_edge_list(self):
        graph = PopulationGraph(strata=np.zeros(3, dtype=int), edges=[])
        assert graph.edges.shape == (0, 2)
        assert graph.degrees().tolist() == [0, 0, 0]

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([[0, 1], [2, 2]], "self-link at node 2"),
            ([[0, 3]], "outside 0..2"),
            ([[-1, 1]], "outside 0..2"),
            ([[0, 1], [1, 2], [0, 1]], "duplicate edge 0,1"),
            ([[0, 1], [1, 0]], "duplicate edge 0,1"),
            ([[0, 1, 2]], "shape"),
        ],
    )
    def test_rejects(self, edges, message):
        with pytest.raises(ValidationError, match=message):
            PopulationGraph(strata=np.zeros(3, dtype=int), edges=edges)


class TestLoadGraphChecks:
    @pytest.mark.parametrize(
        "rows, message",
        [
            ("0\t1\n2\t2\n", ":3: self-link 2"),
            ("0\t1\n1\t3\n", ":3: node id outside 0..2"),
            ("0\t1\n-1\t2\n", ":3: node id outside 0..2"),
            ("0\t1\n1\t2\n0\t1\n", ":4: duplicate edge 0,1"),
            ("0\t1\n1\t2\n1\t0\n", ":4: duplicate edge 1,0"),
        ],
    )
    def test_rejects_with_file_and_line(self, tmp_path, rows, message):
        strata, edges = tmp_path / "s.csv", tmp_path / "e.tsv"
        strata.write_text("node_id,stratum\n0,1\n1,1\n2,2\n")
        edges.write_text("u\tv\n" + rows)
        with pytest.raises(ValidationError) as info:
            io.load_graph(str(edges), str(strata))
        assert str(info.value).startswith(f"{edges}{message}")


def test_city_scale_population_work_stays_small():
    """generate, counts and one wave at N = 50 000 under tracemalloc. The
    dense N x N bool matrix alone would be 2.5 GB; the edge list needs a
    few MB, plus the n0 x (n0 + n1) sample link matrix."""
    n = 50_000
    scale = 595 / n
    params = SbmParams([0.425, 0.575], [0.0046 * scale, 0.0014 * scale, 0.0058 * scale])
    tracemalloc.start()
    try:
        graph = generate_population(params, n, seed=5)
        counts = sufficient_counts(graph, 2)
        s0 = draw_initial(graph, DesignConfig(mode="bernoulli", q=0.05), 6)
        sample = trace_one_wave(graph, s0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.counts_sampled.sum() == n
    assert sample.n0 > 0 and sample.n1 > 0
    assert peak < 64 * 2**20, f"peak traced allocation {peak / 2**20:.1f} MB"


def test_city_scale_sample_path_stays_small(tmp_path):
    """One wave traced into its label-free form, the sample file's write and
    read, and the sample statistics at N = 50 000 under tracemalloc. The links stay (L, 2)
    pairs throughout; an n0 x (n0 + n1) int64 link matrix alone would take
    over 100 MB at this size."""
    n = 50_000
    scale = 595 / n
    params = SbmParams([0.425, 0.575], [0.0046 * scale, 0.0014 * scale, 0.0058 * scale])
    graph = generate_population(params, n, seed=5)
    s0 = draw_initial(graph, DesignConfig(mode="bernoulli", q=0.05), 6)
    path = str(tmp_path / "sample.json")
    tracemalloc.start()
    try:
        data = trace_one_wave(graph, s0)
        io.save_sample(data, path)
        loaded, _ = io.load_sample(path)
        stats = SampleStats.from_data(loaded, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20, f"peak traced allocation {peak / 2**20:.1f} MB"
    assert np.array_equal(loaded.links, data.links)
    assert stats.link_counts.sum() == len(data.links)

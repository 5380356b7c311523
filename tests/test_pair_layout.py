"""One layout for every stratum-pair quantity: beta, link counts and pair
totals are held as the row-major upper triangle (pairs k <= l), the order
the files hold them in, with P = G(G+1)/2 entries on the last axis."""

from itertools import combinations, combinations_with_replacement

import numpy as np
import pytest

from snowball_sbm import (
    DesignConfig,
    McmcConfig,
    SampleStats,
    SbmParams,
    ValidationError,
    draw_initial,
    generate_population,
    gibbs_sweep,
    mle_from_full_graph,
    run_chain,
    sufficient_counts,
    trace_one_wave,
)
from snowball_sbm.augmentation import initial_state
from snowball_sbm.sbm import estimand_names, pair_totals_from_counts, stratum_pair_counts, upper_indices


def layout_case(g):
    rng = np.random.default_rng(g)
    pairs = g * (g + 1) // 2
    params = SbmParams(rng.dirichlet(np.ones(g)), rng.uniform(0.1, 0.5, pairs))
    graph = generate_population(params, 30, seed=g)
    s0 = draw_initial(graph, DesignConfig(mode="fixed_size", n0=8), g)
    return params, graph, trace_one_wave(graph, s0)


def brute_force_pair_counts(strata, node_pairs, g):
    """Node pairs per unordered stratum pair, listed pair (0,0), (0,1), ..."""
    keys = [tuple(sorted((strata[u], strata[v]))) for u, v in node_pairs]
    return [keys.count(kl) for kl in combinations_with_replacement(range(g), 2)]


@pytest.mark.parametrize("g", [1, 2, 3])
def test_last_axis_is_the_upper_triangle(g):
    params, graph, data = layout_case(g)
    pairs = g * (g + 1) // 2
    counts = sufficient_counts(graph, g)
    stats = SampleStats.from_data(data, g)
    batch = SampleStats.stack([stats])
    cfg = McmcConfig(chain_length=5)
    cap = np.array([cfg.effective_cap(stats.n_sampled)])
    n, _, lam, beta = gibbs_sweep(*initial_state(batch), batch, cap, cfg, [np.random.default_rng(g)])
    trace = run_chain(data, cfg, g, n_strata=g)
    arrays = {
        "SbmParams.beta": params.beta,
        "sufficient_counts.link_counts": counts.link_counts,
        "sufficient_counts.pair_totals": counts.pair_totals,
        "SampleStats.link_counts": stats.link_counts,
        "SampleStats.pair_totals": stats.pair_totals,
        "MleEstimates.beta": mle_from_full_graph(graph, g).beta,
        "gibbs_sweep beta": beta,
    }
    for name, array in arrays.items():
        assert array.shape[-1] == pairs, f"{name} has shape {array.shape}"
    # the trace's first sweep is that sweep's draws: its columns are N, lambda, then beta in upper-triangle order
    assert trace.draws.shape[-1] == 1 + g + pairs
    columns = dict(zip(estimand_names(g), trace.draws[0].tolist(), strict=True))
    assert columns["N"] == n[0]
    assert [columns[f"lambda_{k + 1}"] for k in range(g)] == lam[0].tolist()
    assert [columns[f"beta_{k + 1}_{l + 1}"] for k, l in zip(*upper_indices(g))] == beta[0].tolist()


@pytest.mark.parametrize("g", [1, 2, 3])
def test_pair_counts_match_brute_force(g):
    _, graph, _ = layout_case(g)
    assert list(zip(*upper_indices(g))) == list(combinations_with_replacement(range(g), 2))
    edges = graph.edges.tolist()
    assert stratum_pair_counts(graph.strata, graph.edges, g).tolist() == \
        brute_force_pair_counts(graph.strata, edges, g)
    all_pairs = list(combinations(range(graph.n_nodes), 2))
    strata_counts = np.bincount(graph.strata, minlength=g)
    assert pair_totals_from_counts(strata_counts).tolist() == brute_force_pair_counts(graph.strata, all_pairs, g)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_matrix_beta_rejected(g):
    pairs = g * (g + 1) // 2
    with pytest.raises(ValidationError, match=f"length {pairs}"):
        SbmParams(np.full(g, 1.0 / g), np.full((g, g), 0.1))

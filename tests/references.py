"""Independent reference computations that the tests compare the package
against. The package never calls them: the sweep integrates the unobserved
links out, the escape probability 1 - p is computed another way, graph
files are parsed by numpy, a wave is relabeled by one index lookup,
sample files are read into numpy arrays whose links `IgnoredData` checks,
and the chain never sums N out of the posterior of (lambda, beta)."""

import numpy as np

from snowball_sbm import IgnoredData, McmcConfig, PopulationGraph, SampleStats, SbmParams, ValidationError
from snowball_sbm.io import EDGE_HEADER, STRATA_HEADER, _load_json, _require
from snowball_sbm.likelihoods import n_free_terms
from snowball_sbm.logmath import xlog1py
from snowball_sbm.sbm import INT64_MAX, _is_integer, check_int, pair_totals_from_counts, symmetric_from_upper


def impute_link_counts(stats: SampleStats, n, strata_all_counts, beta: np.ndarray, rngs) -> np.ndarray:
    """Impute each row's link counts (R, P) for every pair not touched by the initial sample.

    Pairs with both endpoints outside the initial sample (wave-wave,
    wave-unsampled, unsampled-unsampled) are the unobserved ones; for each
    stratum pair the count is Binomial(pairs available, beta). The completed
    stratum counts are checked against N and the observed wave first. The
    sweep integrates these links out instead; this uncollapsed draw is the
    reference for that collapsed step.
    """
    strata_all_counts = np.asarray(strata_all_counts, dtype=np.int64)
    if (strata_all_counts.sum(axis=-1) != n).any():
        raise ValidationError("stratum counts do not sum to the population size")
    outside = strata_all_counts - stats.counts_s0
    if (outside < stats.counts_s1).any():
        raise ValidationError("stratum counts inconsistent with the observed wave")
    totals = pair_totals_from_counts(outside).tolist()
    draws = [list(map(rng.binomial, row, p)) for rng, row, p in zip(rngs, totals, beta.tolist())]
    return np.array(draws, dtype=np.int64)


def lambda_beta_log_marginal(stats: SampleStats, params: SbmParams, cfg: McmcConfig, cap: int | None = None):
    """log pi(lambda, beta | data) up to a constant: the label-free posterior
    with N and the unsampled strata summed out under the flat prior on N,

        log pi(lambda) + log pi(beta) + block - (n1 + 1) log p,

    with ``block`` and log(1 - p) from :func:`likelihoods.n_free_terms`, since
    the excess M = N - n0 - n1 sums as sum_M C(n1 + M, n1) (1 - p)^M =
    p^-(n1 + 1). Under a ``cap`` on N the sum stops at K = cap - n0 - n1, which
    adds log P(NB(n1 + 1, p) <= K). The priors are ``cfg``'s
    Dirichlet(prior_alpha) on lambda and Beta(prior_gamma) on each beta.
    Needs p > 0 and every beta in (0, 1)."""
    from scipy.special import gammaln
    from scipy.stats import nbinom

    block, log_omp = n_free_terms(stats, params)
    log_p = np.log(-np.expm1(log_omp))
    alpha = np.broadcast_to(np.asarray(cfg.prior_alpha, dtype=np.float64), params.lam.shape)
    g1, g2 = cfg.prior_gamma
    log_prior = (gammaln(alpha.sum()) - gammaln(alpha).sum() + np.sum((alpha - 1) * np.log(params.lam))
                 + np.sum(gammaln(g1 + g2) - gammaln(g1) - gammaln(g2)
                          + (g1 - 1) * np.log(params.beta) + (g2 - 1) * np.log1p(-params.beta)))
    value = log_prior + block - (stats.n1 + 1) * log_p
    if cap is not None:
        value += nbinom.logcdf(cap - stats.n_sampled, stats.n1 + 1, np.exp(log_p))
    return float(value)


def wave_inclusion_probability(counts_s0, params: SbmParams) -> float:
    """p' = sum_k lambda_k (1 - prod_l (1 - beta_{k,l})^{n0l}).

    The marginal probability that a unit outside the initial sample joins the
    wave, given only the initial sample's stratum composition; the wave size
    is Binomial(N - n0, p') under the model.
    """
    counts = np.asarray(counts_s0, dtype=np.float64)
    beta = symmetric_from_upper(params.beta, counts.size)
    log_avoid = xlog1py(counts[None, :], -beta).sum(axis=1)
    return float(np.sum(params.lam * -np.expm1(log_avoid)))


def load_graph_per_line(edges_path: str, strata_path: str) -> PopulationGraph:
    """The graph files read one line at a time, each line checked as it is
    read, so the first bad line in file order is the one reported. This is
    the reader `io.load_graph` replaced; its results and messages are the
    reference for the numpy reader."""
    strata_rows = {}
    with open(strata_path) as fh:
        for line_no, line in enumerate(fh):
            line = line.strip()
            if not line or (line_no == 0 and line == STRATA_HEADER):
                continue
            try:
                node_txt, stratum_txt = line.split(",")
                node, stratum = int(node_txt), int(stratum_txt)
            except ValueError as exc:
                raise ValidationError(f"{strata_path}:{line_no + 1}: bad row {line!r}") from exc
            if stratum < 1:
                raise ValidationError(f"{strata_path}:{line_no + 1}: strata are labeled 1..G")
            if node in strata_rows:
                raise ValidationError(f"{strata_path}: duplicate node id {node}")
            strata_rows[node] = stratum - 1
    n = len(strata_rows)
    if set(strata_rows) != set(range(n)):
        raise ValidationError(f"{strata_path}: node ids must cover 0..N-1 exactly once")
    strata = np.array([strata_rows[i] for i in range(n)], dtype=np.int64)

    pairs, seen = [], set()
    with open(edges_path) as fh:
        for line_no, line in enumerate(fh):
            line = line.strip()
            if not line or (line_no == 0 and line == EDGE_HEADER):
                continue
            try:
                u_txt, v_txt = line.split("\t")
                u, v = int(u_txt), int(v_txt)
            except ValueError as exc:
                raise ValidationError(f"{edges_path}:{line_no + 1}: bad row {line!r}") from exc
            if u == v:
                raise ValidationError(f"{edges_path}:{line_no + 1}: self-link {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValidationError(f"{edges_path}:{line_no + 1}: node id outside 0..{n - 1}")
            pair = (min(u, v), max(u, v))
            if pair in seen:
                raise ValidationError(f"{edges_path}:{line_no + 1}: duplicate edge {u},{v}")
            seen.add(pair)
            pairs.append(pair)
    return PopulationGraph(strata=strata, edges=np.array(pairs, dtype=np.int64).reshape(-1, 2))


def trace_then_relabel(graph: PopulationGraph, s0) -> IgnoredData:
    """One wave traced in node ids, then relabeled by sorting: the initial
    sample and the wave each sorted by id, the ids concatenated, and every
    link endpoint found in them by binary search. This is the two-step path
    that `sampling.trace_one_wave` replaced; its result is the reference."""
    s0 = np.asarray(s0, dtype=np.int64)
    links = graph.edges[np.isin(graph.edges, s0).any(axis=1)]
    s1 = np.setdiff1d(links, s0)
    order0, order1 = np.argsort(s0, kind="stable"), np.argsort(s1, kind="stable")
    ids = np.concatenate([s0[order0], s1[order1]])  # id of each canonical index
    by_id = np.argsort(ids)
    return IgnoredData(
        strata_s0=graph.strata[s0][order0],
        strata_s1=graph.strata[s1][order1],
        links=by_id[np.searchsorted(ids, links, sorter=by_id)],
    )


def load_sample_per_link(path: str):
    """A sample file read one link and one stratum at a time, each checked
    as it is read, so the first bad entry in list order is the one reported.
    This is the reader `io.load_sample` replaced; its results and messages
    are the reference for the numpy reader."""
    doc = _load_json(path)
    n0 = _require(doc, "n0", path)
    n1 = _require(doc, "n1", path)
    strata_s0 = _require(doc, "strata_s0", path)
    strata_s1 = _require(doc, "strata_s1", path)
    links = _require(doc, "links", path)
    if not (_is_integer(n0) and _is_integer(n1) and n0 >= 0 and n1 >= 0):
        raise ValidationError(f"{path}: n0 and n1 must be non-negative integers")
    if n0 == 0:
        raise ValidationError(f"{path}: empty initial sample (n0 = 0): the sample carries no information")
    for name, strata, size in (("strata_s0", strata_s0, n0), ("strata_s1", strata_s1, n1)):
        if not isinstance(strata, list) or len(strata) != size:
            raise ValidationError(f"{path}: {name}: must be a list of length {size}")
        bad = next((s for s in strata if not (_is_integer(s) and 1 <= s <= INT64_MAX)), None)
        if bad is not None:
            raise ValidationError(f"{path}: {name}: bad stratum {bad!r}: strata are integers labeled 1..G")
    if not isinstance(links, list):
        raise ValidationError(f"{path}: links: must be a list of [i, j] pairs")
    n, seen = n0 + n1, set()
    for pair in links:
        if not (isinstance(pair, list) and len(pair) == 2 and all(_is_integer(x) for x in pair)):
            raise ValidationError(f"{path}: links: {pair!r} is not an [i, j] pair of integers")
        i, j = pair
        if not (1 <= i < j <= n):
            raise ValidationError(f"{path}: links: link [{i}, {j}] outside canonical range")
        if i > n0:
            raise ValidationError(f"{path}: links: link [{i}, {j}] has no endpoint in the initial sample")
        if (i, j) in seen:
            raise ValidationError(f"{path}: links: duplicate link [{i}, {j}]")
        seen.add((i, j))
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise ValidationError(f"{path}: meta: must be an object")
    try:
        if "n_strata" in meta:  # at least the largest stratum label
            check_int(meta["n_strata"], "meta: n_strata", max(strata_s0 + strata_s1), INT64_MAX)
        data = IgnoredData(
            strata_s0=np.array(strata_s0, dtype=np.int64) - 1,
            strata_s1=np.array(strata_s1, dtype=np.int64) - 1,
            links=np.array(sorted(seen), dtype=np.int64).reshape(-1, 2) - 1,
        )
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    return data, meta

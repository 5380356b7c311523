"""Independent reference computations that the tests compare the package
against. The package never calls them: the sweep integrates the unobserved
links out, the escape probability 1 - p is computed another way, graph
files are parsed by numpy, a wave is relabeled by one index lookup,
sample files are read into numpy arrays whose links `IgnoredData` checks,
and the chain never sums N out of the posterior of (lambda, beta)."""

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from snowball_sbm import IgnoredData, McmcConfig, PopulationGraph, SampleStats, SbmParams, ValidationError
from snowball_sbm.io import EDGE_HEADER, STRATA_HEADER, _load_json, _require
from snowball_sbm.likelihoods import escape_terms, n_free_terms, stratum_escape_log_weights
from snowball_sbm.logmath import xlog1py
from snowball_sbm.sbm import MAX_STRATA, _is_integer, check_int, pair_totals_from_counts, symmetric_from_upper


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


def lambda_beta_log_marginal(stats: SampleStats, params, cfg: McmcConfig, cap: int | None = None):
    """log pi(lambda, beta | data) up to a constant: the label-free posterior
    with N and the unsampled strata summed out under the flat prior on N,

        log pi(lambda) + log pi(beta) + block - (n1 + 1) log p,

    with ``block`` and log(1 - p) from :func:`likelihoods.n_free_terms`, since
    the excess M = N - n0 - n1 sums as sum_M C(n1 + M, n1) (1 - p)^M =
    p^-(n1 + 1). Under a ``cap`` on N the sum stops at K = cap - n0 - n1, which
    adds log P(NB(n1 + 1, p) <= K). The priors are ``cfg``'s
    Dirichlet(prior_alpha) on lambda and Beta(prior_gamma) on each beta.
    Needs p > 0 and every beta in (0, 1). ``params`` is one SbmParams, giving
    a float, or a sequence of them, giving an array with one value each."""
    from scipy.special import gammaln
    from scipy.stats import nbinom

    batch = [params] if isinstance(params, SbmParams) else params
    block, log_omp = np.array([n_free_terms(stats, p) for p in batch]).reshape(-1, 2).T
    lam, beta = np.array([p.lam for p in batch]), np.array([p.beta for p in batch])
    with np.errstate(divide="ignore"):
        log_p = np.log(-np.expm1(log_omp))
        log_lam, log_beta, log_1mb = np.log(lam), np.log(beta), np.log1p(-beta)
    alpha = np.broadcast_to(np.asarray(cfg.prior_alpha, dtype=np.float64), lam.shape[-1:])
    g1, g2 = cfg.prior_gamma
    log_prior = (gammaln(alpha.sum()) - gammaln(alpha).sum() + np.sum((alpha - 1) * log_lam, axis=-1)
                 + np.sum(gammaln(g1 + g2) - gammaln(g1) - gammaln(g2)
                          + (g1 - 1) * log_beta + (g2 - 1) * log_1mb, axis=-1))
    value = log_prior + block - (stats.n1 + 1) * log_p
    if cap is not None:
        value += nbinom.logcdf(cap - stats.n_sampled, stats.n1 + 1, np.exp(log_p))
    return float(value[0]) if isinstance(params, SbmParams) else value


def pareto_k_hat(log_weights) -> float:
    """The Pareto shape k of the importance weights' upper tail, as PSIS
    estimates it (Vehtari, Simpson, Gelman, Yao & Gabry, arXiv:1507.02646): a
    generalized Pareto fit to the largest min(S/5, 3 sqrt(S)) weights above
    the next one, by Zhang & Stephens' (2009, Technometrics 51:316) empirical
    Bayes estimate with PSIS's weak prior toward 1/2. Below 0.7 the weights'
    estimates are trustworthy; below 0.5 the weights have finite variance."""
    w = np.sort(np.exp(np.asarray(log_weights) - np.max(log_weights)))
    tail = int(np.ceil(min(0.2 * w.size, 3 * np.sqrt(w.size))))
    x = w[-tail:] - w[-tail - 1]
    n = x.size
    grid = 30 + int(np.sqrt(n))
    b = (1 - np.sqrt(grid / (np.arange(1, grid + 1) - 0.5))) / (3 * x[int(n / 4 + 0.5) - 1]) + 1 / x[-1]
    k = np.log1p(-b[:, None] * x).mean(axis=1)
    profile = n * (np.log(-b / k) - k - 1)
    weights = 1 / np.exp(profile - profile[:, None]).sum(axis=1)
    k_post = np.log1p(-np.sum(b * weights) / np.sum(weights) * x).mean()
    return float((n * k_post + 10 * 0.5) / (n + 10))


def unconstrained_params(theta: np.ndarray, g: int):
    """(lambda, beta, log Jacobian) of draws ``theta`` (S, G - 1 + P): lambda
    in additive log-ratio coordinates against the last stratum, beta in
    logits. The Jacobian of the map to (lambda_1..lambda_{G-1}, beta) is
    prod_k lambda_k * prod beta (1 - beta)."""
    from scipy.special import log_expit, logsumexp

    eta = np.column_stack([theta[:, :g - 1], np.zeros(len(theta))])
    log_lam = eta - logsumexp(eta, axis=1, keepdims=True)
    log_beta, log_1mb = log_expit(theta[:, g - 1:]), log_expit(-theta[:, g - 1:])
    return np.exp(log_lam), np.exp(log_beta), log_lam.sum(axis=1) + (log_beta + log_1mb).sum(axis=1)


@dataclass(frozen=True)
class ReferencePosterior:
    """Posterior mean and sd per estimand (columns as ``estimand_names``),
    the Monte Carlo standard error of each, and the importance weights' ESS
    and Pareto k-hat."""

    mean: np.ndarray
    sd: np.ndarray
    mcse_mean: np.ndarray
    mcse_sd: np.ndarray
    ess: float
    k_hat: float


def importance_posterior(stats: SampleStats, cfg: McmcConfig, cap: int, draws: int = 4000,
                         seed=0) -> ReferencePosterior:
    """The posterior of (N, lambda, beta) under a ``cap`` on N by
    self-normalized importance sampling on :func:`lambda_beta_log_marginal`,
    independent of the chain.

    The proposal is a multivariate t with 4 degrees of freedom centred on a
    Laplace fit of the marginal in :func:`unconstrained_params` coordinates
    (its mode by BFGS, its scale the inverse of the Hessian there, by central
    differences). Given each draw's (lambda, beta), the excess N - n0 - n1 is
    NB(n1 + 1, p) truncated at K = cap - n0 - n1, so N's posterior is a
    weighted mixture of them and its moments are exact given the weights:
    E[M] = r (1 - p) / p F_{r+1}(K - 1) / F_r(K) and
    E[M(M - 1)] = r (r + 1) ((1 - p) / p)^2 F_{r+2}(K - 2) / F_r(K), with
    r = n1 + 1 and F_r the NB(r, p) CDF. A mean's Monte Carlo error is
    sqrt(sum w^2 (h - mean)^2) for normalized weights w; an sd's is that of
    the variance over 2 sd."""
    from scipy.optimize import minimize
    from scipy.stats import multivariate_t, nbinom

    g = stats.n_strata
    d = g - 1 + g * (g + 1) // 2

    def log_target(theta):
        lam, beta, log_jacobian = unconstrained_params(np.reshape(theta, (-1, d)), g)
        batch = [SbmParams(l, b) for l, b in zip(lam, beta)]
        return lambda_beta_log_marginal(stats, batch, cfg, cap) + log_jacobian

    lam0 = (stats.counts_sampled + 1.0) / (stats.n_sampled + g)
    beta0 = (stats.link_counts + 1.0) / (stats.pair_totals + 2.0)
    start = np.concatenate([np.log(lam0[:-1] / lam0[-1]), np.log(beta0 / (1 - beta0))])
    mode = minimize(lambda theta: -log_target(theta)[0], start, method="BFGS").x
    h = 1e-3
    steps = np.eye(d) * h
    # f(x + a e_i + b e_j) for a, b in +-h: H_ij = (f++ - f+- - f-+ + f--) / 4h^2
    corners = [mode + si * steps[i] + sj * steps[j] for i in range(d) for j in range(d)
               for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
    f = log_target(np.array(corners)).reshape(d, d, 4)
    hessian = (f[..., 0] - f[..., 1] - f[..., 2] + f[..., 3]) / (4 * h * h)
    proposal = multivariate_t(mode, np.linalg.inv(-(hessian + hessian.T) / 2), df=4, seed=seed)
    theta = np.reshape(proposal.rvs(draws), (draws, d))
    log_w = log_target(theta) - proposal.logpdf(theta)
    w = np.exp(log_w - log_w.max())
    w /= w.sum()

    lam, beta, _ = unconstrained_params(theta, g)
    omp, _, _ = escape_terms(stratum_escape_log_weights(stats.counts_s0, SimpleNamespace(lam=lam, beta=beta)))
    p, r, k, ns = 1 - omp, stats.n1 + 1, cap - stats.n_sampled, stats.n_sampled
    log_f = nbinom.logcdf(k, r, p)
    m1 = r * omp / p * np.exp(nbinom.logcdf(k - 1, r + 1, p) - log_f)
    m2 = r * (r + 1) * (omp / p) ** 2 * np.exp(nbinom.logcdf(k - 2, r + 2, p) - log_f) + m1
    first = np.column_stack([ns + m1, lam, beta])  # E[h | lambda, beta] per draw
    second = np.column_stack([ns * ns + 2 * ns * m1 + m2, lam**2, beta**2])
    mean = w @ first
    var = w @ second - mean**2
    centred = second - 2 * mean * first + mean**2  # E[(h - mean)^2 | lambda, beta]
    mcse_mean = np.sqrt(w**2 @ (first - mean) ** 2)
    mcse_var = np.sqrt(w**2 @ (centred - var) ** 2)
    sd = np.sqrt(np.maximum(var, 0))  # lambda_1 = 1 at G = 1: sd 0 and no error
    mcse_sd = np.divide(mcse_var, 2 * sd, out=np.zeros_like(sd), where=sd > 0)
    return ReferencePosterior(mean, sd, mcse_mean, mcse_sd, float(1 / np.sum(w**2)), pareto_k_hat(log_w))


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


def frank_snijders_size(data: IgnoredData, design: str = "fixed_size") -> float:
    """A Frank-Snijders-type moment estimate of N from the links at the
    initial sample (Frank & Snijders 1994, J. Official Statistics 10:53).

    Of the 2r + s link ends at initial-sample members, where r counts S0-S0
    links and s counts S0-wave links, 2r point into S0. Under a simple random
    initial sample of n0 units an end points there with probability
    (n0 - 1)/(N - 1), so N = 1 + (n0 - 1)(2r + s)/(2r); under a Bernoulli
    design with probability n0/N, so N = n0 (2r + s)/(2r). NaN when r = 0.
    Reads only the sample's links and n0.
    """
    links = np.asarray(data.links).reshape(-1, 2)
    inside = int(np.count_nonzero(links.max(axis=1) < data.n0))  # r: both ends in S0
    ends = 2 * inside + (len(links) - inside)  # 2r + s
    if inside == 0:
        return float("nan")
    if design == "fixed_size":
        return 1 + (data.n0 - 1) * ends / (2 * inside)
    return data.n0 * ends / (2 * inside)


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
            if not 1 <= stratum <= MAX_STRATA:
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
        bad = next((s for s in strata if not (_is_integer(s) and 1 <= s <= MAX_STRATA)), None)
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
            check_int(meta["n_strata"], "meta: n_strata", max(strata_s0 + strata_s1), MAX_STRATA)
        data = IgnoredData(
            strata_s0=np.array(strata_s0, dtype=np.int64) - 1,
            strata_s1=np.array(strata_s1, dtype=np.int64) - 1,
            links=np.array(sorted(seen), dtype=np.int64).reshape(-1, 2) - 1,
        )
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    return data, meta

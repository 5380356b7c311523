"""Stochastic block model: parameters, population generation, counts, MLEs.

One count type, :class:`SampleStats`, holds a sample's stratum counts, link
counts and pair totals, and a full graph's as those of a census.

Strata are labeled 1..G in every external file format and 0..G-1 in memory;
all arrays here use the internal convention.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .logmath import xlog1py, xlogy

if TYPE_CHECKING:  # sbm never loads sampling; SampleStats.from_data reads IgnoredData's attributes only
    from .sampling import IgnoredData

LAMBDA_SUM_TOL = 1e-12
INT64_MAX = np.iinfo(np.int64).max
# Fixed limits on the inputs that size an allocation, each keeping its array under 1 GiB:
MAX_STRATA = 1_000  # G: a G x G float64 matrix takes 8 MB
MAX_POPULATION = 10_000_000  # N: a per-unit int64 array takes 80 MB, a strata file's two columns 160 MB
MAX_DRAWS = 50_000_000  # entries R x L x (1 + G + G(G+1)/2) of run_chains' float64 draws table: 400 MB
MAX_BINS = 1_000_000  # a study's histogram bins: 8 MB of bin edges per estimand


class ValidationError(ValueError):
    """Raised when inputs violate a documented invariant."""


class RowError(ValidationError):
    """A ValidationError naming the ``row`` of an input array and the ``fault`` that rejected it."""

    def __init__(self, row: int, fault: str, message: str = ""):
        super().__init__(message or f"row {row}: {fault}")
        self.row, self.fault = row, fault


def _is_integer(value) -> bool:
    """An int or numpy integer; bools, floats such as 2.0 and strings are not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    """A finite int or float, numpy scalars included; bools and strings are not."""
    number = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    return number and math.isfinite(value)


def check_int(value, name: str, minimum: int, maximum: int | None = None) -> int:
    """Return ``value`` as an int if it is an integer of at least ``minimum``
    (and at most ``maximum``, when given); otherwise raise a ValidationError naming it."""
    if not _is_integer(value) or value < minimum:
        raise ValidationError(f"{name} must be an integer >= {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        raise ValidationError(f"{name} must be at most {maximum}, got {value!r}")
    return int(value)


def check_draws(chains: int, chain_length: int, g: int, what: str):
    """Raise unless the draws table of ``chains`` chains of ``chain_length``
    sweeps at G strata has at most MAX_DRAWS entries; ``what`` names the inputs."""
    columns = 1 + g + g * (g + 1) // 2
    if (draws := chains * chain_length * columns) > MAX_DRAWS:
        raise ValidationError(f"{what}: {chains} chains x {chain_length} sweeps x {columns} estimands is "
                              f"{draws} draws, above the limit of {MAX_DRAWS}")


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=16)
def upper_indices(g: int):
    """Row-major upper-triangle index pair (k <= l) for a G x G matrix.

    Cached because a Gibbs sweep indexes with it several times; the arrays
    are read-only, so callers cannot alter the shared result.
    """
    rows, cols = np.triu_indices(g)
    return _freeze(rows), _freeze(cols)


def estimand_names(g: int) -> list[str]:
    """N, then lambda per stratum, then beta per pair in :func:`upper_indices` order."""
    names = ["N"] + [f"lambda_{k + 1}" for k in range(g)]
    names += [f"beta_{k + 1}_{l + 1}" for k in range(g) for l in range(k, g)]
    return names


def estimand_blocks(g: int) -> tuple[slice, slice, slice]:
    """The columns of N, of lambda and of beta among :func:`estimand_names`."""
    return slice(0, 1), slice(1, 1 + g), slice(1 + g, None)


@lru_cache(maxsize=16)
def _upper_positions(g: int) -> np.ndarray:
    """G x G map from each entry to its place in the row-major upper triangle."""
    rows, cols = upper_indices(g)
    positions = np.zeros((g, g), dtype=np.intp)
    positions[rows, cols] = positions[cols, rows] = np.arange(rows.size)
    return _freeze(positions)


def symmetric_from_upper(upper, g: int) -> np.ndarray:
    """The symmetric G x G matrices whose row-major upper triangles are the
    last axis of ``upper``; leading axes and the dtype are kept."""
    return np.asarray(upper)[..., _upper_positions(g)]


@dataclass(frozen=True)
class SbmParams:
    """Stratum probabilities and the link probability of each stratum pair.

    ``beta`` holds one probability per unordered pair k <= l, in the
    row-major upper-triangle order of :func:`upper_indices`: the order every
    file holds it in.
    """

    lam: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=np.float64).reshape(-1)
        beta = np.array(self.beta, dtype=np.float64)  # a copy: it is frozen below
        pairs = lam.size * (lam.size + 1) // 2
        if beta.shape != (pairs,):
            raise ValidationError(f"beta upper triangle must have length {pairs}, got {beta.shape}")
        if lam.size < 1:
            raise ValidationError("at least one stratum is required (G >= 1)")
        if not np.isfinite(lam).all():
            raise ValidationError("lambda has non-finite entries")
        if not np.isfinite(beta).all():
            raise ValidationError("beta has non-finite entries")
        if np.any(lam < 0):
            raise ValidationError("lambda has negative entries")
        if abs(float(lam.sum()) - 1.0) > LAMBDA_SUM_TOL:
            raise ValidationError(f"lambda does not sum to 1 (sum={float(lam.sum())!r})")
        if np.any(beta < 0) or np.any(beta > 1):
            raise ValidationError("beta out of range [0, 1]")
        object.__setattr__(self, "lam", _freeze(lam))
        object.__setattr__(self, "beta", _freeze(beta))

    @property
    def n_strata(self) -> int:
        return self.lam.size

    def beta_upper(self) -> np.ndarray:
        """A copy of ``beta``; kept only because bench/workloads.py calls it."""
        return self.beta.copy()


def later_repeats(values: np.ndarray):
    """The stable sort order of ``values`` and a mask of the entries repeating an earlier one."""
    order = np.argsort(values, kind="stable")
    later = np.zeros(values.size, dtype=bool)
    later[order[1:]] = values[order[1:]] == values[order[:-1]]
    return order, later


def first_fault(faults: dict) -> tuple[int, str] | None:
    """(row, name) of the first row that a mask of ``faults`` (name -> row mask,
    by precedence) marks, named by the first mask that marks it; else None."""
    bad = np.flatnonzero(np.logical_or.reduce(list(faults.values())))
    return (int(bad[0]), next(name for name, mask in faults.items() if mask[bad[0]])) if bad.size else None


def canonical_pairs(pairs, n: int, what: str, hub: int | None = None) -> np.ndarray:
    """An (E, 2) int64 array of unordered pairs of ids in 0..n-1, in canonical
    form: the smaller id first in each row, rows sorted, read-only.

    Any pair order and row order is accepted; a wrong shape is rejected, and
    a :class:`RowError` names the first row that is a self-link, has an id
    out of range, has no id below ``hub`` when that is given (a sample's
    initial sample) or repeats an earlier pair in either orientation, with
    the first of these faults; the message names each pair a ``what``.
    """
    pairs = np.asarray(pairs, dtype=np.int64)
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValidationError(f"{what}s must be an (E, 2) array of pairs, got shape {pairs.shape}")
    u, v = pairs.min(axis=1), pairs.max(axis=1)
    order, repeated = later_repeats(u * n + v)
    fault = first_fault({"self-link": u == v, "range": (u < 0) | (v >= n),
                         "endpoint": u >= (n if hub is None else hub), "duplicate": repeated})
    if fault:
        a, b = int(u[fault[0]]), int(v[fault[0]])
        messages = {"self-link": f"self-link at node {a}", "range": f"{what} node id outside 0..{n - 1}",
                    "endpoint": f"{what} {a},{b} has no endpoint in the initial sample",
                    "duplicate": f"duplicate {what} {a},{b}"}
        raise RowError(*fault, messages[fault[1]])
    return _freeze(np.column_stack([u[order], v[order]]))


def stratum_pair_counts(strata: np.ndarray, pairs: np.ndarray, g: int) -> np.ndarray:
    """Count of ``pairs`` (rows of node indices into ``strata``) per
    unordered stratum pair, in :func:`upper_indices` order."""
    ends = strata[pairs]
    return np.bincount(_upper_positions(g)[ends[:, 0], ends[:, 1]], minlength=g * (g + 1) // 2)


@dataclass(frozen=True)
class PopulationGraph:
    """A full realization: stratum labels and an undirected edge list.

    ``edges`` is an (E, 2) int64 array of node-id pairs, stored canonically:
    u < v in each row, rows sorted, no pair twice. Any pair order and row
    order is accepted and canonicalized; self-links, ids outside 0..N-1 and
    repeated pairs (in either orientation) are rejected. Memory and every
    graph operation are O(N + E).
    """

    strata: np.ndarray
    edges: np.ndarray

    def __post_init__(self):
        strata = np.asarray(self.strata, dtype=np.int64).reshape(-1)
        if strata.size and strata.min() < 0:
            raise ValidationError("strata labels must be non-negative")
        object.__setattr__(self, "strata", _freeze(strata))
        object.__setattr__(self, "edges", canonical_pairs(self.edges, strata.size, "edge"))

    @property
    def n_nodes(self) -> int:
        return self.strata.size

    @property
    def n_strata(self) -> int:
        return int(self.strata.max()) + 1 if self.n_nodes else 0

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.reshape(-1), minlength=self.n_nodes)

    def edge_list(self) -> np.ndarray:
        """The stored (E, 2) array of node-id pairs u < v (read-only)."""
        return self.edges

    @property
    def adjacency(self) -> np.ndarray:
        """Dense symmetric N x N bool view, built on each access.

        O(N^2) memory: for tests and small graphs only; no library code
        path reads it.
        """
        adj = np.zeros((self.n_nodes, self.n_nodes), dtype=bool)
        adj[self.edges[:, 0], self.edges[:, 1]] = True
        adj[self.edges[:, 1], self.edges[:, 0]] = True
        return adj


@dataclass(frozen=True)
class SampleStats:
    """What the chain and the likelihoods read from a sample, for G strata:
    the block sizes n0 and n1, the stratum counts of both blocks, and the
    observed link counts M and pair totals T per unordered stratum pair
    (:func:`upper_indices` order), 0 <= M <= T. A full graph's counts are a
    census's (:func:`sufficient_counts`). Built once per chain or profile
    with :meth:`from_data`; every field may carry a leading replicate axis,
    as :meth:`stack` builds for lockstep chains.
    """

    n0: int | np.ndarray
    n1: int | np.ndarray
    counts_s0: np.ndarray
    counts_s1: np.ndarray
    link_counts: np.ndarray
    pair_totals: np.ndarray

    def __post_init__(self):
        for name in ("counts_s0", "counts_s1", "link_counts", "pair_totals"):
            object.__setattr__(self, name, _freeze(np.asarray(getattr(self, name), dtype=np.int64)))
        if (self.link_counts < 0).any() or (self.link_counts > self.pair_totals).any():
            raise ValidationError("link counts exceed pair totals")

    @classmethod
    def from_data(cls, data: "IgnoredData", g: int) -> "SampleStats":
        if data.min_strata() > g:
            raise ValidationError("sample contains stratum labels outside 0..G-1")
        c0, c1 = np.bincount(data.strata_s0, minlength=g), np.bincount(data.strata_s1, minlength=g)
        # observed pairs: all sampled pairs except wave-wave ones
        return cls(n0=data.n0, n1=data.n1, counts_s0=c0, counts_s1=c1, link_counts=data.observed_link_counts(g),
                   pair_totals=pair_totals_from_counts(c0 + c1) - pair_totals_from_counts(c1))

    @classmethod
    def stack(cls, stats: Sequence["SampleStats"]) -> "SampleStats":
        """R samples' statistics (all with the same G), row r being sample r's."""
        return cls(**{f.name: np.array([getattr(s, f.name) for s in stats]) for f in fields(cls)})

    @property
    def n_sampled(self):
        return self.n0 + self.n1

    @property
    def n_strata(self) -> int:
        return self.counts_s0.shape[-1]

    @property
    def counts_sampled(self) -> np.ndarray:
        """Stratum counts over both sampled blocks."""
        return self.counts_s0 + self.counts_s1


def pair_totals_from_counts(counts: np.ndarray) -> np.ndarray:
    """Pair totals (..., P) induced by stratum sizes (..., G), in
    :func:`upper_indices` order: C(n_k, 2) for k = l, n_k * n_l for k < l."""
    counts = np.asarray(counts, dtype=np.int64)
    g = counts.shape[-1]
    rows, cols = upper_indices(g)
    totals = counts[..., rows] * counts[..., cols]
    totals[..., _upper_positions(g).diagonal()] = counts * (counts - 1) // 2
    return totals


def _unrank_pairs(rank: np.ndarray, n: int):
    """Decode lexicographic pair ranks into index pairs (a, b), a < b < n."""
    rank = np.asarray(rank, dtype=np.int64)
    two_n = 2 * n - 1
    a = ((two_n - np.sqrt(two_n * two_n - 8.0 * rank)) // 2).astype(np.int64)
    # one-step correction for sqrt rounding at row boundaries
    start = a * (2 * n - a - 1) // 2
    a = np.where(start > rank, a - 1, a)
    nxt = (a + 1) * (2 * n - a - 2) // 2
    a = np.where(rank >= nxt, a + 1, a)
    start = a * (2 * n - a - 1) // 2
    b = rank - start + a + 1
    return a, b


def generate_population(params: SbmParams, n: int, seed=None) -> PopulationGraph:
    """Draw one population graph from the block model.

    Strata are i.i.d. categorical with probabilities ``lam``; conditional on
    strata, each unordered pair is linked independently with the probability
    given by its stratum pair. Edges are realized per stratum pair as a
    binomial edge count plus a uniform choice of which pairs carry them,
    which is distribution-identical to per-pair Bernoulli draws and lets
    sparse graphs at survey scale be drawn cheaply.

    Deterministic given ``seed``.
    """
    check_int(n, "population size", 0, MAX_POPULATION)
    rng = np.random.default_rng(seed)
    g = params.n_strata
    strata = rng.choice(g, size=n, p=params.lam) if n else np.zeros(0, dtype=np.int64)
    pairs = []
    members = [np.flatnonzero(strata == k) for k in range(g)]
    first, second = upper_indices(g)
    totals = pair_totals_from_counts([m.size for m in members]).tolist()
    for k, l, prob, total in zip(first.tolist(), second.tolist(), params.beta.tolist(), totals):
        if total == 0 or prob == 0.0:
            continue
        n_edges = int(rng.binomial(total, prob))
        if n_edges == 0:
            continue
        picks = rng.choice(total, size=n_edges, replace=False)
        if k == l:
            a, b = _unrank_pairs(picks, members[k].size)
            rows, cols = members[k][a], members[k][b]
        else:
            rows = members[k][picks // members[l].size]
            cols = members[l][picks % members[l].size]
        pairs.append(np.column_stack([rows, cols]))
    edges = np.concatenate(pairs) if pairs else np.zeros((0, 2), dtype=np.int64)
    return PopulationGraph(strata=strata, edges=edges)


def sufficient_counts(graph: PopulationGraph, n_strata: int | None = None) -> SampleStats:
    """A full graph's counts, as the statistics of a census: every unit is in
    the initial sample (n0 = N, n1 = 0), so every pair is observed."""
    g = n_strata if n_strata is not None else graph.n_strata
    if graph.n_nodes and graph.strata.max() >= g:
        raise ValidationError("graph contains stratum labels outside 0..G-1")
    counts = np.bincount(graph.strata, minlength=g)
    return SampleStats(n0=graph.n_nodes, n1=0, counts_s0=counts, counts_s1=np.zeros_like(counts),
                       link_counts=stratum_pair_counts(graph.strata, graph.edges, g),
                       pair_totals=pair_totals_from_counts(counts))


def counts_log_likelihood(stats: SampleStats, params: SbmParams) -> float:
    """Log-likelihood of the stratum terms of every sampled unit and the link
    terms of every observed pair; for a census, of the full graph."""
    m, t, b = stats.link_counts, stats.pair_totals, params.beta
    ll = float(xlogy(stats.counts_sampled, params.lam).sum())
    ll += float(xlogy(m, b).sum() + xlog1py(t - m, -b).sum())
    return ll


def full_log_likelihood(graph: PopulationGraph, params: SbmParams) -> float:
    """Log-likelihood of a complete realization; -inf for impossible configs.

    Uses the 0 * log 0 = 0 convention throughout, so zero-probability strata
    or links only matter when actually observed.
    """
    return counts_log_likelihood(sufficient_counts(graph, params.n_strata), params)


@dataclass(frozen=True)
class MleEstimates:
    """Full-graph maximum likelihood estimates.

    ``beta`` is per stratum pair in :func:`upper_indices` order. Entries
    whose pair total is zero are undefined and reported as NaN rather than
    an arbitrary value.
    """

    n: int
    lam: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lam", _freeze(np.asarray(self.lam, dtype=np.float64)))
        object.__setattr__(self, "beta", _freeze(np.asarray(self.beta, dtype=np.float64)))

    @property
    def n_strata(self) -> int:
        return self.lam.size


def mle_from_full_graph(graph: PopulationGraph, n_strata: int | None = None) -> MleEstimates:
    """Closed-form MLEs: stratum fractions and per-pair link fractions."""
    if graph.n_nodes == 0:
        raise ValidationError("cannot compute MLEs on an empty graph")
    counts = sufficient_counts(graph, n_strata)
    lam_hat = counts.counts_sampled / graph.n_nodes
    beta_hat = np.where(counts.pair_totals > 0, counts.link_counts / np.maximum(counts.pair_totals, 1), np.nan)
    return MleEstimates(n=graph.n_nodes, lam=lam_hat, beta=beta_hat)

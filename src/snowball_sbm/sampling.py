"""One-wave snowball sampling: initial draw, wave tracing, label removal."""

from dataclasses import dataclass

import numpy as np

from .sbm import (
    PopulationGraph,
    ValidationError,
    _freeze,
    _is_finite_number,
    canonical_pairs,
    check_int,
    pair_totals_from_counts,
    stratum_pair_counts,
)

INITIAL_MODES = ("bernoulli", "fixed_size", "degree_biased")


@dataclass(frozen=True)
class DesignConfig:
    """Initial-sample design.

    ``bernoulli`` includes each node independently with probability ``q``;
    ``fixed_size`` draws a uniform without-replacement sample of ``n0``
    nodes; ``degree_biased`` draws ``n0`` nodes with weights proportional to
    degree + 1. The estimator's conditioning assumes the first two; the
    degree-biased mode exists for robustness experiments and is flagged as
    model-misspecified in sample metadata.
    """

    mode: str = "bernoulli"
    q: float | None = None
    n0: int | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.mode not in INITIAL_MODES:
            raise ValidationError(f"unknown initial design mode {self.mode!r}")
        if self.mode == "bernoulli":
            q = self.q
            if not (_is_finite_number(q) and 0.0 <= q <= 1.0):
                raise ValidationError(f"bernoulli design requires q in [0, 1], got {q!r}")
        else:
            if self.n0 is None:
                raise ValidationError(f"{self.mode} design requires n0 >= 0")
            check_int(self.n0, f"{self.mode} design n0", 0)

    @property
    def misspecified(self) -> bool:
        return self.mode == "degree_biased"


def draw_initial(graph: PopulationGraph, cfg: DesignConfig) -> np.ndarray:
    """Select the initial sample; returns sorted node ids."""
    n = graph.n_nodes
    rng = np.random.default_rng(cfg.seed)
    if cfg.mode == "bernoulli":
        return np.flatnonzero(rng.random(n) < cfg.q)
    if cfg.n0 > n:
        raise ValidationError(f"initial sample size {cfg.n0} exceeds population size {n}")
    if cfg.mode == "fixed_size":
        ids = rng.choice(n, size=cfg.n0, replace=False)
    else:
        weights = graph.degrees() + 1.0
        ids = rng.choice(n, size=cfg.n0, replace=False, p=weights / weights.sum())
    return np.sort(ids).astype(np.int64)


@dataclass(frozen=True)
class SnowballSample:
    """Observed data: initial sample, first wave, their strata, and all links
    incident to the initial sample (absence of links to unsampled units is
    implied by the design).

    ``links`` is an (L, 2) array of original node-id pairs, each with an
    endpoint in ``s0`` and both in ``s0`` or ``s1``. ``population_hint``
    carries the true size for harness scoring only; it is dropped when
    labels are removed and is never visible to the estimator.
    """

    s0: np.ndarray
    s1: np.ndarray
    strata_s0: np.ndarray
    strata_s1: np.ndarray
    links: np.ndarray
    population_hint: int | None = None

    def __post_init__(self):
        s0 = np.asarray(self.s0, dtype=np.int64)
        s1 = np.asarray(self.s1, dtype=np.int64)
        if np.intersect1d(s0, s1).size:
            raise ValidationError("initial sample and first wave overlap")
        final = np.concatenate([s0, s1])
        links = canonical_pairs(self.links, int(final.max()) + 1 if final.size else 0, "link")
        if not (np.isin(links, s0).any(axis=1).all() and np.isin(links, final).all()):
            raise ValidationError("links must join the initial sample to the final sample")
        object.__setattr__(self, "s0", _freeze(s0))
        object.__setattr__(self, "s1", _freeze(s1))
        object.__setattr__(self, "strata_s0", _freeze(np.asarray(self.strata_s0, dtype=np.int64)))
        object.__setattr__(self, "strata_s1", _freeze(np.asarray(self.strata_s1, dtype=np.int64)))
        object.__setattr__(self, "links", links)

    @property
    def n0(self) -> int:
        return self.s0.size

    @property
    def n1(self) -> int:
        return self.s1.size


def trace_one_wave(graph: PopulationGraph, s0) -> SnowballSample:
    """Trace all links out of the initial sample; deterministic given inputs."""
    s0 = np.sort(np.asarray(s0, dtype=np.int64))
    if s0.size and (s0[0] < 0 or s0[-1] >= graph.n_nodes):
        raise ValidationError("initial sample contains unknown node ids")
    if np.unique(s0).size != s0.size:
        raise ValidationError("initial sample contains duplicate node ids")
    in_s0 = np.zeros(graph.n_nodes, dtype=bool)
    in_s0[s0] = True
    links = graph.edges[in_s0[graph.edges].any(axis=1)]  # edges with an endpoint in S0
    reached = np.zeros(graph.n_nodes, dtype=bool)
    reached[links.reshape(-1)] = True
    reached[s0] = False
    s1 = np.flatnonzero(reached)
    return SnowballSample(
        s0=s0,
        s1=s1,
        strata_s0=graph.strata[s0],
        strata_s1=graph.strata[s1],
        links=links,
        population_hint=graph.n_nodes,
    )


@dataclass(frozen=True)
class IgnoredData:
    """The label-free reduction: sample sizes, stratum vectors, and the
    observed links under the canonical relabeling (initial-sample units
    first, then wave units, each block ordered by original id at the time
    labels were dropped).

    ``links`` is an (L, 2) int64 array of canonical-index pairs (i, j) with
    i < j and i < n0, rows sorted and unique: the form the sample file
    holds. Any pair order and row order is accepted and canonicalized. This
    is the validated form of a sample; the estimator reads it through
    :class:`SampleStats`.
    """

    strata_s0: np.ndarray
    strata_s1: np.ndarray
    links: np.ndarray

    def __post_init__(self):
        strata_s0 = np.asarray(self.strata_s0, dtype=np.int64)
        strata_s1 = np.asarray(self.strata_s1, dtype=np.int64)
        n0, n1 = strata_s0.size, strata_s1.size
        links = canonical_pairs(self.links, n0 + n1, "link")
        if links.size and links[:, 0].max() >= n0:
            raise ValidationError("a link has no endpoint in the initial sample")
        if not np.bincount(links[:, 1], minlength=n0 + n1)[n0:].all():
            raise ValidationError("a wave unit has no link into the initial sample")
        if (strata_s0.size and strata_s0.min() < 0) or (strata_s1.size and strata_s1.min() < 0):
            raise ValidationError("stratum labels must be non-negative")
        object.__setattr__(self, "strata_s0", _freeze(strata_s0))
        object.__setattr__(self, "strata_s1", _freeze(strata_s1))
        object.__setattr__(self, "links", links)

    @property
    def n0(self) -> int:
        return self.strata_s0.size

    @property
    def n1(self) -> int:
        return self.strata_s1.size

    @property
    def n_sampled(self) -> int:
        return self.n0 + self.n1

    def min_strata(self) -> int:
        """Smallest G consistent with the observed labels."""
        observed = [s.max() for s in (self.strata_s0, self.strata_s1) if s.size]
        return int(max(observed)) + 1 if observed else 1

    def strata_counts_s0(self, g: int) -> np.ndarray:
        return np.bincount(self.strata_s0, minlength=g)

    def strata_counts_s1(self, g: int) -> np.ndarray:
        return np.bincount(self.strata_s1, minlength=g)

    def observed_link_counts(self, g: int) -> np.ndarray:
        """Observed links per unordered stratum pair (within S0 plus S0-wave)."""
        return stratum_pair_counts(np.concatenate([self.strata_s0, self.strata_s1]), self.links, g)


@dataclass(frozen=True)
class SampleStats:
    """What the chain and the likelihoods read from a sample, for G strata.

    The data enter the label-free posterior only through these: the block
    sizes n0 and n1, the initial sample's labels (for the escape
    probability), the stratum counts of both blocks, and the observed link
    counts M and pair totals T per unordered stratum pair. Built once per
    chain or likelihood profile with :meth:`from_data`.
    """

    n0: int
    n1: int
    strata_s0: np.ndarray
    counts_s0: np.ndarray
    counts_s1: np.ndarray
    link_counts: np.ndarray
    pair_totals: np.ndarray

    def __post_init__(self):
        for name in ("strata_s0", "counts_s0", "counts_s1", "link_counts", "pair_totals"):
            object.__setattr__(self, name, _freeze(np.asarray(getattr(self, name), dtype=np.int64)))

    @classmethod
    def from_data(cls, data: IgnoredData, g: int) -> "SampleStats":
        if data.min_strata() > g:
            raise ValidationError("sample contains stratum labels outside 0..G-1")
        c0, c1 = data.strata_counts_s0(g), data.strata_counts_s1(g)
        return cls(
            n0=data.n0,
            n1=data.n1,
            strata_s0=data.strata_s0,
            counts_s0=c0,
            counts_s1=c1,
            link_counts=data.observed_link_counts(g),
            # observed pairs: all sampled pairs except wave-wave ones
            pair_totals=pair_totals_from_counts(c0 + c1) - pair_totals_from_counts(c1),
        )

    @property
    def n_sampled(self) -> int:
        return self.n0 + self.n1

    @property
    def n_strata(self) -> int:
        return self.counts_s0.size

    @property
    def counts_sampled(self) -> np.ndarray:
        """Stratum counts over both sampled blocks."""
        return self.counts_s0 + self.counts_s1


def to_ignored_data(sample: SnowballSample) -> IgnoredData:
    """Drop original unit labels, keeping the sample pattern up to relabeling."""
    order0 = np.argsort(sample.s0, kind="stable")
    order1 = np.argsort(sample.s1, kind="stable")
    ids = np.concatenate([sample.s0[order0], sample.s1[order1]])  # id of each canonical index
    by_id = np.argsort(ids)
    return IgnoredData(
        strata_s0=sample.strata_s0[order0],
        strata_s1=sample.strata_s1[order1],
        links=by_id[np.searchsorted(ids, sample.links, sorter=by_id)],
    )

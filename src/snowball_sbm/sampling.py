"""One-wave snowball sampling: the initial draw, and the wave traced from it
straight into the label-free reduction of the sample (:class:`IgnoredData`),
whose statistics the estimator reads (:class:`~snowball_sbm.sbm.SampleStats`).
"""

from dataclasses import dataclass

import numpy as np

from .sbm import (
    PopulationGraph,
    ValidationError,
    _freeze,
    _is_finite_number,
    canonical_pairs,
    check_int,
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


def draw_initial(graph: PopulationGraph, cfg: DesignConfig, seed=None) -> np.ndarray:
    """Select the initial sample; returns sorted node ids. Deterministic given ``seed``."""
    n = graph.n_nodes
    rng = np.random.default_rng(seed)
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
class IgnoredData:
    """The label-free reduction of a one-wave sample: sample sizes, stratum
    vectors, and the observed links under the canonical relabeling
    (initial-sample units first, then wave units, each block in the order of
    the population's node ids, which are then dropped).

    ``links`` is an (L, 2) int64 array of canonical-index pairs (i, j) with
    i < j and i < n0, rows sorted and unique: the form the sample file
    holds. Any pair order and row order is accepted and canonicalized, and
    the first bad link is named by :func:`~snowball_sbm.sbm.canonical_pairs`:
    this is the one checker of a sample's links. The estimator reads it
    through :meth:`SampleStats.from_data <snowball_sbm.sbm.SampleStats.from_data>`.
    """

    strata_s0: np.ndarray
    strata_s1: np.ndarray
    links: np.ndarray

    def __post_init__(self):
        strata_s0 = np.asarray(self.strata_s0, dtype=np.int64)
        strata_s1 = np.asarray(self.strata_s1, dtype=np.int64)
        n0, n1 = strata_s0.size, strata_s1.size
        links = canonical_pairs(self.links, n0 + n1, "link", hub=n0)
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

    def observed_link_counts(self, g: int) -> np.ndarray:
        """Observed links per unordered stratum pair (within S0 plus S0-wave)."""
        return stratum_pair_counts(np.concatenate([self.strata_s0, self.strata_s1]), self.links, g)


def trace_one_wave(graph: PopulationGraph, s0) -> IgnoredData:
    """Trace all links out of the initial sample ``s0`` (node ids) and return
    the sample without its labels: ``s0`` takes canonical indices 0..n0-1 and
    the wave n0..n0+n1-1, each block in node-id order. Deterministic given inputs."""
    s0 = np.sort(np.asarray(s0, dtype=np.int64))
    if s0.size and (s0[0] < 0 or s0[-1] >= graph.n_nodes):
        raise ValidationError("initial sample contains unknown node ids")
    if (s0[1:] == s0[:-1]).any():
        raise ValidationError("initial sample contains duplicate node ids")
    in_s0 = np.zeros(graph.n_nodes, dtype=bool)
    in_s0[s0] = True
    links = graph.edges[in_s0[graph.edges].any(axis=1)]  # edges with an endpoint in S0
    reached = np.zeros(graph.n_nodes, dtype=bool)
    reached[links.reshape(-1)] = True
    reached[s0] = False
    s1 = np.flatnonzero(reached)
    index = np.zeros(graph.n_nodes, dtype=np.int64)  # canonical index of each sampled node
    index[s0], index[s1] = np.arange(s0.size), np.arange(s0.size, s0.size + s1.size)
    return IgnoredData(strata_s0=graph.strata[s0], strata_s1=graph.strata[s1], links=index[links])

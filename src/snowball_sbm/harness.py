"""Replication harness: repeated snowball samples from a fixed population,
one estimation chain per sample, and distribution summaries of the estimates.

Empirical contact-tracing graphs usually cannot be redistributed, so the
harness ships two stand-ins at a realistic survey scale: a well-specified
block model population, and a clustered variant that rewires within-stratum
links into small cliques to reproduce the overestimation seen on heavily
clustered contact data.
"""

import logging
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .augmentation import BayesEstimates, McmcConfig, run_chain
from .sampling import DesignConfig, draw_initial, to_ignored_data, trace_one_wave
from .sbm import (
    MleEstimates,
    PopulationGraph,
    SbmParams,
    ValidationError,
    check_int,
    generate_population,
    mle_from_full_graph,
)

logger = logging.getLogger(__name__)

SURVEY_SCALE_N = 595
_SURVEY_LAMBDA = (0.425, 0.575)
_SURVEY_BETA_UPPER = (0.0046, 0.0014, 0.0058)


def survey_scale_params() -> SbmParams:
    """Two-stratum parameters at a realistic risk-network survey scale:
    a minority/majority stratum split and per-thousand link probabilities."""
    return SbmParams.from_upper(_SURVEY_LAMBDA, _SURVEY_BETA_UPPER)


@dataclass(frozen=True)
class ClusterOverlay:
    """Clustered-surrogate settings: within-stratum links are concentrated
    into disjoint same-stratum cliques instead of falling independently.

    ``background_scale`` is the share of within-stratum link probability
    kept as independent background; the removed share is replaced by enough
    disjoint cliques of ``clique_size`` members to match the expected edge
    count, so full-graph targets stay at the base parameters. Cross-stratum
    links are untouched. Size-3 cliques with no within background reproduce
    the qualitative overestimation seen on heavily clustered survey
    graphs; larger cliques or re-overlapping ones flip the bias downward
    because shared contacts inflate the observed links per wave member.
    """

    clique_size: int = 3
    background_scale: float = 0.0

    def __post_init__(self):
        if self.clique_size < 2:
            raise ValidationError("clique overlay requires clique_size >= 2")
        if not (0.0 <= self.background_scale <= 1.0):
            raise ValidationError("background_scale must be in [0, 1]")


def clustered_population(
    params: SbmParams, n: int, overlay: ClusterOverlay, seed=None
) -> PopulationGraph:
    """Clustered surrogate: sparse background plus disjoint within-stratum cliques."""
    rng = np.random.default_rng(seed)
    beta_bg = np.array(params.beta, copy=True)
    np.fill_diagonal(beta_bg, np.diagonal(params.beta) * overlay.background_scale)
    base = generate_population(SbmParams(lam=params.lam, beta=beta_bg), n, seed=rng)
    size = overlay.clique_size
    clique_pairs = size * (size - 1) // 2
    within = np.triu_indices(size, 1)
    pairs = [base.edges]
    for k in range(params.n_strata):
        members = rng.permutation(np.flatnonzero(base.strata == k))
        n_k = members.size
        removed = (1.0 - overlay.background_scale) * params.beta[k, k] * n_k * (n_k - 1) / 2.0
        n_cliques = min(int(round(removed / clique_pairs)), n_k // size)
        groups = members[: n_cliques * size].reshape(n_cliques, size)
        pairs.append(np.column_stack([groups[:, within[0]].ravel(), groups[:, within[1]].ravel()]))
    edges = np.unique(np.sort(np.concatenate(pairs), axis=1), axis=0)
    return PopulationGraph(strata=base.strata, edges=edges)


@dataclass(frozen=True)
class StudyConfig:
    """A full simulation study: population, design, chain, and bookkeeping.

    The population is either loaded (``population``) or generated
    (``params`` + ``population_size``, optionally clustered). Replicate
    seeds derive from ``master_seed`` by a fixed rule, so a study is
    reproducible bit for bit; per-replicate seeds in ``design``/``mcmc``
    are ignored.
    """

    replicates: int
    design: DesignConfig
    mcmc: McmcConfig = field(default_factory=McmcConfig)
    master_seed: int = 0
    population: PopulationGraph | None = None
    params: SbmParams | None = None
    population_size: int | None = None
    clustering: ClusterOverlay | None = None
    threads: int | None = None  # None: use available parallelism
    bins: int = 20

    def __post_init__(self):
        check_int(self.replicates, "replicates", 1)
        has_graph = self.population is not None
        has_model = self.params is not None and self.population_size is not None
        if has_graph == has_model:
            raise ValidationError(
                "exactly one population source required: a graph, or params plus a size"
            )
        if self.population_size is not None:
            check_int(self.population_size, "population size", 1)
        if self.threads is not None:
            check_int(self.threads, "threads", 1)
        check_int(self.master_seed, "master_seed", 0)
        check_int(self.bins, "bins", 1)


def population_seed(master_seed: int) -> int:
    return int(np.random.SeedSequence([master_seed, 0, 0]).generate_state(1)[0])


def replicate_seeds(master_seed: int, index: int) -> tuple[int, int]:
    """Fixed (design seed, chain seed) derivation for one replicate."""
    state = np.random.SeedSequence([master_seed, 1, index]).generate_state(2)
    return int(state[0]), int(state[1])


def resolve_population(cfg: StudyConfig) -> PopulationGraph:
    if cfg.population is not None:
        return cfg.population
    seed = population_seed(cfg.master_seed)
    if cfg.clustering is not None:
        return clustered_population(cfg.params, cfg.population_size, cfg.clustering, seed)
    return generate_population(cfg.params, cfg.population_size, seed)


@dataclass(frozen=True)
class ReplicateResult:
    index: int
    n0: int
    n1: int
    estimates: BayesEstimates | None
    cap_hits: int = 0
    error: str | None = None


def _run_replicate(population, design, mcmc, master_seed, n_strata, index) -> ReplicateResult:
    design_seed, chain_seed = replicate_seeds(master_seed, index)
    try:
        s0 = draw_initial(population, replace(design, seed=design_seed))
        sample = trace_one_wave(population, s0)
        data = to_ignored_data(sample)
        trace = run_chain(data, replace(mcmc, seed=chain_seed), n_strata=n_strata)
        return ReplicateResult(
            index=index,
            n0=data.n0,
            n1=data.n1,
            estimates=trace.estimates(),
            cap_hits=trace.cap_hits,
        )
    except (ValueError, ArithmeticError) as exc:  # bad sample or numeric failure; bugs propagate
        logger.warning("replicate %d failed: %s", index, exc)
        return ReplicateResult(index=index, n0=0, n1=0, estimates=None, error=str(exc))


def estimand_names(g: int) -> list[str]:
    names = ["N"] + [f"lambda_{k + 1}" for k in range(g)]
    names += [f"beta_{k + 1}_{l + 1}" for k in range(g) for l in range(k, g)]
    return names


@dataclass(frozen=True)
class StudySummary:
    """Per-replicate estimates plus targets, moments, and histogram data."""

    estimate_rows: np.ndarray  # (completed replicates, len(column_names))
    column_names: list[str]
    replicate_indices: np.ndarray
    sample_sizes: np.ndarray  # (completed, 2) columns n0, n1
    targets: MleEstimates
    true_n: int
    stats: dict
    histograms: dict
    mean_initial_fraction: float
    mean_final_fraction: float
    failures: list
    master_seed: int

    def estimates_for(self, name: str) -> np.ndarray:
        return self.estimate_rows[:, self.column_names.index(name)]


def summarize_histograms(estimate_rows: np.ndarray, column_names: list[str], bins: int) -> dict:
    """Equal-width histograms per estimand; counts always sum to the rows."""
    out = {}
    for j, name in enumerate(column_names):
        counts, edges = np.histogram(estimate_rows[:, j], bins=bins)
        out[name] = (edges, counts)
    return out


def run_study(cfg: StudyConfig) -> StudySummary:
    """Draw, estimate, and summarize ``cfg.replicates`` independent samples.

    Replicates run in parallel when ``threads > 1``; results are collected
    in index order, so the summary does not depend on scheduling.
    """
    population = resolve_population(cfg)
    g_hint = cfg.params.n_strata if cfg.params is not None else None
    targets = mle_from_full_graph(population, n_strata=g_hint)
    g = targets.n_strata
    run = partial(_run_replicate, population, cfg.design, cfg.mcmc, cfg.master_seed, g)
    threads = cfg.threads if cfg.threads is not None else (os.cpu_count() or 1)
    if threads > 1 and cfg.replicates > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            chunk = max(1, cfg.replicates // (threads * 8))
            results = list(pool.map(run, range(cfg.replicates), chunksize=chunk))
    else:
        results = [run(r) for r in range(cfg.replicates)]

    completed = [r for r in results if r.error is None]
    failures = [(r.index, r.error) for r in results if r.error is not None]
    names = estimand_names(g)
    rows = np.array(
        [
            [r.estimates.n_mean, *r.estimates.lam, *r.estimates.beta_upper]
            for r in completed
        ],
        dtype=np.float64,
    ).reshape(len(completed), len(names))
    sizes = np.array([[r.n0, r.n1] for r in completed], dtype=np.int64).reshape(len(completed), 2)
    true_n = population.n_nodes
    stats = {
        name: {
            "mean": float(rows[:, j].mean()) if len(completed) else float("nan"),
            "median": float(np.median(rows[:, j])) if len(completed) else float("nan"),
            "sd": float(rows[:, j].std()) if len(completed) else float("nan"),
        }
        for j, name in enumerate(names)
    }
    return StudySummary(
        estimate_rows=rows,
        column_names=names,
        replicate_indices=np.array([r.index for r in completed], dtype=np.int64),
        sample_sizes=sizes,
        targets=targets,
        true_n=true_n,
        stats=stats,
        histograms=summarize_histograms(rows, names, cfg.bins) if len(completed) else {},
        mean_initial_fraction=float(sizes[:, 0].mean() / true_n) if len(completed) else float("nan"),
        mean_final_fraction=float(sizes.sum(axis=1).mean() / true_n) if len(completed) else float("nan"),
        failures=failures,
        master_seed=cfg.master_seed,
    )

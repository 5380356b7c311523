"""Replication harness: repeated snowball samples from a fixed population,
one estimation chain per sample, and distribution summaries of the estimates.

Empirical contact-tracing graphs usually cannot be redistributed, so the
harness ships two stand-ins at a realistic survey scale: a well-specified
block model population, and a clustered variant that rewires within-stratum
links into small cliques to reproduce the overestimation seen on heavily
clustered contact data.
"""

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .augmentation import McmcConfig, chain_stats, run_chains
from .sampling import DesignConfig, draw_initial, to_ignored_data, trace_one_wave
from .sbm import (
    MleEstimates,
    PopulationGraph,
    SbmParams,
    ValidationError,
    _is_finite_number,
    check_int,
    generate_population,
    mle_from_full_graph,
    upper_indices,
)

logger = logging.getLogger(__name__)

SURVEY_SCALE_N = 595
_SURVEY_LAMBDA = (0.425, 0.575)
_SURVEY_BETA_UPPER = (0.0046, 0.0014, 0.0058)


def survey_scale_params() -> SbmParams:
    """Two-stratum parameters at a realistic risk-network survey scale:
    a minority/majority stratum split and per-thousand link probabilities."""
    return SbmParams(_SURVEY_LAMBDA, _SURVEY_BETA_UPPER)


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
        check_int(self.clique_size, "clique_size", 2)
        if not (_is_finite_number(self.background_scale) and 0.0 <= self.background_scale <= 1.0):
            raise ValidationError(f"background_scale must be a number in [0, 1], got {self.background_scale!r}")


def clustered_population(
    params: SbmParams, n: int, overlay: ClusterOverlay, seed=None
) -> PopulationGraph:
    """Clustered surrogate: sparse background plus disjoint within-stratum cliques."""
    rng = np.random.default_rng(seed)
    rows, cols = upper_indices(params.n_strata)
    within_beta = params.beta[rows == cols]
    beta_bg = np.where(rows == cols, params.beta * overlay.background_scale, params.beta)
    base = generate_population(SbmParams(lam=params.lam, beta=beta_bg), n, seed=rng)
    size = overlay.clique_size
    clique_pairs = size * (size - 1) // 2
    within = np.triu_indices(size, 1)
    pairs = [base.edges]
    for k in range(params.n_strata):
        members = rng.permutation(np.flatnonzero(base.strata == k))
        n_k = members.size
        removed = (1.0 - overlay.background_scale) * within_beta[k] * n_k * (n_k - 1) / 2.0
        n_cliques = min(int(round(removed / clique_pairs)), n_k // size)
        groups = members[: n_cliques * size].reshape(n_cliques, size)
        pairs.append(np.column_stack([groups[:, within[0]].ravel(), groups[:, within[1]].ravel()]))
    edges = np.unique(np.sort(np.concatenate(pairs), axis=1), axis=0)
    return PopulationGraph(strata=base.strata, edges=edges)


@dataclass(frozen=True)
class StudyConfig:
    """A full simulation study: population, design, chain, and bookkeeping.

    The population is either loaded (``population``) or generated
    (``params`` + ``population_size``, optionally clustered). Seeds derive
    from ``master_seed`` by a fixed rule (:func:`population_seed`,
    :func:`replicate_seeds`), so a study is reproducible bit for bit and
    each replicate can be rerun alone; per-replicate seeds in
    ``design``/``mcmc`` are ignored. All chains run in one process, in
    lockstep.
    """

    replicates: int
    design: DesignConfig
    mcmc: McmcConfig = field(default_factory=McmcConfig)
    master_seed: int = 0
    population: PopulationGraph | None = None
    params: SbmParams | None = None
    population_size: int | None = None
    clustering: ClusterOverlay | None = None
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
        try:
            self.mcmc.check_strata((self.population if has_graph else self.params).n_strata)
        except ValidationError as exc:
            raise ValidationError(f"mcmc: {exc}") from exc
        check_int(self.master_seed, "master_seed", 0)
        check_int(self.bins, "bins", 1)


def population_seed(master_seed: int) -> int:
    return int(np.random.SeedSequence([master_seed, 0, 0]).generate_state(1)[0])


def replicate_seeds(master_seed: int, index: int) -> tuple[int, int]:
    """Fixed (design seed, chain seed) derivation for one replicate; chain
    ``index`` draws from ``default_rng(chain seed)`` alone."""
    state = np.random.SeedSequence([master_seed, 1, index]).generate_state(2)
    return int(state[0]), int(state[1])


def resolve_population(cfg: StudyConfig) -> PopulationGraph:
    if cfg.population is not None:
        return cfg.population
    seed = population_seed(cfg.master_seed)
    if cfg.clustering is not None:
        return clustered_population(cfg.params, cfg.population_size, cfg.clustering, seed)
    return generate_population(cfg.params, cfg.population_size, seed)


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

    Samples are drawn in index order. A replicate whose sample, statistics
    or cap check raises a ValidationError or an ArithmeticError is recorded
    as failed; the rest run in one process as lockstep chains
    (:func:`~snowball_sbm.augmentation.run_chains`), each on its own seed.
    """
    population = resolve_population(cfg)
    g_hint = cfg.params.n_strata if cfg.params is not None else None
    targets = mle_from_full_graph(population, n_strata=g_hint)
    g = targets.n_strata
    indices, samples, seeds, failures = [], [], [], []
    for index in range(cfg.replicates):
        design_seed, chain_seed = replicate_seeds(cfg.master_seed, index)
        try:
            s0 = draw_initial(population, replace(cfg.design, seed=design_seed))
            samples.append(chain_stats(to_ignored_data(trace_one_wave(population, s0)), cfg.mcmc, g))
        except (ValidationError, ArithmeticError) as exc:  # bad sample; bugs propagate
            logger.warning("replicate %d failed: %s", index, exc)
            failures.append((index, str(exc)))
            continue
        indices.append(index)
        seeds.append(chain_seed)
    estimates = [trace.estimates() for trace in run_chains(samples, cfg.mcmc, seeds)] if samples else []
    completed = len(estimates)
    names = estimand_names(g)
    rows = np.array([[e.n_mean, *e.lam, *e.beta_upper] for e in estimates], dtype=np.float64)
    rows = rows.reshape(completed, len(names))
    sizes = np.array([[s.n0, s.n1] for s in samples], dtype=np.int64).reshape(completed, 2)
    true_n = population.n_nodes
    stats = {
        name: {
            "mean": float(rows[:, j].mean()) if completed else float("nan"),
            "median": float(np.median(rows[:, j])) if completed else float("nan"),
            "sd": float(rows[:, j].std()) if completed else float("nan"),
        }
        for j, name in enumerate(names)
    }
    return StudySummary(
        estimate_rows=rows,
        column_names=names,
        replicate_indices=np.array(indices, dtype=np.int64),
        sample_sizes=sizes,
        targets=targets,
        true_n=true_n,
        stats=stats,
        histograms=summarize_histograms(rows, names, cfg.bins) if completed else {},
        mean_initial_fraction=float(sizes[:, 0].mean() / true_n) if completed else float("nan"),
        mean_final_fraction=float(sizes.sum(axis=1).mean() / true_n) if completed else float("nan"),
        failures=failures,
        master_seed=cfg.master_seed,
    )

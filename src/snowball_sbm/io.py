"""File formats: params JSON, graph TSV/CSV, sample JSON, traces, studies.

External files use 1-based stratum labels and 1-based canonical unit
indices; everything in memory is 0-based. JSON carries structured metadata,
CSV/TSV carry bulk numbers. All writers emit deterministic bytes for a given
input (sorted keys, fixed float repr, LF newlines).
"""

import json
import math
import os

import numpy as np

from .augmentation import ChainTrace, McmcConfig
from .harness import ClusterOverlay, StudyConfig, StudySummary, estimand_names
from .sampling import DesignConfig, IgnoredData, SnowballSample
from .sbm import (
    PopulationGraph,
    SbmParams,
    ValidationError,
    _is_finite_number,
    _is_integer,
    check_int,
    validate_params,
)

EDGE_HEADER = "u\tv"
STRATA_HEADER = "node_id,stratum"


def _dump_json(obj, path):
    with open(path, "w", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON ({exc})") from exc


def _require(mapping, key, path):
    if key not in mapping:
        raise ValidationError(f"{path}: missing required field {key!r}")
    return mapping[key]


def _object(value, key, path) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{path}: {key}: must be an object, got {value!r}")
    return value


# ---------------------------------------------------------------- params

def save_params(params: SbmParams, path: str):
    doc = {
        "G": params.n_strata,
        "lambda": [float(x) for x in params.lam],
        "beta": [float(x) for x in params.beta],
    }
    _dump_json(doc, path)


def load_params(path: str) -> SbmParams:
    doc = _load_json(path)
    g = _require(doc, "G", path)
    if not _is_integer(g) or g < 1:
        raise ValidationError(f"{path}: G must be a positive integer, got {g!r}")
    return _checked_params(doc, path, g)


def _checked_params(doc: dict, where: str, g: int | None = None) -> SbmParams:
    """Block-model params from ``doc``'s ``lambda`` and ``beta`` (upper
    triangle), each a list of finite numbers of the length G gives; G is
    ``len(lambda)`` when not given. Errors read ``<where>: <field> ...``."""
    lam = _require(doc, "lambda", where)
    beta = _require(doc, "beta", where)
    if g is None:
        if not (isinstance(lam, list) and lam):
            raise ValidationError(f"{where}: lambda must be a non-empty list of numbers, got {lam!r}")
        g = len(lam)
    for name, values, size in (("lambda", lam, g), ("beta", beta, g * (g + 1) // 2)):
        if not (isinstance(values, list) and len(values) == size and all(map(_is_finite_number, values))):
            raise ValidationError(f"{where}: {name} must be a list of {size} numbers (G={g}), got {values!r}")
    try:
        return validate_params(SbmParams(lam, beta))
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


# ----------------------------------------------------------------- graph

def save_graph(graph: PopulationGraph, edges_path: str, strata_path: str):
    """Edge-list TSV (u < v, one pair per line) plus a strata CSV covering
    every node, isolated ones included."""
    with open(edges_path, "w", newline="\n") as fh:
        fh.write(EDGE_HEADER + "\n")
        fh.writelines(f"{u}\t{v}\n" for u, v in graph.edges.tolist())
    with open(strata_path, "w", newline="\n") as fh:
        fh.write(STRATA_HEADER + "\n")
        for node, stratum in enumerate(graph.strata):
            fh.write(f"{node},{stratum + 1}\n")


def load_graph(edges_path: str, strata_path: str) -> PopulationGraph:
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


# ---------------------------------------------------------------- sample

def sample_to_doc(data: IgnoredData, meta: dict | None = None) -> dict:
    doc = {
        "n0": data.n0,
        "n1": data.n1,
        "strata_s0": [int(s) + 1 for s in data.strata_s0],
        "strata_s1": [int(s) + 1 for s in data.strata_s1],
        "links": (data.links + 1).tolist(),
    }
    if meta:
        doc["meta"] = meta
    return doc


def save_sample(data: IgnoredData, path: str, meta: dict | None = None):
    _dump_json(sample_to_doc(data, meta), path)


def sample_meta(sample: SnowballSample, cfg: DesignConfig, n_strata: int | None = None) -> dict:
    """Provenance for a traced sample; the true size travels here, outside
    the estimator-visible fields."""
    meta = {
        "design_mode": cfg.mode,
        "model_misspecified": cfg.misspecified,
        "conditioning": "fixed initial sample size",
        "seed": cfg.seed,
    }
    if cfg.mode == "bernoulli":
        meta["q"] = cfg.q
    else:
        meta["n0"] = cfg.n0
    if n_strata is not None:
        meta["n_strata"] = n_strata
    if sample.population_hint is not None:
        meta["population_hint"] = int(sample.population_hint)
    return meta


def load_sample(path: str):
    """Read a sample JSON; returns (IgnoredData, meta dict)."""
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
        bad = next((s for s in strata if not (_is_integer(s) and s >= 1)), None)
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
            check_int(meta["n_strata"], "meta: n_strata", max(strata_s0 + strata_s1))
        data = IgnoredData(
            strata_s0=np.array(strata_s0, dtype=np.int64) - 1,
            strata_s1=np.array(strata_s1, dtype=np.int64) - 1,
            links=np.array(sorted(seen), dtype=np.int64).reshape(-1, 2) - 1,
        )
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    return data, meta


# ------------------------------------------------------------ chain trace

def trace_header(g: int) -> str:
    return ",".join(["iter", *estimand_names(g)])


def save_trace_csv(trace: ChainTrace, path: str):
    with open(path, "w", newline="\n") as fh:
        fh.write(trace_header(trace.n_strata) + "\n")
        for it in range(trace.chain_length):
            vals = [str(it + 1), str(int(trace.n_draws[it]))]
            vals += [repr(float(x)) for x in trace.lam_draws[it]]
            vals += [repr(float(x)) for x in trace.beta_upper_draws[it]]
            fh.write(",".join(vals) + "\n")


def save_chain_summary(trace: ChainTrace, path: str, extra_meta: dict | None = None):
    est = trace.estimates()
    doc = {
        "n_mean": est.n_mean,
        "n_rounded": est.n_rounded,
        "lambda_mean": [float(x) for x in est.lam],
        "beta_upper_mean": [float(x) for x in est.beta_upper],
        "n_sd": est.n_sd,
        "lambda_sd": [float(x) for x in est.lam_sd],
        "beta_upper_sd": [float(x) for x in est.beta_upper_sd],
        "chain_length": trace.chain_length,
        "burn_in": trace.burn_in,
        "cap": trace.cap,
        "cap_hits": trace.cap_hits,
        "seed": trace.seed,
        "n_strata": trace.n_strata,
        "conditioning": "fixed initial sample size",
    }
    if extra_meta:
        doc["sample_meta"] = extra_meta
    _dump_json(doc, path)


# ------------------------------------------------------------------ study

def load_study_config(path: str) -> StudyConfig:
    doc = _load_json(path)
    base = os.path.dirname(os.path.abspath(path))

    def _resolve(p):
        return p if os.path.isabs(p) else os.path.join(base, p)

    pop = _object(_require(doc, "population", path), "population", path)
    kwargs = {}
    if "edges" in pop:
        kwargs["population"] = load_graph(_resolve(pop["edges"]), _resolve(_require(pop, "strata", path)))
    else:
        if "params_file" in pop:
            params = load_params(_resolve(pop["params_file"]))
        elif "params" in pop:
            spec = _object(pop["params"], "population: params", path)
            params = _checked_params(spec, f"{path}: population: params")
        else:
            raise ValidationError(f"{path}: population needs 'edges' or 'params'/'params_file'")
        kwargs["params"] = params
        kwargs["population_size"] = _require(pop, "n", path)
        if "clustering" in pop:
            try:
                kwargs["clustering"] = ClusterOverlay(**pop["clustering"])
            except (TypeError, ValidationError) as exc:
                raise ValidationError(f"{path}: bad clustering options ({exc})") from exc

    design_doc = dict(_object(_require(doc, "design", path), "design", path))
    design_doc.pop("seed", None)
    mcmc_doc = dict(_object(doc.get("mcmc", {}), "mcmc", path))
    mcmc_doc.pop("seed", None)
    try:
        mcmc = McmcConfig(**mcmc_doc)
    except (TypeError, ValidationError) as exc:
        raise ValidationError(f"{path}: mcmc: {exc}") from exc
    replicates = _require(doc, "replicates", path)
    try:
        return StudyConfig(
            replicates=replicates,
            design=DesignConfig(**design_doc),
            mcmc=mcmc,
            master_seed=doc.get("master_seed", 0),
            bins=doc.get("bins", 20),
            **kwargs,
        )
    except (TypeError, ValidationError) as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _float_or_none(x):
    x = float(x)
    return None if math.isnan(x) else x


def save_study_outputs(summary: StudySummary, out_dir: str):
    """Write estimates.csv, summary.json, and one hist_<name>.csv per estimand."""
    os.makedirs(out_dir, exist_ok=True)
    est_path = os.path.join(out_dir, "estimates.csv")
    with open(est_path, "w", newline="\n") as fh:
        fh.write(",".join(["replicate", "n0", "n1", *summary.column_names]) + "\n")
        for row_idx in range(summary.estimate_rows.shape[0]):
            vals = [
                str(int(summary.replicate_indices[row_idx])),
                str(int(summary.sample_sizes[row_idx, 0])),
                str(int(summary.sample_sizes[row_idx, 1])),
            ]
            vals += [repr(float(x)) for x in summary.estimate_rows[row_idx]]
            fh.write(",".join(vals) + "\n")

    doc = {
        "true_n": summary.true_n,
        "targets": {
            "N": summary.targets.n,
            "lambda": [float(x) for x in summary.targets.lam],
            "beta_upper": [_float_or_none(x) for x in summary.targets.beta],
        },
        "stats": {
            name: {k: _float_or_none(v) for k, v in entry.items()}
            for name, entry in summary.stats.items()
        },
        "mean_initial_fraction": _float_or_none(summary.mean_initial_fraction),
        "mean_final_fraction": _float_or_none(summary.mean_final_fraction),
        "replicates_completed": int(summary.estimate_rows.shape[0]),
        "failures": [{"replicate": int(i), "error": msg} for i, msg in summary.failures],
        "master_seed": summary.master_seed,
    }
    _dump_json(doc, os.path.join(out_dir, "summary.json"))

    for name, (edges, counts) in summary.histograms.items():
        with open(os.path.join(out_dir, f"hist_{name}.csv"), "w", newline="\n") as fh:
            fh.write("bin_left,bin_right,count\n")
            for b in range(counts.size):
                fh.write(f"{float(edges[b])!r},{float(edges[b + 1])!r},{int(counts[b])}\n")

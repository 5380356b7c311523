"""File formats: params JSON, graph TSV/CSV, sample JSON, traces, studies.

External files use 1-based stratum labels and 1-based canonical unit
indices; everything in memory is 0-based. JSON carries structured metadata,
CSV/TSV carry bulk numbers. All writers emit deterministic bytes for a given
input (sorted keys, fixed float repr, LF newlines).
"""

import bisect
import contextlib
import json
import math
import os
import warnings
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from .sbm import (
    INT64_MAX,
    MAX_STRATA,
    MleEstimates,
    PopulationGraph,
    RowError,
    SbmParams,
    ValidationError,
    _is_finite_number,
    _is_integer,
    check_int,
    estimand_blocks,
    estimand_names,
    first_fault,
    later_repeats,
)

if TYPE_CHECKING:  # the layers above sbm load only with the commands that run them
    from .augmentation import ChainTrace
    from .harness import StudyConfig, StudySummary
    from .sampling import DesignConfig, IgnoredData

EDGE_HEADER = "u\tv"
STRATA_HEADER = "node_id,stratum"
# messages for the rows that load_graph rejects, by RowError fault
EDGE_FAULTS = {"self-link": "{path}:{line}: self-link {u}", "range": "{path}:{line}: node id outside 0..{top}",
               "duplicate": "{path}:{line}: duplicate edge {u},{v}"}
STRATA_FAULTS = {"label": "{path}:{line}: strata are labeled 1..G", "duplicate": "{path}: duplicate node id {u}"}
# messages for the links that load_sample rejects, by RowError fault; any other is out of range
LINK_FAULTS = {"endpoint": "link [{}, {}] has no endpoint in the initial sample",
               "duplicate": "duplicate link [{}, {}]"}
# keys a study file may hold
STUDY_FIELDS = {"population", "replicates", "design", "mcmc", "master_seed", "bins"}
POPULATION_FIELDS = {"edges", "strata", "params_file", "params", "n", "clustering"}


def _dump_json(obj, path):
    with open(path, "w", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def save_csv(path: str, header: list[str], rows):
    """A CSV file of ``header`` and ``rows``, each a sequence of Python ints
    and floats: the ``repr`` of a numpy scalar is not its number."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)


def _float_or_none(x):
    x = float(x)
    return None if math.isnan(x) else x


@contextlib.contextmanager
def _open_input(path: str):
    """``path`` open as UTF-8 text; failing to open or decode it is a ValidationError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except (OSError, ValueError) as exc:  # a decode error or a NUL in the name is a ValueError
        raise ValidationError(f"{path}: cannot read ({exc})") from exc


def _finite(text: str) -> float:
    """A JSON number's value; NaN and Infinity are not JSON, nor is a number beyond the float range."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def _load_json(path) -> dict:
    with _open_input(path) as fh:
        text = fh.read()
    try:
        doc = json.loads(text, parse_float=_finite, parse_constant=_finite)
    except (ValueError, RecursionError) as exc:  # too deep a nesting is a RecursionError
        raise ValidationError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: must hold a JSON object, got {type(doc).__name__}")
    return doc


def _require(mapping, key, path):
    if key not in mapping:
        raise ValidationError(f"{path}: missing required field {key!r}")
    return mapping[key]


def _object(value, key, path) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{path}: {key}: must be an object, got {value!r}")
    return value


def _first_bad(values: list, well_formed) -> int:
    """The index of the first entry of ``values`` that ``well_formed``, a test
    of a whole list, rejects (the end of the shortest rejected prefix), or
    len(values) when it rejects none."""
    if well_formed(values):
        return len(values)
    return bisect.bisect_left(range(len(values)), True, key=lambda i: not well_formed(values[:i + 1]))


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
    ``len(lambda)`` when not given, and at most MAX_STRATA. Errors read
    ``<where>: <field> ...``."""
    lam = _require(doc, "lambda", where)
    beta = _require(doc, "beta", where)
    if g is None:
        if not (isinstance(lam, list) and lam):
            raise ValidationError(f"{where}: lambda must be a non-empty list of numbers, got {lam!r}")
        g = len(lam)
    if g > MAX_STRATA:
        raise ValidationError(f"{where}: G must be at most {MAX_STRATA}, got {g}")
    for name, values, size in (("lambda", lam, g), ("beta", beta, g * (g + 1) // 2)):
        if not (isinstance(values, list) and len(values) == size and all(map(_is_finite_number, values))):
            raise ValidationError(f"{where}: {name} must be a list of {size} numbers (G={g}), got {values!r}")
    try:
        return SbmParams(lam, beta)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


# ----------------------------------------------------------------- graph

def save_graph(graph: PopulationGraph, edges_path: str, strata_path: str):
    """Edge-list TSV (u < v, one pair per line) plus a strata CSV covering
    every node, isolated ones included."""
    strata = np.column_stack([np.arange(graph.n_nodes), graph.strata + 1])
    for path, header, sep, rows in ((edges_path, EDGE_HEADER, "\t", graph.edges),
                                    (strata_path, STRATA_HEADER, ",", strata)):
        with open(path, "w", newline="\n") as fh:  # every row in one format call
            fh.write(header + "\n" + (f"%d{sep}%d\n" * len(rows)) % tuple(rows.ravel().tolist()))


def load_graph(edges_path: str, strata_path: str) -> PopulationGraph:
    """Read the files :func:`save_graph` writes, each with one numpy call. The
    edges are checked by :class:`PopulationGraph`; the first bad line in
    file order is reported as ``file:line``."""

    def strata_from_rows(rows):
        nodes, labels = rows.T
        order, repeated = later_repeats(nodes)
        fault = first_fault({"label": (labels < 1) | (labels > MAX_STRATA), "duplicate": repeated})
        if fault:
            raise RowError(*fault)
        if nodes.size and (nodes.min() < 0 or nodes.max() >= nodes.size):  # distinct, so a gap
            raise ValidationError(f"{strata_path}: node ids must cover 0..N-1 exactly once")
        return labels[order] - 1

    strata = _load_rows(strata_path, STRATA_HEADER, ",", strata_from_rows, STRATA_FAULTS)
    return _load_rows(edges_path, EDGE_HEADER, "\t", lambda rows: PopulationGraph(strata=strata, edges=rows),
                      EDGE_FAULTS, top=strata.size - 1)


def _int_rows(lines, sep: str) -> np.ndarray | None:
    """``lines`` as an (R, 2) int64 array, blank ones skipped; None unless each row is two integers."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            rows = np.loadtxt(lines, dtype=np.int64, delimiter=sep, comments=None, ndmin=2)
        except ValueError:
            return None
    return rows.reshape(-1, 2) if rows.size == 0 or rows.shape[1] == 2 else None


def _load_rows(path: str, header: str, sep: str, build, faults: dict, **fields):
    """``build`` of the integer pairs that ``path`` holds one to a stripped
    line, skipping blank lines and a first line equal to ``header``. The first
    line that does not parse, or whose row ``build`` rejects with a RowError,
    is reported: as a bad row, or by the fault's template in ``faults``."""
    with _open_input(path) as fh:
        if fh.readline().strip() != header:
            fh.seek(0)
        start = fh.tell()
        rows = _int_rows(fh, sep)
        if rows is None:  # numpy reads blanks around a number, but not a line of blanks or a stray tab
            fh.seek(start)
            rows = _int_rows(map(str.strip, fh), sep)
    if rows is not None:
        with contextlib.suppress(RowError):
            return build(rows)
    with _open_input(path) as fh:
        numbered = enumerate(map(str.strip, fh), 1)
        lines = [(no, text) for no, text in numbered if text and (no, text) != (1, header)]

    def fault(prefix):  # the error in ``prefix``, the (line number, text) of the first data rows, or None
        rows = _int_rows([text for _, text in prefix], sep)
        if rows is None:
            return ValidationError(f"{path}:{prefix[-1][0]}: bad row {prefix[-1][1]!r}")
        try:
            build(rows)
        except RowError as exc:
            u, v = rows[exc.row].tolist()
            line = prefix[exc.row][0]
            return ValidationError(faults[exc.fault].format(path=path, line=line, u=u, v=v, **fields))
        except ValidationError:
            pass  # a check of the whole file, such as the strata's coverage
        return None

    # a prefix of the rows is clean up to the first bad row and faulty from it on
    raise fault(lines[:_first_bad(lines, lambda prefix: fault(prefix) is None) + 1])


# ------------------------------------------------------------------- mle

def mle_to_doc(est: MleEstimates) -> dict:
    """``N``, ``lambda`` and ``beta_upper``; a beta with no pairs (NaN) is null."""
    return {
        "N": est.n,
        "lambda": [float(x) for x in est.lam],
        "beta_upper": [_float_or_none(x) for x in est.beta],
    }


def save_mle(est: MleEstimates, path: str):
    _dump_json(mle_to_doc(est), path)


# ---------------------------------------------------------------- sample

def sample_to_doc(data: "IgnoredData", meta: dict | None = None) -> dict:
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


def save_sample(data: "IgnoredData", path: str, meta: dict | None = None):
    _dump_json(sample_to_doc(data, meta), path)


def sample_meta(cfg: "DesignConfig", seed: int | None, n_strata: int, population_size: int) -> dict:
    """Provenance for a sample traced from an initial draw under ``cfg`` and
    ``seed`` in a population of ``n_strata`` strata and ``population_size``
    units; the true size travels here, outside the estimator-visible fields."""
    meta = {
        "design_mode": cfg.mode,
        "model_misspecified": cfg.misspecified,
        "conditioning": "fixed initial sample size",
        "seed": seed,
        "n_strata": n_strata,
        "population_hint": population_size,
    }
    if cfg.mode == "bernoulli":
        meta["q"] = cfg.q
    else:
        meta["n0"] = cfg.n0
    return meta


def _ints(values: list, low: int, high: int = INT64_MAX) -> bool:
    """Every entry an int from ``low`` to ``high``; bools, floats and strings are not ints."""
    return set(map(type, values)) <= {int} and low <= min(values, default=low) and max(values, default=low) <= high


def _int_pairs(values: list) -> bool:
    """Every entry an [i, j] list of two ints."""
    return (set(map(type, values)) <= {list} and set(map(len, values)) <= {2}
            and set(map(type, list(chain.from_iterable(values)))) <= {int})


def load_sample(path: str):
    """Read a sample JSON; returns (IgnoredData, meta dict). Each link is
    checked by :class:`~snowball_sbm.sampling.IgnoredData`, and the first bad
    link in list order is named."""
    from .sampling import IgnoredData
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
        bad = _first_bad(strata, lambda labels: _ints(labels, 1, MAX_STRATA))
        if bad < size:
            raise ValidationError(f"{path}: {name}: bad stratum {strata[bad]!r}: strata are integers labeled 1..G")
    if not isinstance(links, list):
        raise ValidationError(f"{path}: links: must be a list of [i, j] pairs")
    k = _first_bad(links, _int_pairs)
    indices = list(chain.from_iterable(links[:k]))
    if not _ints(indices, -INT64_MAX):  # an index beyond int64 is out of range: read it as 0
        indices = [i if abs(i) <= INT64_MAX else 0 for i in indices]
    pairs = np.array(indices, dtype=np.int64).reshape(-1, 2)
    pairs[pairs[:, 0] > pairs[:, 1]] = 0  # the file holds i < j: a reversed pair is out of range
    coverage = None
    try:
        data = IgnoredData(
            strata_s0=np.array(strata_s0, dtype=np.int64) - 1,
            strata_s1=np.array(strata_s1, dtype=np.int64) - 1,
            links=pairs - 1,
        )
    except RowError as exc:
        message = LINK_FAULTS.get(exc.fault, "link [{}, {}] outside canonical range")
        raise ValidationError(f"{path}: links: " + message.format(*links[exc.row])) from exc
    except ValidationError as exc:  # a wave unit with no link, reported after meta
        coverage = exc
    if k < len(links):
        raise ValidationError(f"{path}: links: {links[k]!r} is not an [i, j] pair of integers")
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise ValidationError(f"{path}: meta: must be an object")
    try:
        if "n_strata" in meta:  # at least the largest stratum label
            check_int(meta["n_strata"], "meta: n_strata", max(strata_s0 + strata_s1), MAX_STRATA)
        if coverage:
            raise coverage
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    return data, meta


# ------------------------------------------------------------ chain trace

def save_trace_csv(trace: "ChainTrace", path: str):
    """The draws table after an ``iter`` column, N as an integer."""
    rows = ([it, int(n), *rest] for it, (n, *rest) in enumerate(trace.draws.tolist(), 1))
    save_csv(path, ["iter", *estimand_names(trace.n_strata)], rows)


def save_chain_summary(trace: "ChainTrace", moments: tuple[np.ndarray, np.ndarray], path: str,
                       extra_meta: dict | None = None):
    """The chain's settings and ``moments``, the per-column (mean, sd) of its
    retained draws (:meth:`~snowball_sbm.augmentation.ChainTrace.reduce`)."""
    _, lam, beta = estimand_blocks(trace.n_strata)
    mean, sd = (values.tolist() for values in moments)
    doc = {
        "n_mean": mean[0],
        "n_rounded": round(mean[0]),
        "lambda_mean": mean[lam],
        "beta_upper_mean": mean[beta],
        "n_sd": sd[0],
        "lambda_sd": sd[lam],
        "beta_upper_sd": sd[beta],
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

def load_study_config(path: str) -> "StudyConfig":
    from .augmentation import McmcConfig
    from .harness import ClusterOverlay, StudyConfig
    from .sampling import DesignConfig
    doc = _load_json(path)
    base = os.path.dirname(os.path.abspath(path))  # paths in the file are relative to it, unless absolute
    pop = _object(_require(doc, "population", path), "population", path)
    for where, section, known in ((path, doc, STUDY_FIELDS), (f"{path}: population", pop, POPULATION_FIELDS)):
        unknown = [key for key in section if key not in known]
        if unknown:
            raise ValidationError(f"{where}: {unknown[0]}: unknown field")
    from_files = [key for key in ("edges", "strata") if key in pop]
    sources = from_files[:1] + [key for key in ("params_file", "params") if key in pop]
    if from_files:  # a graph read from files has its own size and links
        sources += [key for key in ("n", "clustering") if key in pop]
    if len(sources) > 1:
        raise ValidationError(f"{path}: population: {sources[0]} and {sources[1]} cannot both be given: a population "
                              "comes from edges and strata, or from params or params_file with n")
    for key in ("edges", "strata", "params_file"):
        if not isinstance(pop.get(key, ""), str):
            raise ValidationError(f"{path}: population: {key}: must be a file path, got {pop[key]!r}")

    def read(reader, *names):  # a population file the reader rejects is reported under the study
        try:
            return reader(*(os.path.join(base, name) for name in names))
        except ValidationError as exc:
            raise ValidationError(f"{path}: population: {exc}") from exc

    kwargs = {}
    if "edges" in pop:
        kwargs["population"] = read(load_graph, pop["edges"], _require(pop, "strata", path))
    else:
        if "params_file" in pop:
            params = read(load_params, pop["params_file"])
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

    # a study derives every seed from master_seed, so a seed in these sections is dropped
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


def save_study_outputs(summary: "StudySummary", out_dir: str):
    """Write estimates.csv, summary.json, and one hist_<name>.csv per estimand."""
    os.makedirs(out_dir, exist_ok=True)
    rows = zip(summary.replicate_indices.tolist(), summary.sample_sizes.tolist(), summary.estimate_rows.tolist())
    save_csv(os.path.join(out_dir, "estimates.csv"), ["replicate", "n0", "n1", *summary.column_names],
             ([index, *sizes, *values] for index, sizes, values in rows))

    doc = {
        "true_n": summary.true_n,
        "targets": mle_to_doc(summary.targets),
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
        edges = edges.tolist()
        save_csv(os.path.join(out_dir, f"hist_{name}.csv"), ["bin_left", "bin_right", "count"],
                 zip(edges, edges[1:], counts.tolist()))

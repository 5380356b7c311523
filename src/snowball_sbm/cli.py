"""Command-line surface tying the modules into one tool.

Subcommands: generate, sample, estimate, mle, simulate, profile. Every
command is deterministic given --seed; omitting it draws one from entropy
and prints it so the run stays replayable. Each command imports only the
layers it runs. Exit codes: 0 success, 2 validation error, 3 runtime/numeric
error.
"""

import argparse
import dataclasses
import logging
import os
import sys

import numpy as np

from . import io
from .sbm import MAX_POPULATION, MAX_STRATA, ValidationError, check_int, estimand_blocks

logger = logging.getLogger("snowball_sbm")

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


def _setup_logging():
    level = os.environ.get("SNOWBALL_SBM_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _resolve_seed(seed: int | None) -> int:
    if seed is None:
        import secrets
        seed = secrets.randbits(63)
        print(f"seed: {seed}")
    return check_int(seed, "--seed", 0)


def _check_out(path: str, is_dir: bool):
    """Raise unless ``--out`` can be written. A directory is made with its
    parents, so its deepest existing ancestor must be a directory; a file
    needs an existing parent directory and must not be a directory itself."""
    if not path:
        raise ValidationError("--out: must not be empty")
    if is_dir:
        head = path
        while head and not os.path.exists(head):
            head = os.path.dirname(head)
        if head and not os.path.isdir(head):
            raise ValidationError(f"--out: {path}: {head} is not a directory")
    elif os.path.isdir(path):
        raise ValidationError(f"--out: {path} is a directory, not a file")
    elif not os.path.isdir(os.path.dirname(path) or "."):
        raise ValidationError(f"--out: {path}: {os.path.dirname(path)} is not an existing directory")


# McmcConfig fields that estimate's flags set; a flag left out keeps McmcConfig's default
MCMC_FLAGS = ("chain_length", "burn_in_fraction", "n_max_cap", "cap_multiplier")

DESIGNS = {  # --design prefix -> (DesignConfig mode, field, parser)
    "bernoulli": ("bernoulli", "q", float),
    "fixed": ("fixed_size", "n0", int),
    "degree": ("degree_biased", "n0", int),
}


def _parse_design(text: str):
    from .sampling import DesignConfig
    kind, _, value = text.partition(":")
    if kind not in DESIGNS or not value:
        raise ValidationError(f"--design must look like bernoulli:q, fixed:n0 or degree:n0, got {text!r}")
    mode, field, parse = DESIGNS[kind]
    try:
        parsed = parse(value)
    except ValueError as exc:
        what = "a number" if parse is float else "an integer"
        raise ValidationError(f"--design: {kind} needs {field} as {what}, got {value!r}") from exc
    return DesignConfig(mode=mode, **{field: parsed})


def cmd_generate(args) -> int:
    from .sbm import generate_population
    check_int(args.n, "--n", 0, MAX_POPULATION)
    params = io.load_params(args.params)
    seed = _resolve_seed(args.seed)
    graph = generate_population(params, args.n, seed=seed)
    os.makedirs(args.out, exist_ok=True)
    io.save_graph(graph, os.path.join(args.out, "edges.tsv"), os.path.join(args.out, "strata.csv"))
    logger.info("wrote %d nodes, %d edges to %s", graph.n_nodes, len(graph.edges), args.out)
    return EXIT_OK


def cmd_sample(args) -> int:
    from .sampling import draw_initial, trace_one_wave
    graph = io.load_graph(args.edges, args.strata)
    seed = _resolve_seed(args.seed)
    design = _parse_design(args.design)
    data = trace_one_wave(graph, draw_initial(graph, design, seed))
    meta = io.sample_meta(design, seed, graph.n_strata, graph.n_nodes)
    io.save_sample(data, args.out, meta=meta)
    logger.info("sample: n0=%d n1=%d -> %s", data.n0, data.n1, args.out)
    return EXIT_OK


def cmd_estimate(args) -> int:
    from .augmentation import McmcConfig, run_chain
    data, meta = io.load_sample(args.sample)
    seed = _resolve_seed(args.seed)
    cfg = McmcConfig(**{name: getattr(args, name) for name in MCMC_FLAGS if getattr(args, name) is not None})
    n_strata = meta.get("n_strata")
    if args.strata_count is not None:
        n_strata = check_int(args.strata_count, "--strata-count", data.min_strata(), MAX_STRATA)
    trace = run_chain(data, cfg, seed, n_strata=n_strata)
    moments = trace.reduce(np.mean), trace.reduce(np.std)
    os.makedirs(args.out, exist_ok=True)
    io.save_trace_csv(trace, os.path.join(args.out, "trace.csv"))
    io.save_chain_summary(trace, moments, os.path.join(args.out, "summary.json"), extra_meta=meta or None)
    mean = moments[0].tolist()
    _, lam, beta = estimand_blocks(trace.n_strata)
    print(f"N: {mean[0]:.1f} (rounded {round(mean[0])})")
    print("lambda: " + " ".join(f"{x:.4f}" for x in mean[lam]))
    print("beta_upper: " + " ".join(f"{x:.6f}" for x in mean[beta]))
    return EXIT_OK


def cmd_mle(args) -> int:
    from .sbm import mle_from_full_graph
    graph = io.load_graph(args.edges, args.strata)
    est = mle_from_full_graph(graph)
    io.save_mle(est, args.out)
    print(f"N: {est.n}")
    print("lambda: " + " ".join(f"{x:.4f}" for x in est.lam))
    return EXIT_OK


def cmd_simulate(args) -> int:
    from .harness import run_study
    cfg = io.load_study_config(args.config)
    for flag, field, value in (("--replicates", "replicates", args.replicates), ("--seed", "master_seed", args.seed)):
        if value is not None:
            try:
                cfg = dataclasses.replace(cfg, **{field: value})
            except ValidationError as exc:
                raise ValidationError(f"{flag}: {exc}") from exc
    summary = run_study(cfg)
    io.save_study_outputs(summary, args.out)
    completed = summary.estimate_rows.shape[0]
    print(f"replicates: {completed} completed, {len(summary.failures)} failed")
    if not completed:
        print(f"runtime error: no replicate completed; failures are listed in {args.out}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"mean N estimate: {summary.stats['N']['mean']:.1f} (true {summary.true_n})")
    return EXIT_OK


def cmd_profile(args) -> int:
    from .likelihoods import ignored_log_likelihood, n_free_terms, observed_log_likelihood
    from .sbm import SampleStats
    n_lo, n_hi, step = args.n_min, args.n_max, args.n_step
    if n_hi > MAX_POPULATION:  # a CSV row per grid point
        raise ValidationError(f"--n-max must be at most {MAX_POPULATION}, got {n_hi}")
    data, _ = io.load_sample(args.sample)
    params = io.load_params(args.params)
    if n_lo < data.n_sampled:
        raise ValidationError(f"grid start {n_lo} below sampled count {data.n_sampled}")
    if n_hi < n_lo or step < 1:
        raise ValidationError("need n-max >= n-min and n-step >= 1")
    try:
        stats = SampleStats.from_data(data, params.n_strata)
    except ValidationError as exc:
        raise ValidationError(f"{args.sample}: {exc} (G = {params.n_strata} in {args.params})") from exc
    terms = n_free_terms(stats, params)
    rows = ([n, observed_log_likelihood(stats, n, params, terms), ignored_log_likelihood(stats, n, params, terms)]
            for n in range(n_lo, n_hi + 1, step))
    io.save_csv(args.out, ["N", "observed_loglik", "ignored_loglik"], rows)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snowball-sbm",
        description="Estimate hidden networked population size and structure "
        "from one-wave snowball samples under a stochastic block model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a block-model population")
    p.add_argument("--params", required=True, help="params JSON (G, lambda, beta upper triangle)")
    p.add_argument("--n", type=int, required=True, help="population size")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output directory for edges.tsv and strata.csv")
    p.set_defaults(func=cmd_generate, out_is_dir=True)

    p = sub.add_parser("sample", help="draw a one-wave snowball sample")
    p.add_argument("--edges", required=True)
    p.add_argument("--strata", required=True)
    p.add_argument("--design", required=True, help="bernoulli:q | fixed:n0 | degree:n0")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output sample JSON path")
    p.set_defaults(func=cmd_sample, out_is_dir=False)

    p = sub.add_parser("estimate", help="run the augmentation chain on a sample")
    p.add_argument("--sample", required=True, help="sample JSON")
    p.add_argument("--chain-length", type=int, help="number of sweeps")
    p.add_argument("--burn-in", type=float, dest="burn_in_fraction", metavar="BURN_IN", help="burn-in fraction")
    p.add_argument("--cap", type=int, dest="n_max_cap", metavar="CAP", help="explicit population-size cap")
    p.add_argument("--cap-multiplier", type=float, help="cap as a multiple of the sampled count")
    p.add_argument("--strata-count", type=int, default=None, help="override the number of strata G")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output directory for trace.csv and summary.json")
    p.set_defaults(func=cmd_estimate, out_is_dir=True)

    p = sub.add_parser("mle", help="full-graph maximum likelihood estimates")
    p.add_argument("--edges", required=True)
    p.add_argument("--strata", required=True)
    p.add_argument("--out", required=True, help="output JSON path")
    p.set_defaults(func=cmd_mle, out_is_dir=False)

    p = sub.add_parser("simulate", help="run a replication study from a config JSON")
    p.add_argument("--config", required=True)
    p.add_argument("--replicates", type=int, default=None, help="override config replicate count")
    p.add_argument("--threads", type=int, default=None, help="accepted, no effect: all chains run in one process")
    p.add_argument("--seed", type=int, default=None, help="override master seed")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate, out_is_dir=True)

    p = sub.add_parser("profile", help="log-likelihood profile over a grid of N")
    p.add_argument("--sample", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--n-step", type=int, default=1)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_profile, out_is_dir=False)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        _check_out(args.out, args.out_is_dir)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # runtime/numeric failures
        logger.debug("unhandled failure", exc_info=True)
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

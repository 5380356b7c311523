"""End-to-end and per-layer benchmark of the snowball-sbm command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from any directory; the program is imported from `src/` next to this
directory. A run first times the set-up (a fresh interpreter imports
snowball_sbm and writes the workload's inputs) several times, then:

--trace 0  runs whole rounds of the workload's CLI commands, one command
           process at a time, until the next round would overrun --seconds.
           The first round's outputs are checked and every later round must
           reproduce them byte for byte. Prints the end-to-end metrics.
--trace 1  runs one such CLI round, then the same commands in-process with
           one worker, first untraced and then under the span tracer, and
           prints the per-layer metrics. The CLI round's outputs are checked
           and the other two must reproduce them byte for byte.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the metric names and units
are those declared in BENCHMARK.json. The exit code is 0 when a result was
printed and non-zero when the benchmark could not run.
"""

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import SIZES, WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 5
STARTUP_REPEATS = 5
# the five sub-draws of a Gibbs sweep; the sweep's self time excludes them
SUB_DRAWS = frozenset(
    f"augmentation.{name}"
    for name in ("draw_population_size", "impute_strata", "impute_link_counts", "draw_lambda", "draw_beta")
)
TOTAL_S = (
    "sbm.generate_population", "sbm.edge_list", "sbm.sufficient_counts", "sbm.mle_from_full_graph",
    "sampling.draw_initial", "sampling.trace_one_wave", "sampling.to_ignored_data",
    "sampling.observed_link_counts", "augmentation.run_chain", "harness.run_study",
    "io.save_graph", "io.load_graph", "io.save_sample", "io.load_sample", "io.save_trace_csv",
    "io.save_chain_summary", "io.save_study_outputs",
)
CALLS = ("sbm.edge_list", "sampling.observed_link_counts", "likelihoods.escape_probability")
MEDIAN_US = (
    "likelihoods.escape_probability", "likelihoods.observed_log_likelihood",
    "likelihoods.ignored_log_likelihood", "augmentation.gibbs_sweep", *sorted(SUB_DRAWS),
)
COMMANDS = ("generate", "sample", "mle", "estimate", "profile")


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.pop("SNOWBALL_SBM_LOG", None)
    return env


def run_process(argv, log):
    """Run one process to its end; returns (wall s, peak RSS MB, exit code).

    The peak RSS comes from the process's rusage, which on Linux also
    covers the children it waited for (the study's pool workers)."""
    with open(log, "ab") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def fingerprint(directory):
    """Digest of every file's relative path and bytes under ``directory``."""
    digest = hashlib.sha256()
    total = 0
    for base, dirs, files in os.walk(directory):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                data = fh.read()
            total += len(data)
            digest.update(os.path.relpath(path, directory).encode() + b"\0" + data)
    return digest.hexdigest(), total


class Run:
    """One benchmark run of one workload and seed, in its own work directory."""

    def __init__(self, workload, seed, size):
        self.workload = WORKLOADS[workload](size)
        self.seed = seed
        self.size = size
        self.dir = os.path.join(WORK, f"run-{workload}-{seed}-{os.getpid()}")
        self.inputs = os.path.join(self.dir, "inputs")
        self.log = os.path.join(self.dir, "commands.log")
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = None  # fingerprint every round's outputs must match

    def setup(self, repeats):
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        times = []
        for _ in range(repeats):
            shutil.rmtree(self.inputs, ignore_errors=True)
            wall, _, code = run_process(
                [sys.executable, os.path.join(BENCH_DIR, "make_inputs.py"), "--workload", self.workload.name,
                 "--seed", str(self.seed), "--size", self.size, "--out", self.inputs],
                self.log,
            )
            if code:
                raise BenchError(f"set-up exited with {code}; see {self.log}")
            times.append(wall)
        return statistics.median(times)

    def commands(self, out, threads):
        return self.workload.commands(self.seed, self.inputs, out, threads=threads)

    def cli_round(self, out):
        """One round through fresh CLI processes; returns (wall, {label: (wall, rss)})."""
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        per_command = {}
        start = time.perf_counter()
        for label, argv in self.commands(out, threads=2):
            wall, rss, code = run_process([sys.executable, "-m", "snowball_sbm.cli", *argv], self.log)
            if code:
                print(f"{label} exited with {code}")
                break
            per_command[label] = (wall, rss)
        wall = time.perf_counter() - start
        self.finish_round(out, len(per_command))
        return wall, per_command

    def inprocess_round(self, out, cli):
        """One round calling the CLI entry point in this process, one worker."""
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        completed = 0
        start = time.perf_counter()
        with open(self.log, "a") as fh, contextlib.redirect_stdout(fh):
            for _, argv in self.commands(out, threads=1):
                if cli.main(argv):
                    break
                completed += 1
        wall = time.perf_counter() - start
        self.finish_round(out, completed)
        return wall

    def finish_round(self, out, completed):
        """Count the round's operations. The first complete round's outputs
        are checked; every later round must reproduce them byte for byte."""
        n_commands = len(self.commands(out, 2))
        replicates = self.workload.replicates()
        self.attempted += n_commands + replicates
        if completed < n_commands:
            self.failed += n_commands - completed + replicates
            return
        self.failed += self.workload.failed_replicates(out)
        digest, _ = fingerprint(out)
        if self.reference is None:
            try:
                self.problems += self.workload.check(self.seed, self.inputs, out)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                self.problems.append(f"outputs could not be read: {exc!r}")
            self.reference = digest
        elif digest != self.reference:
            self.problems.append(f"outputs in {os.path.basename(out)} differ from the first round's")

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def end_to_end(run, seconds):
    setup_s = run.setup(SETUP_REPEATS)
    walls, peak = [], 0.0
    start = time.perf_counter()
    while True:
        wall, per_command = run.cli_round(os.path.join(run.dir, "out" if not walls else "again"))
        walls.append(wall)
        peak = max([peak, *(rss for _, rss in per_command.values())])
        elapsed = time.perf_counter() - start
        if run.problems or elapsed * (len(walls) + 1) / len(walls) > seconds:
            break
    print(f"rounds: {len(walls)}, round walls: {[round(w, 3) for w in walls]}")
    return {"setup_s": setup_s, "wall_s": statistics.median(walls), "peak_rss_mb": peak}


def import_program():
    sys.path.insert(0, SRC)
    import snowball_sbm.cli as cli

    if os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))) != SRC:
        raise BenchError(f"snowball_sbm imported from {cli.__file__}, not from {SRC}")
    return cli


def per_layer(run):
    from tracer import Tracer

    run.setup(1)
    startups = []
    for _ in range(STARTUP_REPEATS):
        wall, _, code = run_process([sys.executable, "-c", "import snowball_sbm.cli"], run.log)
        if code:
            raise BenchError(f"importing snowball_sbm.cli exited with {code}")
        startups.append(wall)
    _, per_command = run.cli_round(os.path.join(run.dir, "cli"))

    cli = import_program()
    untraced_wall = run.inprocess_round(os.path.join(run.dir, "untraced"), cli)
    tracer = Tracer()
    tracer.install()
    try:
        traced_out = os.path.join(run.dir, "traced")
        traced_wall = run.inprocess_round(traced_out, cli)
    finally:
        tracer.uninstall()
    os.makedirs(WORK, exist_ok=True)
    tracer.write(os.path.join(WORK, f"spans-{run.workload.name}-{run.seed}.tsv"))

    durations = tracer.durations()
    metrics = {}
    for name in TOTAL_S:
        metrics[f"{name}.s"] = float(sum(durations.get(name, ())))
    for name in CALLS:
        metrics[f"{name}.calls"] = len(durations.get(name, ()))
    for name in MEDIAN_US:
        values = durations.get(name)
        metrics[f"{name}.us"] = statistics.median(values) * 1e6 if values else 0.0
    for name in ("sbm.generate_population", "sbm.sufficient_counts"):
        metrics[f"{name}.peak_alloc_mb"] = tracer.peak_alloc.get(name, 0) / 2**20
    self_us = tracer.self_times("augmentation.gibbs_sweep", SUB_DRAWS)
    n0, n1 = run.workload.sample_sizes(run.inputs, traced_out)
    metrics.update({
        "sbm.graph_bytes": tracer.graph_bytes,
        "sbm.edges": tracer.graph_edges,
        "sampling.n0": n0,
        "sampling.n1": n1,
        "likelihoods.grid_points": len(durations.get("likelihoods.ignored_log_likelihood", ())),
        "augmentation.sweeps": len(durations.get("augmentation.gibbs_sweep", ())),
        "augmentation.gibbs_sweep.self_us": statistics.median(self_us) * 1e6 if self_us else 0.0,
        "harness.run_study.self_s": float(sum(tracer.self_times("harness.run_study"))),
        "io.bytes_written": fingerprint(traced_out)[1],
        "cli.startup_s": statistics.median(startups),
        "trace.overhead_s": traced_wall - untraced_wall,
    })
    for label in COMMANDS:
        metrics[f"cli.{label}_s"] = per_command[label][0] if label in per_command else 0.0
    simulate = per_command.get("simulate")
    metrics["cli.study_replicates_per_s"] = run.workload.replicates() / simulate[0] if simulate else 0.0
    print(f"in-process rounds: untraced {untraced_wall:.3f} s, traced {traced_wall:.3f} s, "
          f"{len(tracer.spans)} spans")
    return metrics


def machine_info():
    import numpy
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit_hash(),
    }


def commit_hash():
    """HEAD of the checkout's git repository, read from .git; 'unknown' in
    an exported tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            return next(line.split()[0] for line in fh if line.rstrip().endswith(" " + ref))
    except (OSError, StopIteration):
        return "unknown"


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None):
    parser = argparse.ArgumentParser(description="snowball-sbm CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full", choices=sorted(SIZES),
                        help="input size; 'small' is the reduced copy the benchmark's tests use")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "snowball_sbm")):
        print(f"error: no program source at {SRC}/snowball_sbm", file=sys.stderr)
        return 2
    declared = declared_metrics(args.trace)

    print("machine: " + json.dumps(machine_info(), sort_keys=True))
    run = Run(args.workload, args.seed, args.size)
    try:
        values = per_layer(run) if args.trace else end_to_end(run, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        run.close()
    missing = [name for name, _ in declared if name not in values]
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 1
    for problem in run.problems:
        print(f"check failed: {problem}")
    for name, unit in declared:
        print(f"{name} = {values[name]} {unit}")
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself: its output checks reject wrong outputs,
and every workload runs end to end at reduced size.

    python3 -m pytest bench/test_bench.py -q
"""

import csv
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import run as bench_run  # noqa: E402
from workloads import WORKLOADS, read_strata  # noqa: E402


@pytest.fixture(scope="module")
def rounds():
    """One reduced-size CLI round per workload: {name: (run, out dir)}."""
    done = {}
    for name in WORKLOADS:
        run = bench_run.Run(name, seed=3, size="small")
        run.setup(1)
        out = os.path.join(run.dir, "out")
        run.cli_round(out)
        assert run.failed == 0 and not run.problems, run.problems
        done[name] = (run, out)
    yield done
    for run, _ in done.values():
        run.close()


@pytest.fixture
def work_path(request):
    """A scratch directory inside the checkout's work area."""
    path = Path(bench_run.WORK) / f"test-{request.node.name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def mutated(rounds, name, work_path):
    run, out = rounds[name]
    copy = work_path / "out"
    shutil.copytree(out, copy)
    return run, str(copy)


def problems(run, out):
    return run.workload.check(run.seed, run.inputs, out)


def rewrite_json(path, change):
    with open(path) as fh:
        doc = json.load(fh)
    change(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)


def rewrite_rows(path, change):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    change(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


# ------------------------------------------------------------ city-population


def test_city_mle_off_by_one_edge_is_rejected(rounds, work_path):
    run, out = mutated(rounds, "city-population", work_path)
    counts = [int((read_strata(os.path.join(out, "pop", "strata.csv")) == k).sum()) for k in range(2)]
    pairs_11 = counts[0] * (counts[0] - 1) // 2
    rewrite_json(os.path.join(out, "mle.json"),
                 lambda doc: doc["beta_upper"].__setitem__(0, doc["beta_upper"][0] + 1 / pairs_11))
    assert any("beta_1_1" in p for p in problems(run, out))


def test_city_bad_edge_lists_are_rejected(rounds, work_path):
    run, out = mutated(rounds, "city-population", work_path)
    edges = os.path.join(out, "pop", "edges.tsv")
    with open(edges) as fh:
        lines = fh.readlines()
    for bad, message in [
        (lines + [lines[1]], "duplicate"),
        (lines[:1] + ["{1}\t{0}\n".format(*lines[1].split())] + lines[2:], "u >= v"),
        (lines + [f"0\t{run.workload.n}\n"], "outside 0..N-1"),
    ]:
        with open(edges, "w") as fh:
            fh.writelines(bad)
        assert any(message in p for p in problems(run, out)), message


def test_city_sample_link_without_initial_endpoint_is_rejected(rounds, work_path):
    run, out = mutated(rounds, "city-population", work_path)

    def orphan_link(doc):
        n = doc["n0"] + doc["n1"]
        doc["links"].append([n - 1, n])

    rewrite_json(os.path.join(out, "sample.json"), orphan_link)
    assert any("no endpoint in the initial sample" in p for p in problems(run, out))


# ------------------------------------------------------- large-sample-estimate


def test_large_non_monotone_profile_row_is_rejected(rounds, work_path):
    run, out = mutated(rounds, "large-sample-estimate", work_path)
    rewrite_rows(os.path.join(out, "profile.csv"), lambda rows: rows[3].__setitem__(1, rows[2][1]))
    assert any("strictly decreasing" in p for p in problems(run, out))


def test_large_wrong_ignored_likelihood_is_rejected(rounds, work_path):
    run, out = mutated(rounds, "large-sample-estimate", work_path)
    rewrite_rows(os.path.join(out, "profile.csv"),
                 lambda rows: rows[5].__setitem__(2, repr(float(rows[5][2]) * (1 + 1e-7))))
    assert any("ignored" in p for p in problems(run, out))


def test_large_trace_faults_are_rejected(rounds, work_path):
    run, out = mutated(rounds, "large-sample-estimate", work_path)
    trace = os.path.join(out, "est", "trace.csv")
    rewrite_rows(trace, lambda rows: rows[4].__setitem__(1, "1"))
    rewrite_rows(trace, lambda rows: rows[6].__setitem__(2, repr(float(rows[6][2]) + 0.01)))
    found = problems(run, out)
    assert any("N draws outside" in p for p in found)
    assert any("does not sum to 1" in p for p in found)
    rewrite_rows(trace, lambda rows: rows.pop())
    assert any("rows for" in p for p in problems(run, out))


# ------------------------------------------------------------ survey-study


def test_study_failed_replicate_is_rejected_and_counted(rounds, work_path):
    run, out = mutated(rounds, "survey-study", work_path)
    study = os.path.join(out, "study")

    def fail_one(doc):
        doc["replicates_completed"] -= 1
        doc["failures"] = [{"replicate": 2, "error": "boom"}]

    rewrite_json(os.path.join(study, "summary.json"), fail_one)
    rewrite_rows(os.path.join(study, "estimates.csv"), lambda rows: rows.pop(3))
    assert run.workload.failed_replicates(out) == 1
    assert any("failed replicates" in p for p in problems(run, out))


def test_pristine_outputs_pass(rounds):
    for run, out in rounds.values():
        assert problems(run, out) == []


# -------------------------------------------------------------- whole runs


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_runs_end_to_end_at_reduced_size(workload, trace):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--size", "small"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    with open(os.path.join(bench_run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == declared
    assert time.perf_counter() - start < 60


def test_run_fails_without_program_source(work_path):
    shutil.copy(os.path.join(bench_run.ROOT, "BENCHMARK.json"), work_path)
    shutil.copytree(BENCH_DIR, work_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "survey-study", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=work_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_wraps_every_namespace_and_restores():
    sys.path.insert(0, bench_run.SRC)
    import snowball_sbm
    from snowball_sbm import augmentation, likelihoods
    from tracer import Tracer

    original = likelihoods.escape_probability
    tracer = Tracer()
    tracer.install()
    try:
        assert augmentation.escape_probability is likelihoods.escape_probability
        assert snowball_sbm.escape_probability is likelihoods.escape_probability
        assert likelihoods.escape_probability.__wrapped__ is original
        params = snowball_sbm.survey_scale_params()
        augmentation.escape_probability([0, 1, 1], params)
    finally:
        tracer.uninstall()
    assert likelihoods.escape_probability is original
    assert augmentation.escape_probability is original
    spans = {name: (span_id, parent) for span_id, parent, name, _, _ in tracer.spans}
    outer_id, outer_parent = spans["likelihoods.escape_probability"]
    assert outer_parent == -1
    assert spans["likelihoods.stratum_escape_log_weights"][1] == outer_id

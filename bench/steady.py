"""Steadiness check: run one workload k times on k seeds and print each
metric's median and quartiles, and their spread against its bound.

    python3 bench/steady.py --workload NAME --runs 10 [--first-seed 1] [--trace 0|1]
                            [--save FILE] [--against FILE]

The spread of a metric is (q3 - q1) / median over the runs, with quartiles
from statistics.quantiles(values, n=4). An end-to-end metric is steady when
its spread is within its bound in BENCHMARK.json (setup_s is exempt: it is
bounded only by the comparison of medians), and comfortably so below a
third of it. With --against, the medians are compared with an earlier set
saved by --save: no metric may be worse by more than its bound, and the
share of failed operations must be the same.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode:
        sys.exit(f"seed {seed}: run.py exited with {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["machine"] = next((json.loads(line[9:]) for line in lines if line.startswith("machine: ")), None)
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="write the runs' results to this JSON file")
    parser.add_argument("--against", help="compare medians with a set saved earlier by --save")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    metrics = spec["per_layer" if args.trace else "end_to_end"]

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result = run_once(args.workload, seed, spec["run_seconds"], args.trace)
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{m['name']}={result['metrics'][m['name']]['value']:.6g}" for m in metrics[:6]),
              flush=True)
    if args.save:
        with open(args.save, "w") as fh:
            json.dump({"workload": args.workload, "trace": args.trace, "results": results}, fh, indent=1)

    print(f"machine: {json.dumps(results[0]['machine'], sort_keys=True)}")
    ok = all(r["correct"] for r in results)
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"\n{args.workload}: {len(results)} runs, all correct: {ok}, failed shares: {sorted(shares)}")
    print(f"{'metric':44s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    medians = {}
    for m in metrics:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        med, q1, q3, share = spread(values)
        medians[m["name"]] = med
        bound = m.get("bound")
        verdict = ""
        if bound is not None and m["name"] != "setup_s":
            verdict = "steady" if share <= bound / 3 else ("within bound" if share <= bound else "TOO WIDE")
            ok &= share <= bound
        print(f"{m['name']:44s} {med:12.6g} {q1:12.6g} {q3:12.6g} {share:8.4f} "
              f"{'' if bound is None else bound:>6} {verdict}")

    if args.against:
        with open(args.against) as fh:
            earlier = json.load(fh)["results"]
        print(f"\nagainst {args.against}:")
        earlier_shares = {r["failed"] / r["attempted"] for r in earlier}
        if earlier_shares != shares:
            print(f"  failed shares differ: {sorted(earlier_shares)} vs {sorted(shares)}")
            ok = False
        for m in metrics:
            if "bound" not in m:
                continue
            before = statistics.median(r["metrics"][m["name"]]["value"] for r in earlier)
            change = (medians[m["name"]] - before) / before
            worse = change if m["better"] == "lower" else -change
            agree = worse <= m["bound"]
            ok &= agree
            print(f"  {m['name']:42s} {before:12.6g} -> {medians[m['name']]:12.6g} "
                  f"({change:+.2%}) {'agrees' if agree else 'WORSE THAN BOUND'}")
    print("\nverdict:", "pass" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

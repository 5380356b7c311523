"""Set-up step of one benchmark run: import snowball_sbm in a fresh
interpreter and write the workload's inputs for a seed.

    python3 bench/make_inputs.py --workload NAME --seed N --size full --out DIR

`run.py` times this whole process as the workload's set-up time.
"""

import argparse
import os

from workloads import SIZES, WORKLOADS


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full", choices=sorted(SIZES))
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)
    WORKLOADS[args.workload](args.size).make_inputs(args.seed, args.out)


if __name__ == "__main__":
    main()

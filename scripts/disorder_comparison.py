#!/usr/bin/env python3
"""Paired disorder ensemble: does the drive soften disorder-induced pinning?

Runs the `disorder` subcommand on the directional config, which evolves the
same seeded disorder realizations for the driven chain and its zero-angle
twin, then prints the paired localization statistics.  A negative z score
for realspace_ipr means the driven chain's wave packet spreads out over
more sites than the undriven one under the same disorder.

The full run (205 atoms, 50 realizations, 202 cells over both configs, in
one pool) took 2.8-3.1 s at --threads 1 and 2.1-2.3 s at --threads 2 on a
shared 2-core Intel Xeon VM, three runs each; pass --quick for a small
smoke version.
"""

import argparse
import csv
import os

from atomchain.cli import main as cli_main

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIG_DIR = os.path.join(HERE, "..", "configs")


def run(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/disorder")
    parser.add_argument("--realizations", type=int, default=50)
    parser.add_argument("--threads", type=int, default=len(os.sched_getaffinity(0)))
    parser.add_argument("--quick", action="store_true",
                        help="8 realizations on the shipped config")
    args = parser.parse_args(argv)

    realizations = 8 if args.quick else args.realizations
    rc = cli_main(
        [
            "disorder",
            "--config", os.path.join(CONFIG_DIR, "directional.cfg"),
            "--out", args.out,
            "--sqrt-w", "0,0.625,1.0",
            "--realizations", str(realizations),
            "--time", "13.0",
            "--threads", str(args.threads),
        ]
    )
    if rc != 0:
        return rc

    print("\npaired driven-minus-undriven differences:")
    print(f"{'observable':24s} {'sqrt_w':>7s} {'diff_mean':>12s} {'z':>8s}")
    with open(os.path.join(args.out, "paired_diff.csv")) as fh:
        for row in csv.DictReader(fh):
            print(f"{row['observable']:24s} {float(row['sqrt_w']):7.3f} "
                  f"{float(row['diff_mean']):12.3e} {float(row['z']):8.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(run())

#!/usr/bin/env python3
"""Ratio growth on synthetic Gaussian data: one sweep varying n at fixed d,
one varying d at fixed n (100 permutations per grid point).

Each grid value g gets one `analyze --gaussian n,d` run with
--seed mix64(0, g), which keys both its data and its permutations; its
report goes to out_dir/<sweep>/n<n>_d<d>.{csv,json}. Each sweep's
n,d,num_perms,mean_ratio,std_ratio rows go to out_dir/<sweep>.summary.csv.

Usage: python scripts/gaussian_ratio_sweeps.py [fixed_value] [out_dir]
"""

import csv
import json
import pathlib
import sys

from shuffle_sgd.cli import main
from shuffle_sgd.prng import mix64

GRID = (50, 100, 200, 400, 600, 800, 1000)
NUM_PERMS = 100
SEED = 0


def sweep(fixed_dim, fixed, out_dir):
    """Run one sweep over GRID with the fixed_dim ("n" or "d") held at
    fixed; returns the first nonzero exit code of analyze, else 0."""
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = [("n", "d", "num_perms", "mean_ratio", "std_ratio")]
    for g in GRID:
        n, d = (g, fixed) if fixed_dim == "d" else (fixed, g)
        report = str(out_dir / f"n{n}_d{d}")
        code = main([
            "analyze", "--gaussian", f"{n},{d}", "--num-perms", str(NUM_PERMS),
            "--seed", str(mix64(SEED, g)), "--out", report,
        ])
        if code != 0:
            return code
        with open(report + ".json", encoding="utf-8") as fh:
            stats = json.load(fh)["ratios_L_over_hatL"]
        summary.append((n, d, NUM_PERMS, repr(stats["mean"]), repr(stats["std"])))
    with open(str(out_dir) + ".summary.csv", "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(summary)
    print(" ".join(f"{g}:{float(row[3]):.4g}" for g, row in zip(GRID, summary[1:])))
    return 0


if __name__ == "__main__":
    fixed = int(sys.argv[1]) if len(sys.argv) > 1 else 500
    out_dir = pathlib.Path(sys.argv[2] if len(sys.argv) > 2 else "results/gaussian_sweeps")

    for fixed_dim, tag in (("d", "vary_n"), ("n", "vary_d")):
        print(f"== sweep {tag} (fixed {fixed_dim} = {fixed})")
        code = sweep(fixed_dim, fixed, out_dir / tag)
        if code != 0:
            sys.exit(code)

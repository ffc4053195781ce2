#!/usr/bin/env python3
"""The L / hat ratio table and its spread over random permutations, for
every LIBSVM file in a directory.

Each file gets one `analyze --b 1 --seed 0` run: 1000 permutations, or 20
for a file of more than 5000 rows. Its report, the ratio table row with
every hat, tilde and ratio, goes to out_dir/analyze/<stem>.{csv,json}. Its
per-permutation ratios are binned (40 bins) into out_dir/<stem>.csv
(bin_left,bin_right,density), and their mean and coefficient of variation
go to out_dir/<stem>.json.

Usage: python scripts/ratio_histograms.py [data_dir] [out_dir]
"""

import csv
import json
import pathlib
import sys

import numpy as np

from shuffle_sgd import load_libsvm
from shuffle_sgd.cli import main

BINS = 40


def histogram_rows(ratios, bins):
    """The bin_left,bin_right,density rows of the normalized histogram of
    ratios over their range, each value written with repr."""
    lo, hi = float(np.min(ratios)), float(np.max(ratios))
    if hi - lo <= 1e-12 * hi:
        # ratios that agree to roundoff are one value: give it the unit-wide
        # range np.histogram gives equal values, not bins narrower than the
        # spacing of floats, which it refuses
        lo, hi = lo - 0.5, hi + 0.5
    density, edges = np.histogram(ratios, bins=bins, range=(lo, hi), density=True)
    return [("bin_left", "bin_right", "density")] + [
        (repr(float(edges[i])), repr(float(edges[i + 1])), repr(float(density[i])))
        for i in range(len(density))
    ]


def histogram(path, out_dir):
    """Run analyze on one file and bin its L / hat ratios; returns the exit
    code of analyze."""
    (out_dir / "analyze").mkdir(parents=True, exist_ok=True)
    report = str(out_dir / "analyze" / path.stem)
    perms = 1000 if load_libsvm(path).n <= 5000 else 20
    print(f"== {path.name} ({perms} permutations)")
    code = main([
        "analyze", "--input", str(path), "--b", "1", "--num-perms", str(perms),
        "--seed", "0", "--out", report,
    ])
    if code != 0:
        return code
    with open(report + ".json", encoding="utf-8") as fh:
        ratios = json.load(fh)["ratios"]
    prefix = str(out_dir / path.stem)
    with open(prefix + ".csv", "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(histogram_rows(ratios, BINS))
    mean = float(np.mean(ratios))
    cv = float(np.std(ratios) / mean)
    summary = {"mean_ratio": mean, "coefficient_of_variation": cv, "num_perms": perms,
               "bins": BINS}
    with open(prefix + ".json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(summary, indent=2, sort_keys=True, allow_nan=False) + "\n")
    print(f"mean={mean:.4g} cv={cv:.4g}")
    return 0


if __name__ == "__main__":
    data_dir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "data")
    out_dir = pathlib.Path(sys.argv[2] if len(sys.argv) > 2 else "results/histograms")
    out_dir.mkdir(parents=True, exist_ok=True)

    files = sorted(p for p in data_dir.iterdir() if p.is_file()) if data_dir.exists() else []
    if not files:
        sys.exit(f"no dataset files under {data_dir}/; drop LIBSVM files there first")

    for path in files:
        code = histogram(path, out_dir)
        if code != 0:
            sys.exit(code)

#!/usr/bin/env python3
"""L / tilde against the batch size on Gaussian data, with the fitted
log-log growth exponent.

Every divisor b of n gets one `analyze --gaussian n,d --b b --num-perms 100
--seed 0` run, so every b sees the same data and the same permutations; its
report goes to out_dir/gaussian_<n>x<d>/b<b>.{csv,json}. From each report's
L and tildeL_values the script writes, under out_dir:
- gaussian_<n>x<d>.csv: b,perm_index,ratio, the L / tilde of every
  permutation;
- gaussian_<n>x<d>.summary.csv: b,num_perms,mean_ratio,std_ratio;
- gaussian_<n>x<d>.json: b_grid, mean_ratios and loglog_slope, the slope of
  log mean_ratio against log b (null when n = 1, whose only divisor is 1).

Usage: python scripts/batch_size_sweep.py [n] [d] [out_dir]
"""

import csv
import json
import pathlib
import sys

import numpy as np

from shuffle_sgd.cli import main

NUM_PERMS = 100
SEED = 0


def write_csv(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def sweep(n, d, out_dir):
    """Run analyze at every divisor of n and write the study's files;
    returns the first nonzero exit code of analyze, else 0."""
    prefix = out_dir / f"gaussian_{n}x{d}"
    prefix.mkdir(parents=True, exist_ok=True)
    b_grid = [b for b in range(1, n + 1) if n % b == 0]
    rows = [("b", "perm_index", "ratio")]
    summary = [("b", "num_perms", "mean_ratio", "std_ratio")]
    means = []
    for b in b_grid:
        report = str(prefix / f"b{b}")
        code = main([
            "analyze", "--gaussian", f"{n},{d}", "--b", str(b), "--num-perms", str(NUM_PERMS),
            "--seed", str(SEED), "--out", report,
        ])
        if code != 0:
            return code
        with open(report + ".json", encoding="utf-8") as fh:
            stats = json.load(fh)
        ratios = [stats["L"] / tilde for tilde in stats["tildeL_values"]]
        rows += [(b, j, repr(r)) for j, r in enumerate(ratios)]
        means.append(float(np.mean(ratios)))
        summary.append((b, NUM_PERMS, repr(means[-1]), repr(float(np.std(ratios)))))
    # every ratio is at least 1 (tilde <= L), so every log is finite
    slope = float(np.polyfit(np.log(b_grid), np.log(means), 1)[0]) if len(b_grid) > 1 else None
    write_csv(str(prefix) + ".csv", rows)
    write_csv(str(prefix) + ".summary.csv", summary)
    result = {"b_grid": b_grid, "mean_ratios": means, "loglog_slope": slope,
              "num_perms": NUM_PERMS, "seed": SEED}
    with open(str(prefix) + ".json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(result, indent=2, sort_keys=True, allow_nan=False) + "\n")
    print(f"alpha={'none' if slope is None else f'{slope:.4g}'} "
          + " ".join(f"b={b}:{m:.4g}" for b, m in zip(b_grid, means)))
    return 0


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 500
    d = int(sys.argv[2]) if len(sys.argv) > 2 else 500
    out_dir = pathlib.Path(sys.argv[3] if len(sys.argv) > 3 else "results/batch_sweep")
    sys.exit(sweep(n, d, out_dir))

#!/usr/bin/env python3
"""End-to-end bound verification on small synthetic problems: one run per
guarantee (uniform reshuffling, fixed order, nonsmooth, finite-sum variants),
and uniform reshuffling again on the logistic loss.

Usage: python scripts/bound_verification.py [out_dir]
"""

import pathlib
import sys

import numpy as np

import shuffle_sgd as ss
from shuffle_sgd.cli import main

out_dir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "results/bound_checks")
out_dir.mkdir(parents=True, exist_ok=True)

rng = np.random.default_rng(0)
A = rng.standard_normal((24, 5))
ds = ss.SparseDataset.from_dense(A, labels=rng.standard_normal(24))
data_path = str(out_dir / "least_squares_24x5.svm")
with open(data_path, "w") as fh:
    fh.write(ss.serialize_libsvm(ds))

checks = [
    ["verify-bound", "--bound", "rr", "--input", data_path, "--loss", "squared",
     "--b", "2", "--epochs", "10", "--seeds", "200", "--perms", "100"],
    ["verify-bound", "--bound", "ig", "--input", data_path, "--loss", "squared",
     "--b", "3", "--epochs", "10"],
    ["verify-bound", "--bound", "general-rr", "--input", data_path, "--loss", "squared",
     "--b", "2", "--epochs", "8", "--seeds", "100", "--perms", "100"],
    ["verify-bound", "--bound", "general-ig", "--input", data_path, "--loss", "squared",
     "--b", "3", "--epochs", "8"],
    ["verify-bound", "--bound", "nonsmooth", "--planted", "--gaussian", "50,5",
     "--b", "1", "--epochs", "16", "--seeds", "200", "--perms", "200"],
    # +-1 labels that overlap: the logistic reference minimizer's path
    ["verify-bound", "--bound", "rr", "--gaussian", "24,5", "--loss", "logistic",
     "--b", "2", "--epochs", "10", "--seeds", "200", "--perms", "100"],
]

failed = 0
for args in checks:
    tag = args[2] + ("_planted" if "--planted" in args else "") + (
        "_logistic" if "logistic" in args else "")
    print(f"== {tag}")
    code = main(args + ["--out", str(out_dir / tag)])
    failed += code != 0
sys.exit(1 if failed else 0)

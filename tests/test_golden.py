"""Golden outputs: a fixed set of command lines, run in process through
cli.main on data the test builds itself, must reproduce the CSV and JSON
files committed under tests/golden/.

Strings, integers, booleans and verdicts match exactly; floats match to
1e-12 relative, with an absolute floor of 1e-14 for roundoff-level values
(such as retraction_residual) and exact zeros. runtime_sec and the
path-valued config fields (out, input) are not compared.

Rewrite the committed files from the current code with

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import json
import math
import os
import pathlib
import runpy
import tempfile

import numpy as np
import pytest

import shuffle_sgd as ss
from shuffle_sgd.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN_DIR = ROOT / "tests" / "golden"
REL_TOL, ABS_TOL = 1e-12, 1e-14
SKIPPED_KEYS = {("runtime_sec",), ("config", "out"), ("config", "input")}

SPARSE = "{sparse}"  # stands for the path of the sparse file in an argv
SMALL = ["--gaussian", "24,5", "--b", "2", "--epochs", "3"]
VERIFY = [*SMALL, "--seeds", "10", "--perms", "10"]
# case name -> argv without --out
COMMANDS = {
    # the dense Gram
    "analyze-gaussian-b1": ["analyze", "--gaussian", "24,5", "--b", "1", "--num-perms", "10"],
    "analyze-gaussian-b4": ["analyze", "--gaussian", "24,5", "--b", "4", "--num-perms", "10"],
    # the prefix-sum Gram
    "analyze-sparse-b1": ["analyze", "--input", SPARSE, "--b", "1", "--num-perms", "10"],
    "analyze-sparse-b4": ["analyze", "--input", SPARSE, "--b", "4", "--num-perms", "10"],
    **{f"optimize-{scheme.lower()}": ["optimize", *SMALL, "--step", "0.05", "--scheme", scheme,
                                      "--seeds", "0,1"]
       for scheme in ("RR", "SO", "IG")},
    **{f"optimize-theoretical-{loss}": ["optimize", *SMALL, "--loss", loss, "--perms", "5",
                                        "--seeds", "0,1"]
       for loss in ("squared", "logistic")},
    "optimize-hinge-b1": ["optimize", "--gaussian", "24,5", "--b", "1", "--epochs", "3",
                          "--loss", "hinge", "--step", "0.05"],
    # the sorted block layout
    "optimize-hinge-sparse-b4": ["optimize", "--input", SPARSE, "--b", "4", "--epochs", "2",
                                 "--loss", "hinge", "--step", "0.05"],
    **{f"verify-bound-{kind}": ["verify-bound", "--bound", kind, *VERIFY]
       for kind in ("rr", "ig", "general-rr", "general-ig")},
    "verify-bound-nonsmooth": ["verify-bound", "--bound", "nonsmooth", "--planted",
                               "--gaussian", "20,4", "--b", "2", "--epochs", "3",
                               "--seeds", "10", "--perms", "10"],
}
SWEEP = "batch-size-sweep-12x3"  # scripts/batch_size_sweep.py 12 3
SWEEP_FILES = ("gaussian_12x3.csv", "gaussian_12x3.summary.csv", "gaussian_12x3.json")
CASES = [*COMMANDS, SWEEP]


def write_sparse(path):
    """A 400 x 50 LIBSVM file with 3 nonzeros a row: the prefix-sum Gram."""
    rng = np.random.default_rng(24)
    n, d, k = 400, 50, 3
    cols = np.sort(np.argsort(rng.random((n, d)), axis=1)[:, :k], axis=1)
    ds = ss.SparseDataset(np.arange(n + 1) * k, cols.ravel(), rng.standard_normal(n * k),
                          np.ones(n), d)
    path.write_text(ss.serialize_libsvm(ds))


def run_case(name) -> dict:
    """Run one case in the working directory, on paths relative to it, so
    the reports' config holds no absolute path; returns golden file name ->
    the path of the file the case wrote."""
    if name == SWEEP:
        runpy.run_path(str(ROOT / "scripts" / "batch_size_sweep.py"))["sweep"](
            12, 3, pathlib.Path("."))
        return {f"{SWEEP}.{f.split('.', 1)[1]}": pathlib.Path(f) for f in SWEEP_FILES}
    if SPARSE in COMMANDS[name]:
        write_sparse(pathlib.Path("sparse.svm"))
    argv = ["sparse.svm" if a == SPARSE else a for a in COMMANDS[name]]
    assert main(argv + ["--out", name]) == 0, argv
    exts = ("json",) if argv[0] == "verify-bound" else ("csv", "json")  # it writes no CSV
    return {f"{name}.{ext}": pathlib.Path(f"{name}.{ext}") for ext in exts}


def _cell(text):
    for convert in (int, float):
        try:
            return convert(text)
        except ValueError:
            pass
    return text


def assert_matches(got, want, where):
    """got equals want: floats to REL_TOL (ABS_TOL near zero), everything
    else exactly, skipping the keys in SKIPPED_KEYS."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            if where[1:] + (key,) not in SKIPPED_KEYS:
                assert_matches(got[key], want[key], where + (key,))
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, where + (i,))
    elif isinstance(want, float):
        assert type(got) is float and math.isclose(
            got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL), (where, got, want)
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


def read_output(path):
    """A JSON report as its object; a CSV as its rows of parsed cells."""
    with open(path, encoding="utf-8", newline="") as fh:
        if path.suffix == ".json":
            return json.load(fh)
        return [[_cell(c) for c in row] for row in csv.reader(fh)]


@pytest.mark.parametrize("name", CASES)
def test_output_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for golden, path in run_case(name).items():
        assert_matches(read_output(path), read_output(GOLDEN_DIR / golden), (golden,))


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in CASES:
            os.chdir(tmp)
            os.mkdir(name)
            os.chdir(name)
            for golden, path in run_case(name).items():
                (GOLDEN_DIR / golden).write_bytes(path.read_bytes())
        os.chdir(ROOT)

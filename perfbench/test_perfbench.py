"""Self-test of the benchmark at tiny sizes.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)

SEED = 5


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_workload_names_match_benchmark():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_end_to_end_metrics_emitted_with_units(workload):
    metrics = result_of(run_bench(workload, 0))["metrics"]
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in metrics.items()} == want
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_traced_metrics_and_analytic_counts(workload, tmp_path):
    metrics = result_of(run_bench(workload, 1))["metrics"]
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == want
    wl = workloads.build(workload, SEED, True, str(tmp_path))
    for name, count in wl.expected_counts.items():
        assert metrics[name]["value"] == count, name
    assert metrics["engine.run.blocks"]["value"] == wl.engine_blocks
    assert metrics["engine.dual_block_update.calls"]["value"] == wl.engine_blocks
    assert metrics["constants.hat_constant.rel_err_max"]["value"] <= checks.ORACLE_REL_TOL
    assert abs(metrics["trace.self_sum_frac"]["value"] - 1.0) < 0.05


def test_removed_name_drops_its_metrics(monkeypatch):
    import shuffle_sgd.cli  # noqa: F401  (loads every traced module)
    import shuffle_sgd.constants
    import tracer

    monkeypatch.delattr(shuffle_sgd.constants, "gbar_estimate")
    tr = tracer.Tracer()
    tr.install()
    tr.uninstall()
    assert tr.missing == ["constants.gbar_estimate"]
    metrics = tracer.layer_metrics(tr, 0, 1.0, 1.0)
    assert "constants.gbar_estimate.calls" not in metrics
    assert "constants.hat_constant.calls" in metrics


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("small-dense", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


# -- the checkers count corrupted outputs as failed ---------------------------

def _run_commands(workload, tmp_path):
    from shuffle_sgd.cli import main

    wl = workloads.build(workload, SEED, True, str(tmp_path))
    out = []
    for i, cmd in enumerate(wl.commands(0)):
        prefix = str(tmp_path / f"{i}-{cmd.tag}")
        code = main(cmd.argv + ["--out", prefix])
        assert cmd.check(prefix, code) is None
        out.append((cmd, prefix, code))
    return out


def _edit_json(prefix, fn):
    with open(prefix + ".json") as fh:
        payload = json.load(fh)
    fn(payload)
    with open(prefix + ".json", "w") as fh:
        json.dump(payload, fh)


def _edit_csv_cell(prefix, row, col, fn):
    with open(prefix + ".csv") as fh:
        lines = fh.read().splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(fn(float(cells[col])))
    lines[row] = ",".join(cells)
    with open(prefix + ".csv", "w") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_nonzero_exit_counts_as_failed(workload, tmp_path):
    for cmd, prefix, _ in _run_commands(workload, tmp_path):
        assert cmd.check(prefix, 2) is not None


def test_corrupted_outputs_count_as_failed(tmp_path):
    for sub in "sr":
        (tmp_path / sub).mkdir()
    small = _run_commands("small-dense", tmp_path / "s")
    (an, an_p, code), (opt, opt_p, _), (verify, verify_p, _) = small[:3]
    # hat above the oracle, then far below it
    _edit_json(an_p, lambda p: p["hatL_values"].__setitem__(0, p["hatL_values"][0] * 1.001))
    assert an.check(an_p, code) is not None
    _edit_json(an_p, lambda p: p["hatL_values"].__setitem__(0, p["hatL_values"][0] * 0.5))
    assert an.check(an_p, code) is not None
    # a final objective off by one part in a million
    _edit_csv_cell(opt_p, -1, 2, lambda v: v * (1 + 1e-6))
    assert opt.check(opt_p, 0) is not None

    (an, an_p, _), (opt, opt_p, _) = _run_commands("rcv1-sparse", tmp_path / "r")
    _edit_json(an_p, lambda p: p.__setitem__("hatL_values", [p["trace_bound"] * 1.01]))
    assert an.check(an_p, 0) is not None
    _edit_csv_cell(opt_p, -1, 2, lambda v: v + 1e-6)
    assert opt.check(opt_p, 0) is not None

    _edit_json(verify_p, lambda p: p.__setitem__("verdict", "violated"))
    assert verify.check(verify_p, 0) is not None


def test_oracle_accepts_exact_value_and_rejects_overshoot():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((12, 3))
    perm = rng.permutation(12)
    exact = checks.dense_hat(A, perm, 3)
    assert checks.oracle_rel_err(exact, exact) == 0.0
    assert checks.oracle_rel_err(exact * (1 - 1e-5), exact) == pytest.approx(1e-5)
    assert checks.oracle_rel_err(exact * (1 + 1e-6), exact) is None

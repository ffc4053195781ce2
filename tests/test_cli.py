import dataclasses
import json
import os
import pathlib
import runpy
import shlex
import subprocess
import sys
import tempfile
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import shuffle_sgd as ss
from shuffle_sgd import cli
from shuffle_sgd.cli import main

import oracles


def write_identity_dataset(path, n):
    lines = [f"0 {i + 1}:1\n" for i in range(n)]
    path.write_text("".join(lines))


def unconverged_from(monkeypatch, call):
    """Make every spectral solve from the call-th one on report that it
    stopped after 7 matvecs with Ritz residual 0.25."""
    real = ss.constants.operator_norm
    count = [0]

    def solve(*args, **kwargs):
        count[0] += 1
        res = real(*args, **kwargs)
        return res if count[0] < call else res._replace(
            converged=False, iterations=7, residual=0.25)

    monkeypatch.setattr(ss.constants, "operator_norm", solve)


@pytest.fixture
def identity6(tmp_path):
    p = tmp_path / "identity6.svm"
    write_identity_dataset(p, 6)
    return p


class TestAnalyze:
    def test_identity_ratio_is_n(self, identity6, tmp_path):
        out = tmp_path / "report"
        code = main([
            "analyze", "--input", str(identity6), "--b", "1",
            "--num-perms", "5", "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["schema_version"] == 1
        assert payload["ratios_L_over_hatL"]["mean"] == pytest.approx(6.0, rel=1e-6)
        # B B^T = I, so L_full = 1 / n; at b = 1 every tilde is L = 1
        assert payload["L_full"] == pytest.approx(1 / 6, rel=1e-9)
        assert payload["tildeL_values"] == [1.0] * 5
        assert "config" in payload
        csv_text = (tmp_path / "report.csv").read_text()
        assert csv_text.splitlines()[0] == "perm_seed,hatL,tildeL,ratio"
        assert len(csv_text.splitlines()) == 6

    def test_missing_file_exit_2(self, tmp_path, capsys):
        code = main([
            "analyze", "--input", str(tmp_path / "nope.svm"), "--out", str(tmp_path / "r"),
        ])
        assert code == 2
        assert "nope.svm" in capsys.readouterr().err

    def test_parse_error_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.svm"
        bad.write_text("1 1:1\n1 1:zzz\n")
        code = main(["analyze", "--input", str(bad), "--out", str(tmp_path / "r")])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_non_utf8_input_exit_2_names_line(self, tmp_path, capsys):
        bad = tmp_path / "latin1.svm"
        bad.write_bytes(b"1 1:1\n\xff 2:1\n")
        code = main(["analyze", "--input", str(bad), "--out", str(tmp_path / "r")])
        assert code == 2
        assert "line 2: invalid UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [b"1 1:nan", b"nan 1:1", b"1 1:1e999", b"1e999 1:1"])
    def test_non_finite_number_exit_2_names_line(self, line, tmp_path, capsys):
        # nan reaches the line parser; 1e999 passes the bulk parser's byte
        # filter and overflows to inf there
        raw = b"1 1:1\n" + line + b"\n"
        with pytest.raises(ss.ParseError, match="^line 2: non-finite") as err:
            ss.parse_libsvm(raw)
        assert err.value.line == 2
        bad = tmp_path / "nonfinite.svm"
        bad.write_bytes(raw)
        code = main(["analyze", "--input", str(bad), "--out", str(tmp_path / "r")])
        assert code == 2
        assert "line 2: non-finite" in capsys.readouterr().err

    def test_deterministic_bytes(self, identity6, tmp_path):
        args = [
            "analyze", "--input", str(identity6), "--b", "2",
            "--num-perms", "4", "--seed", "11",
        ]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_budget_guardrail(self, tmp_path, capsys, monkeypatch):
        big = tmp_path / "big.svm"
        write_identity_dataset(big, 200)
        monkeypatch.setattr(cli, "DEFAULT_COST_BUDGET", 1e3)
        code = main([
            "analyze", "--input", str(big), "--num-perms", "1000",
            "--out", str(tmp_path / "r"),
        ])
        assert code == 2
        assert "exceeds budget 1.00e+03; rerun with --force" in capsys.readouterr().err
        code = main([
            "analyze", "--input", str(big), "--num-perms", "2",
            "--force", "--out", str(tmp_path / "r"),
        ])
        assert code == 0

    def test_budget_counts_tilde_eigvalsh(self, tmp_path, capsys, monkeypatch):
        # n = 200: the Lanczos terms are about 4e6 ops; b = 200 adds n b^2 = 8e6
        big = tmp_path / "big.svm"
        write_identity_dataset(big, 200)
        monkeypatch.setattr(cli, "DEFAULT_COST_BUDGET", 1e7)
        argv = ["analyze", "--input", str(big), "--num-perms", "1", "--out", str(tmp_path / "r")]
        assert main(argv + ["--b", "200"]) == 2
        assert "--force" in capsys.readouterr().err
        assert main(argv + ["--b", "1"]) == 0

    @pytest.mark.parametrize("fail_from, solve", [(1, "full_gradient_L"), (2, "hat_constant")])
    def test_unconverged_solve_exit_1(self, identity6, tmp_path, capsys, monkeypatch,
                                      fail_from, solve):
        unconverged_from(monkeypatch, fail_from)
        code = main(["analyze", "--input", str(identity6), "--b", "2", "--num-perms", "3",
                     "--out", str(tmp_path / "r")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{solve}: Lanczos did not converge in 7 matvecs" in err
        assert not (tmp_path / "r.json").exists()


class TestBatchSweep:
    """The L / tilde study over batch sizes is analyze at each b;
    scripts/batch_size_sweep.py runs it over every divisor of n
    (TestBatchSizeScript)."""

    def test_non_divisor_rejected(self, identity6, tmp_path, capsys):
        code = main([
            "analyze", "--input", str(identity6), "--b", "4", "--out", str(tmp_path / "x"),
        ])
        assert code == 2
        assert "divisors" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [identity6]

    def test_b1_ratio_one_and_bn_full_reduction(self, identity6, tmp_path):
        for b in (1, 6):
            code = main([
                "analyze", "--input", str(identity6), "--b", str(b),
                "--num-perms", "4", "--out", str(tmp_path / f"b{b}"),
            ])
            assert code == 0
        # b=1 tightness: every tilde is L
        payload = strict_json(tmp_path / "b1.json")
        assert payload["tildeL_values"] == [payload["L"]] * 4
        # b=n: the one block's Gram is the identity, so L / tilde = n = 6
        payload = strict_json(tmp_path / "b6.json")
        assert [payload["L"] / t for t in payload["tildeL_values"]] == pytest.approx([6.0] * 4,
                                                                                     rel=1e-12)

    def test_zero_perms_exit_2(self, identity6, tmp_path, capsys):
        code = main([
            "analyze", "--input", str(identity6), "--b", "2",
            "--num-perms", "0", "--out", str(tmp_path / "z"),
        ])
        assert code == 2
        assert "num_perms must be >= 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [identity6]


class TestOptimize:
    def test_interpolation_decreasing_objective(self, tmp_path):
        # n < d least squares interpolates; theoretical step must descend
        rng = np.random.default_rng(0)
        A = rng.standard_normal((4, 8))
        x_true = rng.standard_normal(8)
        ds = ss.SparseDataset.from_dense(A, labels=A @ x_true)
        p = tmp_path / "interp.svm"
        p.write_text(ss.serialize_libsvm(ds))
        out = tmp_path / "run"
        code = main([
            "optimize", "--input", str(p), "--loss", "squared", "--scheme", "RR",
            "--b", "4", "--epochs", "8", "--step", "theoretical",
            "--seeds", "0", "--perms", "10", "--out", str(out),
        ])
        assert code == 0
        rows = (tmp_path / "run.csv").read_text().splitlines()[1:]
        f_vals = [float(r.split(",")[2]) for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(f_vals, f_vals[1:]))
        payload = json.loads((tmp_path / "run.json").read_text())
        assert payload["mean_final_gap"] >= -1e-12
        assert payload["minimizer"]["reason"] == "converged"

    def test_minimizer_reason_in_json(self, tmp_path):
        # overlapping logistic classes have a finite minimizer; hinge runs none
        rng = np.random.default_rng(3)
        A = rng.standard_normal((12, 3))
        t = np.where(rng.random(12) < 0.5, -1.0, 1.0)
        p = tmp_path / "mix.svm"
        p.write_text(ss.serialize_libsvm(ss.SparseDataset.from_dense(A, labels=t)))
        for loss, want in (("logistic", "converged"), ("hinge", None)):
            code = main([
                "optimize", "--input", str(p), "--loss", loss, "--b", "1",
                "--epochs", "1", "--step", "0.1", "--out", str(tmp_path / loss),
            ])
            assert code == 0
            record = json.loads((tmp_path / f"{loss}.json").read_text())["minimizer"]
            assert (record and record["reason"]) == want

    def test_fixed_step_multi_seed(self, identity6, tmp_path):
        out = tmp_path / "ms"
        code = main([
            "optimize", "--input", str(identity6), "--loss", "squared",
            "--scheme", "SO", "--b", "2", "--epochs", "3", "--step", "0.2",
            "--seeds", "0,1,2", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads((tmp_path / "ms.json").read_text())
        assert len(payload["final_gaps"]) == 3

    def test_f_avg_is_the_step_weighted_average(self, tmp_path):
        # one step for every epoch, so f_avg is f at the plain mean of the
        # epoch ends, replayed here independently of the engine
        rng = np.random.default_rng(5)
        n, d, K = 6, 3, 4
        A = rng.standard_normal((n, d))
        t = rng.standard_normal(n)
        p = tmp_path / "ls.svm"
        p.write_text(ss.serialize_libsvm(ss.SparseDataset.from_dense(A, labels=t)))
        code = main([
            "optimize", "--input", str(p), "--loss", "squared", "--scheme", "RR",
            "--b", "2", "--epochs", str(K), "--step", "0.05", "--seeds", "0,3",
            "--out", str(tmp_path / "fa"),
        ])
        assert code == 0
        rows = [r.split(",") for r in (tmp_path / "fa.csv").read_text().splitlines()[1:]]
        for s in (0, 3):
            plan = ss.ShufflePlan("RR", seed=s)
            x, ends = np.zeros(d), []
            for k in range(1, K + 1):
                x = oracles.vanilla_epoch(A, t, "squared", ss.permutation_for(plan, n, k), 2,
                                          0.05, x)[-1]
                ends.append(x)
            want = [np.mean(0.5 * (A @ np.mean(ends[:k], axis=0) - t) ** 2)
                    for k in range(1, K + 1)]
            got = [float(r[3]) for r in rows if int(r[0]) == s]
            assert np.allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("step", ["nan", "inf"])
    def test_non_finite_step_exit_2(self, identity6, tmp_path, capsys, step):
        code = main([
            "optimize", "--input", str(identity6), "--loss", "squared", "--b", "1",
            "--epochs", "2", "--step", step, "--seeds", "0,1", "--out", str(tmp_path / "nf"),
        ])
        assert code == 2
        assert f"step sizes must be positive and finite, got {step}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [identity6]

    @pytest.mark.parametrize("step, epochs", [("nan", "2"), ("inf", "2"), ("0", "2"),
                                              ("0.2", "0")])
    def test_bad_fixed_step_refused_before_minimizer(self, identity6, tmp_path, capsys,
                                                     monkeypatch, step, epochs):
        def no_minimizer(*args, **kwargs):
            raise AssertionError("reference_minimizer ran before the step was checked")

        monkeypatch.setattr(ss.constants, "reference_minimizer", no_minimizer)
        code = main([
            "optimize", "--input", str(identity6), "--loss", "logistic", "--b", "1",
            "--epochs", epochs, "--step", step, "--out", str(tmp_path / "early"),
        ])
        assert code == 2
        assert "must be" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [identity6]

    def test_repeated_seed_exit_2(self, identity6, tmp_path, capsys):
        code = main([
            "optimize", "--input", str(identity6), "--loss", "squared", "--b", "1",
            "--epochs", "2", "--step", "0.2", "--seeds", "3,0,1,0",
            "--out", str(tmp_path / "dup"),
        ])
        assert code == 2
        assert "run seed 0 is repeated" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [identity6]

    def test_unconverged_constant_exit_1(self, identity6, tmp_path, capsys, monkeypatch):
        unconverged_from(monkeypatch, 1)  # the first sampled hat: the minimizer solves none
        code = main([
            "optimize", "--input", str(identity6), "--loss", "squared", "--b", "1",
            "--epochs", "2", "--step", "theoretical", "--out", str(tmp_path / "nc"),
        ])
        assert code == 1
        assert "hat_constant: Lanczos did not converge" in capsys.readouterr().err
        assert not (tmp_path / "nc.json").exists()

    def test_negative_epochs_exit_2(self, identity6, tmp_path, capsys):
        code = main([
            "optimize", "--input", str(identity6), "--loss", "squared",
            "--b", "1", "--epochs", "-1", "--step", "0.2",
            "--seeds", "0", "--out", str(tmp_path / "neg"),
        ])
        assert code == 2
        assert "epochs" in capsys.readouterr().err

    def test_keeps_one_seed_trace_at_a_time(self, tmp_path):
        def peak(seeds):
            tracemalloc.start()
            code = main([
                "optimize", "--gaussian", "64,200", "--loss", "hinge", "--b", "1",
                "--epochs", "4", "--step", "0.01", "--seeds", seeds,
                "--out", str(tmp_path / "pk"),
            ])
            peak_bytes = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert code == 0
            return peak_bytes

        trace_bytes = 4 * (64 + 1) * 200 * 8
        assert peak("0,1,2") <= peak("0") + trace_bytes / 2

    def test_divergent_step_all_seeds_exit_1(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        A = 100.0 * rng.standard_normal((4, 2))
        ds = ss.SparseDataset.from_dense(A, labels=rng.standard_normal(4))
        p = tmp_path / "ill.svm"
        p.write_text(ss.serialize_libsvm(ds))
        code = main([
            "optimize", "--input", str(p), "--loss", "squared", "--scheme", "RR",
            "--b", "1", "--epochs", "50", "--step", "5.0",
            "--seeds", "0,1", "--out", str(tmp_path / "dv"),
        ])
        assert code == 1
        assert "diverged" in capsys.readouterr().err
        # the run still leaves its record: the CSV header and the JSON
        assert (tmp_path / "dv.csv").read_text() == (
            "seed,epoch,f_x,f_avg,retraction_residual\n")
        payload = strict_json(tmp_path / "dv.json")
        assert set(payload["diverged"]) == {"0", "1"}
        assert all(epoch >= 1 for epoch in payload["diverged"].values())
        assert payload["step_size"] == 5.0 and "final_gaps" not in payload
        assert payload["minimizer"]["reason"] == "converged"


class TestVerifyBound:
    def test_ig_on_small_least_squares(self, tmp_path):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((12, 3))
        ds = ss.SparseDataset.from_dense(A, labels=rng.standard_normal(12))
        p = tmp_path / "ls.svm"
        p.write_text(ss.serialize_libsvm(ds))
        out = tmp_path / "v"
        code = main([
            "verify-bound", "--bound", "ig", "--input", str(p), "--loss", "squared",
            "--b", "3", "--epochs", "10", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads((tmp_path / "v.json").read_text())
        assert payload["verdict"] == "holds"
        assert payload["empirical_mean_gap"] <= payload["rhs"]
        assert payload["minimizer"]["reason"] == "converged"

    def test_rr_monte_carlo(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((8, 2))
        ds = ss.SparseDataset.from_dense(A, labels=rng.standard_normal(8))
        p = tmp_path / "ls2.svm"
        p.write_text(ss.serialize_libsvm(ds))
        real, calls = ss.engine.objective, []
        monkeypatch.setattr(ss.engine, "objective", lambda *a: calls.append(1) or real(*a))
        code = main([
            "verify-bound", "--bound", "rr", "--input", str(p), "--loss", "squared",
            "--b", "2", "--epochs", "5", "--seeds", "30", "--perms", "40",
            "--out", str(tmp_path / "v2"),
        ])
        assert code == 0
        # the bound reads f(x_bar_K) alone: one objective per run
        assert len(calls) == 30

    def test_nonsmooth_planted(self, tmp_path):
        code = main([
            "verify-bound", "--bound", "nonsmooth", "--planted",
            "--gaussian", "20,4", "--b", "1", "--epochs", "8", "--seeds", "20",
            "--perms", "30", "--out", str(tmp_path / "v3"),
        ])
        assert code == 0
        payload = json.loads((tmp_path / "v3.json").read_text())
        assert payload["verdict"] == "holds"
        # the report names the loss the runs used, not the smooth default
        assert payload["config"]["loss"] == "hinge"

    @pytest.mark.parametrize("epochs, outcome", [(3, "returned"), (40, "raised")])
    def test_diverged_runs_violate(self, tmp_path, capsys, monkeypatch, epochs, outcome):
        # a step far above the ceiling: after 3 epochs every iterate is
        # finite but f(x_bar_K) overflows; by epoch 40 an iterate does too
        # and the engine raises DivergenceError
        rr = ss.bounds.GUARANTEES["rr"]
        monkeypatch.setitem(ss.bounds.GUARANTEES, "rr",
                            dataclasses.replace(rr, step=lambda inp: 1e6))
        real, outcomes = ss.engine.run, []

        def run(*args):
            try:
                res = real(*args)
            except ss.DivergenceError:
                outcomes.append("raised")
                raise
            outcomes.append("returned")
            return res

        monkeypatch.setattr(ss.engine, "run", run)
        with pytest.warns(UserWarning, match="the guarantee does not apply"):
            code = main(["verify-bound", "--bound", "rr", "--gaussian", "24,5", "--b", "2",
                         "--epochs", str(epochs), "--seeds", "5", "--perms", "3",
                         "--out", str(tmp_path / "v")])
        assert code == 1
        assert outcomes == [outcome] * 5
        assert "verdict=violated diverged_runs=5" in capsys.readouterr().out

        def refuse(constant):
            raise AssertionError(f"{constant} in strict JSON")

        payload = json.loads((tmp_path / "v.json").read_text(), parse_constant=refuse)
        assert payload["verdict"] == "violated"
        assert payload["diverged_runs"] == payload["num_runs"] == 5
        assert payload["step_size"] == 1e6
        assert "empirical_mean_gap" not in payload

    def test_planted_hinge_optimum_on_a_tiny_margin(self):
        # seed 711 plants a direction whose smallest |a_i^T u| is 3.4e-7 and
        # negative: every label must still follow its sign, so that every
        # margin clears 1 and the optimum value is exactly 0
        ds, x_star = cli._planted_hinge(2000, 2, 711)
        z = ds.to_dense() @ (x_star / np.linalg.norm(x_star))
        assert np.min(np.abs(z)) < 1e-6
        margins = ds.labels * (ds.to_dense() @ x_star)
        assert np.min(margins) == pytest.approx(2.0, rel=1e-9)
        assert ss.objective(ss.LossModel.for_dataset("hinge", ds), ds, x_star) == 0.0
        # the direction has a stream of its own, apart from the permutations'
        domains = [getattr(ss.prng, k) for k in dir(ss.prng) if k.startswith("DOMAIN_")]
        assert len(set(domains)) == len(domains) == 5

    def test_rr_on_gaussian_data_is_not_vacuous(self, tmp_path):
        # --gaussian labels are +-1, so the optimum is away from the origin
        # where the runs start, and both sides of the bound are positive
        code = main(["verify-bound", "--bound", "rr", "--gaussian", "24,5", "--b", "2",
                     "--epochs", "4", "--seeds", "10", "--perms", "10",
                     "--out", str(tmp_path / "g")])
        assert code == 0
        payload = strict_json(tmp_path / "g.json")
        assert payload["config"]["loss"] == "squared"
        assert payload["empirical_mean_gap"] > 0
        assert payload["rhs"] > payload["empirical_mean_gap"]

    def test_general_rr(self, tmp_path):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((6, 2))
        ds = ss.SparseDataset.from_dense(A, labels=rng.standard_normal(6))
        p = tmp_path / "g.svm"
        p.write_text(ss.serialize_libsvm(ds))
        code = main([
            "verify-bound", "--bound", "general-rr", "--input", str(p),
            "--loss", "squared", "--b", "2", "--epochs", "4", "--seeds", "15",
            "--perms", "30", "--out", str(tmp_path / "v4"),
        ])
        assert code == 0

    def test_standard_error_of_two_runs(self, tmp_path, monkeypatch):
        # planted optimum f* = 0, so each stubbed run's f(x_bar_K) is its gap
        gaps = {0: 0.3, 1: 0.7}
        monkeypatch.setattr(ss.engine, "run", lambda ds, model, plan, cfg: SimpleNamespace(
            objective_avg=gaps[plan.seed]))
        code = main(["verify-bound", "--bound", "nonsmooth", "--planted", "--gaussian", "6,2",
                     "--b", "1", "--epochs", "2", "--seeds", "2", "--perms", "3",
                     "--out", str(tmp_path / "se")])
        assert code == 0
        payload = strict_json(tmp_path / "se.json")
        assert payload["empirical_mean_gap"] == pytest.approx(0.5, rel=1e-12)
        # the sample standard deviation over sqrt(N): |g1 - g2| / 2 for N = 2
        assert payload["standard_error"] == pytest.approx(0.2, rel=1e-12)

    @pytest.mark.parametrize("bound, scheme", [("rr", "RR"), ("rr", "SO"), ("ig", "IG")])
    def test_optimize_theoretical_step_is_the_guarantee_step(self, tmp_path, bound, scheme):
        rng = np.random.default_rng(11)
        ds = ss.SparseDataset.from_dense(rng.standard_normal((12, 3)),
                                         labels=rng.standard_normal(12))
        p = tmp_path / "ls.svm"
        p.write_text(ss.serialize_libsvm(ds))
        shared = ["--input", str(p), "--loss", "squared", "--b", "3", "--epochs", "4",
                  "--perms", "6", "--seed", "5"]
        assert main(["verify-bound", "--bound", bound, *shared, "--seeds", "2",
                     "--out", str(tmp_path / "v")]) == 0
        assert main(["optimize", "--step", "theoretical", "--scheme", scheme, *shared,
                     "--seeds", "0", "--out", str(tmp_path / "o")]) == 0
        step = strict_json(tmp_path / "v.json")["step_size"]
        assert strict_json(tmp_path / "o.json")["step_size"] == step

    def test_inconclusive_when_no_finite_minimizer(self, tmp_path, capsys):
        # separable logistic data: the reference minimizer cannot converge
        ds = ss.SparseDataset.from_dense(
            np.array([[1.0], [2.0], [0.5], [1.5]]), labels=[1.0, 1.0, 1.0, 1.0]
        )
        p = tmp_path / "sep.svm"
        p.write_text(ss.serialize_libsvm(ds))
        code = main([
            "verify-bound", "--bound", "rr", "--input", str(p), "--loss", "logistic",
            "--b", "1", "--epochs", "2", "--seeds", "3", "--perms", "5",
            "--out", str(tmp_path / "inc"),
        ])
        assert code == 1
        payload = json.loads((tmp_path / "inc.json").read_text())
        assert payload["verdict"] == "inconclusive"
        assert payload["minimizer"]["reason"] == "no_finite_minimizer"

    @pytest.mark.parametrize("bound, fail_from, solve, minimizer", [
        # calls: the 4 sampled hats, then general_hat_L for the 4
        # permutations (the reference minimizer solves none); the planted
        # nonsmooth problem runs no minimizer
        ("rr", 1, "hat_constant", "converged"),
        ("rr", 2, "hat_constant", "converged"),
        ("general-rr", 6, "general_hat_L", "converged"),
        ("nonsmooth", 1, "hat_constant", None),
    ])
    def test_inconclusive_when_a_constant_does_not_converge(
            self, tmp_path, capsys, monkeypatch, bound, fail_from, solve, minimizer):
        rng = np.random.default_rng(9)
        ds = ss.SparseDataset.from_dense(rng.standard_normal((6, 2)),
                                         labels=rng.standard_normal(6))
        p = tmp_path / "ls.svm"
        p.write_text(ss.serialize_libsvm(ds))
        data = (["--planted", "--gaussian", "6,2"] if bound == "nonsmooth"
                else ["--input", str(p), "--loss", "squared"])
        unconverged_from(monkeypatch, fail_from)
        code = main(["verify-bound", "--bound", bound, *data, "--b", "2", "--epochs", "2",
                     "--seeds", "2", "--perms", "4", "--out", str(tmp_path / "nc")])
        assert code == 1
        assert capsys.readouterr().out.strip() == "verdict=inconclusive"
        payload = json.loads((tmp_path / "nc.json").read_text())
        assert payload["verdict"] == "inconclusive"
        assert payload["reason"].startswith(f"{solve}: Lanczos did not converge in 7 matvecs")
        assert "Ritz residual 2.500e-01" in payload["reason"]
        assert (payload["minimizer"] and payload["minimizer"]["reason"]) == minimizer

    def test_zero_seeds_exit_2(self, tmp_path, capsys):
        p = tmp_path / "ls.svm"
        p.write_text("1 1:1\n2 1:2\n")
        code = main([
            "verify-bound", "--bound", "rr", "--input", str(p), "--loss", "squared",
            "--seeds", "0", "--out", str(tmp_path / "z"),
        ])
        assert code == 2
        assert "at least one run seed" in capsys.readouterr().err
        assert not (tmp_path / "z.json").exists()

    def test_nonsmooth_zero_perms_exit_2(self, tmp_path, capsys):
        code = main([
            "verify-bound", "--bound", "nonsmooth", "--planted", "--gaussian", "6,2",
            "--b", "1", "--epochs", "2", "--seeds", "2", "--perms", "0",
            "--out", str(tmp_path / "np"),
        ])
        assert code == 2
        assert "num_perms must be >= 1" in capsys.readouterr().err

    def test_unknown_bound_kind(self, tmp_path):
        code = main([
            "verify-bound", "--bound", "sgdplain", "--gaussian", "4,2",
            "--out", str(tmp_path / "v5"),
        ])
        assert code == 2

    @pytest.mark.parametrize("bound", ["rr", "ig", "general-rr", "general-ig"])
    def test_batch_refused_before_minimizer(self, tmp_path, capsys, monkeypatch, bound):
        # b must divide the n of an --input file; the check waits only for
        # the data, not for the reference minimizer (minutes on a large file)
        def no_minimizer(*args, **kwargs):
            raise AssertionError("reference_minimizer ran before the batch size was checked")

        monkeypatch.setattr(ss.constants, "reference_minimizer", no_minimizer)
        p = tmp_path / "rows25.svm"
        p.write_text("".join(f"{i % 3 - 1} 1:{i + 1} 2:1\n" for i in range(25)))
        code = main(["verify-bound", "--bound", bound, "--input", str(p), "--b", "2",
                     "--out", str(tmp_path / "v")])
        assert code == 2
        assert "batch size 2 must divide n = 25; valid divisors: [1, 5, 25]" in (
            capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == [p]


def no_data(monkeypatch):
    """Make every way a command gets its data fail the test."""
    def fail(*args, **kwargs):
        raise AssertionError("data was loaded before the flags were checked")

    for name in ("_load_dataset", "gen_gaussian", "_planted_hinge"):
        monkeypatch.setattr(cli, name, fail)


def strict_json(path):
    """Parse a report the way an RFC 8259 parser does: NaN and Infinity are
    not JSON."""
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(path.read_text(), parse_constant=refuse)


class TestRefusedBeforeLoading:
    @pytest.mark.parametrize("argv, want", [
        (["optimize", "--step", "0.1", "--epochs", "0"], "--epochs must be >= 1"),
        (["optimize", "--step", "theoretical", "--epochs", "0"], "--epochs must be >= 1"),
        (["optimize", "--step", "theoretical", "--perms", "0"], "num_perms must be >= 1"),
        (["optimize", "--step", "theoretical", "--scheme", "SO", "--perms", "0"],
         "num_perms must be >= 1"),
        (["verify-bound", "--bound", "rr", "--b", "2", "--epochs", "0", "--perms", "1000"],
         "--epochs must be >= 1"),
        (["verify-bound", "--bound", "ig", "--epochs", "-1"], "--epochs must be >= 1"),
        (["verify-bound", "--bound", "rr", "--perms", "0"], "num_perms must be >= 1"),
        (["verify-bound", "--bound", "general-rr", "--perms", "-2"], "num_perms must be >= 1"),
        (["verify-bound", "--bound", "nonsmooth", "--planted", "--perms", "0"],
         "num_perms must be >= 1"),
    ])
    def test_bad_epochs_or_perms(self, tmp_path, capsys, monkeypatch, argv, want):
        no_data(monkeypatch)
        code = main(argv + ["--gaussian", "24,5", "--out", str(tmp_path / "r")])
        assert code == 2
        assert want in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["optimize", "--step", "0.1"],
        ["optimize", "--step", "theoretical", "--scheme", "IG"],
        ["verify-bound", "--bound", "ig"],
        ["verify-bound", "--bound", "general-ig"],
    ])
    def test_perms_unused_when_nothing_is_sampled(self, tmp_path, argv):
        code = main(argv + ["--gaussian", "24,5", "--b", "2", "--epochs", "2", "--perms", "0",
                            "--out", str(tmp_path / "r")])
        assert code == 0
        assert strict_json(tmp_path / "r.json")["config"]["perms"] == 0

    @pytest.mark.parametrize("argv", [
        ["analyze", "--input", "data.svm"],
        ["analyze", "--gaussian", "6,3", "--b", "3"],
        ["verify-bound", "--bound", "general-rr", "--gaussian", "6,3"],
        ["analyze", "--gaussian", "6,3"],
        ["optimize", "--gaussian", "6,3", "--step", "0.1"],
        ["verify-bound", "--bound", "rr", "--gaussian", "6,3"],
        ["verify-bound", "--bound", "nonsmooth", "--planted", "--gaussian", "6,3"],
    ])
    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_bad_tol_in_every_command(self, tmp_path, capsys, monkeypatch, argv, tol):
        # no command takes --tol: the Lanczos tolerance is constants.LANCZOS_TOL
        no_data(monkeypatch)
        code = main(argv + ["--tol", tol, "--out", str(tmp_path / "r")])
        assert code == 2
        assert f"unrecognized arguments: --tol {tol}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, want", [
        (["optimize", "--gaussian", "24,5", "--step", "abc"],
         "argument --step: --step expects a float or 'theoretical'"),
        (["optimize", "--gaussian", "24,5", "--step", "0.1", "--seeds", "0,0"],
         "argument --seeds: run seed 0 is repeated in --seeds"),
        (["optimize", "--gaussian", "24,5", "--step", "0.1", "--seeds", ""],
         "argument --seeds: provide at least one run seed"),
        (["optimize", "--gaussian", "24,5", "--step", "0.1", "--b", "0"],
         "argument --b: --b must be >= 1, got 0"),
        (["optimize", "--gaussian", "3", "--step", "0.1"],
         "argument --gaussian: --gaussian expects N,D >= 1, got [3]"),
        (["optimize", "--gaussian", "24,5", "--loss", "hinge", "--step", "theoretical"],
         "needs verify-bound --planted, got --loss hinge"),
        (["verify-bound", "--bound", "rr", "--gaussian", "24,5", "--loss", "hinge"],
         "--bound rr needs a smooth loss, got --loss hinge"),
        (["verify-bound", "--bound", "nonsmooth", "--planted", "--gaussian", "24,5",
          "--loss", "squared"],
         "--bound nonsmooth runs the planted hinge problem, got --loss squared"),
        (["analyze", "--input", "data.svm", "--num-perms", "0"],
         "argument --num-perms: num_perms must be >= 1, got 0"),
        (["analyze", "--input", "data.svm", "--b", "0"], "argument --b: --b must be >= 1, got 0"),
        (["analyze", "--input", "data.svm", "--features", "7"],
         "unrecognized arguments: --features"),
        (["analyze", "--gaussian", "24,5", "--num-perms", "0"],
         "argument --num-perms: num_perms must be >= 1, got 0"),
        (["analyze", "--gaussian", "6,3", "--tol", "1e-6"],
         "unrecognized arguments: --tol 1e-6"),
        (["analyze", "--gaussian", "6,3", "--perms", "0"],
         "unrecognized arguments: --perms 0"),
        (["analyze", "--gaussian", "24,0"],
         "argument --gaussian: --gaussian expects N,D >= 1, got [24, 0]"),
        (["analyze", "--gaussian", "24,5,3"],
         "argument --gaussian: --gaussian expects N,D >= 1, got [24, 5, 3]"),
    ])
    def test_flag_faults(self, tmp_path, capsys, monkeypatch, argv, want):
        no_data(monkeypatch)
        code = main(argv + ["--out", str(tmp_path / "r")])
        assert code == 2
        assert want in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, want", [
        (["optimize", "--input", "four.svm", "--gaussian", "6,3", "--step", "0.1"],
         "give --input PATH or --gaussian N,D, not both"),
        (["verify-bound", "--bound", "nonsmooth", "--planted", "--input", "four.svm"],
         "nonsmooth verification needs --planted --gaussian N,D (known optimum)"),
        (["verify-bound", "--bound", "ig", "--planted", "--gaussian", "6,3"],
         "--planted builds the nonsmooth problem; --bound ig does not use it"),
    ])
    def test_conflicting_data_flags(self, tmp_path, capsys, monkeypatch, argv, want):
        # each of these used to run, on data other than the flags described
        no_data(monkeypatch)
        assert main(argv + ["--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == f"error: {want}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["verify-bound", "--bound", "nonsmooth", "--planted", "--gaussian", "7,3", "--b", "2"],
        ["verify-bound", "--bound", "rr", "--gaussian", "7,3", "--b", "2"],
        ["optimize", "--gaussian", "7,3", "--b", "2", "--step", "0.1"],
        ["analyze", "--gaussian", "7,3", "--b", "2"],
        ["verify-bound", "--bound", "general-rr", "--gaussian", "7,3", "--b", "2"],
    ])
    def test_gaussian_batch_must_divide_n(self, tmp_path, capsys, monkeypatch, argv):
        # n comes from --gaussian N,D, so the rule needs no generated data
        no_data(monkeypatch)
        assert main(argv + ["--out", str(tmp_path / "r")]) == 2
        assert "batch size 2 must divide n = 7; valid divisors: [1, 7]" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["analyze", "--gaussian", "20000,5000", "--num-perms", "1000"],
        ["analyze", "--gaussian", "2000,500", "--num-perms", "1000"],
        ["analyze", "--gaussian", "20000,5000", "--num-perms", "10"],
    ])
    def test_gaussian_over_budget_refused_before_generating(self, tmp_path, capsys, monkeypatch,
                                                            argv):
        # --gaussian N,D has N * D nonzeros, so the cost needs no generated
        # data; 20000 x 5000 would take about 2.4 GB to generate (over budget
        # even at 10 permutations), and 2000 x 500 at 1000 permutations,
        # about 1.4e11 ops, is just over budget
        no_data(monkeypatch)
        assert main(argv + ["--out", str(tmp_path / "r")]) == 2
        assert "exceeds budget" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, want", [
        ([], "the following arguments are required: command"),
        (["analyze", "--input", "data.svm"], "the following arguments are required: --out"),
        (["analyze", "--gaussian", "6,3", "--out", "r", "--bogus"],
         "unrecognized arguments: --bogus"),
        (["optimize", "--gaussian", "6,3", "--epochs", "two", "--out", "r"],
         "argument --epochs: invalid int value: 'two'"),
        (["optimize", "--gaussian", "6,3", "--seeds", "0,x", "--out", "r"],
         "argument --seeds: expected a comma-separated integer list, got '0,x'"),
    ])
    def test_usage_error_returns_2(self, tmp_path, capsys, monkeypatch, argv, want):
        # the parser reports to main instead of exiting the process
        no_data(monkeypatch)
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {want}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, want", [
        *[(command + flag, "unrecognized arguments: " + " ".join(flag))
          for command in (["analyze"], ["optimize", "--step", "0.1"],
                          ["verify-bound", "--bound", "rr"])
          for flag in (["--features", "7"], ["--b-grid", "1,2"])],
        (["batch-sweep", "--b-grid", "1,2"], "argument command: invalid choice: 'batch-sweep'"),
        *[(command + flag, "unrecognized arguments: " + " ".join(flag))
          for command in (["analyze"], ["optimize", "--step", "0.1"],
                          ["verify-bound", "--bound", "rr"])
          for flag in (["--tol", "1e-6"], ["--max-cost", "1e9"])],
    ])
    def test_removed_flag_refused_before_loading(self, tmp_path, capsys, monkeypatch, argv,
                                                 want):
        # the column count comes from the data, the batch study is analyze
        # at each b, every Lanczos solve stops at constants.LANCZOS_TOL (bad
        # --tol values: test_bad_tol_in_every_command), and analyze has one
        # fixed budget, passed with --force
        no_data(monkeypatch)
        code = main(argv + ["--gaussian", "6,3", "--out", str(tmp_path / "r")])
        assert code == 2
        assert want in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestAllZeroData:
    @pytest.mark.parametrize("argv", [
        ["analyze", "--num-perms", "2"],
        ["analyze", "--num-perms", "2", "--b", "2"],
        ["analyze", "--num-perms", "2", "--b", "4"],
    ])
    def test_refused_before_any_constant(self, tmp_path, capsys, monkeypatch, argv):
        # every L / hat and L / tilde ratio of an all-zero matrix is 0 / 0
        zeros = tmp_path / "zeros.svm"
        zeros.write_text("0 1:0 2:0\n" * 4)

        def no_constant(*args, **kwargs):
            raise AssertionError("a constant was computed for all-zero data")

        for name in ("ratio_stats", "classical_constant"):
            monkeypatch.setattr(ss.constants, name, no_constant)
        code = main(argv + ["--input", str(zeros), "--out", str(tmp_path / "z")])
        assert code == 2
        assert "the data has no nonzero value" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [zeros]


SCRIPTS_DIR = pathlib.Path(__file__).resolve().parents[1] / "scripts"
# gaussian_ratio_sweeps.py and batch_size_sweep.py read the reports of the
# commands they run, so they run end to end below (TestGaussianSweep,
# TestBatchSizeScript) at a small size instead of against the parser
SCRIPTS = sorted(p for p in SCRIPTS_DIR.glob("*.py")
                 if p.name not in ("gaussian_ratio_sweeps.py", "batch_size_sweep.py"))
# ratio_histograms.py reads its reports too, so its command lines also run
REPORT_READERS = ("ratio_histograms.py",)


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
def test_script_command_lines_parse(script, tmp_path, monkeypatch):
    """Run an experiment script at its default arguments with the CLI's main
    replaced by the parser alone: every command line it builds must parse.
    A script that reads the reports of its commands also runs them. No
    script leaves a file in the system temp directory, and the data file
    of bound_verification.py lies under its output directory."""
    calls = []
    real_main = cli.main

    def parse_only(argv):
        cli.build_parser().parse_args(argv)
        calls.append(argv)
        return real_main(argv) if script.name in REPORT_READERS else 0

    monkeypatch.setattr(cli, "main", parse_only)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [str(script)])
    (tmp_path / "tmp").mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    (tmp_path / "data").mkdir()  # the data-directory scripts' default
    (tmp_path / "data" / "tiny.svm").write_text("1 1:1\n-1 2:1\n1 1:2\n-1 2:2\n")
    try:
        runpy.run_path(str(script), run_name="__main__")
    except SystemExit as exc:
        assert exc.code in (0, None)
    assert calls
    assert list((tmp_path / "tmp").iterdir()) == []
    if script.name in REPORT_READERS:
        assert (tmp_path / "results" / "histograms" / "tiny.csv").exists()
    if script.name == "bound_verification.py":
        out_dir = (tmp_path / "results" / "bound_checks").resolve()
        inputs = [argv[argv.index("--input") + 1] for argv in calls if "--input" in argv]
        assert inputs and all(out_dir in pathlib.Path(p).resolve().parents for p in inputs)


def run_script(monkeypatch, name, *argv):
    """Run scripts/<name> as a program, with the real main, on argv."""
    monkeypatch.setattr(sys, "argv", [name, *argv])
    try:
        runpy.run_path(str(SCRIPTS_DIR / name), run_name="__main__")
    except SystemExit as exc:
        assert exc.code in (0, None)


def histogram_rows(ratios, bins):
    """The binning rule of scripts/ratio_histograms.py."""
    return runpy.run_path(str(SCRIPTS_DIR / "ratio_histograms.py"))["histogram_rows"](ratios, bins)


@pytest.fixture(scope="class")
def histogram_runs(tmp_path_factory):
    """scripts/ratio_histograms.py run twice, into a/ and b/, on a 4-row
    file and a 16 x 4 Gaussian file."""
    root = tmp_path_factory.mktemp("histograms")
    data = root / "data"
    data.mkdir()
    (data / "tiny.svm").write_text("1 1:1\n-1 2:1\n1 1:2\n-1 2:2\n")
    rng = np.random.default_rng(4)
    ds = ss.SparseDataset.from_dense(rng.standard_normal((16, 4)), labels=np.zeros(16))
    (data / "gauss.svm").write_text(ss.serialize_libsvm(ds))
    with pytest.MonkeyPatch.context() as mp:
        for out in ("a", "b"):
            run_script(mp, "ratio_histograms.py", str(data), str(root / out))
    return root


class TestHistogram:
    def test_single_perm_single_bin(self):
        densities = [float(row[2]) for row in histogram_rows([6.0], 10)[1:]]
        assert len(densities) == 10
        assert sum(1 for v in densities if v > 0) == 1

    def test_ratios_equal_to_roundoff_share_one_bin(self):
        # hat values of identity data agree to a few ulps across permutations:
        # too close together for 30 bins with distinct float edges
        ratios = 6.0 + np.array([0.0, 2.0, -2.0, 4.0]) * np.spacing(6.0)
        rows = histogram_rows([float(r) for r in ratios], 30)[1:]
        assert len(rows) == 30
        assert float(rows[0][0]) == ratios.min() - 0.5
        assert float(rows[-1][1]) == ratios.max() + 0.5
        mass = sum((float(hi) - float(lo)) * float(dens) for lo, hi, dens in rows)
        assert mass == pytest.approx(1.0, rel=1e-12)

    def test_density_normalized(self, histogram_runs):
        for name in ("tiny", "gauss"):
            lines = (histogram_runs / "a" / f"{name}.csv").read_text().splitlines()
            assert lines[0] == "bin_left,bin_right,density"
            rows = [line.split(",") for line in lines[1:]]
            assert len(rows) == 40
            mass = sum((float(hi) - float(lo)) * float(dens) for lo, hi, dens in rows)
            assert mass == pytest.approx(1.0, rel=1e-9)
            # the binned ratios are those of the file's analyze report,
            # which also holds its tilde values
            report = strict_json(histogram_runs / "a" / "analyze" / f"{name}.json")
            assert report["num_perms"] == 1000 and len(report["tildeL_values"]) == 1000
            summary = strict_json(histogram_runs / "a" / f"{name}.json")
            assert summary["mean_ratio"] == float(np.mean(report["ratios"]))

    def test_deterministic(self, histogram_runs):
        for rel in ("tiny.csv", "tiny.json", "analyze/tiny.csv",
                    "gauss.csv", "gauss.json", "analyze/gauss.csv"):
            assert ((histogram_runs / "a" / rel).read_bytes()
                    == (histogram_runs / "b" / rel).read_bytes())

    def test_more_than_5000_rows_get_20_permutations(self, tmp_path, monkeypatch):
        # one nonzero row among 5001 keeps every masked Gram rank one
        data = tmp_path / "data"
        data.mkdir()
        (data / "tall.svm").write_text("1 1:1\n" + "0\n" * 5000)
        run_script(monkeypatch, "ratio_histograms.py", str(data), str(tmp_path / "out"))
        report = strict_json(tmp_path / "out" / "analyze" / "tall.json")
        assert report["num_perms"] == 20 and len(report["tildeL_values"]) == 20
        assert strict_json(tmp_path / "out" / "tall.json")["num_perms"] == 20
        assert len((tmp_path / "out" / "tall.csv").read_text().splitlines()) == 41


@pytest.fixture(scope="class")
def sweep_run(tmp_path_factory):
    """scripts/gaussian_ratio_sweeps.py with 3 as the fixed value."""
    out = tmp_path_factory.mktemp("sweeps")
    with pytest.MonkeyPatch.context() as mp:
        run_script(mp, "gaussian_ratio_sweeps.py", "3", str(out))
    return out


class TestGaussianSweep:
    def test_script_writes_both_summaries(self, sweep_run):
        grid = [50, 100, 200, 400, 600, 800, 1000]
        for tag, shapes in (("vary_n", [(g, 3) for g in grid]),
                            ("vary_d", [(3, g) for g in grid])):
            lines = (sweep_run / f"{tag}.summary.csv").read_text().splitlines()
            assert lines[0] == "n,d,num_perms,mean_ratio,std_ratio"
            rows = [line.split(",") for line in lines[1:]]
            assert [(int(n), int(d), int(k)) for n, d, k, _, _ in rows] == [
                (n, d, 100) for n, d in shapes]
            # hat <= L, so every ratio is at least 1
            assert all(np.isfinite(float(mean)) and float(mean) >= 1.0 for *_, mean, _ in rows)

    def test_single_point_and_determinism(self, sweep_run, tmp_path):
        # grid value g = 50 at d = 3 by hand: data and permutations both on
        # the stream mix64(0, g)
        seed = ss.prng.mix64(0, 50)
        assert main(["analyze", "--gaussian", "50,3", "--num-perms", "100",
                     "--seed", str(seed), "--out", str(tmp_path / "p")]) == 0
        assert (tmp_path / "p.csv").read_bytes() == (
            sweep_run / "vary_n" / "n50_d3.csv").read_bytes()
        stats = strict_json(tmp_path / "p.json")["ratios_L_over_hatL"]
        row = (sweep_run / "vary_n.summary.csv").read_text().splitlines()[1].split(",")
        assert row == ["50", "3", "100", repr(stats["mean"]), repr(stats["std"])]
        # the data of grid value g are gen_gaussian(n, d, mix64(0, g))
        A = ss.gen_gaussian(50, 3, seed).to_dense()
        L = strict_json(tmp_path / "p.json")["L"]
        assert L == pytest.approx(float(np.max(np.sum(A * A, axis=1))), rel=1e-12)


@pytest.fixture(scope="class")
def batch_sweep_run(tmp_path_factory):
    """scripts/batch_size_sweep.py at n = 12, d = 3."""
    out = tmp_path_factory.mktemp("batch_sweep")
    with pytest.MonkeyPatch.context() as mp:
        run_script(mp, "batch_size_sweep.py", "12", "3", str(out))
    return out


class TestBatchSizeScript:
    N, D, DIVISORS = 12, 3, [1, 2, 3, 4, 6, 12]

    def test_every_ratio_is_L_over_tilde(self, batch_sweep_run):
        # the data and the permutations of every b are those of seed 0
        ds = ss.gen_gaussian(self.N, self.D, 0)
        reg = ss.RegularityDiag(np.ones(self.N))
        L = ss.classical_constant(ds, reg)
        lines = (batch_sweep_run / "gaussian_12x3.csv").read_text().splitlines()
        assert lines[0] == "b,perm_index,ratio"
        assert lines[1:] == [
            f"{b},{j},{L / ss.tilde_constant(ds, reg, ss.random_permutation(self.N, 0, j), b)!r}"
            for b in self.DIVISORS for j in range(100)]

    def test_summary_and_slope(self, batch_sweep_run):
        rows = [line.split(",") for line in
                (batch_sweep_run / "gaussian_12x3.csv").read_text().splitlines()[1:]]
        summary = (batch_sweep_run / "gaussian_12x3.summary.csv").read_text().splitlines()
        assert summary[0] == "b,num_perms,mean_ratio,std_ratio"
        means = []
        for b, line in zip(self.DIVISORS, summary[1:]):
            ratios = [float(r) for rb, _, r in rows if int(rb) == b]
            means.append(float(np.mean(ratios)))
            assert line == f"{b},100,{means[-1]!r},{float(np.std(ratios))!r}"
            assert (batch_sweep_run / "gaussian_12x3" / f"b{b}.json").exists()
        result = strict_json(batch_sweep_run / "gaussian_12x3.json")
        assert result["b_grid"] == self.DIVISORS and result["mean_ratios"] == means
        assert result["loglog_slope"] == float(
            np.polyfit(np.log(self.DIVISORS), np.log(means), 1)[0])


def test_commands_run_without_scipy(tmp_path):
    """The package computes on numpy alone: after analyze on both Gram paths,
    optimize and four verify-bound kinds, no scipy module is loaded. It runs
    in a fresh interpreter, because other test modules import scipy."""
    rng = np.random.default_rng(24)
    n, d, k = 400, 50, 3
    cols = np.sort(np.argsort(rng.random((n, d)), axis=1)[:, :k], axis=1)
    sparse = ss.SparseDataset(np.arange(n + 1) * k, cols.ravel(), rng.standard_normal(n * k),
                              np.ones(n), d)
    assert not ss.constants._dense_gram(n, d, sparse.nnz)  # the prefix-sum path
    path = tmp_path / "sparse.svm"
    path.write_text(ss.serialize_libsvm(sparse))
    runs = 2
    small = ["--gaussian", "24,5", "--b", "2", "--epochs", "2", "--seeds", str(runs)]
    commands = [
        ["analyze", "--gaussian", "24,5", "--b", "2"],
        ["optimize", "--loss", "squared", "--step", "theoretical", "--perms", "3", *small],
        ["verify-bound", "--bound", "rr", "--perms", "3", *small],
        ["verify-bound", "--bound", "general-rr", "--perms", "3", *small],
        # overlapping +-1 labels: the minimizer's certificate decides, no LP
        ["optimize", "--loss", "logistic", "--step", "theoretical", "--perms", "3", *small],
        ["verify-bound", "--bound", "ig", "--loss", "logistic", *small],
        ["verify-bound", "--bound", "nonsmooth", "--planted", "--gaussian", "20,4", "--b", "1",
         "--epochs", "2", "--seeds", str(runs), "--perms", "3"],
        ["analyze", "--input", str(path), "--b", "4", "--num-perms", "2"],
    ]
    script = (
        "import json, sys\n"
        "from shuffle_sgd.cli import main\n"
        "for i, argv in enumerate(json.loads(sys.argv[1])):\n"
        "    assert main(argv + ['--out', sys.argv[2] + str(i)]) == 0, argv\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
    )
    src = str(SCRIPTS_DIR.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(commands),
                           str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
    assert len(list(tmp_path.glob("out*.json"))) == len(commands)


def test_help_lists_the_three_commands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "{analyze,optimize,verify-bound}" in capsys.readouterr().out


def test_readme_cli_lines_parse():
    """Every shuffle-sgd command line in the README's CLI block parses, and
    the block shows every command, so the docs name no deleted command."""
    readme = (SCRIPTS_DIR.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("shuffle-sgd ")]
    for argv in commands:
        cli.build_parser().parse_args(argv)
    assert {argv[0] for argv in commands} == {"analyze", "optimize", "verify-bound"}


class TestStrictJson:
    def test_single_b_slope_is_null(self, tmp_path, capsys, monkeypatch):
        # n = 1 has the one divisor b = 1, and one point fits no slope
        run_script(monkeypatch, "batch_size_sweep.py", "1", "3", str(tmp_path))
        summary = strict_json(tmp_path / "gaussian_1x3.json")
        assert summary["b_grid"] == [1] and summary["loglog_slope"] is None
        assert capsys.readouterr().out.splitlines()[-1] == "alpha=none b=1:1"

    def test_non_finite_payload_is_refused_unwritten(self, tmp_path):
        args = SimpleNamespace(out=str(tmp_path / "nan"), func=None)
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli._write_json(args, {"value": float("nan")})
        assert list(tmp_path.iterdir()) == []

import json
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
            "--num-perms", "5", "--seed", "3", "--out", str(out), "--tol", "1e-10",
        ])
        assert code == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["schema_version"] == 1
        assert payload["ratios_L_over_hatL"]["mean"] == pytest.approx(6.0, rel=1e-6)
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

    def test_budget_guardrail(self, tmp_path, capsys):
        big = tmp_path / "big.svm"
        write_identity_dataset(big, 200)
        code = main([
            "analyze", "--input", str(big), "--num-perms", "1000",
            "--max-cost", "1e3", "--out", str(tmp_path / "r"),
        ])
        assert code == 2
        assert "--force" in capsys.readouterr().err
        code = main([
            "analyze", "--input", str(big), "--num-perms", "2",
            "--max-cost", "1e3", "--force", "--out", str(tmp_path / "r"),
        ])
        assert code == 0

    def test_budget_counts_tilde_eigvalsh(self, tmp_path, capsys):
        # n = 200: the Lanczos terms are about 4e6 ops; b = 200 adds n b^2 = 8e6
        big = tmp_path / "big.svm"
        write_identity_dataset(big, 200)
        argv = ["analyze", "--input", str(big), "--num-perms", "1", "--max-cost", "1e7",
                "--out", str(tmp_path / "r")]
        assert main(argv + ["--b", "200"]) == 2
        assert "--force" in capsys.readouterr().err
        assert main(argv + ["--b", "1"]) == 0

    @pytest.mark.parametrize("max_cost", ["0", "-1", "nan", "inf"])
    def test_max_cost_not_positive_finite_exit_2(self, identity6, tmp_path, capsys, max_cost):
        # 0 once meant the default budget and nan switched the guard off
        code = main(["analyze", "--input", str(identity6), "--num-perms", "2",
                     "--max-cost", max_cost, "--out", str(tmp_path / "r")])
        assert code == 2
        assert f"--max-cost must be positive and finite, got {float(max_cost)}" in (
            capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == [identity6]

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    def test_tol_not_positive_finite_exit_2(self, identity6, tmp_path, capsys, tol):
        code = main(["analyze", "--input", str(identity6), "--num-perms", "2",
                     "--tol", tol, "--out", str(tmp_path / "r")])
        assert code == 2
        assert "tol must be positive and finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [identity6]

    def test_features_override(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        p = tmp_path / "g.svm"
        p.write_text(ss.serialize_libsvm(ss.SparseDataset.from_dense(rng.standard_normal((6, 3)))))
        argv = ["analyze", "--input", str(p), "--b", "2", "--num-perms", "3", "--seed", "2"]
        assert main(argv + ["--features", "2", "--out", str(tmp_path / "narrow")]) == 2
        assert "smaller than max index 3" in capsys.readouterr().err
        assert main(argv + ["--out", str(tmp_path / "plain")]) == 0
        assert main(argv + ["--features", "7", "--out", str(tmp_path / "wide")]) == 0
        plain, wide = (json.loads((tmp_path / f"{name}.json").read_text())
                       for name in ("plain", "wide"))
        # all-zero extra columns leave every constant as it was
        assert wide["hatL_values"] == plain["hatL_values"]
        assert wide["config"]["features"] == 7

    def test_no_tilde(self, identity6, tmp_path):
        code = main(["analyze", "--input", str(identity6), "--b", "2", "--num-perms", "3",
                     "--no-tilde", "--out", str(tmp_path / "nt")])
        assert code == 0
        payload = json.loads((tmp_path / "nt.json").read_text())
        assert "tildeL" not in payload and "tildeL_values" not in payload
        assert len(payload["hatL_values"]) == 3
        rows = (tmp_path / "nt.csv").read_text().splitlines()
        assert rows[0] == "perm_seed,hatL,tildeL,ratio"
        assert len(rows) == 4 and all(row.split(",")[2] == "" for row in rows[1:])

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


class TestGaussianSweep:
    def test_single_point_and_determinism(self, tmp_path):
        args = [
            "gaussian-sweep", "--fixed", "d", "--fixed-value", "8",
            "--grid", "6", "--perms", "3", "--seed", "5",
        ]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        summary = (tmp_path / "a.summary.csv").read_text().splitlines()
        assert summary[0] == "n,d,num_perms,mean_ratio,std_ratio"
        assert len(summary) == 2

    def test_empty_grid_rejected(self, tmp_path):
        code = main([
            "gaussian-sweep", "--fixed", "d", "--fixed-value", "8",
            "--grid", "", "--out", str(tmp_path / "x"),
        ])
        assert code == 2


class TestBatchSweep:
    def test_non_divisor_rejected(self, identity6, tmp_path, capsys):
        code = main([
            "batch-sweep", "--input", str(identity6), "--b-grid", "1,4",
            "--out", str(tmp_path / "x"),
        ])
        assert code == 2
        assert "divisors" in capsys.readouterr().err

    def test_b1_ratio_one_and_bn_full_reduction(self, identity6, tmp_path):
        out = tmp_path / "bs"
        code = main([
            "batch-sweep", "--input", str(identity6), "--b-grid", "1,2,3,6",
            "--perms", "4", "--tol", "1e-10", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads((tmp_path / "bs.json").read_text())
        means = payload["mean_ratios"]
        assert means[0] == pytest.approx(1.0, rel=1e-9)  # b=1 tightness
        # b=n: ratio = L / L_full = 1 / (1/6) = 6 for identity rows
        assert means[-1] == pytest.approx(6.0, rel=1e-6)
        assert "loglog_slope" in payload

    def test_zero_perms_exit_2(self, identity6, tmp_path, capsys):
        code = main([
            "batch-sweep", "--input", str(identity6), "--b-grid", "1,2",
            "--perms", "0", "--out", str(tmp_path / "z"),
        ])
        assert code == 2
        assert "num_perms must be >= 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [identity6]


    def test_empty_b_grid_exit_2_before_loading(self, tmp_path, capsys):
        code = main(["batch-sweep", "--input", str(tmp_path / "absent.svm"), "--b-grid", "",
                     "--out", str(tmp_path / "e")])
        assert code == 2
        assert "b-grid must be nonempty" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestHistogram:
    def test_single_perm_single_bin(self, identity6, tmp_path):
        out = tmp_path / "h"
        code = main([
            "histogram", "--input", str(identity6), "--num-perms", "1",
            "--bins", "10", "--out", str(out),
        ])
        assert code == 0
        rows = (tmp_path / "h.csv").read_text().splitlines()[1:]
        densities = [float(r.split(",")[2]) for r in rows]
        assert sum(1 for v in densities if v > 0) == 1

    def test_ratios_equal_to_roundoff_share_one_bin(self, identity6, tmp_path, monkeypatch):
        # hat values of identity data agree to a few ulps across permutations:
        # too close together for 30 bins with distinct float edges
        ratios = 6.0 + np.array([0.0, 2.0, -2.0, 4.0]) * np.spacing(6.0)
        monkeypatch.setattr(cli.consts, "ratio_stats",
                            lambda *args, **kwargs: SimpleNamespace(ratios=ratios))
        code = main(["histogram", "--input", str(identity6), "--num-perms", "4",
                     "--out", str(tmp_path / "h")])
        assert code == 0
        rows = [r.split(",") for r in (tmp_path / "h.csv").read_text().splitlines()[1:]]
        assert len(rows) == 30
        assert float(rows[0][0]) == ratios.min() - 0.5
        assert float(rows[-1][1]) == ratios.max() + 0.5
        mass = sum((float(hi) - float(lo)) * float(dens) for lo, hi, dens in rows)
        assert mass == pytest.approx(1.0, rel=1e-12)

    def test_density_normalized(self, tmp_path):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((16, 4))
        ds = ss.SparseDataset.from_dense(A, labels=np.zeros(16))
        p = tmp_path / "h.svm"
        p.write_text(ss.serialize_libsvm(ds))
        code = main([
            "histogram", "--input", str(p), "--num-perms", "30", "--bins", "8",
            "--out", str(tmp_path / "hh"),
        ])
        assert code == 0
        rows = (tmp_path / "hh.csv").read_text().splitlines()[1:]
        mass = sum(
            (float(r.split(",")[1]) - float(r.split(",")[0])) * float(r.split(",")[2])
            for r in rows
        )
        assert mass == pytest.approx(1.0, rel=1e-9)

    def test_deterministic(self, identity6, tmp_path):
        args = [
            "histogram", "--input", str(identity6), "--num-perms", "5", "--seed", "2",
        ]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


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

    def test_f_avg_is_the_step_weighted_average(self, tmp_path, monkeypatch):
        # --step takes one value, so a schedule is patched into the runs'
        # RunConfig: with unequal steps the weights of the average matter
        rng = np.random.default_rng(5)
        n, d, K = 6, 3, 4
        A = rng.standard_normal((n, d))
        t = rng.standard_normal(n)
        p = tmp_path / "ls.svm"
        p.write_text(ss.serialize_libsvm(ss.SparseDataset.from_dense(A, labels=t)))
        steps = 0.05 * np.array([1.0, 0.25, 2.0, 0.5])
        config = ss.engine.RunConfig
        monkeypatch.setattr(ss.engine, "RunConfig", lambda **kw: config(**{**kw, "step": steps}))
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
                                          steps[k - 1], x)[-1]
                ends.append(x)
            want = [np.mean(0.5 * (A @ np.average(ends[:k], axis=0, weights=steps[:k]) - t) ** 2)
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
        unconverged_from(monkeypatch, 1)  # the reference minimizer's full_gradient_L
        code = main([
            "optimize", "--input", str(identity6), "--loss", "squared", "--b", "1",
            "--epochs", "2", "--step", "theoretical", "--out", str(tmp_path / "nc"),
        ])
        assert code == 1
        assert "full_gradient_L: Lanczos did not converge" in capsys.readouterr().err
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


    @pytest.mark.parametrize("scheme", ["RR", "IG"])  # IG uses no proxy, but checks it
    @pytest.mark.parametrize("proxy, want", [
        ("q90", 0), ("q95", 2), ("qx", 2), ("q110", 2),
    ])
    def test_proxy_must_be_a_decile(self, identity6, tmp_path, capsys, scheme, proxy, want):
        code = main([
            "optimize", "--input", str(identity6), "--loss", "squared", "--scheme", scheme,
            "--b", "1", "--epochs", "1", "--step", "theoretical", "--perms", "3",
            "--proxy", proxy, "--out", str(tmp_path / "px"),
        ])
        assert code == want
        if want:
            assert "q0, q10, q20" in capsys.readouterr().err


class TestWorkerPoolDeterminism:
    def test_analyze_identical_across_thread_counts(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(5)
        p = tmp_path / "g.svm"
        ds = ss.SparseDataset.from_dense(rng.standard_normal((12, 4)))
        p.write_text(ss.serialize_libsvm(ds))
        outs = []
        for threads in ("1", "4"):
            monkeypatch.setenv("SHUFFLE_SGD_THREADS", threads)
            code = main([
                "analyze", "--input", str(p), "--b", "2", "--num-perms", "8",
                "--seed", "5", "--out", str(tmp_path / f"t{threads}"),
            ])
            assert code == 0
            outs.append((tmp_path / f"t{threads}.csv").read_bytes())
        assert outs[0] == outs[1]
        # distinct per-permutation values, so a reordering would show
        hats = [line.split(b",")[1] for line in outs[0].splitlines()[1:]]
        assert len(set(hats)) == len(hats)

    def test_non_integer_threads_exit_2(self, identity6, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SHUFFLE_SGD_THREADS", "two")
        code = main([
            "analyze", "--input", str(identity6), "--num-perms", "2", "--out", str(tmp_path / "r"),
        ])
        assert code == 2
        assert "SHUFFLE_SGD_THREADS must be an integer" in capsys.readouterr().err

    def test_run_seeds_do_not_read_threads(self, identity6, tmp_path, monkeypatch):
        monkeypatch.setenv("SHUFFLE_SGD_THREADS", "two")
        code = main([
            "optimize", "--input", str(identity6), "--loss", "squared", "--b", "2",
            "--epochs", "2", "--step", "0.2", "--seeds", "0,1", "--out", str(tmp_path / "o"),
        ])
        assert code == 0


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

    def test_rr_monte_carlo(self, tmp_path):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((8, 2))
        ds = ss.SparseDataset.from_dense(A, labels=rng.standard_normal(8))
        p = tmp_path / "ls2.svm"
        p.write_text(ss.serialize_libsvm(ds))
        code = main([
            "verify-bound", "--bound", "rr", "--input", str(p), "--loss", "squared",
            "--b", "2", "--epochs", "5", "--seeds", "30", "--perms", "40",
            "--out", str(tmp_path / "v2"),
        ])
        assert code == 0

    def test_nonsmooth_planted(self, tmp_path):
        code = main([
            "verify-bound", "--bound", "nonsmooth", "--planted",
            "--gaussian", "20,4", "--b", "1", "--epochs", "8", "--seeds", "20",
            "--perms", "30", "--out", str(tmp_path / "v3"),
        ])
        assert code == 0
        payload = json.loads((tmp_path / "v3.json").read_text())
        assert payload["verdict"] == "holds"

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
        # calls: the minimizer's full_gradient_L, then ratio_stats' one, then
        # the 4 sampled hats, then general_hat_L for the 4 permutations
        ("rr", 1, "full_gradient_L", None),
        ("rr", 3, "hat_constant", "converged"),
        ("general-rr", 7, "general_hat_L", "converged"),
        ("nonsmooth", 1, "full_gradient_L", None),
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
        ["gaussian-sweep", "--fixed", "d", "--fixed-value", "3", "--grid", "6"],
        ["batch-sweep", "--gaussian", "6,3", "--b-grid", "1,2"],
        ["histogram", "--gaussian", "6,3"],
        ["optimize", "--gaussian", "6,3", "--step", "0.1"],
        ["verify-bound", "--bound", "rr", "--gaussian", "6,3"],
        ["verify-bound", "--bound", "nonsmooth", "--planted", "--gaussian", "6,3"],
    ])
    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_bad_tol_in_every_command(self, tmp_path, capsys, monkeypatch, argv, tol):
        no_data(monkeypatch)
        code = main(argv + ["--tol", tol, "--out", str(tmp_path / "r")])
        assert code == 2
        assert f"tol must be positive and finite, got {float(tol)}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestStrictJson:
    def test_single_b_slope_is_null(self, identity6, tmp_path, capsys):
        code = main(["batch-sweep", "--input", str(identity6), "--b-grid", "2",
                     "--perms", "2", "--out", str(tmp_path / "one")])
        assert code == 0
        assert strict_json(tmp_path / "one.json")["loglog_slope"] is None
        assert capsys.readouterr().out.startswith("alpha=none ")

    def test_non_finite_payload_is_refused_unwritten(self, tmp_path):
        args = SimpleNamespace(out=str(tmp_path / "nan"), func=None)
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli._write_json(args, {"value": float("nan")})
        assert list(tmp_path.iterdir()) == []

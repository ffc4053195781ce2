"""Acceptance suite: one test per release criterion, each printing a PASS
line with its headline numbers (run with `pytest tests/test_acceptance.py -v -s`).

Criteria touching the published benchmark datasets (sonar, a1a, duke, leu)
need the LIBSVM files on disk; they look under ./data or $SHUFFLE_SGD_DATA
and skip with an explanatory message when the files are absent, since this
build environment cannot download them.
"""

import functools
import itertools
import math
import os

import numpy as np
import pytest

import shuffle_sgd as ss
from shuffle_sgd import prng
from shuffle_sgd.losses import LossModel, RegularityDiag
from shuffle_sgd.cli import _planted_hinge

import oracles
from conftest import GRAM_PATHS, divisors, gram_path

SEED = 20240811


def _report(cid, detail=""):
    print(f"\nACCEPTANCE {cid}: PASS {detail}")


def _dataset_file(*names):
    root = os.environ.get("SHUFFLE_SGD_DATA", os.path.join(os.path.dirname(__file__), "..", "data"))
    for name in names:
        for suffix in ("", ".svm", ".txt", ".bz2", ".gz"):
            path = os.path.join(root, name + suffix)
            if os.path.exists(path):
                return path
    return None


def _require_dataset(*names):
    path = _dataset_file(*names)
    if path is None:
        pytest.skip(
            f"benchmark dataset {names[0]!r} not found under ./data or $SHUFFLE_SGD_DATA "
            "(no network in the build environment); drop the LIBSVM file there to enable"
        )
    return path


def _random_instance(rng, n, d, density=0.7):
    A = rng.standard_normal((n, d)) * (rng.random((n, d)) < density)
    for i in range(n):
        if not A[i].any():
            A[i, int(rng.integers(0, d))] = float(rng.standard_normal()) or 1.0
    return ss.SparseDataset.from_dense(A, labels=rng.choice([-1.0, 1.0], n))


def test_c01_oracle_equivalence():
    """hat/tilde match dense eigendecompositions to 1e-6 relative, on both
    representations of the masked Gram."""
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(200):
        n = int(rng.choice(np.arange(4, 68, 4)))
        d = int(rng.integers(1, 17))
        ds = _random_instance(rng, n, d, density=0.5)
        w = rng.uniform(0.1, 10.0, n)
        reg = RegularityDiag(w)
        perm = rng.permutation(n)
        A = ds.to_dense()
        for b in (1, 2, 4, n):
            hat_ref = oracles.dense_hat(A, w, perm, b)
            til_ref = oracles.dense_tilde(A, w, perm, b)
            for path in GRAM_PATHS:
                with gram_path(path):
                    hat = ss.hat_constant(ds, reg, perm, b, tol=1e-12)
                    til = ss.tilde_constant(ds, reg, perm, b)
                worst = max(worst, abs(hat - hat_ref) / hat_ref, abs(til - til_ref) / til_ref)
                assert abs(hat - hat_ref) <= 1e-6 * hat_ref
                assert abs(til - til_ref) <= 1e-6 * til_ref
    _report("C1 oracle-equivalence",
            f"(200 instances, both Gram representations, worst rel err {worst:.2e})")


def test_c02_relaxation_chain():
    """hat <= (1/n) sum w_i ||a_i||^2 <= classical L with 1e-9 L slack."""
    rng = np.random.default_rng(SEED + 1)
    for _ in range(100):
        n = int(rng.integers(2, 33))
        d = int(rng.integers(1, 9))
        ds = _random_instance(rng, n, d)
        w = rng.uniform(0.1, 10.0, n)
        reg = RegularityDiag(w)
        L = ss.classical_constant(ds, reg)
        trace = float(np.sum(w * ss.row_sq_norms(ds)) / n)
        assert trace <= L * n + 1e-9 * L
        bs = divisors(n)
        for j in range(100):
            perm = ss.random_permutation(n, SEED, j)
            b = bs[j % len(bs)]
            hat = ss.hat_constant(ds, reg, perm, b, tol=1e-6)
            assert hat <= trace + 1e-9 * L
            assert trace <= L + 1e-9 * L
    _report("C2 relaxation-chain", "(100 instances x 100 permutations)")


def test_c03_reductions():
    """b=n collapses hat to the full-gradient constant; b=1 makes tilde classical."""
    rng = np.random.default_rng(SEED + 2)
    for _ in range(50):
        n = int(rng.integers(2, 24))
        d = int(rng.integers(1, 9))
        ds = _random_instance(rng, n, d)
        w = rng.uniform(0.1, 10.0, n)
        reg = RegularityDiag(w)
        perm = rng.permutation(n)
        hat_full = ss.hat_constant(ds, reg, perm, n, tol=1e-13)
        ref = oracles.dense_full_gradient(ds.to_dense(), w)
        assert abs(hat_full - ref) <= 1e-8 * max(ref, 1e-300)
        til_one = ss.tilde_constant(ds, reg, perm, 1)
        L = ss.classical_constant(ds, reg)
        assert abs(til_one - L) <= 1e-8 * L
    _report("C3 reductions", "(50 instances, b=n and b=1)")


def test_c04_identity_closed_form():
    """Identity data at b=1: the ratio L / hat equals n for any permutation."""
    rng = np.random.default_rng(SEED + 3)
    for n in (2, 8, 32):
        ds = ss.SparseDataset.from_dense(np.eye(n))
        reg = RegularityDiag(np.ones(n))
        for _ in range(5):
            perm = rng.permutation(n)
            hat = ss.hat_constant(ds, reg, perm, 1, tol=1e-11)
            ratio = ss.classical_constant(ds, reg) / hat
            assert abs(ratio - n) <= 1e-6 * n
    _report("C4 identity-closed-form", "(n in {2, 8, 32})")


@pytest.mark.parametrize(
    "names,expected",
    [
        (("sonar", "sonar_scale"), 6.26),
        (("a1a",), 5.50),
        (("duke",), 38.0),
        (("leu",), 32.8),
    ],
    ids=["sonar", "a1a", "duke", "leu"],
)
def test_c05_published_ratio_table(names, expected):
    """Mean L / hat over >= 200 permutations matches the published value +-10%."""
    path = _require_dataset(*names)
    ds = ss.load_libsvm(path)
    reg = RegularityDiag(np.ones(ds.n))
    report = ss.ratio_stats(
        ds, reg, b=1, num_perms=200, seed=SEED, tol=1e-6, compute_tilde=False,
        max_workers=int(os.environ.get("SHUFFLE_SGD_THREADS", "4")),
    )
    mean = report.ratio_summary["mean"]
    assert abs(mean - expected) <= 0.10 * expected
    _report("C5 ratio-table", f"({names[0]}: mean {mean:.3f} vs {expected})")


def test_c06_gaussian_growth_in_n():
    """Mean L / hat strictly increases with n at fixed d = 100."""
    means = []
    for n in (50, 100, 200, 400):
        ds = ss.gen_gaussian(n, 100, seed=prng.mix64(SEED, n))
        reg = RegularityDiag(np.ones(n))
        rep = ss.ratio_stats(ds, reg, b=1, num_perms=20, seed=SEED, tol=1e-6,
                             compute_tilde=False)
        means.append(rep.ratio_summary["mean"])
    assert all(b > a for a, b in zip(means, means[1:])), means
    _report("C6 gaussian-n-trend", f"(means {[f'{m:.1f}' for m in means]})")


def test_c07_batch_size_growth():
    """L / tilde is 1 at b=1, grows with b, with middle log-log slope in [0.5, 1]."""
    n = 256
    ds = ss.gen_gaussian(n, 256, seed=SEED)
    reg = RegularityDiag(np.ones(n))
    L = ss.classical_constant(ds, reg)
    b_grid = [2**k for k in range(9)]
    means = []
    for b in b_grid:
        vals = [
            L / ss.tilde_constant(ds, reg, ss.random_permutation(n, SEED, j), b)
            for j in range(10)
        ]
        means.append(float(np.mean(vals)))
    assert means[0] == pytest.approx(1.0, rel=1e-7)
    assert all(b >= a * (1 - 1e-9) for a, b in zip(means, means[1:]))
    mid = slice(2, 7)  # b = 4 .. 64, the middle of the dyadic range
    slope = float(np.polyfit(np.log(b_grid[mid]), np.log(means[mid]), 1)[0])
    assert 0.5 <= slope <= 1.0
    _report("C7 batch-trend", f"(slope {slope:.3f})")


def test_c08_ratio_concentration_sonar():
    """Coefficient of variation of L / hat over 1000 permutations below 0.15."""
    path = _require_dataset("sonar", "sonar_scale")
    ds = ss.load_libsvm(path)
    reg = RegularityDiag(np.ones(ds.n))
    report = ss.ratio_stats(
        ds, reg, b=1, num_perms=1000, seed=SEED, tol=1e-6, compute_tilde=False,
        max_workers=int(os.environ.get("SHUFFLE_SGD_THREADS", "4")),
    )
    mean = report.ratio_summary["mean"]
    cv = report.ratio_summary["std"] / mean
    assert cv < 0.15
    _report("C8 concentration", f"(cv {cv:.4f})")


@functools.lru_cache(maxsize=1)
def _equivalence_runs():
    """Traced runs reused by the algorithm-equivalence and identity criteria."""
    rng = np.random.default_rng(SEED + 4)
    runs = []
    for idx in range(100):
        n = int(rng.choice([2, 4, 6, 8, 12, 16, 24]))
        d = int(rng.integers(1, 7))
        ds = _random_instance(rng, n, d)
        family = ("squared", "logistic")[idx % 2]
        model = LossModel.for_dataset(family, ds)
        b = int(rng.choice([x for x in (1, 2, n // 2, n) if x >= 1 and n % x == 0]))
        scheme = ("RR", "SO", "IG")[idx % 3]
        eta = 0.2 / n
        plan = ss.ShufflePlan(scheme, seed=int(rng.integers(0, 2**31)))
        cfg = ss.RunConfig(b, 2, eta, rng.standard_normal(d), trace=True)
        result, inner = oracles.run_recording_inner(ds, model, plan, cfg)
        runs.append((ds, model, plan, b, eta, result, inner))
    return runs


def test_c09_primal_dual_equals_vanilla():
    """Engine inner iterates equal the one-line shuffled SGD update per step."""
    schemes = set()
    for ds, model, plan, b, eta, result, inner in _equivalence_runs():
        schemes.add(plan.scheme)
        x = inner[0][0]
        for k in (1, 2):
            perm = ss.permutation_for(plan, ds.n, k)
            ref_inner = oracles.vanilla_epoch(
                ds.to_dense(), model.targets, model.family, perm, b, eta, x
            )
            got_inner = inner[k - 1]
            assert len(got_inner) == len(ref_inner) == ds.n // b + 1
            for mine, ref in zip(got_inner, ref_inner):
                assert np.linalg.norm(mine - ref) <= 1e-12 * (1.0 + np.linalg.norm(ref))
            x = ref_inner[-1]
    assert schemes == {"RR", "SO", "IG"}
    _report("C9 primal-dual-equivalence", "(100 problems, all schemes)")


def test_c10_retraction_identity():
    """Every traced epoch satisfies the retraction identity to 1e-8."""
    checked = 0
    for ds, model, plan, b, eta, result, _ in _equivalence_runs():
        for tr in result.traces:
            scale = 1.0 + abs(tr.squared_steps) + abs(tr.displacement_sq)
            assert ss.retraction_residual(tr, b, ds.n) <= 1e-8 * scale
            checked += 1
    assert checked == 200  # every epoch of the 100 two-epoch runs is traced
    _report("C10 retraction-identity", f"({checked} epochs)")


def test_c11_fixed_order_bound_deterministic():
    """Fixed-order runs at the theoretical step satisfy their bound exactly."""
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 11))
        n = int(rng.integers(max(8, 4 * d), 41))
        b = int(rng.choice([k for k in (1, 2, 4, 5) if n % k == 0]))
        A = rng.standard_normal((n, d))
        ds = ss.SparseDataset.from_dense(A, labels=rng.standard_normal(n))
        model = LossModel.for_dataset("squared", ds)
        reg = ss.regularity(model)
        ref = ss.reference_minimizer(ds, model, tol=1e-10)
        assert ref.converged
        f_star = ss.objective(model, ds, ref.x)
        sig = ss.sigma_star(ds, model, ref.x)
        ynorm = ss.ystar_weighted_norm(ds, model, ref.x)
        D = float(np.linalg.norm(ref.x))
        perm0 = np.arange(n)
        hat = ss.hat_constant(ds, reg, perm0, b, tol=1e-10)
        til = ss.tilde_constant(ds, reg, perm0, b)
        for K in (1, 10, 100):
            inp = ss.BoundInputs(n=n, b=b, K=K, hatL=hat, tildeL=til,
                                 sigma_star=sig, D=D, ystar_norm=ynorm)
            eta = ss.step_size_ig(inp)
            rhs = ss.bound_rhs_ig(inp, eta)
            res = ss.run(ds, model, ss.ShufflePlan("IG"),
                         ss.RunConfig(b, K, eta, np.zeros(d)))
            gap = res.objective_avg - f_star
            worst = max(worst, gap / rhs)
            assert gap <= rhs + 1e-12
    _report("C11 fixed-order-bound", f"(150 runs, worst gap/rhs {worst:.3f})")


def _rr_bound_check(ds, model, b, K, num_seeds):
    """Shared machinery: exact worst-case constants over all permutations,
    the matching theoretical step, and the Monte-Carlo mean gap."""
    n, d = ds.n, ds.d
    reg = ss.regularity(model)
    ref = ss.reference_minimizer(ds, model, tol=1e-10)
    assert ref.converged
    f_star = ss.objective(model, ds, ref.x)
    sig = ss.sigma_star(ds, model, ref.x)
    D = float(np.linalg.norm(ref.x))
    perms = list(itertools.permutations(range(n)))
    hat = max(ss.hat_constant(ds, reg, p, b, tol=1e-8) for p in perms)
    til = max(ss.tilde_constant(ds, reg, p, b) for p in perms)
    inp = ss.BoundInputs(n=n, b=b, K=K, hatL=hat, tildeL=til, sigma_star=sig, D=D)
    eta = ss.step_size_smooth_rr(inp)
    rhs = ss.bound_rhs_smooth_rr(inp, eta)
    gaps = []
    for s in range(num_seeds):
        plan = ss.ShufflePlan("RR", seed=s)
        res = ss.run(ds, model, plan, ss.RunConfig(b, K, eta, np.zeros(d)))
        gaps.append(res.objective_avg - f_star)
    mean = float(np.mean(gaps))
    sem = float(np.std(gaps) / math.sqrt(len(gaps)))
    return mean, sem, rhs, eta, inp


def test_c12_uniform_shuffling_expectation_bound():
    """Mean gap over 200 reshuffled runs stays below the guarantee's RHS; the
    step uses the exact worst constants over all permutations (n <= 6)."""
    rng = np.random.default_rng(SEED + 6)
    ratios, sems = [], []
    for inst in range(10):
        n = 6
        d = int(rng.integers(2, 5))
        A = rng.standard_normal((n, d))
        labels = rng.standard_normal(n)
        ds = ss.SparseDataset.from_dense(A, labels=labels)
        model = LossModel.for_dataset("squared", ds)
        b = (1, 2, 3)[inst % 3]
        mean, sem, rhs, eta, _ = _rr_bound_check(ds, model, b, K=10, num_seeds=200)
        assert mean <= rhs, (inst, mean, sem, rhs)
        ratios.append(mean / rhs)
        sems.append(sem / rhs)
    _report(
        "C12 reshuffling-expectation-bound",
        f"(10 instances x 200 seeds, max mean/rhs {max(ratios):.3f}, "
        f"max sem/rhs {max(sems):.2g})",
    )


def test_c13_nonsmooth_bound():
    """Planted hinge problem: mean gap over 200 runs below the nonsmooth RHS."""
    ds, x_star = _planted_hinge(50, 5, seed=SEED)
    model = LossModel.for_dataset("hinge", ds)
    reg = ss.regularity(model)
    K, b = 16, 1
    gbar = ss.gbar_estimate(ds, reg, b=b, num_perms=200, seed=SEED, tol=1e-8)
    D = float(np.linalg.norm(x_star))
    inp = ss.BoundInputs(n=ds.n, b=b, K=K, D=D, Gbar=gbar)
    eta = ss.step_size_nonsmooth(inp)
    rhs = ss.bound_rhs_nonsmooth(inp, eta)
    gaps = []
    for s in range(200):
        plan = ss.ShufflePlan("RR", seed=s)
        res = ss.run(ds, model, plan, ss.RunConfig(b, K, eta, np.zeros(ds.d)))
        gaps.append(res.objective_avg)  # constructed optimum has value 0
    mean = float(np.mean(gaps))
    assert mean <= rhs
    _report("C13 nonsmooth-bound", f"(mean {mean:.4g} <= rhs {rhs:.4g})")


def test_c14_general_constant_reductions():
    """Finite-sum constants respect their mean/max bounds; closed form at n=2."""
    rng = np.random.default_rng(SEED + 7)
    for _ in range(100):
        n = int(rng.choice([2, 3, 4, 6, 8, 12]))
        L = rng.uniform(0.05, 20.0, n)
        perm = rng.permutation(n)
        for b in divisors(n):
            til = ss.general_tilde_L(L, perm, b)
            assert til <= L.max() + 1e-12
            hat = ss.general_hat_L(L, perm, b, tol=1e-9)
            assert hat <= L.mean() + 1e-9 * max(L.max(), 1.0)
    closed = ss.general_hat_L([1.0, 1.0], [0, 1], 1, tol=1e-12)
    expected = (3.0 + math.sqrt(5.0)) / 8.0
    assert abs(closed - expected) <= 1e-6 * expected
    _report("C14 finite-sum-reductions", f"(closed form {closed:.8f})")


def test_c15_interpolation_regime():
    """sigma* = 0: the step equals its ceiling and the bound has no variance
    term; the Monte-Carlo check passes trivially."""
    rng = np.random.default_rng(SEED + 8)
    n, d, b, K = 6, 12, 2, 10
    A = rng.standard_normal((n, d))
    x_true = rng.standard_normal(d)
    ds = ss.SparseDataset.from_dense(A, labels=A @ x_true)
    model = LossModel.for_dataset("squared", ds)
    mean, sem, rhs, eta, inp = _rr_bound_check(ds, model, b, K=K, num_seeds=50)
    ceiling = b / (n * math.sqrt(2.0 * inp.hatL * inp.tildeL))
    assert eta == pytest.approx(ceiling, rel=1e-9)
    head_only = b * inp.D**2 / (2.0 * n) / (K * eta)
    assert rhs == pytest.approx(head_only, rel=1e-6)
    assert mean <= rhs
    _report("C15 interpolation-regime", f"(step {eta:.4g} = ceiling, rhs {rhs:.4g})")

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import shuffle_sgd as ss
from shuffle_sgd.engine import DivergenceError, RunConfig
from shuffle_sgd.losses import LossModel
from shuffle_sgd.shuffle import ConfigError, ShufflePlan

import oracles
from conftest import divisors, random_sparse_dataset


def least_squares(rng, n, d):
    A = rng.standard_normal((n, d))
    t = rng.standard_normal(n)
    ds = ss.SparseDataset.from_dense(A, labels=t)
    return ds, LossModel.for_dataset("squared", ds)


class TestBlockOps:
    def test_dual_update_scalar(self):
        ds = ss.SparseDataset.from_dense(np.array([[1.0]]), labels=[1.0])
        m = LossModel.for_dataset("squared", ds)
        view = ss.PermutedView(ds, [0])
        assert ss.dual_block_update(m, view, 0, np.zeros(1), 1)[0] == -1.0

    def test_dual_update_full_batch(self):
        ds = ss.SparseDataset.from_dense(np.eye(2), labels=[1.0, 2.0])
        m = LossModel.for_dataset("squared", ds)
        view = ss.PermutedView(ds, [0, 1])
        assert np.allclose(ss.dual_block_update(m, view, 0, np.zeros(2), 2), [-1.0, -2.0])

    def test_dual_update_stores_prechain_scalar(self):
        # logistic with a = (2): the dual coordinate is l'(0) = -0.5; the
        # factor a enters only in the primal step
        ds = ss.SparseDataset.from_dense(np.array([[2.0]]), labels=[1.0])
        m = LossModel.for_dataset("logistic", ds)
        view = ss.PermutedView(ds, [0])
        assert ss.dual_block_update(m, view, 0, np.zeros(1), 1)[0] == pytest.approx(-0.5)

    def test_primal_step_scalar(self):
        ds = ss.SparseDataset.from_dense(np.array([[1.0]]))
        view = ss.PermutedView(ds, [0])
        x = ss.primal_block_step(np.zeros(1), view, 0, np.array([-1.0]), 0.5, 1)
        assert x[0] == 0.5

    def test_primal_step_zero_eta_or_dual(self):
        ds = ss.SparseDataset.from_dense(np.array([[1.0, 2.0]]))
        view = ss.PermutedView(ds, [0])
        x0 = np.array([3.0, -1.0])
        with pytest.raises(ConfigError):
            RunConfig(batch=1, epochs=1, step=0.0, x0=x0).step_schedule()
        same = ss.primal_block_step(x0, view, 0, np.zeros(1), 0.7, 1)
        assert np.array_equal(same, x0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 12),
        st.integers(1, 6),
        st.sampled_from([0.0, 0.3, 0.7, 1.0]),
        st.sampled_from(["1", "n", "any"]),
    )
    def test_block_ops_match_dense_rows(self, seed, n, d, density, batch):
        # truly sparse rows (empty ones included) against dense A[perm]; with
        # b >= 2 rows of one block share columns, which bincount accumulates
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, d)) * (rng.random((n, d)) < density)
        A[rng.random(n) < 0.3] = 0.0
        t = rng.standard_normal(n)
        ds = ss.SparseDataset.from_rows([(np.flatnonzero(r), r[r != 0]) for r in A], t, d=d)
        m = LossModel.for_dataset("squared", ds)
        b = {"1": 1, "n": n}.get(batch) or int(rng.choice(divisors(n)))
        perm = rng.permutation(n)
        view = ss.PermutedView(ds, perm)
        x = rng.standard_normal(d)
        for i in range(n // b):
            rows = perm[i * b : (i + 1) * b]
            blk = A[rows]
            # squared loss: y_j = a_j^T x - t_j
            y = ss.dual_block_update(m, view, i, x, b)
            assert y.shape == (b,)
            assert np.max(np.abs(y - (blk @ x - t[rows]))) <= 1e-12 * (1.0 + np.abs(blk).sum())
            y_any = rng.standard_normal(b)
            got = ss.primal_block_step(x, view, i, y_any, 0.7, b)
            ref = x - (0.7 / b) * (blk.T @ y_any)
            assert got.shape == (d,)
            assert np.max(np.abs(got - ref)) <= 1e-12 * (1.0 + np.abs(ref).max())


class TestRunConfig:
    @pytest.mark.parametrize("epochs", [-1, 0])
    @pytest.mark.parametrize("step", [0.1, np.array([0.1])])
    def test_nonpositive_epochs_rejected_first(self, epochs, step):
        cfg = RunConfig(batch=1, epochs=epochs, step=step, x0=np.zeros(1))
        with pytest.raises(ConfigError, match="epochs must be >= 1"):
            cfg.step_schedule()

    @pytest.mark.parametrize("step, shown", [
        (np.nan, "nan"), (np.inf, "inf"), (np.array([0.1, -np.inf]), "-inf"),
    ])
    def test_non_finite_step_rejected(self, step, shown):
        cfg = RunConfig(batch=1, epochs=2, step=step, x0=np.zeros(1))
        with pytest.raises(ConfigError, match=f"positive and finite, got {shown}$"):
            cfg.step_schedule()


class TestRun:
    def test_scalar_problem(self):
        ds = ss.SparseDataset.from_dense(np.array([[1.0]]), labels=[1.0])
        m = LossModel.for_dataset("squared", ds)
        res = ss.run(ds, m, ShufflePlan("IG"), RunConfig(1, 1, 0.5, np.zeros(1)))
        assert res.final[0] == 0.5
        assert res.averaged[0] == 0.5

    def test_full_batch_is_gradient_descent(self, rng):
        ds, m = least_squares(rng, 8, 3)
        x0 = rng.standard_normal(3)
        res = ss.run(ds, m, ShufflePlan("RR", seed=4), RunConfig(8, 1, 0.2, x0))
        A, t = ds.to_dense(), ds.labels
        expected = x0 - 0.2 * (A.T @ (A @ x0 - t)) / 8
        assert np.allclose(res.final, expected, rtol=1e-12, atol=1e-12)

    def test_weighted_average_output(self, rng):
        ds, m = least_squares(rng, 6, 2)
        cfg = RunConfig(2, 2, np.array([1e-3, 3e-3]), np.zeros(2))
        res, inner = oracles.run_recording_inner(ds, m, ShufflePlan("SO", seed=0), cfg)
        x1, x2 = inner[0][-1], inner[1][-1]
        manual = (1e-3 * x1 + 3e-3 * x2) / 4e-3
        assert np.array_equal(res.averaged, manual)
        # same weights up to common rescaling
        assert np.allclose(res.averaged, (x1 + 3.0 * x2) / 4.0)

    def test_average_objectives_replay(self, rng):
        # f(x_bar_k) for every k against an independent replay: plain
        # updates, then np.average over the epoch ends with the step weights
        ds, m = least_squares(rng, 6, 3)
        A, t = ds.to_dense(), ds.labels
        steps = 0.05 * np.array([1.0, 0.25, 2.0, 0.5, 1.5])
        plan = ShufflePlan("RR", seed=2)
        res = ss.run(ds, m, plan, RunConfig(2, 5, steps, np.zeros(3)))
        x, ends = np.zeros(3), []
        for k in range(1, 6):
            x = oracles.vanilla_epoch(A, t, "squared", ss.permutation_for(plan, ds.n, k), 2,
                                      steps[k - 1], x)[-1]
            ends.append(x)
        want = [np.mean(0.5 * (A @ np.average(ends[:k], axis=0, weights=steps[:k]) - t) ** 2)
                for k in range(1, 6)]
        assert np.allclose(res.objectives_avg, want, rtol=1e-12, atol=0)
        assert res.objective_avg == res.objectives_avg[-1]

    def test_run_state_does_not_grow_with_epochs(self):
        # the average comes from a running sum: keeping every epoch iterate
        # would add (K - 2) d 8 bytes, 32 MB at K = 200
        rng = np.random.default_rng(4)
        n, d, k = 4, 20_000, 3
        cols = np.arange(k) * (d // k) + rng.integers(0, d // k, size=(n, k))
        ds = ss.SparseDataset(indptr=np.arange(n + 1) * k, indices=cols.ravel(),
                              values=rng.standard_normal(n * k),
                              labels=rng.choice([-1.0, 1.0], n), d=d)
        m = LossModel.for_dataset("hinge", ds)

        def peak(epochs):
            tracemalloc.start()
            res = ss.run(ds, m, ShufflePlan("RR", seed=0),
                         RunConfig(1, epochs, 0.1, np.zeros(d)))
            peak_bytes = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert len(res.objectives_avg) == epochs
            return peak_bytes

        assert peak(200) <= peak(2) + d * 8

    def test_batch_must_divide(self, rng):
        ds, m = least_squares(rng, 6, 2)
        with pytest.raises(ConfigError):
            ss.run(ds, m, ShufflePlan("RR"), RunConfig(4, 1, 0.1, np.zeros(2)))

    def test_divergence_names_epoch(self):
        ds = ss.SparseDataset.from_dense(np.array([[1e3], [1e3]]), labels=[1.0, -1.0])
        m = LossModel.for_dataset("squared", ds)
        with pytest.raises(DivergenceError) as err:
            ss.run(ds, m, ShufflePlan("RR", seed=0), RunConfig(1, 40, 10.0, np.zeros(1)))
        assert err.value.epoch >= 1

    def test_deterministic(self, rng):
        ds, m = least_squares(rng, 10, 3)
        cfg = RunConfig(2, 3, 0.05, np.zeros(3), trace=True)
        r1 = ss.run(ds, m, ShufflePlan("RR", seed=7), cfg)
        r2 = ss.run(ds, m, ShufflePlan("RR", seed=7), cfg)
        assert np.array_equal(r1.final, r2.final)
        assert np.array_equal(r1.averaged, r2.averaged)

    @settings(max_examples=25)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["RR", "SO", "IG"]))
    def test_matches_vanilla_update(self, seed, scheme):
        rng = np.random.default_rng(seed)
        n = int(rng.choice([2, 4, 6, 8, 12]))
        ds, m = least_squares(rng, n, int(rng.integers(1, 5)))
        b = int(rng.choice(divisors(n)))
        eta = 0.3 / n
        plan = ShufflePlan(scheme, seed=seed)
        cfg = RunConfig(b, 2, eta, np.zeros(ds.d), trace=True)
        _, recorded = oracles.run_recording_inner(ds, m, plan, cfg)
        x = np.zeros(ds.d)
        for k in (1, 2):
            perm = ss.permutation_for(plan, n, k)
            inner = oracles.vanilla_epoch(ds.to_dense(), ds.labels, "squared", perm, b, eta, x)
            got = recorded[k - 1]
            assert len(got) == len(inner) == n // b + 1
            for mine, ref in zip(got, inner):
                scale = 1.0 + float(np.linalg.norm(ref))
                assert np.linalg.norm(mine - ref) <= 1e-12 * scale
            x = inner[-1]

    @pytest.mark.parametrize("family", ["squared", "logistic", "hinge"])
    def test_custom_fixed_order_is_ig_on_reordered_rows(self, rng, family):
        # a fixed order p other than the stored one: reorder the rows by p
        # and run IG, which visits them as stored
        n, b, eta = 8, 2, 0.05
        ds = random_sparse_dataset(rng, n=n)
        p = rng.permutation(n)
        reordered = ss.SparseDataset.from_rows([ds.row(i) for i in p], ds.labels[p], d=ds.d)
        cfg = RunConfig(b, 2, eta, rng.standard_normal(ds.d))
        _, recorded = oracles.run_recording_inner(
            reordered, LossModel.for_dataset(family, reordered), ShufflePlan("IG"), cfg)
        x = cfg.x0
        for k in (1, 2):
            inner = oracles.vanilla_epoch(ds.to_dense(), ds.labels, family, p, b, eta, x)
            assert len(recorded[k - 1]) == len(inner) == n // b + 1
            for mine, ref in zip(recorded[k - 1], inner):
                assert np.linalg.norm(mine - ref) <= 1e-12 * (1.0 + float(np.linalg.norm(ref)))
            x = inner[-1]

    def test_monotone_objective_on_interpolation(self, rng):
        # sigma* = 0 problem: theoretical-step runs must not increase f
        A = rng.standard_normal((4, 8))
        x_true = rng.standard_normal(8)
        ds = ss.SparseDataset.from_dense(A, labels=A @ x_true)
        m = LossModel.for_dataset("squared", ds)
        reg = ss.regularity(m)
        hat = max(
            ss.hat_constant(ds, reg, ss.random_permutation(4, 0, j), 2, tol=1e-9)
            for j in range(20)
        )
        til = max(
            ss.tilde_constant(ds, reg, ss.random_permutation(4, 0, j), 2)
            for j in range(20)
        )
        eta = ss.step_size_smooth_rr(ss.BoundInputs(n=4, b=2, K=30, hatL=hat, tildeL=til))
        res = ss.run(ds, m, ShufflePlan("RR", seed=1), RunConfig(2, 30, eta, np.zeros(8)))
        f0 = ss.objective(m, ds, np.zeros(8))
        assert res.objectives[-1] <= f0 + 1e-12


class TestTheoreticalStepConvergence:
    def test_logistic_gap_shrinks_with_epochs(self, rng):
        # non-quadratic loss: the sampled-max theoretical step still descends
        A = rng.standard_normal((12, 3))
        t = np.where(A @ np.array([1.0, -0.5, 0.25]) > 0, 1.0, -1.0)
        # heavy label noise keeps the minimizer finite and well conditioned
        flips = rng.random(12) < 0.35
        t[flips] = -t[flips]
        ds = ss.SparseDataset.from_dense(A, labels=t)
        m = LossModel.for_dataset("logistic", ds)
        reg = ss.regularity(m)
        ref = ss.reference_minimizer(ds, m, tol=1e-6)
        assert ref.converged
        f_star = ss.objective(m, ds, ref.x)
        hat = max(
            ss.hat_constant(ds, reg, ss.random_permutation(12, 0, j), 3, tol=1e-8)
            for j in range(30)
        )
        til = max(
            ss.tilde_constant(ds, reg, ss.random_permutation(12, 0, j), 3)
            for j in range(30)
        )
        sig = ss.sigma_star(ds, m, ref.x, grad_tol=1e-5)
        D = float(np.linalg.norm(ref.x))
        gaps = []
        for K in (5, 20, 80):
            inp = ss.BoundInputs(n=12, b=3, K=K, hatL=hat, tildeL=til,
                                 sigma_star=sig, D=D)
            eta = ss.step_size_smooth_rr(inp)
            res = ss.run(ds, m, ShufflePlan("RR", seed=4),
                         RunConfig(3, K, eta, np.zeros(3)))
            gaps.append(res.objective_avg - f_star)
        assert gaps[0] > 0
        assert gaps[2] < gaps[0] * 0.5


class TestRetractionIdentity:
    def test_untraced_run_has_no_traces(self, rng):
        ds, m = least_squares(rng, 4, 2)
        res = ss.run(ds, m, ShufflePlan("RR", seed=0), RunConfig(2, 1, 0.1, np.zeros(2)))
        assert res.traces == []

    def test_single_step_epoch_terms_cancel(self, rng):
        # b = n: one inner step, the retraction term is identically zero
        ds, m = least_squares(rng, 5, 3)
        cfg = RunConfig(5, 1, 0.1, np.zeros(3), trace=True)
        res = ss.run(ds, m, ShufflePlan("RR", seed=2), cfg)
        tr = res.traces[0]
        assert tr.retraction_term == pytest.approx(0.0, abs=1e-15)
        assert tr.squared_steps == pytest.approx(tr.displacement_sq, rel=1e-12)

    def test_random_least_squares_epoch(self, rng):
        ds, m = least_squares(rng, 10, 5)
        cfg = RunConfig(2, 1, 0.05, rng.standard_normal(5), trace=True)
        res = ss.run(ds, m, ShufflePlan("RR", seed=3), cfg)
        assert ss.retraction_residual(res.traces[0], 2, 10) <= 1e-8

    @settings(max_examples=25)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["RR", "SO", "IG"]),
        st.sampled_from(["squared", "logistic", "hinge", "absolute"]),
    )
    def test_identity_all_schemes_and_losses(self, seed, scheme, family):
        rng = np.random.default_rng(seed)
        n = int(rng.choice([2, 4, 8, 12]))
        ds = random_sparse_dataset(rng, n=n)
        m = LossModel.for_dataset(family, ds)
        b = int(rng.choice([x for x in (1, 2, n // 2, n) if x >= 1 and n % x == 0]))
        cfg = RunConfig(b, 3, 0.1 / n, rng.standard_normal(ds.d), trace=True)
        res = ss.run(ds, m, ShufflePlan(scheme, seed=seed), cfg)
        for tr in res.traces:
            scale = 1.0 + abs(tr.squared_steps) + abs(tr.displacement_sq)
            assert ss.retraction_residual(tr, b, n) <= 1e-8 * scale


class TestTracing:
    @settings(max_examples=25)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["RR", "SO", "IG"]),
        st.sampled_from(["squared", "logistic", "hinge", "absolute"]),
    )
    def test_tracing_does_not_perturb_the_run(self, seed, scheme, family):
        rng = np.random.default_rng(seed)
        n = int(rng.choice([2, 4, 6, 8, 12]))
        ds = random_sparse_dataset(rng, n=n)
        m = LossModel.for_dataset(family, ds)
        x0 = rng.standard_normal(ds.d)
        plan = ShufflePlan(scheme, seed=seed)
        for b in divisors(n):
            (plain, plain_inner), (traced, traced_inner) = (
                oracles.run_recording_inner(ds, m, plan, RunConfig(b, 3, 0.1 / n, x0, trace=t))
                for t in (False, True))
            assert plain.traces == [] and len(traced.traces) == 3
            for ep, et in zip(plain_inner, traced_inner, strict=True):
                for xp, xt in zip(ep, et, strict=True):
                    assert np.array_equal(xp, xt)
            assert np.array_equal(plain.final, traced.final)
            assert np.array_equal(plain.averaged, traced.averaged)
            assert np.array_equal(plain.objectives, traced.objectives)
            assert np.array_equal(plain.objectives_avg, traced.objectives_avg)
            assert plain.objective_avg == traced.objective_avg

    def test_trace_state_is_o_of_d(self):
        # one b = 1 epoch over 2000 blocks: storing the inner iterates would
        # take (n + 1) d 8 = 48 MB; the streamed retraction term needs a few
        # d-vectors on top of what the untraced run allocates
        rng = np.random.default_rng(3)
        n, d, k = 2000, 3000, 3
        cols = np.arange(k) * (d // k) + rng.integers(0, d // k, size=(n, k))
        ds = ss.SparseDataset(indptr=np.arange(n + 1) * k, indices=cols.ravel(),
                              values=rng.standard_normal(n * k),
                              labels=rng.choice([-1.0, 1.0], n), d=d)
        m = LossModel.for_dataset("hinge", ds)

        def peak(trace):
            tracemalloc.start()
            res = ss.run(ds, m, ShufflePlan("RR", seed=0),
                         RunConfig(1, 1, 0.1, np.zeros(d), trace=trace))
            peak_bytes = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert len(res.traces) == trace
            return peak_bytes

        untraced, traced = peak(False), peak(True)
        assert traced <= untraced + 8 * d * 8
        assert traced <= (n + 1) * d * 8 / 20


class TestRunGeneral:
    def test_shift_oracle(self):
        # oracle(i, x) = x - e_i over one epoch of batch 2 moves 0 to (0.5, 0.5)
        def oracle(i, x):
            e = np.zeros(2)
            e[i] = 1.0
            return x - e

        res = ss.run_general(oracle, 2, 2, ShufflePlan("IG"), RunConfig(2, 1, 1.0, np.zeros(2)))
        assert np.allclose(res.final, [0.5, 0.5])

    def test_zero_oracle_keeps_x(self, rng):
        x0 = rng.standard_normal(3)
        res = ss.run_general(
            lambda i, x: np.zeros(3), 4, 3, ShufflePlan("RR", seed=1),
            RunConfig(2, 2, 0.5, x0),
        )
        assert np.array_equal(res.final, x0)

    def test_glm_oracle_reproduces_run(self, rng):
        ds, m = least_squares(rng, 6, 3)
        A = ds.to_dense()

        seen = []

        def oracle(i, x):
            seen.append(x.copy())
            return ss.loss_derivative(m, i, float(A[i] @ x)) * A[i]

        plan = ShufflePlan("SO", seed=9)
        cfg = RunConfig(2, 2, 0.04, np.zeros(3), trace=True)
        direct, direct_inner = oracles.run_recording_inner(ds, m, plan, cfg)
        general = ss.run_general(
            oracle, 6, 3, plan, cfg, objective_fn=lambda x: ss.objective(m, ds, x)
        )
        assert np.allclose(direct.final, general.final, rtol=1e-12, atol=1e-14)
        assert np.allclose(direct.averaged, general.averaged, rtol=1e-12, atol=1e-14)
        # every block calls the oracle b = 2 times at its starting point
        assert len(seen) == 2 * 6
        block_starts = seen[::2]
        # epoch 1 ends where epoch 2's first block starts
        general_inner = [block_starts[0:4], block_starts[3:6] + [general.final]]
        for k, (td, tg) in enumerate(zip(direct.traces, general.traces, strict=True)):
            assert len(direct_inner[k]) == len(general_inner[k]) == 6 // 2 + 1
            for xd, xg in zip(direct_inner[k], general_inner[k]):
                assert np.allclose(xd, xg, rtol=1e-12, atol=1e-14)
            for name in ("squared_steps", "displacement_sq", "retraction_term"):
                assert getattr(td, name) == pytest.approx(getattr(tg, name), rel=1e-12)

    def test_general_retraction_identity(self, rng):
        def oracle(i, x):
            return (x - i) ** 3 * 0.01  # arbitrary nonlinear components

        cfg = RunConfig(2, 2, 0.3, rng.standard_normal(3), trace=True)
        res = ss.run_general(oracle, 4, 3, ShufflePlan("RR", seed=5), cfg)
        for tr in res.traces:
            assert ss.retraction_residual(tr, 2, 4) <= 1e-10


@pytest.mark.parametrize("entry", ["run", "run_general"])
@pytest.mark.parametrize("n, batch, x0_dim, match", [
    (6, 4, 2, "must divide"),  # b does not divide n
    (6, 2, 3, "x0"),  # x0 has the wrong dimension
])
def test_entry_points_check_config(entry, n, batch, x0_dim, match, rng):
    ds, m = least_squares(rng, n, 2)
    plan = ShufflePlan("RR")
    cfg = RunConfig(batch, 1, 0.1, np.zeros(x0_dim))
    A = ds.to_dense()
    with pytest.raises(ConfigError, match=match):
        if entry == "run":
            ss.run(ds, m, plan, cfg)
        else:
            ss.run_general(lambda i, x: ss.loss_derivative(m, i, float(A[i] @ x)) * A[i],
                           ds.n, ds.d, plan, cfg)

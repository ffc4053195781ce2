import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import shuffle_sgd as ss
from shuffle_sgd import cli
from shuffle_sgd.data import permuted_nonzeros
from shuffle_sgd.engine import DivergenceError, RunConfig
from shuffle_sgd.losses import LossModel, derivative_vec
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
        layout = ss.BlockLayout(ds, [0], 1)
        assert ss.dual_block_update(m, layout, 0, np.zeros(1))[0] == -1.0

    def test_dual_update_full_batch(self):
        ds = ss.SparseDataset.from_dense(np.eye(2), labels=[1.0, 2.0])
        m = LossModel.for_dataset("squared", ds)
        layout = ss.BlockLayout(ds, [0, 1], 2)
        assert np.allclose(ss.dual_block_update(m, layout, 0, np.zeros(2)), [-1.0, -2.0])

    def test_dual_update_stores_prechain_scalar(self):
        # logistic with a = (2): the dual coordinate is l'(0) = -0.5; the
        # factor a enters only in the primal step
        ds = ss.SparseDataset.from_dense(np.array([[2.0]]), labels=[1.0])
        m = LossModel.for_dataset("logistic", ds)
        layout = ss.BlockLayout(ds, [0], 1)
        assert ss.dual_block_update(m, layout, 0, np.zeros(1))[0] == pytest.approx(-0.5)

    def test_dual_update_reads_the_targets_the_layout_gathered(self, rng):
        # every form gathers block i's targets once, as targets[i]: the
        # dataset's labels by default, else the targets given (run passes
        # its model's)
        A = rng.standard_normal((4, 3))
        m = LossModel("squared", [5.0, 6.0, 7.0, 8.0])
        perm = np.array([2, 0, 3, 1])
        for zero in (False, True):  # stacked; per-row views at b = 1, sorted at b = 2
            A[0, 0] = 0.0 if zero else A[0, 0]
            ds = ss.SparseDataset.from_dense(A, labels=[1.0, 2.0, 3.0, 4.0])
            for b in (1, 2):
                for targets, t in ((None, ds.labels), (m.targets, m.targets)):
                    layout = ss.BlockLayout(ds, perm, b, targets)
                    assert layout.sorted is (zero and b == 2)
                    assert np.array_equal(layout.targets, t[perm].reshape(4 // b, b))
                    y = [ss.dual_block_update(m, layout, i, np.zeros(3)) for i in range(4 // b)]
                    assert np.array_equal(np.concatenate(y), -t[perm])

    def test_primal_step_scalar(self):
        ds = ss.SparseDataset.from_dense(np.array([[1.0]]))
        x = np.zeros(1)
        g = ss.primal_block_step(x, ss.BlockLayout(ds, [0], 1), 0, np.array([-1.0]), 0.5)
        assert x[0] == 0.5
        assert np.array_equal(g, [-1.0])

    def test_primal_step_zero_eta_or_dual(self):
        ds = ss.SparseDataset.from_dense(np.array([[1.0, 2.0]]))
        x0 = np.array([3.0, -1.0])
        with pytest.raises(ConfigError):
            RunConfig(batch=1, epochs=1, step=0.0)
        same = x0.copy()
        ss.primal_block_step(same, ss.BlockLayout(ds, [0], 1), 0, np.zeros(1), 0.7)
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
        ds = ss.SparseDataset.from_dense(A, labels=t)
        m = LossModel.for_dataset("squared", ds)
        b = {"1": 1, "n": n}.get(batch) or int(rng.choice(divisors(n)))
        perm = rng.permutation(n)
        layout = ss.BlockLayout(ds, perm, b)
        x = rng.standard_normal(d)
        for i in range(n // b):
            rows = perm[i * b : (i + 1) * b]
            blk = A[rows]
            # squared loss: y_j = a_j^T x - t_j
            y = ss.dual_block_update(m, layout, i, x)
            assert y.shape == (b,)
            assert np.max(np.abs(y - (blk @ x - t[rows]))) <= 1e-12 * (1.0 + np.abs(blk).sum())
            y_any = rng.standard_normal(b)
            got = x.copy()
            g = ss.primal_block_step(got, layout, i, y_any, 0.7)
            ref = x - (0.7 / b) * (blk.T @ y_any)
            assert got.shape == (d,)
            assert np.max(np.abs(got - ref)) <= 1e-12 * (1.0 + np.abs(ref).max())
            # the step touches only the block's distinct columns and returns
            # the block's gradient aggregate on them
            cols = layout.block_cols(i)
            assert np.array_equal(cols, np.flatnonzero(np.any(blk != 0.0, axis=0)))
            rest = np.setdiff1d(np.arange(d), cols)
            assert np.array_equal(got[rest], x[rest])
            agg = blk.T @ y_any
            assert np.max(np.abs(g - agg[cols]), initial=0.0) <= 1e-12 * (1.0 + np.abs(agg).max())


def _uniform_rows(rng, n, d, k):
    """n rows of k nonzeros each, rcv1-like: row i stores one column in
    each of k bands whose widths grow quadratically across 0..d-1."""
    edges = np.floor(d * (np.arange(k + 1) / k) ** 2).astype(np.int64)
    cols = edges[:-1] + (rng.random((n, k)) * np.diff(edges)).astype(np.int64)
    return ss.SparseDataset(np.arange(n + 1) * k, cols.ravel(), rng.standard_normal(n * k),
                            rng.choice([-1.0, 1.0], n), d)


class TestSharedForm:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 12),
        st.integers(1, 6),
        st.sampled_from([0.0, 0.3, 0.7, 1.0]),
        st.booleans(),
    )
    def test_block_ops_match_dense_rows(self, seed, n, d, density, shared):
        # b = 1 on any sparse rows (empty ones included); with `shared` every
        # row stores the same columns, explicit zeros included, and every
        # divisor b takes the shared form
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, d)) * (rng.random((n, d)) < density)
        t = rng.standard_normal(n)
        if shared:
            stored = np.flatnonzero(rng.random(d) < 0.7)
            A[:, np.setdiff1d(np.arange(d), stored)] = 0.0
            ds = ss.SparseDataset(np.arange(n + 1) * stored.size, np.tile(stored, n),
                                  A[:, stored].ravel(), t, d)
            batches = divisors(n)
        else:
            ds = ss.SparseDataset.from_dense(A, labels=t)
            batches = [1]
        m = LossModel.for_dataset("squared", ds)
        perm = rng.permutation(n)
        x = rng.standard_normal(d)
        for b in batches:
            layout = ss.BlockLayout(ds, perm, b)
            assert not layout.sorted
            for i in range(n // b):
                rows = perm[i * b : (i + 1) * b]
                blk = A[rows]
                y = ss.dual_block_update(m, layout, i, x)
                assert y.shape == (b,)
                assert np.max(np.abs(y - (blk @ x - t[rows]))) <= 1e-12 * (1.0 + np.abs(blk).sum())
                y_any = rng.standard_normal(b)
                got = x.copy()
                g = ss.primal_block_step(got, layout, i, y_any, 0.7)
                ref = x - (0.7 / b) * (blk.T @ y_any)
                assert np.max(np.abs(got - ref)) <= 1e-12 * (1.0 + np.abs(ref).max())
                # the block's stored columns, and no other column moves
                cols = layout.block_cols(i)
                assert np.array_equal(cols, stored if shared else ds.row(rows[0])[0])
                rest = np.setdiff1d(np.arange(d), cols)
                assert np.array_equal(got[rest], x[rest])
                agg = blk.T @ y_any
                assert g.shape == cols.shape
                tol = 1e-12 * (1.0 + np.abs(agg).max())
                assert np.max(np.abs(g - agg[cols]), initial=0.0) <= tol

    def test_form_follows_the_rows_not_d(self, rng):
        # a dataset and its twin with four more all-zero columns take the
        # same form at every b: shared when all rows store the same columns,
        # else shared at b = 1 alone
        n, d = 8, 5
        dense = (np.arange(n + 1) * d, np.tile(np.arange(d), n), rng.standard_normal(n * d))
        # row 0 stores column 0 alone, every other row all d columns
        uneven = (np.r_[0, 1 + np.arange(n) * d], np.r_[0, np.tile(np.arange(d), n - 1)],
                  rng.standard_normal(1 + (n - 1) * d))
        perm = rng.permutation(n)
        for arrays, shared_at in ((dense, divisors(n)), (uneven, [1])):
            twins = [ss.SparseDataset(*arrays, np.zeros(n), width) for width in (d, d + 4)]
            for b in divisors(n):
                forms = {ss.BlockLayout(ds, perm, b).sorted for ds in twins}
                assert forms == {b not in shared_at}

    def test_layout_bytes_per_nonzero(self):
        # rcv1-shaped rows, 74 sorted nonzeros each. The shared form (b = 1)
        # holds the stack of permuted rows and each block's columns, 16 bytes
        # a nonzero, gathered straight from the dataset's arrays with nothing
        # besides. The sorted form (b = 10) holds four nnz-length arrays and
        # never the shared form's arrays on top.
        rng = np.random.default_rng(8)
        n = 2000
        ds = _uniform_rows(rng, n, 23500, 74)
        perm = rng.permutation(n)

        def per_nonzero(b):
            tracemalloc.start()
            layout = ss.BlockLayout(ds, perm, b)
            held, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return layout.sorted, held / ds.nnz, peak / ds.nnz

        is_sorted, held, peak = per_nonzero(1)
        assert not is_sorted and held <= 17 and peak <= 17
        is_sorted, held, peak = per_nonzero(10)
        assert is_sorted and held <= 32 and peak <= 41.5


def _reference_run(ds, m, plan, cfg):
    """Shuffled SGD as a per-block step on the dense rows A[rows] restricted
    to the columns the block's first row stores: the same products, of the
    same shapes and on row-major blocks, as the shared form's, so the
    iterates must agree to the bit. Returns the final iterate."""
    A = ds.to_dense()
    b, x = cfg.batch, np.zeros(ds.d)
    for k in range(1, cfg.epochs + 1):
        perm = ss.permutation_for(plan, ds.n, k)
        for i in range(ds.n // b):
            rows = perm[i * b : (i + 1) * b]
            cols = ds.row(rows[0])[0]
            blk = np.ascontiguousarray(A[rows][:, cols])
            y = derivative_vec(m, rows, blk.dot(x[cols]))
            x[cols] -= (cfg.step / b) * y.dot(blk)
    return x


class TestStackedLayout:
    """The shared form's per-epoch layouts: one gather of whole rows into an
    m x b x k stack where every row stores k nonzeros (full width where
    k = d), else per-row views at b = 1."""

    def _datasets(self, rng):
        n, d = 12, 7
        dense = ss.SparseDataset.from_dense(rng.standard_normal((n, d)),
                                            labels=rng.choice([-1.0, 1.0], n))
        stored = np.array([0, 3, 4])
        shared = ss.SparseDataset(np.arange(n + 1) * 3, np.tile(stored, n),
                                  rng.standard_normal(n * 3), rng.choice([-1.0, 1.0], n), d)
        ragged = random_sparse_dataset(rng, n=n, d=d, density=0.5)
        assert ss.data.uniform_row_nnz(ragged) is None
        return [
            ("dense", dense, divisors(n), True),
            ("uniform", _uniform_rows(rng, n, 40, 5), [1], False),
            ("shared", shared, divisors(n), False),
            ("ragged", ragged, [1], False),
        ]

    @pytest.mark.parametrize("family", ["squared", "logistic", "hinge"])
    def test_runs_match_reference_to_the_bit(self, rng, family):
        for name, ds, batches, full in self._datasets(rng):
            m = LossModel.for_dataset(family, ds)
            for b in batches:
                layout = ss.BlockLayout(ds, rng.permutation(ds.n), b)
                assert not layout.sorted and layout.full == full, (name, b)
                for scheme in ("RR", "IG"):
                    plan = ShufflePlan(scheme, seed=b)
                    cfg = RunConfig(b, 3, 0.05)
                    want = _reference_run(ds, m, plan, cfg)
                    for trace in (False, True):
                        cfg.trace = trace
                        res = ss.run(ds, m, plan, cfg)
                        assert np.array_equal(res.final, want), (name, b, scheme, trace)
                    for tr in res.traces:
                        assert ss.retraction_residual(tr, b, ds.n) <= 1e-12

    def test_layout_shapes(self, rng):
        for name, ds, batches, full in self._datasets(rng):
            perm = rng.permutation(ds.n)
            for b in batches:
                layout = ss.BlockLayout(ds, perm, b)
                m = ds.n // b
                for i in range(m):
                    rows = perm[i * b : (i + 1) * b]
                    cols = ds.row(rows[0])[0]
                    # block_cols gives the real columns, also at full width
                    assert np.array_equal(layout.block_cols(i), cols)
                    assert np.array_equal(layout.vals[i], ds.to_dense()[rows][:, cols])
                if name == "ragged":
                    assert isinstance(layout.vals, list) and len(layout.vals) == m
                else:
                    k = ds.nnz // ds.n
                    assert layout.vals.shape == (m, b, k) and layout.cols.shape == (m, k)

    def test_layout_checks_its_permutation(self, rng):
        for _, ds, batches, _ in self._datasets(rng):
            for perm in ([0] * ds.n, np.arange(ds.n - 1)):
                with pytest.raises(ValueError, match="permutation of range"):
                    ss.BlockLayout(ds, perm, batches[-1])


class TestRunConfig:
    @pytest.mark.parametrize("epochs", [-1, 0])
    @pytest.mark.parametrize("step", [0.1, np.array([0.1])])
    def test_nonpositive_epochs_rejected_first(self, epochs, step):
        with pytest.raises(ConfigError, match="epochs must be >= 1"):
            RunConfig(batch=1, epochs=epochs, step=step)

    @pytest.mark.parametrize("step, shown", [(np.nan, "nan"), (np.inf, "inf")])
    def test_non_finite_step_rejected(self, step, shown):
        with pytest.raises(ConfigError, match=f"positive and finite, got {shown}$"):
            RunConfig(batch=1, epochs=2, step=step)

    @pytest.mark.parametrize("step", [np.array([0.1]), np.array([0.1, 0.2]), [0.1, 0.2]])
    def test_one_step_per_run(self, step):
        # a step per epoch is refused when the config is built, not in a run
        with pytest.raises(ConfigError, match="step must be one value"):
            RunConfig(batch=1, epochs=2, step=step)


class TestRun:
    def test_scalar_problem(self):
        ds = ss.SparseDataset.from_dense(np.array([[1.0]]), labels=[1.0])
        m = LossModel.for_dataset("squared", ds)
        res = ss.run(ds, m, ShufflePlan("IG"), RunConfig(1, 1, 0.5))
        assert res.final[0] == 0.5
        assert res.averaged[0] == 0.5

    def test_full_batch_is_gradient_descent(self, rng):
        # two epochs, so the second gradient step starts away from the origin
        ds, m = least_squares(rng, 8, 3)
        res = ss.run(ds, m, ShufflePlan("RR", seed=4), RunConfig(8, 2, 0.2))
        A, t = ds.to_dense(), ds.labels
        expected = np.zeros(3)
        for _ in range(2):
            expected = expected - 0.2 * (A.T @ (A @ expected - t)) / 8
        assert np.allclose(res.final, expected, rtol=1e-12, atol=1e-12)

    def test_weighted_average_output(self, rng):
        # with one step for every epoch the output is the plain mean of the
        # epoch ends, against an independent replay of the epochs
        ds, m = least_squares(rng, 6, 2)
        A, t = ds.to_dense(), ds.labels
        plan = ShufflePlan("SO", seed=0)
        res = ss.run(ds, m, plan, RunConfig(2, 3, 2e-3))
        x, ends = np.zeros(2), []
        for k in range(1, 4):
            x = oracles.vanilla_epoch(A, t, "squared", ss.permutation_for(plan, ds.n, k), 2,
                                      2e-3, x)[-1]
            ends.append(x)
        assert np.allclose(res.averaged, np.mean(ends, axis=0), rtol=1e-12, atol=1e-15)

    def test_average_objectives_replay(self, rng):
        # f(x_bar_k) for every k against an independent replay: plain
        # updates, then np.mean over the epoch ends
        ds, m = least_squares(rng, 6, 3)
        A, t = ds.to_dense(), ds.labels
        plan = ShufflePlan("RR", seed=2)
        res = ss.run(ds, m, plan, RunConfig(2, 5, 0.05))
        x, ends = np.zeros(3), []
        for k in range(1, 6):
            x = oracles.vanilla_epoch(A, t, "squared", ss.permutation_for(plan, ds.n, k), 2,
                                      0.05, x)[-1]
            ends.append(x)
        want = [np.mean(0.5 * (A @ np.mean(ends[:k], axis=0) - t) ** 2) for k in range(1, 6)]
        assert np.allclose(res.objectives_avg, want, rtol=1e-12, atol=0)
        assert res.objective_avg == res.objectives_avg[-1]

    def test_final_objective_alone(self, rng, monkeypatch):
        # without epoch objectives a run evaluates f once, at x_bar_K, and
        # gets the same value to the bit
        ds, m = least_squares(rng, 6, 3)
        plan = ShufflePlan("RR", seed=3)
        every = ss.run(ds, m, plan, RunConfig(2, 4, 0.05))
        real, calls = ss.engine.objective, []
        monkeypatch.setattr(ss.engine, "objective", lambda *a: calls.append(1) or real(*a))
        last = ss.run(ds, m, plan, RunConfig(2, 4, 0.05, epoch_objectives=False))
        assert len(calls) == 1
        assert last.objectives.size == last.objectives_avg.size == 0
        assert last.objective_avg == every.objective_avg == every.objectives_avg[-1]
        assert np.array_equal(last.averaged, every.averaged)

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
                         RunConfig(1, epochs, 0.1))
            peak_bytes = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert len(res.objectives_avg) == epochs
            return peak_bytes

        assert peak(200) <= peak(2) + d * 8

    def test_batch_must_divide(self, rng):
        ds, m = least_squares(rng, 6, 2)
        with pytest.raises(ConfigError):
            ss.run(ds, m, ShufflePlan("RR"), RunConfig(4, 1, 0.1))

    def test_divergence_names_epoch(self):
        ds = ss.SparseDataset.from_dense(np.array([[1e3], [1e3]]), labels=[1.0, -1.0])
        m = LossModel.for_dataset("squared", ds)
        with pytest.raises(DivergenceError) as err:
            ss.run(ds, m, ShufflePlan("RR", seed=0), RunConfig(1, 40, 10.0))
        assert err.value.epoch >= 1

    def test_deterministic(self, rng):
        ds, m = least_squares(rng, 10, 3)
        cfg = RunConfig(2, 3, 0.05, trace=True)
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
        cfg = RunConfig(b, 2, eta, trace=True)
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
        # (the README's recipe) and run IG, which visits them as stored
        n, b, eta = 8, 2, 0.05
        ds = random_sparse_dataset(rng, n=n)
        p = rng.permutation(n)
        _, indptr, src = permuted_nonzeros(ds, p)
        reordered = ss.SparseDataset(indptr, ds.indices[src], ds.values[src], ds.labels[p], ds.d)
        cfg = RunConfig(b, 2, eta)
        _, recorded = oracles.run_recording_inner(
            reordered, LossModel.for_dataset(family, reordered), ShufflePlan("IG"), cfg)
        x = np.zeros(ds.d)
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
        res = ss.run(ds, m, ShufflePlan("RR", seed=1), RunConfig(2, 30, eta))
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
                         RunConfig(3, K, eta))
            gaps.append(res.objective_avg - f_star)
        assert gaps[0] > 0
        assert gaps[2] < gaps[0] * 0.5


class TestRetractionIdentity:
    def test_untraced_run_has_no_traces(self, rng):
        ds, m = least_squares(rng, 4, 2)
        res = ss.run(ds, m, ShufflePlan("RR", seed=0), RunConfig(2, 1, 0.1))
        assert res.traces == []

    def test_single_step_epoch_terms_cancel(self, rng):
        # b = n: one inner step, the retraction term is identically zero
        ds, m = least_squares(rng, 5, 3)
        cfg = RunConfig(5, 1, 0.1, trace=True)
        res = ss.run(ds, m, ShufflePlan("RR", seed=2), cfg)
        tr = res.traces[0]
        assert tr.retraction_term == pytest.approx(0.0, abs=1e-15)
        assert tr.squared_steps == pytest.approx(tr.displacement_sq, rel=1e-12)

    def test_random_least_squares_epoch(self, rng):
        # the second epoch starts away from the origin
        ds, m = least_squares(rng, 10, 5)
        cfg = RunConfig(2, 2, 0.05, trace=True)
        res = ss.run(ds, m, ShufflePlan("RR", seed=3), cfg)
        for tr in res.traces:
            assert ss.retraction_residual(tr, 2, 10) <= 1e-8

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
        cfg = RunConfig(b, 3, 0.1 / n, trace=True)
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
        plan = ShufflePlan(scheme, seed=seed)
        for b in divisors(n):
            (plain, plain_inner), (traced, traced_inner) = (
                oracles.run_recording_inner(ds, m, plan, RunConfig(b, 3, 0.1 / n, trace=t))
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
                         RunConfig(1, 1, 0.1, trace=trace))
            peak_bytes = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert len(res.traces) == trace
            return peak_bytes

        untraced, traced = peak(False), peak(True)
        assert traced <= untraced + 8 * d * 8
        assert traced <= (n + 1) * d * 8 / 20

    def test_block_steps_allocate_no_d_vector(self):
        # one b = 1 epoch over very wide rows (d = 10^6, 3 nonzeros each): a
        # block step works on its row's nonzeros alone. The run holds x, the
        # running sum and the average, 3 d-vectors; a traced epoch adds its
        # start, sum_i g_i and the displacement. A d-length temporary in any
        # block, traced or not, would add at least one more.
        rng = np.random.default_rng(5)
        n, d, k = 200, 1_000_000, 3
        cols = np.arange(k) * (d // k) + rng.integers(0, d // k, size=(n, k))
        ds = ss.SparseDataset(indptr=np.arange(n + 1) * k, indices=cols.ravel(),
                              values=rng.standard_normal(n * k),
                              labels=rng.choice([-1.0, 1.0], n), d=d)
        m = LossModel.for_dataset("hinge", ds)

        def peak(trace):
            tracemalloc.start()
            res = ss.run(ds, m, ShufflePlan("RR", seed=0), RunConfig(1, 1, 0.1, trace=trace))
            peak_bytes = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert len(res.traces) == trace
            return peak_bytes

        vec = 8 * d
        assert peak(False) <= 3.5 * vec
        assert peak(True) <= 6.5 * vec


class TestRunGeneral:
    def test_shift_oracle(self):
        # oracle(i, x) = x - e_i over one epoch of batch 2 moves 0 to (0.5, 0.5)
        def oracle(i, x):
            e = np.zeros(2)
            e[i] = 1.0
            return x - e

        res = ss.run_general(oracle, 2, 2, ShufflePlan("IG"), RunConfig(2, 1, 1.0))
        assert np.allclose(res.final, [0.5, 0.5])

    def test_zero_oracle_keeps_x(self):
        res = ss.run_general(
            lambda i, x: np.zeros(3), 4, 3, ShufflePlan("RR", seed=1), RunConfig(2, 2, 0.5))
        assert np.array_equal(res.final, np.zeros(3))
        assert np.array_equal(res.averaged, np.zeros(3))

    def test_glm_oracle_reproduces_run(self, rng, monkeypatch):
        """verify-bound's GLM oracle (cli._general_runs) through run_general
        gives engine.run's inner iterates: on whole rows (squared loss), and
        on a sparse input whose rows store 3, 2, 1 and 0 of the 3 columns
        (logistic loss)."""
        ds, m = least_squares(rng, 6, 3)
        A = rng.standard_normal((6, 3))
        A[1, 0] = A[2, :2] = A[3, 1:] = A[4] = 0.0
        ragged = ss.SparseDataset.from_dense(A, labels=rng.choice([-1.0, 1.0], 6))
        assert {len(ragged.row(i)[0]) for i in range(6)} == {0, 1, 2, 3}
        seen = []
        run_general = ss.engine.run_general

        def recording(oracle, *args, **kwargs):
            def spy(i, x):
                seen.append(x.copy())
                return oracle(i, x)

            return run_general(spy, *args, **kwargs)

        monkeypatch.setattr(ss.engine, "run_general", recording)
        plan = ShufflePlan("SO", seed=9)
        cfg = RunConfig(2, 2, 0.04, trace=True)
        for ds, m in ((ds, m), (ragged, LossModel.for_dataset("logistic", ragged))):
            seen.clear()
            direct, direct_inner = oracles.run_recording_inner(ds, m, plan, cfg)
            general = cli._general_runs(ds, m)(plan, cfg)
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

        cfg = RunConfig(2, 2, 0.3, trace=True)
        res = ss.run_general(oracle, 4, 3, ShufflePlan("RR", seed=5), cfg)
        for tr in res.traces:
            assert ss.retraction_residual(tr, 2, 4) <= 1e-10


@pytest.mark.parametrize("entry", ["run", "run_general"])
@pytest.mark.parametrize("n, batch, d, match", [
    (6, 4, 2, "must divide"),  # b does not divide n
])
def test_entry_points_check_config(entry, n, batch, d, match, rng):
    ds, m = least_squares(rng, n, d)
    plan = ShufflePlan("RR")
    cfg = RunConfig(batch, 1, 0.1)
    A = ds.to_dense()
    with pytest.raises(ConfigError, match=match):
        if entry == "run":
            ss.run(ds, m, plan, cfg)
        else:
            ss.run_general(
                lambda i, x: derivative_vec(m, np.array([i]), np.array([A[i] @ x])) * A[i],
                ds.n, ds.d, plan, cfg)


@pytest.mark.parametrize("family", ["squared", "hinge"])
def test_stored_zeros_change_no_constant_or_iterate(family, rng):
    # a LIBSVM file may store explicit j:0 entries; the dataset then keeps
    # them, and hat, tilde and every iterate must match its nonzero-only twin
    n, d, b = 12, 5, 3
    A = rng.standard_normal((n, d)) * (rng.random((n, d)) < 0.5)
    A[2] = 0.0
    t = rng.choice([-1.0, 1.0], n)
    twin = ss.SparseDataset.from_dense(A, labels=t)
    stored = ss.SparseDataset(np.arange(n + 1) * d, np.tile(np.arange(d), n), A.ravel(), t, d)
    assert stored.nnz == n * d > twin.nnz
    models = [LossModel.for_dataset(family, ds) for ds in (twin, stored)]
    reg = ss.regularity(models[0])
    for j in range(3):
        perm = ss.random_permutation(n, 1, j)
        hat = [ss.hat_constant(ds, reg, perm, b, tol=1e-10) for ds in (twin, stored)]
        tilde = [ss.tilde_constant(ds, reg, perm, b) for ds in (twin, stored)]
        assert hat[1] == pytest.approx(hat[0], rel=1e-9)
        assert tilde[1] == pytest.approx(tilde[0], rel=1e-12)
    cfg = RunConfig(b, 3, 0.05, trace=True)
    (r0, inner0), (r1, inner1) = (
        oracles.run_recording_inner(ds, m, ShufflePlan("RR", seed=2), cfg)
        for ds, m in zip((twin, stored), models))
    for e0, e1 in zip(inner0, inner1, strict=True):
        for x0, x1 in zip(e0, e1, strict=True):
            assert np.allclose(x1, x0, rtol=1e-13, atol=1e-15)
    assert np.allclose(r1.averaged, r0.averaged, rtol=1e-13, atol=1e-15)
    assert r1.objective_avg == pytest.approx(r0.objective_avg, rel=1e-13)

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import shuffle_sgd as ss
from shuffle_sgd import constants
from shuffle_sgd.constants import (
    _SEPARABILITY_CHECK_AT,
    ConvergenceError,
    MaskedGramOperator,
    StationarityError,
    _logistic_unbounded,
)
from shuffle_sgd.losses import LossModel, RegularityDiag

import oracles
from conftest import GRAM_PATHS, divisors, gram_path, random_sparse_dataset

TIGHT = dict(tol=1e-12)


def unit_reg(n):
    return RegularityDiag(np.ones(n))


def _edge_dataset(rng):
    """Random data with an empty row (n > 1) and an all-zero column (d > 1);
    half of the draws have a single column."""
    n = int(rng.choice([1, 2, 3, 4, 6, 8, 12]))
    d = 1 if rng.random() < 0.5 else int(rng.integers(2, 8))
    A = rng.standard_normal((n, d)) * (rng.random((n, d)) < 0.6)
    if n > 1:
        A[rng.integers(n)] = 0.0
    if d > 1:
        A[:, rng.integers(d)] = 0.0
    return ss.SparseDataset.from_dense(A)


def gram_operators(ds, w, perm, b):
    """The masked Gram of (ds, w, perm, b), once in each representation."""
    ops = []
    for path in GRAM_PATHS:
        with gram_path(path):
            ops.append(MaskedGramOperator(constants._weighted_csr(ds, w, perm), b))
    return ops


class TestMaskedGramMatvec:
    def test_identity_b1(self):
        ds = ss.SparseDataset.from_dense(np.eye(2))
        for op in gram_operators(ds, np.ones(2), [0, 1], 1):
            assert np.allclose(op.matvec(np.array([1.0, 1.0])), [1.0, 2.0])

    def test_repeated_row(self):
        ds = ss.SparseDataset.from_dense(np.array([[1.0], [1.0]]))
        for op in gram_operators(ds, np.ones(2), [0, 1], 1):
            # dense masked matrix is [[1,1],[1,2]]
            assert np.allclose(op.matvec(np.array([1.0, 0.0])), [1.0, 1.0])

    def test_zero_vector(self, rng):
        ds = random_sparse_dataset(rng, n=8)
        for op in gram_operators(ds, np.ones(8), rng.permutation(8), 2):
            assert np.allclose(op.matvec(np.zeros(8)), 0.0)

    def test_dimension_mismatch(self):
        ds = ss.SparseDataset.from_dense(np.eye(3))
        for op in gram_operators(ds, np.ones(3), [0, 1, 2], 1):
            with pytest.raises(ValueError):
                op.matvec(np.zeros(4))

    def test_matches_dense_oracle(self, rng):
        for _ in range(25):
            ds = random_sparse_dataset(rng, ensure_nonzero=False)
            w = rng.uniform(0.1, 10.0, ds.n)
            b = int(rng.choice(divisors(ds.n)))
            perm = rng.permutation(ds.n)
            M = oracles.dense_prefix_matrix(ds.to_dense(), w, perm, b)
            for op in gram_operators(ds, w, perm, b):
                for _ in range(3):
                    v = rng.standard_normal(ds.n)
                    assert np.allclose(op.matvec(v), M @ v, rtol=1e-10, atol=1e-10)

    @settings(max_examples=40)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["any", "one", "all"]))
    def test_matches_dense_oracle_edge_shapes(self, seed, batch):
        """Empty rows, all-zero columns, d = 1, b = 1 and b = n."""
        rng = np.random.default_rng(seed)
        ds = _edge_dataset(rng)
        b = {"any": int(rng.choice(divisors(ds.n))), "one": 1, "all": ds.n}[batch]
        w = rng.uniform(0.1, 10.0, ds.n)
        perm = rng.permutation(ds.n)
        M = oracles.dense_prefix_matrix(ds.to_dense(), w, perm, b)
        V = rng.standard_normal((ds.n, 2))
        for op in gram_operators(ds, w, perm, b):
            for v in V.T:
                assert np.allclose(op.matvec(v), M @ v, rtol=1e-10, atol=1e-10)

    def test_matvec_memory_is_order_nnz(self):
        # m * d * 8 bytes = 3.2 GB here; the matvec must not come near that
        n, d, k = 2000, 200_000, 10
        rng = np.random.default_rng(7)
        # sorted and distinct within each row
        cols = np.sort(rng.integers(0, d - k, size=(n, k)), axis=1) + np.arange(k)
        ds = ss.SparseDataset(np.arange(n + 1) * k, cols.ravel(),
                              rng.standard_normal(n * k), np.ones(n), d)
        v = rng.standard_normal(n)
        tracemalloc.start()
        try:
            B = constants._weighted_csr(ds, np.ones(n), rng.permutation(n))
            op = MaskedGramOperator(B, 1)
            _, setup_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            op.matvec(v)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert op._M is None  # the size rule keeps this input on the prefix-sum path
        assert op.m * op.d * 8 > 1e9
        assert peak < 16 * ds.nnz * 8
        assert setup_peak < 64 * ds.nnz * 8


class TestGramMemory:
    @pytest.mark.parametrize("b", [2, 10])
    def test_peak_bytes_per_nonzero(self, b):
        """On an rcv1-shaped input (74 sorted nonzeros a row, prefix-sum
        path) neither hat nor tilde holds more than 88 bytes per nonzero
        above the dataset at its peak."""
        n, d, k = 2000, 6000, 74
        rng = np.random.default_rng(26)
        cols = np.sort(rng.integers(0, d - k, size=(n, k)), axis=1) + np.arange(k)
        ds = ss.SparseDataset(np.arange(n + 1) * k, cols.ravel(), rng.random(n * k) + 0.05,
                              np.ones(n), d)
        assert not constants._dense_gram(n, d, ds.nnz)
        reg, perm = unit_reg(n), rng.permutation(n)
        for constant in (ss.hat_constant, ss.tilde_constant):
            tracemalloc.start()
            try:
                constant(ds, reg, perm, b)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 88 * ds.nnz, (constant.__name__, peak / ds.nnz)

class TestGramRepresentation:
    def test_paths_agree_at_sonar_shape(self):
        """Dense and prefix-sum constants agree to 1e-12 in the same number
        of Lanczos steps on a 208 x 60, b = 4 Gaussian instance."""
        n, d, b = 208, 60, 4
        rng = np.random.default_rng(11)
        ds = ss.SparseDataset.from_dense(rng.standard_normal((n, d)))
        w = rng.uniform(0.5, 2.0, n)
        reg = RegularityDiag(w)
        for _ in range(3):
            perm = rng.permutation(n)
            out = {}
            for path in GRAM_PATHS:
                with gram_path(path):
                    op = MaskedGramOperator(constants._weighted_csr(ds, w, perm), b)
                    out[path] = (ss.operator_norm(op.matvec, n),
                                 ss.hat_constant(ds, reg, perm, b),
                                 ss.tilde_constant(ds, reg, perm, b),
                                 ss.general_hat_L(w, perm, b))
            (res_p, *sparse), (res_d, *dense) = out["prefix-sum"], out["dense"]
            assert res_p.iterations == res_d.iterations
            for mine, ref in zip([res_d.value, *dense], [res_p.value, *sparse]):
                assert mine == pytest.approx(ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n, d, nnz, dense", [
        (24, 5, 120, True),              # small-dense's verify input
        (208, 60, 12_480, True),         # its analyze/optimize input
        (2000, 200, 400_000, True),
        (2100, 2100, 4_410_000, False),  # n (n + d) above the memory cap
        (1000, 123, 14_000, False),      # sparse, n^2 / nnz = 71
        (10_000, 23_500, 740_000, False),  # the rcv1-shaped bench input
    ])
    def test_size_rule(self, n, d, nnz, dense):
        assert constants._dense_gram(n, d, nnz) is dense

    def test_operator_follows_the_rule(self):
        rng = np.random.default_rng(5)
        n, d, k = 1000, 123, 14
        cols = np.sort(np.argsort(rng.random((n, d)), axis=1)[:, :k], axis=1)
        sparse = ss.SparseDataset(np.arange(n + 1) * k, cols.ravel(),
                                  rng.standard_normal(n * k), np.ones(n), d)
        dense = ss.SparseDataset.from_dense(rng.standard_normal((208, 60)))
        for ds, is_dense in ((sparse, False), (dense, True)):
            B = constants._weighted_csr(ds, np.ones(ds.n), rng.permutation(ds.n))
            op = MaskedGramOperator(B, 4)
            assert (op._M is not None) is is_dense


class TestWeightedCsr:
    def test_matches_dense_weighted_rows(self, rng):
        for _ in range(10):
            ds = random_sparse_dataset(rng, ensure_nonzero=False)
            A = ds.to_dense()
            A[int(rng.integers(ds.n))] = 0.0  # one empty row at least
            ds = ss.SparseDataset.from_dense(A)
            w = rng.uniform(0.1, 10.0, ds.n)
            perm = rng.permutation(ds.n)
            # the same products as the oracle's, so equal to the last bit
            B = constants._weighted_csr(ds, w, perm)
            assert (B.n, B.d, B.nnz) == (ds.n, ds.d, ds.nnz)
            assert np.array_equal(B.to_dense(), oracles.weighted_rows(A, w, perm))
            identity = constants._weighted_csr(ds, w, np.arange(ds.n)).to_dense()
            assert np.array_equal(identity, oracles.weighted_rows(A, w, np.arange(ds.n)))

    def test_weights_must_match_rows(self):
        ds = ss.SparseDataset.from_dense(np.eye(3))
        with pytest.raises(ValueError, match="one entry per row"):
            constants._weighted_csr(ds, np.ones(2), np.arange(3))


class TestSparseKernels:
    """The column sort and the block Grams equal scipy's CSC conversion and
    sparse product, to the bit."""

    def weighted(self, rng, n, d, density):
        A = rng.standard_normal((n, d)) * (rng.random((n, d)) < density)
        A[[0, int(rng.integers(n))]] = 0.0  # empty rows
        ds = ss.SparseDataset.from_dense(A)
        return constants._weighted_csr(ds, rng.uniform(0.1, 10.0, n), rng.permutation(n))

    def scipy_csr(self, B):
        import scipy.sparse as sp

        indptr = np.concatenate([[0], np.cumsum(np.bincount(B.rows, minlength=B.n))])
        return sp.csr_matrix((B.values, B.indices, indptr), shape=(B.n, B.d))

    # d = 70000 sorts on uint32, past the radix sort's 16 bits
    @pytest.mark.parametrize("n,d,density", [(12, 1, 0.7), (30, 300, 0.3), (8, 70000, 4e-4)])
    def test_column_order_is_scipy_csc(self, rng, n, d, density):
        for _ in range(5):
            B = self.weighted(rng, n, d, density)
            ref = self.scipy_csr(B).tocsc()
            data, rows, indptr, _ = constants._column_block_runs(B, 2)
            assert np.array_equal(indptr, ref.indptr)
            assert np.array_equal(rows, ref.indices)
            assert np.array_equal(data.view(np.int64), ref.data.view(np.int64))

    @pytest.mark.parametrize("chunk", [1, 5, constants._PAIR_CHUNK])
    def test_block_grams_equal_the_sparse_product(self, rng, monkeypatch, chunk):
        import scipy.sparse as sp

        monkeypatch.setattr(constants, "_PAIR_CHUNK", chunk)  # one pass or many
        for n, d, density in [(12, 3, 0.7), (24, 40, 0.5), (60, 200, 0.1)]:
            B = self.weighted(rng, n, d, density)
            for b in divisors(n):
                data, rows, _, run_ends = constants._column_block_runs(B, b)
                # row r of Bt is one (column, block) run: a block's own copy of a column
                Bt = sp.csr_matrix((data, rows, np.concatenate([[0], run_ends])),
                                   shape=(len(run_ends), n))
                G = (Bt.T @ Bt).toarray()
                want = np.stack([G[j:j + b, j:j + b] for j in range(0, n, b)])
                got = constants._block_grams(B, b)
                assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestOperatorNorm:
    def test_diagonal(self):
        M = np.diag([1.0, 2.0, 3.0])
        res = ss.operator_norm(lambda v: M @ v, 3, tol=1e-10)
        assert res.converged and res.value == pytest.approx(3.0, rel=1e-6)

    def test_zero_operator(self):
        res = ss.operator_norm(lambda v: np.zeros_like(v), 5)
        assert res.value == 0.0 and res.converged

    def test_two_by_two(self):
        M = np.array([[2.0, 1.0], [1.0, 2.0]])
        res = ss.operator_norm(lambda v: M @ v, 2, tol=1e-12)
        assert res.value == pytest.approx(3.0, rel=1e-9)

    def test_never_exceeds_true_norm(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 12))
            R = rng.standard_normal((n, n))
            M = R @ R.T
            true = oracles.top_eig(M)
            res = ss.operator_norm(lambda v: M @ v, n, tol=1e-4, max_iter=50)
            assert res.value <= true * (1 + 1e-12)

    def test_max_iter_flag(self):
        # 3 steps cannot resolve a top eigenvalue 1e-6 away from the next
        M = np.diag(np.r_[np.linspace(0.0, 0.999999, 49), 1.0])
        res = ss.operator_norm(lambda v: M @ v, 50, tol=1e-10, max_iter=3)
        assert not res.converged
        assert res.iterations == 3
        assert res.residual > 1e-10 * res.value

    @pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
    def test_tol_must_be_positive_and_finite(self, tol):
        # no Ritz value passes such a test, so the run would go on to k = dim
        def matvec(v):
            raise AssertionError("operator applied with an invalid tol")

        with pytest.raises(ValueError, match="tol must be positive and finite"):
            ss.operator_norm(matvec, 40, tol=tol)

    @settings(max_examples=80)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40),
           st.sampled_from(["random", "rank_deficient", "zero", "repeated", "clustered",
                            "masked_gram"]))
    def test_matches_dense_eigvalsh(self, seed, n, kind):
        """Never above lambda_max, and within tol of it once converged."""
        rng = np.random.default_rng(seed)
        if kind == "masked_gram":
            ds = random_sparse_dataset(rng, n=n, ensure_nonzero=False)
            w = rng.uniform(0.1, 10.0, n)
            b = int(rng.choice(divisors(n)))
            perm = rng.permutation(n)
            M = oracles.dense_prefix_matrix(ds.to_dense(), w, perm, b)
            matvecs = [op.matvec for op in gram_operators(ds, w, perm, b)]
        else:
            lam = rng.uniform(0.0, 1.0, n)
            if kind == "rank_deficient":
                lam[rng.random(n) < 0.7] = 0.0
            elif kind == "zero":
                lam[:] = 0.0
            elif kind == "repeated":
                lam[: int(rng.integers(1, n + 1))] = 1.0
            elif kind == "clustered":
                lam[:2] = [1.0, 1.0 - 1e-9][:n]
            U = np.linalg.qr(rng.standard_normal((n, n)))[0]
            M = (U * lam) @ U.T
            matvecs = [lambda v: M @ v]
        tol = 1e-8
        top = oracles.top_eig(M)
        for matvec in matvecs:
            res = ss.operator_norm(matvec, n, tol=tol)
            assert res.converged
            assert res.value <= top * (1 + 1e-12) + 1e-300
            assert res.value >= top * (1 - tol)
            assert res.iterations <= n

    def test_nan_operator_stops_unconverged_at_once(self):
        # NaN data must not run max_iter steps and grow a max_iter * dim basis
        res = ss.operator_norm(lambda v: np.full_like(v, np.nan), 5000)
        assert not res.converged and res.iterations == 1
        assert math.isnan(res.residual)

    def test_basis_memory_grows_with_the_steps(self):
        # min(dim, max_iter) = 10 000 basis rows would be 16 GB here
        n = 200_000
        diag = np.r_[np.random.default_rng(3).uniform(0.0, 1.0, n - 1), 3.0]
        tracemalloc.start()
        try:
            res = ss.operator_norm(lambda v: diag * v, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.converged and 5 <= res.iterations <= 16
        assert peak <= 3 * res.iterations * n * 8


class TestNonConvergedConstants:
    """A solve that stops short of its residual test must not become a constant."""

    @pytest.fixture
    def unconverged(self, monkeypatch):
        def fake(matvec, dim, tol=1e-6, max_iter=10_000):
            return ss.constants.OperatorNormResult(1.0, False, 7, 0.25)

        monkeypatch.setattr(constants, "operator_norm", fake)

    @pytest.mark.parametrize("solve", ["full_gradient_L", "hat_constant", "general_hat_L"])
    def test_raises_with_matvecs_and_residual(self, unconverged, solve):
        ds = ss.SparseDataset.from_dense(np.eye(4))
        calls = {
            "full_gradient_L": lambda: ss.full_gradient_L(ds, unit_reg(4)),
            "hat_constant": lambda: ss.hat_constant(ds, unit_reg(4), np.arange(4), 2),
            "general_hat_L": lambda: ss.general_hat_L(np.ones(4), np.arange(4), 2),
        }
        with pytest.raises(ConvergenceError, match=solve) as info:
            calls[solve]()
        assert info.value.solve == solve
        assert info.value.iterations == 7 and info.value.residual == 0.25


class TestClassicalAndFull:
    def test_classical_identity(self):
        ds = ss.SparseDataset.from_dense(np.eye(2))
        assert ss.classical_constant(ds, unit_reg(2)) == 1.0

    def test_classical_scaled_rows(self):
        ds = ss.SparseDataset.from_dense(np.array([[1.0, 0.0], [0.0, 2.0]]))
        assert ss.classical_constant(ds, unit_reg(2)) == 4.0

    def test_classical_weighted(self):
        ds = ss.SparseDataset.from_dense(np.eye(2))
        assert ss.classical_constant(ds, RegularityDiag([4.0, 1.0])) == 4.0

    def test_full_gradient_identity(self):
        ds = ss.SparseDataset.from_dense(np.eye(2))
        assert ss.full_gradient_L(ds, unit_reg(2), **TIGHT) == pytest.approx(0.5, rel=1e-9)

    def test_full_gradient_repeated_row(self):
        ds = ss.SparseDataset.from_dense(np.array([[1.0], [1.0]]))
        assert ss.full_gradient_L(ds, unit_reg(2), **TIGHT) == pytest.approx(1.0, rel=1e-9)

    def test_full_gradient_zero_matrix(self):
        ds = ss.SparseDataset.from_dense(np.zeros((2, 3)))
        assert ss.full_gradient_L(ds, unit_reg(2)) == 0.0

    def test_permutation_invariance(self, rng):
        ds = random_sparse_dataset(rng)
        reg = RegularityDiag(rng.uniform(0.1, 5.0, ds.n))
        base_L = ss.classical_constant(ds, reg)
        perm = rng.permutation(ds.n)
        permuted = ss.SparseDataset.from_dense(ds.to_dense()[perm], labels=ds.labels[perm])
        reg_p = RegularityDiag(reg.values[perm])
        assert ss.classical_constant(permuted, reg_p) == pytest.approx(base_L, rel=1e-12)
        assert ss.full_gradient_L(permuted, reg_p, **TIGHT) == pytest.approx(
            ss.full_gradient_L(ds, reg, **TIGHT), rel=1e-8
        )


class TestHatConstant:
    def test_identity_two(self):
        ds = ss.SparseDataset.from_dense(np.eye(2))
        assert ss.hat_constant(ds, unit_reg(2), [0, 1], 1, **TIGHT) == pytest.approx(0.5, rel=1e-9)

    def test_identity_ratio_is_n(self):
        for n in (2, 8):
            ds = ss.SparseDataset.from_dense(np.eye(n))
            hat = ss.hat_constant(ds, unit_reg(n), np.arange(n), 1, **TIGHT)
            assert hat == pytest.approx(1.0 / n, rel=1e-8)

    def test_repeated_row_closed_form(self):
        ds = ss.SparseDataset.from_dense(np.array([[1.0], [1.0]]))
        expected = (3.0 + math.sqrt(5.0)) / 8.0
        assert ss.hat_constant(ds, unit_reg(2), [0, 1], 1, **TIGHT) == pytest.approx(
            expected, rel=1e-10
        )

    def test_b_equals_n_reduction(self, rng):
        for _ in range(10):
            ds = random_sparse_dataset(rng)
            w = rng.uniform(0.1, 10.0, ds.n)
            reg = RegularityDiag(w)
            hat = ss.hat_constant(ds, reg, rng.permutation(ds.n), ds.n, **TIGHT)
            assert hat == pytest.approx(
                oracles.dense_full_gradient(ds.to_dense(), w), rel=1e-8
            )

    def test_divisibility_enforced(self):
        ds = ss.SparseDataset.from_dense(np.eye(3))
        with pytest.raises(ValueError):
            ss.hat_constant(ds, unit_reg(3), [0, 1, 2], 2)

    def test_matches_dense_oracle(self, rng):
        for _ in range(15):
            ds = random_sparse_dataset(rng)
            w = rng.uniform(0.1, 10.0, ds.n)
            b = int(rng.choice(divisors(ds.n)))
            perm = rng.permutation(ds.n)
            ref = oracles.dense_hat(ds.to_dense(), w, perm, b)
            for path in GRAM_PATHS:
                with gram_path(path):
                    mine = ss.hat_constant(ds, RegularityDiag(w), perm, b, **TIGHT)
                assert mine == pytest.approx(ref, rel=1e-7, abs=1e-12)


class TestTildeConstant:
    def test_b1_equals_classical(self, rng):
        for _ in range(10):
            ds = random_sparse_dataset(rng)
            reg = RegularityDiag(rng.uniform(0.1, 10.0, ds.n))
            til = ss.tilde_constant(ds, reg, rng.permutation(ds.n), 1)
            assert til == pytest.approx(ss.classical_constant(ds, reg), rel=1e-12)

    def test_identity_b2(self):
        ds = ss.SparseDataset.from_dense(np.eye(2))
        assert ss.tilde_constant(ds, unit_reg(2), [0, 1], 2) == pytest.approx(0.5)

    def test_repeated_row_b2(self):
        ds = ss.SparseDataset.from_dense(np.array([[1.0], [1.0]]))
        assert ss.tilde_constant(ds, unit_reg(2), [0, 1], 2) == pytest.approx(1.0)

    def test_matches_dense_oracle(self, rng):
        for _ in range(15):
            ds = random_sparse_dataset(rng)
            w = rng.uniform(0.1, 10.0, ds.n)
            b = int(rng.choice(divisors(ds.n)))
            perm = rng.permutation(ds.n)
            ref = oracles.dense_tilde(ds.to_dense(), w, perm, b)
            for path in GRAM_PATHS:
                with gram_path(path):
                    mine = ss.tilde_constant(ds, RegularityDiag(w), perm, b)
                assert mine == pytest.approx(ref, rel=1e-7, abs=1e-12)

    def test_block_eigenvalues_match_blockdiag_oracle(self, rng):
        for _ in range(25):
            ds = random_sparse_dataset(rng, ensure_nonzero=False)
            w = rng.uniform(0.1, 10.0, ds.n)
            b = int(rng.choice(divisors(ds.n)))
            perm = rng.permutation(ds.n)
            M = oracles.dense_blockdiag_matrix(ds.to_dense(), w, perm, b)
            ref = [oracles.top_eig(M[j * b : (j + 1) * b, j * b : (j + 1) * b])
                   for j in range(ds.n // b)]
            for path in GRAM_PATHS:
                with gram_path(path):
                    mine = constants.block_top_eigenvalues(ds, w, perm, b)
                assert np.allclose(mine, ref, rtol=1e-10, atol=1e-10)

    @settings(max_examples=40)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["any", "one", "all"]))
    def test_matches_dense_oracle_edge_shapes(self, seed, batch):
        """Empty rows, all-zero columns, d = 1, b = 1 and b = n."""
        rng = np.random.default_rng(seed)
        ds = _edge_dataset(rng)
        b = {"any": int(rng.choice(divisors(ds.n))), "one": 1, "all": ds.n}[batch]
        w = rng.uniform(0.1, 10.0, ds.n)
        perm = rng.permutation(ds.n)
        ref = oracles.dense_tilde(ds.to_dense(), w, perm, b)
        for path in GRAM_PATHS:
            with gram_path(path):
                mine = ss.tilde_constant(ds, RegularityDiag(w), perm, b)
            assert mine == pytest.approx(ref, rel=1e-10, abs=1e-10)


class TestRelaxationChain:
    @settings(max_examples=30)
    @given(st.integers(0, 2**32 - 1))
    def test_hat_below_trace_below_classical(self, seed):
        rng = np.random.default_rng(seed)
        ds = random_sparse_dataset(rng)
        w = rng.uniform(0.1, 10.0, ds.n)
        reg = RegularityDiag(w)
        b = int(rng.choice(divisors(ds.n)))
        perm = rng.permutation(ds.n)
        hat = ss.hat_constant(ds, reg, perm, b, tol=1e-8)
        trace = float(np.sum(w * ss.row_sq_norms(ds)) / ds.n)
        L = ss.classical_constant(ds, reg)
        assert hat <= trace + 1e-9 * max(L, 1.0)
        assert trace <= ds.n * L + 1e-9  # trace of the weighted Gram over n
        til = ss.tilde_constant(ds, reg, perm, b)
        assert til <= L + 1e-9 * max(L, 1.0)


class TestZeroColumns:
    # n x d with k nonzeros a row; the size rule puts each in one form
    @pytest.mark.parametrize("n, d, k, form", [
        pytest.param(24, 5, 5, "dense", id="dense"),
        pytest.param(60, 40, 3, "prefix-sum", id="prefix-sum"),
    ])
    def test_constants_and_runs_ignore_zero_columns(self, rng, n, d, k, form):
        """All-zero columns appended to A leave every constant and every
        iterate's objective as they were."""
        cols = np.sort(np.argsort(rng.random((n, d)), axis=1)[:, :k], axis=1)
        arrays = (np.arange(n + 1) * k, cols.ravel(), rng.standard_normal(n * k),
                  rng.choice([-1.0, 1.0], n))
        ds, wide = ss.SparseDataset(*arrays, d), ss.SparseDataset(*arrays, d + 4)
        for A in (ds, wide):
            assert constants._dense_gram(A.n, A.d, A.nnz) is (form == "dense")
        reg = RegularityDiag(rng.uniform(0.5, 2.0, n))
        perm = rng.permutation(n)

        def measured(A):
            model = LossModel.for_dataset("squared", A)
            result = ss.run(A, model, ss.ShufflePlan("RR", seed=3),
                            ss.RunConfig(batch=2, epochs=3, step=0.01))
            return ([ss.classical_constant(A, reg), ss.full_gradient_L(A, reg)]
                    + [ss.hat_constant(A, reg, perm, b) for b in (1, 2)]
                    + [ss.tilde_constant(A, reg, perm, b) for b in (1, 2)]
                    + list(result.objectives) + list(result.objectives_avg))

        assert measured(wide) == measured(ds)


class TestGeneralConstants:
    def test_all_ones_n2(self):
        expected = (3.0 + math.sqrt(5.0)) / 8.0
        assert ss.general_hat_L([1.0, 1.0], [0, 1], 1, **TIGHT) == pytest.approx(
            expected, rel=1e-9
        )

    def test_single_component(self):
        assert ss.general_hat_L([7.0], [0], 1, **TIGHT) == pytest.approx(7.0, rel=1e-9)

    def test_tilde_closed_forms(self):
        assert ss.general_tilde_L([1.0, 3.0], [0, 1], 1) == 3.0
        assert ss.general_tilde_L([1.0, 3.0], [0, 1], 2) == 2.0
        assert ss.general_tilde_L([4.0, 2.0, 6.0, 0.1], [0, 1, 2, 3], 2) == pytest.approx(3.05)

    @settings(max_examples=30)
    @given(st.integers(0, 2**32 - 1))
    def test_bounded_by_mean_and_max(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.choice([2, 4, 6, 8, 12]))
        L = rng.uniform(0.1, 10.0, n)
        perm = rng.permutation(n)
        for b in divisors(n):
            assert ss.general_tilde_L(L, perm, b) <= L.max() + 1e-12
            hat = ss.general_hat_L(L, perm, b, tol=1e-9)
            assert hat <= L.mean() + 1e-9 * max(L.max(), 1.0)

    def test_matches_glm_hat_with_unit_rows(self, rng):
        # scalar rows a_i = 1 with weights L_i reproduce the finite-sum constant
        n = 6
        L = rng.uniform(0.5, 4.0, n)
        perm = rng.permutation(n)
        ds = ss.SparseDataset.from_dense(np.ones((n, 1)))
        reg = RegularityDiag(L)
        for b in (1, 2, 3, 6):
            assert ss.general_hat_L(L, perm, b, **TIGHT) == pytest.approx(
                ss.hat_constant(ds, reg, perm, b, **TIGHT), rel=1e-9
            )


class TestRatioStats:
    def test_identity_data_every_sample_n(self):
        n = 6
        ds = ss.SparseDataset.from_dense(np.eye(n))
        report = ss.ratio_stats(ds, unit_reg(n), b=1, num_perms=8, seed=3, tol=1e-10)
        assert np.allclose(report.ratios, n, rtol=1e-7)
        assert report.ratio_summary["mean"] == pytest.approx(n, rel=1e-7)

    def test_deterministic(self, rng):
        ds = random_sparse_dataset(rng, n=12)
        reg = unit_reg(12)
        r1 = ss.ratio_stats(ds, reg, b=2, num_perms=5, seed=9)
        r2 = ss.ratio_stats(ds, reg, b=2, num_perms=5, seed=9)
        assert np.array_equal(r1.hatL_values, r2.hatL_values)

    def test_b1_tilde_is_the_worst_row_of_each_permutation(self, rng):
        # with the row norms computed once, every b = 1 tilde is still the
        # classical constant: the largest w_i ||a_i||^2, each row's squares
        # summed in order
        ds = random_sparse_dataset(rng, n=10)
        w = rng.uniform(0.5, 2.0, ds.n)
        report = ss.ratio_stats(ds, RegularityDiag(w), b=1, num_perms=6, seed=4)
        worst = max(w[i] * sum(float(v) * float(v) for v in ds.row(i)[1]) for i in range(ds.n))
        assert report.tildeL_values.tolist() == [worst] * 6
        assert report.L == worst

    def test_relaxation_chain_refused_at_small_scale(self):
        # values 500 times over their bounds, at a scale far below 1
        fields = dict(L=1e-12, trace_bound=1e-12, b=1, seed=0, tolerance=1e-6)
        with pytest.raises(AssertionError, match="trace bound"):
            ss.ConstantsReport(**fields, hatL_values=np.array([5e-10]),
                               tildeL_values=np.array([5e-10]))
        with pytest.raises(AssertionError, match="classical constant"):
            ss.ConstantsReport(**fields, hatL_values=np.array([1e-12]),
                               tildeL_values=np.array([5e-10]))

    @pytest.mark.parametrize("path", GRAM_PATHS)
    def test_relaxation_chain_holds_on_scaled_data(self, path):
        g = ss.gen_gaussian(12, 4, seed=5)
        ds = ss.SparseDataset(g.indptr, g.indices, g.values * 1e-6, g.labels, g.d)
        with gram_path(path):
            report = ss.ratio_stats(ds, unit_reg(12), b=2, num_perms=4, seed=1)
        assert report.L < 1e-10
        assert np.all(report.hatL_values <= report.trace_bound * (1 + 1e-9))
        assert np.all(report.tildeL_values <= report.L * (1 + 1e-9))

    def test_csv_rows_shape(self, rng):
        ds = random_sparse_dataset(rng, n=8)
        report = ss.ratio_stats(ds, unit_reg(8), b=1, num_perms=3, seed=0)
        rows = report.to_csv_rows()
        assert rows[0] == ("perm_seed", "hatL", "tildeL", "ratio")
        assert len(rows) == 4

    def test_json_dict_versioned(self, rng):
        ds = random_sparse_dataset(rng, n=8)
        report = ss.ratio_stats(ds, unit_reg(8), b=1, num_perms=3, seed=0)
        payload = report.to_json_dict()
        assert payload["schema_version"] == 1
        assert "hatL" in payload and "ratios_L_over_hatL" in payload
        assert len(payload["hatL_values"]) == 3
        assert len(payload["ratios"]) == 3


class TestOptimumQuantities:
    def test_sigma_star_interpolation(self):
        ds = ss.SparseDataset.from_dense(np.eye(2), labels=[1.0, 2.0])
        m = LossModel.for_dataset("squared", ds)
        assert ss.sigma_star(ds, m, np.array([1.0, 2.0])) == 0.0

    def test_sigma_star_scalar(self):
        ds = ss.SparseDataset.from_dense(np.array([[1.0], [1.0]]), labels=[0.0, 2.0])
        m = LossModel.for_dataset("squared", ds)
        assert ss.sigma_star(ds, m, np.array([1.0])) == pytest.approx(1.0)

    def test_sigma_star_row_scaling(self):
        ds = ss.SparseDataset.from_dense(np.array([[1.0], [1.0]]), labels=[0.0, 2.0])
        m = LossModel.for_dataset("squared", ds)
        s1 = ss.sigma_star(ds, m, np.array([1.0]))
        ds2 = ss.SparseDataset.from_dense(np.array([[2.0], [2.0]]), labels=[0.0, 2.0])
        m2 = LossModel.for_dataset("squared", ds2)
        # optimum of (2x-0)^2 + (2x-2)^2 is x=1/2; residuals double, norms quadruple
        s2 = ss.sigma_star(ds2, m2, np.array([0.5]))
        assert s2 == pytest.approx(2.0 * s1)

    def test_sigma_star_rejects_nonstationary(self):
        ds = ss.SparseDataset.from_dense(np.eye(2), labels=[1.0, 2.0])
        m = LossModel.for_dataset("squared", ds)
        with pytest.raises(StationarityError):
            ss.sigma_star(ds, m, np.array([5.0, 5.0]))

    def test_ystar_norm_interpolation_zero(self):
        ds = ss.SparseDataset.from_dense(np.eye(2), labels=[1.0, 2.0])
        m = LossModel.for_dataset("squared", ds)
        assert ss.ystar_weighted_norm(ds, m, np.array([1.0, 2.0])) == 0.0

    def test_ystar_norm_formula(self):
        # y* = (1, -1) with unit smoothness gives sqrt(2)
        ds = ss.SparseDataset.from_dense(np.array([[1.0], [1.0]]), labels=[0.0, 2.0])
        m = LossModel.for_dataset("squared", ds)
        assert ss.ystar_weighted_norm(ds, m, np.array([1.0])) == pytest.approx(math.sqrt(2.0))

    def test_ystar_norm_weighted(self):
        # logistic with labels (4, -2): L_i = t_i^2 / 4 = (4, 1). At x* = 0,
        # y*_i = -t_i / 2 = (-2, 1) and the gradient (1/2)(-2 * 1 + 1 * 2)
        # is 0, so the norm is sqrt(4/4 + 1/1) = sqrt(2), not |y*| = sqrt(5)
        ds = ss.SparseDataset.from_dense(np.array([[1.0], [2.0]]), labels=[4.0, -2.0])
        m = LossModel.for_dataset("logistic", ds)
        assert np.array_equal(ss.regularity(m).values, [4.0, 1.0])
        assert ss.ystar_weighted_norm(ds, m, np.array([0.0])) == pytest.approx(math.sqrt(2.0))


class TestReferenceMinimizer:
    def test_identity_closed_form(self):
        ds = ss.SparseDataset.from_dense(np.eye(2), labels=[1.0, 2.0])
        m = LossModel.for_dataset("squared", ds)
        res = ss.reference_minimizer(ds, m, tol=1e-10)
        assert res.converged and res.reason == "converged"
        assert np.allclose(res.x, [1.0, 2.0], atol=1e-8)

    def test_normal_equations(self):
        ds = ss.SparseDataset.from_dense(np.array([[1.0], [1.0]]), labels=[0.0, 2.0])
        m = LossModel.for_dataset("squared", ds)
        res = ss.reference_minimizer(ds, m, tol=1e-12)
        assert res.x[0] == pytest.approx(1.0, abs=1e-10)

    def test_zero_data_already_stationary(self):
        ds = ss.SparseDataset.from_dense(np.zeros((2, 2)))
        m = LossModel.for_dataset("squared", ds)
        res = ss.reference_minimizer(ds, m)
        assert res.converged and np.allclose(res.x, 0.0)

    def test_random_least_squares_matches_lstsq(self, rng):
        A = rng.standard_normal((16, 4))
        t = rng.standard_normal(16)
        ds = ss.SparseDataset.from_dense(A, labels=t)
        m = LossModel.for_dataset("squared", ds)
        res = ss.reference_minimizer(ds, m, tol=1e-10)
        x_ref = np.linalg.lstsq(A, t, rcond=None)[0]
        assert res.converged
        assert np.allclose(res.x, x_ref, atol=1e-7)

    def test_nonconvergence_flagged(self):
        # separable logistic problem has no finite minimizer
        ds = ss.SparseDataset.from_dense(np.array([[1.0], [2.0]]), labels=[1.0, 1.0])
        m = LossModel.for_dataset("logistic", ds)
        res = ss.reference_minimizer(ds, m, tol=1e-10, max_iter=200)
        assert not res.converged and res.reason == "max_iter"

    def test_overlapping_logistic_not_flagged_unbounded(self, rng):
        # noisy labels make the classes overlap: the separability LP finds no
        # direction of unbounded descent, and gradient descent converges
        for _ in range(5):
            A = rng.standard_normal((12, 3))
            t = np.where(A @ np.array([1.0, -0.5, 0.25]) > 0, 1.0, -1.0)
            flips = rng.random(12) < 0.35
            t[flips] = -t[flips]
            ds = ss.SparseDataset.from_dense(A, labels=t)
            m = LossModel.for_dataset("logistic", ds)
            assert not _logistic_unbounded(ds, m)
            ref = ss.reference_minimizer(ds, m, tol=1e-8)
            assert ref.converged and ref.iterations > 0
            assert ref.reason == "converged"

    def test_separable_logistic_stops_at_separability_check(self):
        ds = ss.SparseDataset.from_dense(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
                                         labels=[1.0, 1.0, 1.0])
        ref = ss.reference_minimizer(ds, LossModel.for_dataset("logistic", ds))
        assert not ref.converged and ref.reason == "no_finite_minimizer"
        assert ref.iterations == _SEPARABILITY_CHECK_AT - 1


class TestGbar:
    def test_positive_and_deterministic(self, rng):
        ds = random_sparse_dataset(rng, n=8)
        m = LossModel.for_dataset("hinge", ds)
        reg = ss.regularity(m)
        g1 = ss.gbar_estimate(ds, reg, b=2, num_perms=5, seed=1)
        g2 = ss.gbar_estimate(ds, reg, b=2, num_perms=5, seed=1)
        assert g1 == g2 > 0

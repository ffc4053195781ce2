"""Data-dependent smoothness/Lipschitz constants via Lanczos spectral norms.

Let B be the permuted, regularity-weighted data matrix with rows
b_i = sqrt(w_{perm_i}) a_{perm_i} (w holds L_i for smooth losses, G_i^2 for
Lipschitz ones) and split the n rows into m = n/b consecutive blocks B_j.
The prefix-masked Gram sum

  M = sum_j P_j B B^T P_j, where P_j zeroes the rows before block j,

is entrywise M = (B B^T) o C with C[k, l] = min(block(k), block(l)) + 1,
which is what the dense oracle in the tests builds. The constants:

  classical_constant   max_i w_i ||a_i||^2
  full_gradient_L      (1/n) ||B B^T||
  hat_constant         (1/(m n)) ||M||
  tilde_constant       (1/b) max over blocks of ||B_j B_j^T||

and the general finite-sum variants reduce to the same masked structure on
the 1-column matrix with rows sqrt(w_{perm_i}).

||M|| and ||B B^T|| come from Lanczos with full reorthogonalisation. A
solve stops once the Ritz residual is at most tol (by default LANCZOS_TOL)
times the Ritz value, and a constant whose solve did not get there raises
ConvergenceError instead of returning a possibly low value. tilde is exact:
a batched symmetric eigensolver takes the top eigenvalues of all m block
Grams.

M and the block Grams have two representations, chosen by one size rule
on n, d and nnz(B) alone (_dense_gram, applied once per permutation by
_gram_rows; no flag or environment variable selects one). Where n^2 is
small against nnz(B) and the dense arrays fit a fixed cap, M is formed
once as a dense n x n array, so a matvec is one BLAS product, and the
block Grams are one batched product of the dense blocks.
Elsewhere both stay matrix-free: the prefix-masked matvec costs O(nnz(B))
time and memory per step (segmented prefix sums over the nonzeros; no
m x d buffer), and the block Grams are pair sums: entry (k, l) of a block's
Gram adds v_k v_l over the pairs of nonzeros of rows k and l that share a
column. The two agree to roundoff. All of it runs on the CSR arrays with
numpy; only the logistic separability LP (_logistic_unbounded) builds a
scipy matrix, and reference_minimizer, which supplies the optimum that
sigma_star and ystar_weighted_norm read (L-BFGS, no spectral solve), calls
it only when its last iterate neither separates the data strictly nor
certifies that a finite minimizer exists.

Memory, above the dataset: the dense form holds the n x n Gram, at most
128 bytes per nonzero under the size rule, plus the dense B (DenseRows)
and, while the mask is applied, an int32 n x n array (at 208 x 60, b = 4,
a hat call peaks at 55 bytes per nonzero, a tilde call at 16, once the
dataset's row ids are cached: 8 more on a first call). The prefix-sum form
reads one column-ordered copy of B (ColumnRuns, about 24 bytes per
nonzero), which ratio_stats builds once per permutation for both
constants; the operator adds each nonzero's block factor and run end (16)
and three work buffers (24), and nothing of length d. On rcv1-shaped
inputs (74 nonzeros a row, b = 2 and 10) a hat call peaks at 74-82 bytes
per nonzero, the Lanczos basis (8 n bytes a step) included, and a tilde
call at about 65.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import prng
from .data import (SparseDataset, check_permutation, permuted_nonzeros, row_ids,
                   row_sq_norms)
from .losses import (LossModel, RegularityDiag, conjugate_pair, derivative_vec, full_gradient,
                     regularity, sigmoid, value_vec)
from .shuffle import check_batch, random_permutation, trial_stream

SCHEMA_VERSION = 1

# Lanczos stops by default once the Ritz residual is at most this times the
# Ritz value: hat, full_gradient_L and general_hat_L (analyze's "tolerance")
LANCZOS_TOL = 1e-6


class StationarityError(ValueError):
    """Supplied point failed the gradient-norm check for a minimizer."""

    def __init__(self, grad_norm, tol):
        self.grad_norm = grad_norm
        super().__init__(
            f"point is not stationary: ||grad f|| = {grad_norm:.3e} > tol = {tol:.3e}"
        )


class DenseRows(NamedTuple):
    """An n x d matrix B as a dense array, with the nonzero count of the
    dataset it was built from."""

    A: np.ndarray
    nnz: int


# The Gram is formed densely when n^2 <= _DENSE_COST * nnz: a dense matvec's
# n^2 flops against the prefix-sum matvec's few passes over the nonzeros.
# On 2 cores the two paths cost about the same from n^2 / nnz = 30 to 70
# (the crossover table in BENCH_16.json), so the cost part keeps a margin
# of two; below it the dense path measured 1.6-6.5 times faster for hat.
# The dense B and Gram, n (n + d) floats, are also capped at 64 MB whatever
# the speed; the int32 mask adds half the Gram while it is applied.
_DENSE_COST = 16
_DENSE_MAX_FLOATS = 1 << 23


def _dense_gram(n: int, d: int, nnz: int) -> bool:
    """True when the n x n Gram of an n x d, nnz-nonzero B is formed densely."""
    return n * n <= _DENSE_COST * nnz and n * (n + d) <= _DENSE_MAX_FLOATS


class ColumnRuns(NamedTuple):
    """An n x d matrix B as its nonzeros in (column, block) order for blocks
    of `batch` rows (_column_block_runs): values and rows, the bounds of the
    nonempty columns (column c's nonzeros are col_ptr[c]:col_ptr[c + 1], so
    nothing here has length d) and the end offsets of the runs that share a
    column and a block."""

    values: np.ndarray
    rows: np.ndarray
    col_ptr: np.ndarray
    run_ends: np.ndarray
    n: int
    d: int
    batch: int

    @property
    def nnz(self) -> int:
        return len(self.values)


def _column_block_runs(rows, indices, values, n: int, d: int, batch: int) -> ColumnRuns:
    """The n x d matrix with nonzeros (rows, indices, values), given in
    row-major order with each row's columns increasing, in (column, block)
    order for blocks of `batch` rows.

    A stable sort by column keeps each column's nonzeros in row order, hence
    in block order: the CSC layout. The columns are sorted as the smallest
    integer type that holds them, on which numpy sorts by radix (up to 16
    bits). Rows come back as intp, so later gathers with them need no
    conversion."""
    order = np.argsort(indices.astype(np.min_scalar_type(d - 1)), kind="stable")
    indptr = np.zeros(d + 1, dtype=np.intp)
    np.cumsum(np.bincount(indices, minlength=d), out=indptr[1:])
    rows = rows[order].astype(np.intp, copy=False)
    blk = rows // batch
    # a run ends at every column pointer and wherever the block changes;
    # offset 0 (marked by leading empty columns) ends none
    end = np.zeros(len(rows) + 1, dtype=bool)
    end[indptr] = True
    end[1:-1] |= blk[1:] != blk[:-1]
    end[0] = False
    return ColumnRuns(values[order], rows, np.unique(indptr), np.flatnonzero(end), n, d, batch)


def _weights(values) -> np.ndarray:
    """Regularity weights (L_i or G_i^2) as float64: each must be finite and
    nonnegative (an empty row's L_i is 0)."""
    w = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(w) & (w >= 0)):
        raise ValueError("weights must be finite and nonnegative")
    return w


def _row_weights(ds: SparseDataset, values) -> np.ndarray:
    """_weights(values), which must hold one entry per row of ds."""
    w = _weights(values)
    if w.shape != (ds.n,):
        raise ValueError(f"weights must have one entry per row: {w.shape} for n = {ds.n}")
    return w


def _gram_rows(ds: SparseDataset, weights, perm, b: int) -> DenseRows | ColumnRuns:
    """The weighted rows sqrt(w_{perm_i}) * a_{perm_i} of one permutation, in
    the form its Grams read: dense where _dense_gram forms them densely,
    else in (column, block) order for blocks of b rows. This is the one
    place the size rule is applied."""
    w = _row_weights(ds, weights)
    if _dense_gram(ds.n, ds.d, ds.nnz):
        perm = check_permutation(perm, ds.n)
        A = ds.to_dense()[perm]
        A *= np.sqrt(w[perm])[:, None]
        return DenseRows(A, ds.nnz)
    perm, indptr, src = permuted_nonzeros(ds, perm)
    rows = np.repeat(np.arange(ds.n, dtype=np.int64), np.diff(indptr))
    values = ds.values[src]
    values *= np.sqrt(w[perm])[rows]
    indices = ds.indices[src]
    del src  # before the column sort, which holds the most at once
    return _column_block_runs(rows, indices, values, ds.n, ds.d, b)


class MaskedGramOperator:
    """The n x n prefix-masked Gram sum (B B^T) o C, in one of two forms.

    Dense (DenseRows): the masked Gram is formed once as an n x n array
    from the dense B, and a matvec is one BLAS product.

    Prefix-sum (ColumnRuns), matrix-free: with
    W[p] = sum_q (min(p, q) + 1) t_q, where t_q = B_q^T v_q is block q's
    contribution, row k of the product is b_k . W[block(k)]. Splitting the
    sum at q = p gives W[p] = (p+1)(T - R_p) + U_p, with T the total of the
    t_q and R_p / U_p their plain / (q+1)-weighted prefix sums over q <= p.
    Per column these are segmented prefix sums over the nonzeros in
    (column, block) order, so a matvec costs O(nnz) time and memory. The
    operator keeps only the column-ordered copy of B (as self.B), each
    nonzero's block factor and run end, and three work buffers.
    """

    def __init__(self, B: DenseRows | ColumnRuns, batch: int):
        self.B = B
        dense = isinstance(B, DenseRows)
        self.n, self.d = B.A.shape if dense else (B.n, B.d)
        self.m = check_batch(self.n, batch)
        self._M = None
        if dense:
            # C[k, l] = min(block(k), block(l)) + 1, as int32: half the size
            # of a float mask, and the multiply casts it in small buffers
            blk1 = np.arange(self.n, dtype=np.int32) // batch + 1
            self._M = B.A @ B.A.T
            self._M *= np.minimum.outer(blk1, blk1)
            return
        if B.batch != batch:
            raise ValueError(f"column runs were cut at batch {B.batch}, not {batch}")
        self._blk1 = B.rows // batch + 1.0
        # each nonzero's run end: sums over [col_start, run_end) give R_p and
        # U_p, and [run_end, col_end) gives T - R_p
        self._grp_end = np.repeat(B.run_ends, np.diff(B.run_ends, prepend=0))
        self._col_len = np.diff(B.col_ptr)
        # work buffers reused by every matvec: fresh nnz-sized temporaries
        # cost more in page faults than the arithmetic on them (so one
        # instance must not run matvecs from two threads at once)
        self._work = np.empty(B.nnz), np.zeros(B.nnz + 1), np.zeros(B.nnz + 1)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.n,):
            raise ValueError(f"expected vector of length {self.n}")
        if self._M is not None:
            return self._M @ v
        B = self.B
        w, s1, s2 = self._work
        g, lens = self._grp_end, self._col_len
        # indices are in range by construction; "clip" skips take's bounds
        # check and the copy that comes with it
        np.take(v, B.rows, out=w, mode="clip")
        w *= B.values
        np.cumsum(w, out=s1[1:])
        w *= self._blk1
        np.cumsum(w, out=s2[1:])
        # w = (p+1) (T - R_p) + U_p, then scaled by the nonzero's value; the
        # sums at each column's end and start repeat over its nonzeros
        np.subtract(np.repeat(s1[B.col_ptr[1:]], lens), np.take(s1, g, out=w, mode="clip"),
                    out=w)
        w *= self._blk1
        w += np.take(s2, g, out=s1[1:], mode="clip")  # s1 is spent
        w -= np.repeat(s2[B.col_ptr[:-1]], lens)
        w *= B.values
        return np.bincount(B.rows, weights=w, minlength=self.n)


class OperatorNormResult(NamedTuple):
    value: float
    converged: bool
    iterations: int  # matvecs
    residual: float  # Ritz residual ||A y - theta y|| of the returned value


class ConvergenceError(RuntimeError):
    """A spectral solve behind a constant stopped before its residual test
    held, so its value may sit below the constant by more than tol."""

    def __init__(self, solve: str, res: OperatorNormResult, tol: float):
        self.solve = solve
        self.iterations = res.iterations
        self.residual = res.residual
        super().__init__(
            f"{solve}: Lanczos did not converge in {res.iterations} matvecs "
            f"(Ritz residual {res.residual:.3e} > tol * value = {tol * res.value:.3e})"
        )


@functools.lru_cache(maxsize=4)
def _start_vector(dim: int) -> np.ndarray:
    """operator_norm's seeded random unit start of length dim, drawn once
    per dim and read-only."""
    v = prng.random_unit_vector(prng.generator(prng.substream(0, prng.DOMAIN_POWER)), dim)
    v.flags.writeable = False
    return v


def operator_norm(
    matvec: Callable[[np.ndarray], np.ndarray], dim: int, tol: float = LANCZOS_TOL,
    max_iter: int = 10_000,
) -> OperatorNormResult:
    """Largest eigenvalue of a symmetric PSD operator by Lanczos.

    Starts from a seeded random unit vector (the same for every call of a
    given dim) and keeps the Krylov basis fully reorthogonalised (two
    classical Gram-Schmidt passes per step). The value is the top
    eigenvalue theta of the tridiagonal projection T_k, and the run stops
    once the Ritz residual beta_k |s_k| (s the top eigenvector of T_k) is at
    most tol * theta, or once the Krylov space is exhausted (k = dim or
    beta_k = 0), where theta is exact. From a random
    start this finds the top eigenvalue with high probability (Kuczynski and
    Wozniakowski, 1992). A Ritz value never exceeds the top eigenvalue in
    exact arithmetic (in floating point by about 1e-15 relative), so
    chain-inequality checks cannot fail spuriously. `iterations` counts
    matvecs; a NaN or inf from the operator ends the run unconverged. A tol
    that is not positive and finite is a ValueError: no Ritz value passes
    it, so the run would go on to k = dim.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    steps = min(dim, max_iter)
    # the basis rows; grown by doubling, so it holds O(k * dim) floats after
    # k steps rather than a min(dim, max_iter) * dim block allocated up front
    Q = np.empty((min(steps, 16), dim))
    Q[0] = _start_vector(dim)
    # the tridiagonal T, alpha on its diagonal and beta below it; grown with Q
    T = np.zeros((len(Q), len(Q)))
    for k in range(1, steps + 1):
        basis = Q[:k]
        w = matvec(Q[k - 1])
        h = basis @ w
        w = w - h @ basis  # a new array: the matvec's output may alias its input
        w -= (basis @ w) @ basis
        T[k - 1, k - 1] = h[-1]
        beta = float(np.linalg.norm(w))
        # the top eigenpair of T_k, read from its lower triangle only
        evals, evecs = np.linalg.eigh(T[:k, :k])
        theta = float(evals[-1])
        resid = beta * abs(float(evecs[-1, -1]))
        if k == dim or beta == 0.0 or resid <= tol * theta:
            return OperatorNormResult(max(theta, 0.0), True, k, resid)
        if k == steps or not math.isfinite(resid):
            break  # out of steps, or NaN/inf from the operator: no estimate
        if k == len(Q):
            grown = np.empty((min(2 * k, steps), dim))
            grown[:k] = Q
            Q = grown
            T = np.pad(T, (0, len(Q) - k))
        T[k, k - 1] = beta
        np.divide(w, beta, out=Q[k])
    return OperatorNormResult(max(theta, 0.0), False, k, resid)


def _converged_value(solve: str, res: OperatorNormResult, tol: float) -> float:
    if not res.converged:
        raise ConvergenceError(solve, res, tol)
    return res.value


def classical_constant(ds: SparseDataset, reg: RegularityDiag) -> float:
    """max_i w_i ||a_i||^2 (the worst-row constant; permutation invariant)."""
    return float(np.max(_row_weights(ds, reg.values) * row_sq_norms(ds)))


def full_gradient_L(ds: SparseDataset, reg: RegularityDiag, tol: float = LANCZOS_TOL) -> float:
    """(1/n) || B B^T || for the weighted matrix B = diag(s) A, s = sqrt(w)
    (permutation invariant)."""
    s = np.sqrt(_row_weights(ds, reg.values))

    def mv(v):
        return s * ds.matvec(ds.rmatvec(s * v))

    res = operator_norm(mv, ds.n, tol=tol)
    return _converged_value("full_gradient_L", res, tol) / ds.n


def hat_constant(ds: SparseDataset, reg: RegularityDiag, perm, b: int, tol: float = LANCZOS_TOL,
                 B=None) -> float:
    """(1/(m n)) || prefix-masked Gram sum || for one permutation.

    B, if given, is _gram_rows(ds, reg.values, perm, b), built once for
    both constants of a permutation."""
    m = check_batch(ds.n, b)
    op = MaskedGramOperator(_gram_rows(ds, reg.values, perm, b) if B is None else B, b)
    res = operator_norm(op.matvec, ds.n, tol=tol)
    return _converged_value("hat_constant", res, tol) / (m * ds.n)


# Pairs of nonzeros that _block_grams adds in one pass. A pass's
# temporaries take about 40 bytes a pair, so it holds about 10 MB whatever
# the input, where all pairs at once could take O(n b d).
_PAIR_CHUNK = 1 << 18


def _block_grams(runs: ColumnRuns, b: int) -> np.ndarray:
    """Every diagonal block Gram B_j B_j^T of B in (column, block) order, as
    an (m, b, b) array.

    Entry (k, l) of a block's Gram adds v_k v_l over the columns that rows
    k and l share: over the (column, block) runs that hold both. The
    diagonal is each row's sum of squares. A strictly lower entry adds one
    term per run, from the pair of nonzeros that holds row k (the later one)
    and row l; the pairs go to np.add.at in the order of their later nonzero,
    in passes of about _PAIR_CHUNK pairs. So each entry adds its terms from
    0 in column order, as a sparse product B_j B_j^T adds them, and the
    upper triangle is the mirror image of the lower."""
    if runs.batch != b:
        raise ValueError(f"column runs were cut at batch {runs.batch}, not {b}")
    n, m = runs.n, runs.n // b
    data, rows, run_ends = runs.values, runs.rows, runs.run_ends
    lens = np.diff(run_ends, prepend=0)
    # each nonzero pairs with the nonzeros before it in its run
    before = np.arange(len(data)) - np.repeat(run_ends - lens, lens)
    later = np.flatnonzero(before)
    reps = before[later]
    pair_ends = np.cumsum(reps)
    k = np.arange(n)
    grams = np.zeros((m, b, b))
    # in (column, block) order each row's nonzeros still come in column order
    grams[k // b, k % b, k % b] = np.bincount(rows, weights=data * data, minlength=n)
    flat = grams.reshape(-1)  # entry (k, l) of row k's block is bin k b + l mod b
    lo = 0
    while lo < len(later):
        first = pair_ends[lo] - reps[lo]  # the pairs before this pass
        hi = max(int(np.searchsorted(pair_ends, first + _PAIR_CHUNK, side="right")), lo + 1)
        p, r = later[lo:hi], reps[lo:hi]
        # pair t of nonzero p is with nonzero p - r + (t - p's first pair)
        q = np.arange(pair_ends[hi - 1] - first)
        q += np.repeat(p - r - (np.cumsum(r) - r), r)
        np.add.at(flat, np.repeat(rows[p] * b, r) + rows[q] % b, np.repeat(data[p], r) * data[q])
        lo = hi
    lower = np.tril_indices(b, -1)
    grams[:, lower[1], lower[0]] = grams[:, lower[0], lower[1]]
    return grams


def block_top_eigenvalues(ds: SparseDataset, weights, perm, b: int, B=None) -> np.ndarray:
    """lambda_max(B_j B_j^T) for each of the m diagonal blocks, exactly.

    Dense B (DenseRows): one batched product of the (m, b, d) stack of
    blocks. Otherwise (ColumnRuns) the pair sums of _block_grams.
    Either way a batched eigvalsh then solves all m b x b problems at once.
    B, if given, is _gram_rows(ds, weights, perm, b)."""
    m = check_batch(ds.n, b)
    if B is None:
        B = _gram_rows(ds, weights, perm, b)
    if isinstance(B, DenseRows):
        blocks = B.A.reshape(m, b, ds.d)
        grams = blocks @ blocks.transpose(0, 2, 1)
    else:
        grams = _block_grams(B, b)
    return np.linalg.eigvalsh(grams)[:, -1]


def tilde_constant(ds: SparseDataset, reg: RegularityDiag, perm, b: int, B=None) -> float:
    """(1/b) max over blocks of the block Gram spectral norm.

    At b = 1 each block Gram is the scalar w_i ||a_i||^2, so the value is
    exactly the classical constant. B is as for hat_constant."""
    check_batch(ds.n, b)
    if b == 1:  # perm picks no block, but it must still be one
        check_permutation(perm, ds.n)
        return classical_constant(ds, reg)
    return float(np.max(block_top_eigenvalues(ds, reg.values, perm, b, B=B))) / b


@functools.lru_cache(maxsize=4)
def _ones_column(n: int) -> SparseDataset:
    """The n x 1 matrix of ones, built once per n: a dataset is immutable."""
    return SparseDataset(np.arange(n + 1), np.zeros(n, dtype=np.int64), np.ones(n), np.zeros(n), 1)


def general_hat_L(L_values, perm, b: int, tol: float = LANCZOS_TOL) -> float:
    """Finite-sum analogue of hat_constant: hat_constant of the n x 1 matrix
    of ones with weights L, to the bit, so the weighted matrix is the single
    column sqrt(L_{perm_i}) (the Kronecker identity factor contributes
    eigenvalue 1)."""
    L = np.asarray(L_values, dtype=np.float64)
    n = len(L)
    m = check_batch(n, b)
    B = _gram_rows(_ones_column(n), L, perm, b)
    res = operator_norm(MaskedGramOperator(B, b).matvec, n, tol=tol)
    return _converged_value("general_hat_L", res, tol) / (m * n)


def general_tilde_L(L_values, perm, b: int) -> float:
    """Exact closed form: max over blocks of the mean of L along the permutation."""
    L = _weights(L_values)
    n = len(L)
    m = check_batch(n, b)
    Lp = L[check_permutation(perm, n)]
    return float(np.max(Lp.reshape(m, b).mean(axis=1)))


def _summary(values: np.ndarray) -> dict:
    qs = np.quantile(values, np.linspace(0.0, 1.0, 11))
    return {
        "mean": float(np.mean(values)),
        "std": float(np.std(values)),
        "min": float(np.min(values)),
        "max": float(np.max(values)),
        "deciles": [float(q) for q in qs],
    }


@dataclass
class ConstantsReport:
    """The sampled constants of one ratio_stats call; the summaries, the
    ratios L / hat_pi and the permutation seeds are derived from them."""

    L: float
    trace_bound: float
    b: int
    seed: int
    tolerance: float
    hatL_values: np.ndarray
    tildeL_values: np.ndarray

    def __post_init__(self):
        # Relaxation chain: every sampled hat value sits below the trace
        # bound (1/n) sum w_i ||a_i||^2, and every tilde value below the
        # classical L, each up to a roundoff slack relative to the bound.
        if np.any(self.hatL_values > self.trace_bound * (1 + 1e-9)):
            raise AssertionError("hat constant exceeded its trace bound")
        if np.any(self.tildeL_values > self.L * (1 + 1e-9)):
            raise AssertionError("tilde constant exceeded the classical constant")

    @property
    def num_perms(self) -> int:
        return len(self.hatL_values)

    @property
    def perm_seeds(self) -> list:
        return [trial_stream(self.seed, j) for j in range(self.num_perms)]

    @property
    def ratios(self) -> np.ndarray:
        return self.L / self.hatL_values

    @property
    def hatL(self) -> dict:
        return _summary(self.hatL_values)

    @property
    def tildeL(self) -> dict:
        return _summary(self.tildeL_values)

    @property
    def ratio_summary(self) -> dict:
        return _summary(self.ratios)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "L": self.L,
            "b": self.b,
            "num_perms": self.num_perms,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "hatL": self.hatL,
            "hatL_values": [float(v) for v in self.hatL_values],
            "ratios_L_over_hatL": self.ratio_summary,
            "ratios": [float(v) for v in self.ratios],
            "tildeL": self.tildeL,
            "tildeL_values": [float(v) for v in self.tildeL_values],
            "trace_bound": self.trace_bound,
        }

    def to_csv_rows(self) -> list:
        return [("perm_seed", "hatL", "tildeL", "ratio")] + [
            (str(ps), repr(float(hat)), repr(float(til)), repr(float(ratio)))
            for ps, hat, til, ratio in zip(self.perm_seeds, self.hatL_values,
                                           self.tildeL_values, self.ratios)
        ]


def ratio_stats(
    ds: SparseDataset,
    reg: RegularityDiag,
    b: int,
    num_perms: int,
    seed: int = 0,
    tol: float = LANCZOS_TOL,
) -> ConstantsReport:
    """Sample uniform permutations and aggregate hat/tilde constants.

    Permutation j comes from the stream keyed by (seed, j), so each value
    depends on (seed, j) alone. Ratios are L / hat_pi per permutation
    (mean of ratios, not ratio of means). tilde at b = 1 costs O(n): it reads
    the row norms that row_sq_norms computes once per dataset. hat and tilde
    read one copy of each permutation's weighted rows.
    """
    if num_perms < 1:
        raise ValueError("num_perms must be >= 1")
    check_batch(ds.n, b)
    L = classical_constant(ds, reg)
    trace_bound = float(np.sum(reg.values * row_sq_norms(ds)) / ds.n)

    hats, tildes = [], []
    for j in range(num_perms):
        perm = random_permutation(ds.n, seed, j)
        B = _gram_rows(ds, reg.values, perm, b)
        hats.append(hat_constant(ds, reg, perm, b, tol=tol, B=B))
        tildes.append(tilde_constant(ds, reg, perm, b, B=B))
        del B  # before the next permutation's rows are built

    return ConstantsReport(
        L=L,
        trace_bound=trace_bound,
        b=b,
        seed=seed,
        tolerance=tol,
        hatL_values=np.array(hats),
        tildeL_values=np.array(tildes),
    )


def gbar_estimate(
    ds: SparseDataset, reg: RegularityDiag, b: int, num_perms: int, seed: int = 0,
    tol: float = LANCZOS_TOL,
) -> float:
    """Sample mean of sqrt(hat_pi * tilde_pi) over uniform permutations
    (the permutation expectation entering the nonsmooth guarantee), from
    the same permutations as ratio_stats."""
    report = ratio_stats(ds, reg, b, num_perms, seed=seed, tol=tol)
    return float(np.mean(np.sqrt(report.hatL_values * report.tildeL_values)))


def _check_stationary(ds: SparseDataset, m: LossModel, x_star: np.ndarray, grad_tol: float):
    gn = float(np.linalg.norm(full_gradient(m, ds, x_star)))
    if gn > grad_tol:
        raise StationarityError(gn, grad_tol)


def sigma_star(
    ds: SparseDataset, m: LossModel, x_star: np.ndarray, grad_tol: float = 1e-8
) -> float:
    """Root-mean-square component gradient norm at the minimizer:
    sqrt((1/n) sum_i (l_i'(a_i^T x*))^2 ||a_i||^2). Verifies stationarity."""
    _check_stationary(ds, m, x_star, grad_tol)
    y = conjugate_pair(m, ds, x_star)
    return float(np.sqrt(np.mean(y * y * row_sq_norms(ds))))


def ystar_weighted_norm(ds: SparseDataset, m: LossModel, x_star: np.ndarray,
                        grad_tol: float = 1e-8) -> float:
    """Inverse-smoothness weighted norm of the optimal dual vector:
    sqrt(sum_i y*_i^2 / L_i). Verifies stationarity."""
    if not m.smooth:
        raise ValueError("weighted dual norm requires a smooth loss family")
    _check_stationary(ds, m, x_star, grad_tol)
    y = conjugate_pair(m, ds, x_star)
    return float(np.sqrt(np.sum(y * y / regularity(m).values)))


class MinimizerResult(NamedTuple):
    x: np.ndarray
    value: float  # f(x)
    grad_norm: float
    iterations: int
    # why the run stopped: "converged" (||grad|| <= tol), "no_finite_minimizer"
    # (a logistic run whose last iterate shows that none exists) or
    # "max_iter" (out of iterations)
    reason: str

    @property
    def converged(self) -> bool:
        return self.reason == "converged"


# (step, gradient change) pairs that reference_minimizer's L-BFGS keeps
_LBFGS_MEMORY = 10


def _logistic_unbounded(ds: SparseDataset, m: LossModel) -> bool:
    """True when the logistic objective has no finite minimizer.

    That is exactly when some u has margins t_i a_i^T u >= 0 for all i and
    > 0 for at least one: f then decreases forever along u. One LP finds
    the largest margin sum over that cone within the box -1 <= u <= 1; the
    margins are recomputed here and must clear thresholds relative to the
    largest possible sum over the box, sum_i |t_i| ||a_i||_1. This LP is
    the package's one use of scipy, imported here on first call.
    """
    import scipy.sparse as sp
    from scipy.optimize import linprog

    # the rows t_i a_i, on the dataset's own CSR arrays
    TA = sp.csr_matrix((ds.values * m.targets[row_ids(ds)], ds.indices, ds.indptr),
                       shape=(ds.n, ds.d))
    scale = float(abs(TA).sum())
    res = linprog(-np.asarray(TA.sum(axis=0)).ravel(), A_ub=-TA, b_ub=np.zeros(ds.n),
                  bounds=(-1.0, 1.0), method="highs")
    if res.status != 0:
        return False
    margins = TA @ res.x
    return margins.min() >= -1e-9 * scale and margins.sum() > 1e-6 * scale


def reference_minimizer(
    ds: SparseDataset, m: LossModel, tol: float = 1e-10, max_iter: int = 2_000
) -> MinimizerResult:
    """L-BFGS from the origin, Armijo halving from the unit step (the first
    scaled by 1/||grad f||), to ||grad f|| <= tol. It carries z = A x: an
    iteration makes one product A p and one A^T l'(z), a trial step costs
    O(n), and x, f(x), ||grad f(x)|| are recomputed from x. max_iter is
    about ten times the most iterations measured (215: rcv1-shaped, squared).

    A logistic run decides from its last x whether a finite minimizer exists.
    If every margin t_i z_i clears a roundoff floor, f falls forever along x.
    Else y = sigma(-t z) > 0 has sum_i y_i t_i a_i = -n grad f, so any u in
    the LP's box with margins >= 0 has margin sum <= n ||grad f||_1 / min y
    (Stiemke): below its 1e-6 * scale the LP would find no u; only between
    does it run."""
    if not m.smooth:
        raise ValueError("reference minimizer requires a smooth loss family")
    idx, pairs = np.arange(ds.n), deque(maxlen=_LBFGS_MEMORY)  # (s, r, 1 / s.r), oldest first

    def value_grad(z):  # f and grad f at the predictions z
        return float(np.mean(value_vec(m, idx, z))), ds.rmatvec(derivative_vec(m, idx, z)) / ds.n

    x, z, it = np.zeros(ds.d), np.zeros(ds.n), 0
    fx, g = value_grad(z)
    while it < max_iter and (gn := float(np.linalg.norm(g))) > tol:
        it += 1
        p, alphas = -g, []  # two-loop recursion: p = -H g, H0 = s.r / r.r of the newest pair
        for s, r, rho in reversed(pairs):
            alphas.append(rho * (s @ p))
            p = p - alphas[-1] * r
        p *= 1.0 / (pairs[-1][2] * (pairs[-1][1] @ pairs[-1][1])) if pairs else 1.0 / gn
        for (s, r, rho), a in zip(pairs, reversed(alphas)):
            p += (a - rho * (r @ p)) * s
        Ap, slope, eta = ds.matvec(p), float(g @ p), 1.0
        for _ in range(60):
            f_new = float(np.mean(value_vec(m, idx, z + eta * Ap)))
            # Armijo, with slack for roundoff: near f's float resolution accept non-increase
            slack = 8.0 * np.finfo(float).eps * max(abs(fx), abs(f_new))
            if f_new <= fx + 1e-4 * eta * slope + slack:
                break
            eta *= 0.5
        x, z, g_old = x + eta * p, z + eta * Ap, g
        fx, g = value_grad(z)
        s, r = eta * p, g - g_old
        if s @ r > 0:
            pairs.append((s, r, 1.0 / (s @ r)))
    fx, g = value_grad(z := ds.matvec(x))
    gn, t = float(np.linalg.norm(g)), m.targets
    if m.family == "logistic":
        # |roundoff in z_i| <= nnz_i eps sum_j |a_ij x_j| <= 1e-9 ||a_i|| ||x||
        margins, floor = t * z, 1e-9 * np.abs(t) * np.sqrt(row_sq_norms(ds)) * np.linalg.norm(x)
        scale = float(np.abs(ds.values * t[row_ids(ds)]).sum())
        certified = ds.n * np.abs(g).sum() < 1e-6 * scale * sigmoid(-margins).min()
        if np.all(margins > floor) or (not certified and _logistic_unbounded(ds, m)):
            return MinimizerResult(x, fx, gn, it, "no_finite_minimizer")
    return MinimizerResult(x, fx, gn, it, "converged" if gn <= tol else "max_iter")

"""Shuffled SGD engine in the primal-dual formulation.

Each epoch visits the n components in a permuted order in m = n/b blocks.
For block i the dual block update evaluates the loss (sub)derivatives at
the current inner iterate, and the primal block step moves against their
data-weighted sum:

    y^(i) = ( l'_{pi_j}(a_{pi_j}^T x) )_{j in block i}
    x    <- x - (eta/b) sum_{j in block i} y^(i)_j a_{pi_j}

The composition is exactly vanilla mini-batch shuffled SGD. Each epoch
lays its nonzeros out once, block by block (BlockLayout), so that a block
step slices nothing. Where a block's rows store the same columns (always
at b = 1, and at every b when all rows of the dataset do) the block is a
small dense b x k matrix on those k columns: one m x b x k stack, gathered
once per epoch, when every row stores k nonzeros, else a view per row.
Where k = d the steps read and update x whole, with no gather of x[cols],
traced or not. Each epoch also gathers its rows' targets once, in block
order, for the dual updates.
Otherwise each block's nonzeros are sorted by column. Either way the primal
step updates x in place on the block's distinct columns only: every block
step costs O(nnz of the block), never O(d), traced or not.
Every run starts at the origin, from which the bounds measure D = ||x*||,
and takes one constant step eta. Its output is the average of the epoch
ends x_1..x_K, x_bar_K = (1/K) sum_k x_k; the loop keeps their running
sum, so a run holds O(d) state whatever K is. It records f(x_k) and
f(x_bar_k) after every epoch, or with RunConfig.epoch_objectives off
f(x_bar_K) alone.

Traced epochs also check the retraction identity: with the inner iterate
x_i after block i (x_0 the epoch start, x_m its end) and block gradient
aggregates g_i = (b/eta)(x_{i-1} - x_i),

    (eta/n) sum_i <g_i, x_m - x_i>
        = (b/2n) sum_i ||x_{i-1} - x_i||^2 - (b/2n) ||x_0 - x_m||^2,

which holds exactly for every epoch. The left side is streamed as
<sum_i g_i, x_m - x_0> - sum_i <g_i, x_i - x_0>, and each block adds its
terms on its own columns, where g_i and x_{i-1} - x_i are nonzero (on
all of x where the steps move x whole). So a
traced epoch keeps O(d) state, stores no inner iterate and does O(d) work
once, at its end; an untraced one does no trace work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import (SparseDataset, check_permutation, permuted_nonzeros, rows_share_columns,
                   uniform_row_nnz)
from .losses import LossModel, derivative, objective
from .shuffle import ConfigError, ShufflePlan, check_batch, permutation_for


class DivergenceError(RuntimeError):
    def __init__(self, epoch):
        self.epoch = epoch
        super().__init__(f"non-finite iterate produced in epoch {epoch}; reduce the step size")


@dataclass
class RunConfig:
    """One run's settings, checked when built: epochs >= 1, then one
    positive, finite step for every epoch."""

    batch: int
    epochs: int
    step: float
    trace: bool = False
    # f(x_k) and f(x_bar_k) after every epoch; else f(x_bar_K) alone
    epoch_objectives: bool = True

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if np.ndim(self.step) != 0:
            raise ConfigError("step must be one value, the same for every epoch")
        self.step = float(self.step)
        if not (np.isfinite(self.step) and self.step > 0):
            raise ConfigError(f"step sizes must be positive and finite, got {self.step}")


@dataclass
class EpochTrace:
    squared_steps: float
    displacement_sq: float
    retraction_term: float


@dataclass
class RunResult:
    final: np.ndarray  # x_K
    averaged: np.ndarray  # x_bar_K
    traces: list  # EpochTrace of epochs 1..K if cfg.trace, else empty
    objectives: np.ndarray  # f(x_k) for k = 1..K if cfg.epoch_objectives, else empty
    objectives_avg: np.ndarray  # f(x_bar_k) likewise
    objective_avg: float  # f(x_bar_K)


class BlockLayout:
    """One epoch's nonzeros, block by block, in one of two forms.

    Block i holds the rows perm[i*b:(i+1)*b], whose targets are
    targets[i] (gathered once from the given targets, by default the
    dataset's labels; run passes its model's). The form follows from the
    data and b alone, never from d:

    - Shared (`sorted` False), when every block's rows store the same
      columns: always at b = 1, and at any b when every row of the dataset
      stores the same columns (data.rows_share_columns, decided once per
      dataset). Block i is the b x k_i matrix vals[i] on its k_i columns
      cols[i], so each block step is one small dense product, which agrees
      with a dense step to roundoff. When every row stores k nonzeros
      (data.uniform_row_nnz: every dense file, and any file with rows
      of one length) the epoch is one gather of whole rows: vals is the
      m x b x k stack of the permuted rows and cols the m x k columns of
      each block's first row. Otherwise (rows of different lengths, at
      b = 1 only) vals[i] and cols[i] are views of row perm[i] in the
      dataset's own arrays, listed once per epoch. With `full` (k = d,
      every row stores every column) cols[i] is 0..d-1, and the block
      steps read and update x whole, with no gather of x[cols].
    - Sorted (`sorted` True), for sparse data at b > 1: a stable sort on
      (block, column) of the permuted CSR arrays, block i holding their
      nonzeros ptr[i]:ptr[i+1]. A row's entries stay in column order (the
      dataset stores each row's columns increasing) and a column's entries
      in row order, so every per-row and per-column sum adds the same terms
      in the same order as on the permuted rows, and the iterates are the
      same to the bit as a dense step's. `rows` gives each nonzero's row
      within its block; the block's distinct columns are
      ucols[uptr[i]:uptr[i+1]], and `seg` gives each nonzero its column's
      place among them. Four nnz-length arrays in all: a nonzero's column
      is ucols[uptr[i] + seg].
    """

    def __init__(self, ds: SparseDataset, perm: np.ndarray, b: int, targets=None):
        self.b = b
        self.sorted = b > 1 and not rows_share_columns(ds)
        self.full = False
        if self.sorted:
            self.perm, indptr, src = permuted_nonzeros(ds, perm)
        else:
            self.perm = check_permutation(perm, ds.n)
        targets = ds.labels if targets is None else np.asarray(targets, dtype=np.float64)
        self.targets = targets[self.perm].reshape(ds.n // b, b)
        if not self.sorted:
            k = uniform_row_nnz(ds)
            if k is not None:
                self.full = k == ds.d
                self.vals = ds.values.reshape(ds.n, k)[self.perm].reshape(ds.n // b, b, k)
                self.cols = ds.indices.reshape(ds.n, k)[self.perm[::b]]
                return
            lo = ds.indptr[:-1][self.perm].tolist()  # b = 1: block i is row perm[i]
            hi = ds.indptr[1:][self.perm].tolist()
            self.vals = [ds.values[s:e].reshape(1, e - s) for s, e in zip(lo, hi)]
            self.cols = [ds.indices[s:e] for s, e in zip(lo, hi)]
            return
        self.ptr = indptr[::b]
        rows = np.repeat(np.arange(ds.n, dtype=np.int64), np.diff(indptr))
        key = rows // b  # (block, column) as one integer
        key *= ds.d
        key += ds.indices[src]
        values = ds.values[src]
        del src  # before the sort, which holds the most at once
        order = np.argsort(key, kind="stable")
        key = key[order]
        self.values = values[order]
        del values
        self.rows = rows[order]
        np.remainder(self.rows, b, out=self.rows)
        del order, rows
        first = np.empty(key.size, dtype=bool)  # first nonzero of its (block, column)
        first[:1] = True
        np.not_equal(key[1:], key[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        self.ucols = key[starts]
        np.remainder(self.ucols, ds.d, out=self.ucols)
        self.uptr = np.searchsorted(starts, self.ptr)
        del starts
        self.seg = np.cumsum(first, out=key)
        self.seg -= np.repeat(self.uptr[:-1] + 1, np.diff(self.ptr))

    def block_cols(self, block: int) -> np.ndarray:
        """The distinct columns of one block's rows."""
        if self.sorted:
            return self.ucols[self.uptr[block] : self.uptr[block + 1]]
        return self.cols[block]


def dual_block_update(m: LossModel, layout: BlockLayout, block: int,
                      x: np.ndarray) -> np.ndarray:
    """Loss (sub)derivatives for the rows of one block at the current point.

    Returns the pre-chain-rule scalars l'_{pi_j}(a_{pi_j}^T x) of m's loss
    family at the targets the layout gathered; the data rows enter in the
    primal step. Blocks are numbered 0..m-1; the cost is O(nnz of the block).
    """
    if layout.sorted:
        s, e = layout.ptr[block], layout.ptr[block + 1]
        x_nz = x[layout.block_cols(block)][layout.seg[s:e]]
        z = np.bincount(layout.rows[s:e], weights=layout.values[s:e] * x_nz, minlength=layout.b)
    elif layout.full:
        z = layout.vals[block].dot(x)
    else:
        z = layout.vals[block].dot(x[layout.cols[block]])
    return derivative(m.family, layout.targets[block], z)


def primal_block_step(x: np.ndarray, layout: BlockLayout, block: int,
                      y_block: np.ndarray, step: float) -> np.ndarray:
    """x -= (step/b) sum_j y_j a_{pi_j} over the block's rows, in place and
    on the block's distinct columns only: O(nnz of the block).

    Returns the block's gradient aggregate sum_j y_j a_{pi_j} on those
    columns (layout.block_cols(block)).
    """
    if layout.sorted:
        s, e = layout.ptr[block], layout.ptr[block + 1]
        g = np.bincount(layout.seg[s:e], weights=layout.values[s:e] * y_block[layout.rows[s:e]])
        cols = layout.block_cols(block)
    else:
        g = y_block.dot(layout.vals[block])
        if layout.full:
            x -= (step / layout.b) * g
            return g
        cols = layout.cols[block]
    x[cols] -= (step / layout.b) * g
    return g


def _epochs(n: int, d: int, plan: ShufflePlan, cfg: RunConfig, start_epoch,
            objective_fn) -> RunResult:
    """The epoch loop shared by run() and run_general().

    start_epoch(perm) returns the epoch's block step, (i, x, eta) -> g_i,
    which moves x in place on the columns block_cols(i) and returns the
    block's gradient aggregate on them, and that block_cols, or None when
    every step moves x whole and g_i is a full-length vector."""
    m_blocks = check_batch(n, cfg.batch)
    eta = cfg.step
    x = np.zeros(d)
    x_sum = np.zeros(d)  # sum_k x_k
    traces = []
    objectives = []
    objectives_avg = []
    # float overflow on a diverging run surfaces as DivergenceError or as a
    # non-finite objective, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, cfg.epochs + 1):
            step, block_cols = start_epoch(permutation_for(plan, n, k))
            if cfg.trace:
                x_start = x.copy()
                sq_steps = g_dot = 0.0
                g_sum = np.zeros(d)
            for i in range(m_blocks):
                if cfg.trace:
                    cols = block_cols(i) if block_cols else None
                    before = x.copy() if cols is None else x[cols]
                g = step(i, x, eta)
                if cfg.trace:
                    if cols is None:  # the whole of x, with no gather or scatter
                        delta = x - before
                        g_sum += g
                        after = x - x_start
                    else:
                        after = x[cols]
                        delta = after - before
                        g_sum[cols] += g
                        after -= x_start[cols]
                    sq_steps += float(delta @ delta)
                    g_dot += float(g @ after)
            del step, block_cols  # the epoch's layout goes before the next one is built
            if not np.isfinite(x).all():
                raise DivergenceError(k)
            if cfg.trace:
                disp = x - x_start
                traces.append(EpochTrace(
                    squared_steps=sq_steps,
                    displacement_sq=float(disp @ disp),
                    retraction_term=eta / n * (float(g_sum @ disp) - g_dot),
                ))
            x_sum += x
            if cfg.epoch_objectives:
                objectives.append(objective_fn(x))
                objectives_avg.append(objective_fn(x_sum / k))
        avg = x_sum / cfg.epochs
        objective_avg = objectives_avg[-1] if cfg.epoch_objectives else objective_fn(avg)

    return RunResult(
        final=x,
        averaged=avg,
        traces=traces,
        objectives=np.asarray(objectives),
        objectives_avg=np.asarray(objectives_avg),
        objective_avg=objective_avg,
    )


def run(ds: SparseDataset, model: LossModel, plan: ShufflePlan, cfg: RunConfig) -> RunResult:
    """Execute shuffled SGD for cfg.epochs epochs, with per-epoch traces if cfg.trace."""
    b = cfg.batch

    def start_epoch(perm):
        layout = BlockLayout(ds, perm, b, model.targets)

        def step(i, x, eta):
            y_blk = dual_block_update(model, layout, i, x)
            return primal_block_step(x, layout, i, y_blk, eta)

        return step, None if layout.full else layout.block_cols

    return _epochs(ds.n, ds.d, plan, cfg, start_epoch, lambda x: objective(model, ds, x))


def run_general(grad_oracle, n: int, d: int, plan: ShufflePlan, cfg: RunConfig,
                objective_fn=None) -> RunResult:
    """Shuffled SGD over arbitrary component gradients grad_oracle(i, x).

    The inner step averages the oracle outputs over each block, which
    coincides with run() when the oracle is i, x -> l_i'(a_i^T x) a_i.
    Objectives are NaN without an objective_fn.
    """
    b = cfg.batch

    def start_epoch(perm):
        def step(i, x, eta):
            g = np.zeros(d)
            for j in perm[i * b : (i + 1) * b]:
                g += grad_oracle(int(j), x)
            x -= (eta / b) * g
            return g

        return step, None

    return _epochs(n, d, plan, cfg, start_epoch, objective_fn or (lambda x: float("nan")))


def retraction_residual(trace: EpochTrace, b: int, n: int) -> float:
    """Absolute gap between the recorded retraction term and its closed form
    (b/2n) [sum of squared inner steps - squared epoch displacement].

    Traces exist only for runs with RunConfig.trace set.
    """
    closed = (b / (2.0 * n)) * (trace.squared_steps - trace.displacement_sq)
    return abs(trace.retraction_term - closed)

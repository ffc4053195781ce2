"""Shuffled SGD engine in the primal-dual formulation.

Each epoch visits the n components in a permuted order in m = n/b blocks.
For block i the dual block update evaluates the loss (sub)derivatives at
the current inner iterate, and the primal block step moves against their
data-weighted sum:

    y^(i) = ( l'_{pi_j}(a_{pi_j}^T x) )_{j in block i}
    x    <- x - (eta/b) sum_{j in block i} y^(i)_j a_{pi_j}

The composition is exactly vanilla mini-batch shuffled SGD. The returned
output is the step-size weighted average of the epoch ends x_1..x_K,
x_bar_K = sum_k eta_k x_k / H_K with H_K = sum_k eta_k; the loop keeps its
running sum, so a run holds O(d) state whatever K is, and records f(x_k)
and f(x_bar_k) after every epoch.

Traced epochs also check the retraction identity: with the inner iterate
x_i after block i (x_0 the epoch start, x_m its end) and block gradient
aggregates g_i = (b/eta)(x_{i-1} - x_i),

    (eta/n) sum_i <g_i, x_m - x_i>
        = (b/2n) sum_i ||x_{i-1} - x_i||^2 - (b/2n) ||x_0 - x_m||^2,

which holds exactly for every epoch. The left side is streamed as
<sum_i g_i, x_m - x_0> - sum_i <g_i, x_i - x_0>, so a traced epoch keeps
O(d) state and stores no inner iterate; an untraced one does no trace work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import PermutedView, SparseDataset
from .losses import LossModel, derivative_vec, objective
from .shuffle import ConfigError, ShufflePlan, check_batch, permutation_for


class DivergenceError(RuntimeError):
    def __init__(self, epoch):
        self.epoch = epoch
        super().__init__(f"non-finite iterate produced in epoch {epoch}; reduce the step size")


@dataclass
class RunConfig:
    batch: int
    epochs: int
    step: float | np.ndarray
    x0: np.ndarray
    trace: bool = False

    def step_schedule(self) -> np.ndarray:
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        steps = np.asarray(self.step, dtype=np.float64)
        if steps.ndim == 0:
            steps = np.full(self.epochs, float(steps))
        if steps.shape != (self.epochs,):
            raise ConfigError("step must be a scalar or one value per epoch")
        bad = ~(np.isfinite(steps) & (steps > 0))
        if np.any(bad):
            raise ConfigError(
                f"step sizes must be positive and finite, got {float(steps[bad][0])}")
        return steps


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
    objectives: np.ndarray  # f(x_k) for k = 1..K
    objectives_avg: np.ndarray  # f(x_bar_k) for k = 1..K

    @property
    def objective_avg(self) -> float:
        return float(self.objectives_avg[-1])


def _block_entries(view: PermutedView, block: int, b: int):
    """(row within the block, column, value) of every nonzero of one block:
    a contiguous slice of the view's permuted CSR arrays, no matrix built."""
    lo = block * b
    s, e = view.indptr[lo], view.indptr[lo + b]
    return view.rows[s:e] - lo, view.indices[s:e], view.values[s:e]


def _block_sum(view: PermutedView, block: int, y_block: np.ndarray, b: int) -> np.ndarray:
    """sum_j y_j a_{pi_j} over the block's rows, as a dense d-vector."""
    rows, cols, vals = _block_entries(view, block, b)
    return np.bincount(cols, weights=vals * y_block[rows], minlength=view.base.d)


def dual_block_update(m: LossModel, view: PermutedView, block: int, x: np.ndarray,
                      b: int) -> np.ndarray:
    """Loss (sub)derivatives for the rows of one block at the current point.

    Returns the pre-chain-rule scalars l'_{pi_j}(a_{pi_j}^T x); the data
    rows enter in the primal step. Blocks are numbered 0..m-1.
    """
    rows, cols, vals = _block_entries(view, block, b)
    z = np.bincount(rows, weights=vals * x[cols], minlength=b)
    return derivative_vec(m, view.perm[block * b : (block + 1) * b], z)


def primal_block_step(x: np.ndarray, view: PermutedView, block: int,
                      y_block: np.ndarray, step: float, b: int) -> np.ndarray:
    """x - (step/b) sum_j y_j a_{pi_j} over the block's rows: O(nnz of the
    block + d)."""
    return x - (step / b) * _block_sum(view, block, y_block, b)


def _epochs(n: int, d: int, plan: ShufflePlan, cfg: RunConfig, start_epoch,
            objective_fn) -> RunResult:
    """The epoch loop shared by run() and run_general().

    start_epoch(perm) returns the epoch's block step, (i, x, eta) ->
    (x_next, block duals), and the recompute of block i's gradient
    aggregate from those duals, which the retraction term needs."""
    m_blocks = check_batch(n, cfg.batch)
    steps = cfg.step_schedule()
    x = np.asarray(cfg.x0, dtype=np.float64).copy()
    if x.shape != (d,):
        raise ConfigError(f"x0 must have dimension d = {d}")

    x_sum = np.zeros(d)  # sum_k eta_k x_k
    h = 0.0  # H_k, summed in epoch order
    traces = []
    objectives = []
    objectives_avg = []
    # float overflow on a diverging run surfaces as DivergenceError, not warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, cfg.epochs + 1):
            eta = float(steps[k - 1])
            step, block_grad = start_epoch(permutation_for(plan, n, k))
            if cfg.trace:
                x_start = x.copy()
                sq_steps = g_dot = 0.0
                g_sum = np.zeros(d)
            for i in range(m_blocks):
                x_new, y_blk = step(i, x, eta)
                if cfg.trace:
                    delta = x_new - x
                    sq_steps += float(delta @ delta)
                    g = block_grad(i, y_blk)
                    g_sum += g
                    g_dot += float(g @ (x_new - x_start))
                x = x_new
            if not np.all(np.isfinite(x)):
                raise DivergenceError(k)
            if cfg.trace:
                disp = x - x_start
                traces.append(EpochTrace(
                    squared_steps=sq_steps,
                    displacement_sq=float(disp @ disp),
                    retraction_term=eta / n * (float(g_sum @ disp) - g_dot),
                ))
            x_sum += eta * x
            h += eta
            avg = x_sum / h
            objectives.append(objective_fn(x))
            objectives_avg.append(objective_fn(avg))

    return RunResult(
        final=x,
        averaged=avg,
        traces=traces,
        objectives=np.asarray(objectives),
        objectives_avg=np.asarray(objectives_avg),
    )


def run(ds: SparseDataset, model: LossModel, plan: ShufflePlan, cfg: RunConfig) -> RunResult:
    """Execute shuffled SGD for cfg.epochs epochs, with per-epoch traces if cfg.trace."""
    b = cfg.batch

    def start_epoch(perm):
        view = PermutedView(ds, perm)

        def step(i, x, eta):
            y_blk = dual_block_update(model, view, i, x, b)
            return primal_block_step(x, view, i, y_blk, eta, b), y_blk

        return step, lambda i, y_blk: _block_sum(view, i, y_blk, b)

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
            return x - (eta / b) * g, g

        return step, lambda i, g: g

    return _epochs(n, d, plan, cfg, start_epoch, objective_fn or (lambda x: float("nan")))


def retraction_residual(trace: EpochTrace, b: int, n: int) -> float:
    """Absolute gap between the recorded retraction term and its closed form
    (b/2n) [sum of squared inner steps - squared epoch displacement].

    Traces exist only for runs with RunConfig.trace set.
    """
    closed = (b / (2.0 * n)) * (trace.squared_steps - trace.displacement_sq)
    return abs(trace.retraction_term - closed)

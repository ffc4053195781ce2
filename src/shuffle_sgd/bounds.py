"""Theoretical step sizes, convergence-bound right-hand sides, and gradient
query counts for shuffled SGD on linear-predictor ERM.

Symbols: n components, batch b (with b | n), K epochs, constant or per-epoch
steps eta_k with H_K = sum eta_k, D = ||x0 - x*||, sigma_star the RMS
component gradient norm at the optimum, hatL/tildeL the masked-Gram
constants (worst-case or sampled proxies), ystar_norm = ||y*|| weighted by
inverse smoothness (fixed-order runs only), Gbar the permutation mean of
sqrt(hatG * tildeG) (nonsmooth runs). The finite-sum guarantees use the
same step and RHS functions, with the finite-sum constants in hatL/tildeL.

All RHS helpers return the bound on the (expected) suboptimality of the
averaged output, i.e. the raw telescoped bound divided by H_K. Division
guards follow the degenerate-case conventions: a vanished variance term is
0 and an unconstrained step branch is +inf.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .shuffle import check_batch


@dataclass
class BoundInputs:
    n: int
    b: int
    K: int
    hatL: float = 0.0
    tildeL: float = 0.0
    sigma_star: float = 0.0
    D: float = 0.0
    ystar_norm: float = 0.0
    Gbar: float = 0.0

    def __post_init__(self):
        if self.n < 1 or self.K < 1:
            raise ValueError("n and K must be >= 1")
        check_batch(self.n, self.b)
        for name in ("hatL", "tildeL", "sigma_star", "D", "ystar_norm", "Gbar"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")


def base_step(inp: BoundInputs) -> float:
    """The smooth-case step ceiling b / (n sqrt(2 hatL tildeL))."""
    if inp.hatL <= 0 or inp.tildeL <= 0:
        raise ValueError("hatL and tildeL must be positive for the smooth step size")
    return inp.b / (inp.n * math.sqrt(2.0 * inp.hatL * inp.tildeL))


def _schedule(eta, K) -> np.ndarray:
    steps = np.asarray(eta, dtype=np.float64)
    if steps.ndim == 0:
        steps = np.full(K, float(steps))
    if steps.shape != (K,):
        raise ValueError("eta must be a scalar or one value per epoch")
    return steps


def _cube_root_cap(eta: float, num: float, denom: float) -> float:
    """min(eta, (num / denom)^(1/3)). With denom = 0 there is no cap, and a
    cap that is not positive (num = 0, as when D = 0) is ignored."""
    if denom > 0:
        cap = (num / denom) ** (1.0 / 3.0)
        if cap > 0:
            eta = min(eta, cap)
    return eta


def _warn_above_ceiling(inp: BoundInputs, steps: np.ndarray):
    if inp.hatL > 0 and inp.tildeL > 0 and np.any(steps > base_step(inp) * (1 + 1e-12)):
        warnings.warn(
            "step size exceeds b/(n sqrt(2 hatL tildeL)); the guarantee does not apply",
            stacklevel=3,
        )


def step_size_smooth_rr(inp: BoundInputs) -> float:
    """Constant step for uniformly shuffled runs: the ceiling capped by the
    variance-balancing cube root; the cap is +inf when (n - b) sigma* = 0."""
    n, b, K = inp.n, inp.b, inp.K
    denom = n * (n - b) * (n + b) * inp.tildeL * K * inp.sigma_star**2
    return _cube_root_cap(base_step(inp), 3.0 * b**3 * (n - 1) * inp.D**2, denom)


def bound_rhs_smooth_rr(inp: BoundInputs, eta) -> float:
    """Expected suboptimality bound for uniformly shuffled runs:
    [ b D^2 / (2n) + sum_k eta_k^3 tildeL (n-b)(n+b) sigma*^2 / (6 b^2 (n-1)) ] / H_K."""
    n, b = inp.n, inp.b
    steps = _schedule(eta, inp.K)
    _warn_above_ceiling(inp, steps)
    H = float(np.sum(steps))
    head = b * inp.D**2 / (2.0 * n)
    if n > b and n > 1 and inp.sigma_star > 0:
        var = float(
            np.sum(steps**3) * inp.tildeL * (n - b) * (n + b) * inp.sigma_star**2
            / (6.0 * b**2 * (n - 1))
        )
    else:
        var = 0.0
    return (head + var) / H


def step_size_ig(inp: BoundInputs) -> float:
    """Constant step for fixed-order runs. The error-term branch is chosen by
    comparing hatL ||y*||^2 against ((n-b)^2 / n) sigma*^2, matching the
    smaller argument of the min in the fixed-order bound."""
    n, b, K = inp.n, inp.b, inp.K
    ysq = inp.ystar_norm**2
    ssq = inp.sigma_star**2
    if inp.hatL * ysq <= ((n - b) ** 2 / n) * ssq:
        denom = 2.0 * n**2 * inp.hatL * inp.tildeL * K * ysq
    else:
        denom = 2.0 * n * (n - b) ** 2 * inp.tildeL * K * ssq
    return _cube_root_cap(base_step(inp), b**3 * inp.D**2, denom)


def bound_rhs_ig(inp: BoundInputs, eta) -> float:
    """Deterministic suboptimality bound for fixed-order runs:
    [ b D^2 / (2n) + sum_k min( eta_k^3 n hatL tildeL ||y*||^2 / b^2,
                                eta_k^3 (n-b)^2 tildeL sigma*^2 / b^2 ) ] / H_K."""
    n, b = inp.n, inp.b
    steps = _schedule(eta, inp.K)
    _warn_above_ceiling(inp, steps)
    cubes = float(np.sum(steps**3))
    term_y = cubes * n * inp.hatL * inp.tildeL * inp.ystar_norm**2 / b**2
    term_s = cubes * (n - b) ** 2 * inp.tildeL * inp.sigma_star**2 / b**2
    H = float(np.sum(steps))
    return (b * inp.D**2 / (2.0 * n) + min(term_y, term_s)) / H


def step_size_nonsmooth(inp: BoundInputs) -> float:
    """b D / (2 n sqrt(K Gbar)); zero when D = 0."""
    if inp.D == 0:
        return 0.0
    if inp.Gbar <= 0:
        raise ValueError("Gbar must be positive for the nonsmooth step size")
    return inp.b * inp.D / (2.0 * inp.n * math.sqrt(inp.K * inp.Gbar))


def bound_rhs_nonsmooth(inp: BoundInputs, eta) -> float:
    """[ b D^2 / (2n) + sum_k 2 eta_k^2 n Gbar / b ] / H_K; holds for any
    positive steps (no ceiling). Defined as 0 for the degenerate all-zero
    schedule that arises from D = 0."""
    steps = _schedule(eta, inp.K)
    H = float(np.sum(steps))
    if H == 0.0:
        return 0.0
    err = float(np.sum(steps**2)) * 2.0 * inp.n * inp.Gbar / inp.b
    return (inp.b * inp.D**2 / (2.0 * inp.n) + err) / H


GUARANTEE_KINDS = ("rr", "ig", "nonsmooth", "general_rr", "general_ig")


def gradient_query_complexity(kind: str, epsilon: float, inp: BoundInputs) -> int:
    """Component gradient evaluations (n K) sufficient for target error epsilon,
    using the explicit constants behind each guarantee."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    n, b = inp.n, inp.b
    D2 = inp.D**2
    if kind in ("rr", "general_rr"):
        first = n * math.sqrt(2.0 * inp.hatL * inp.tildeL) * D2 / epsilon
        if n > b and inp.sigma_star > 0:
            second = (
                math.sqrt((n - b) * (n + b) / (n - 1))
                * 2.0**1.5 * math.sqrt(inp.tildeL) * inp.sigma_star * D2
                / (math.sqrt(3.0) * epsilon**1.5)
            )
        else:
            second = 0.0
        total = max(first, second)
    elif kind in ("ig", "general_ig"):
        first = n * math.sqrt(2.0 * inp.hatL * inp.tildeL) * D2 / epsilon
        term_y = (
            4.0 * math.sqrt(n * inp.hatL * inp.tildeL) * inp.ystar_norm * D2 / epsilon**1.5
        )
        term_s = 4.0 * (n - b) * math.sqrt(inp.tildeL) * inp.sigma_star * D2 / epsilon**1.5
        total = first + min(term_y, term_s)
    elif kind == "nonsmooth":
        total = 4.0 * n * inp.Gbar * D2 / epsilon**2
    else:
        raise ValueError(f"kind must be one of {GUARANTEE_KINDS}")
    return int(math.ceil(total))

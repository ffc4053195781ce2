"""Theoretical step sizes and convergence-bound right-hand sides for
shuffled SGD on linear-predictor ERM.

Symbols: n components, batch b (with b | n), K epochs of one constant
step eta, so H_K = K eta, D = ||x*|| the distance to the optimum from the
origin, where every run starts, sigma_star the RMS
component gradient norm at the optimum, hatL/tildeL the masked-Gram
constants (worst-case or the sampled max), ystar_norm = ||y*|| weighted by
inverse smoothness (fixed-order runs only), Gbar the permutation mean of
sqrt(hatG * tildeG) (nonsmooth runs). GUARANTEES holds one record per
kind: how its runs go, how its constants are measured into BoundInputs,
and its step and RHS functions. The finite-sum kinds reuse the rr and ig
functions, with the finite-sum constants in hatL/tildeL.

All RHS helpers take the scalar eta and return the bound on the
(expected) suboptimality of the averaged output, i.e. the raw telescoped
bound divided by H_K. Division guards follow the degenerate-case
conventions: a vanished variance term is 0 and an unconstrained step
branch is +inf.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import constants
from .data import row_sq_norms
from .losses import regularity
from .shuffle import check_batch, random_permutation


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


def _cube_root_cap(eta: float, num: float, denom: float) -> float:
    """min(eta, (num / denom)^(1/3)). With denom = 0 there is no cap, and a
    cap that is not positive (num = 0, as when D = 0) is ignored."""
    if denom > 0:
        cap = (num / denom) ** (1.0 / 3.0)
        if cap > 0:
            eta = min(eta, cap)
    return eta


def _warn_above_ceiling(inp: BoundInputs, eta: float):
    if inp.hatL > 0 and inp.tildeL > 0 and eta > base_step(inp) * (1 + 1e-12):
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


def bound_rhs_smooth_rr(inp: BoundInputs, eta: float) -> float:
    """Expected suboptimality bound for uniformly shuffled runs:
    [ b D^2 / (2n) + K eta^3 tildeL (n-b)(n+b) sigma*^2 / (6 b^2 (n-1)) ] / (K eta)."""
    n, b, K, eta = inp.n, inp.b, inp.K, float(eta)
    _warn_above_ceiling(inp, eta)
    head = b * inp.D**2 / (2.0 * n)
    if n > b and n > 1 and inp.sigma_star > 0:
        var = (K * eta**3 * inp.tildeL * (n - b) * (n + b) * inp.sigma_star**2
               / (6.0 * b**2 * (n - 1)))
    else:
        var = 0.0
    return (head + var) / (K * eta)


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


def bound_rhs_ig(inp: BoundInputs, eta: float) -> float:
    """Deterministic suboptimality bound for fixed-order runs:
    [ b D^2 / (2n) + K min( eta^3 n hatL tildeL ||y*||^2 / b^2,
                            eta^3 (n-b)^2 tildeL sigma*^2 / b^2 ) ] / (K eta)."""
    n, b, K, eta = inp.n, inp.b, inp.K, float(eta)
    _warn_above_ceiling(inp, eta)
    cubes = K * eta**3
    term_y = cubes * n * inp.hatL * inp.tildeL * inp.ystar_norm**2 / b**2
    term_s = cubes * (n - b) ** 2 * inp.tildeL * inp.sigma_star**2 / b**2
    return (b * inp.D**2 / (2.0 * n) + min(term_y, term_s)) / (K * eta)


def step_size_nonsmooth(inp: BoundInputs) -> float:
    """b D / (2 n sqrt(K Gbar)); zero when D = 0."""
    if inp.D == 0:
        return 0.0
    if inp.Gbar <= 0:
        raise ValueError("Gbar must be positive for the nonsmooth step size")
    return inp.b * inp.D / (2.0 * inp.n * math.sqrt(inp.K * inp.Gbar))


def bound_rhs_nonsmooth(inp: BoundInputs, eta: float) -> float:
    """[ b D^2 / (2n) + K 2 eta^2 n Gbar / b ] / (K eta); holds for any
    positive step (no ceiling). Defined as 0 for the degenerate step
    eta = 0 that arises from D = 0."""
    K, eta = inp.K, float(eta)
    if eta == 0.0:
        return 0.0
    err = K * eta**2 * 2.0 * inp.n * inp.Gbar / inp.b
    return (inp.b * inp.D**2 / (2.0 * inp.n) + err) / (K * eta)


def _rr_inputs(ds, model, x_star, b, K, num_perms, seed) -> BoundInputs:
    """The sampled max of hat and tilde over num_perms random permutations:
    a deterministic constant step must cover every epoch."""
    sig = constants.sigma_star(ds, model, x_star, grad_tol=1e-6)
    report = constants.ratio_stats(ds, regularity(model), b=b, num_perms=num_perms, seed=seed)
    return BoundInputs(n=ds.n, b=b, K=K, hatL=report.hatL["max"], tildeL=report.tildeL["max"],
                       sigma_star=sig, D=float(np.linalg.norm(x_star)))


def _ig_inputs(ds, model, x_star, b, K, num_perms, seed) -> BoundInputs:
    """hat and tilde at the identity order, which every fixed-order epoch
    runs, both read from one copy of its weighted rows."""
    reg, perm0 = regularity(model), np.arange(ds.n)
    B = constants._gram_rows(ds, reg.values, perm0, b)
    sig = constants.sigma_star(ds, model, x_star, grad_tol=1e-6)
    return BoundInputs(
        n=ds.n, b=b, K=K, hatL=constants.hat_constant(ds, reg, perm0, b, B=B),
        tildeL=constants.tilde_constant(ds, reg, perm0, b, B=B), sigma_star=sig,
        D=float(np.linalg.norm(x_star)),
        ystar_norm=constants.ystar_weighted_norm(ds, model, x_star, grad_tol=1e-6))


def _nonsmooth_inputs(ds, model, x_star, b, K, num_perms, seed) -> BoundInputs:
    gbar = constants.gbar_estimate(ds, regularity(model), b, num_perms, seed=seed)
    return BoundInputs(n=ds.n, b=b, K=K, D=float(np.linalg.norm(x_star)), Gbar=gbar)


@dataclass(frozen=True)
class Guarantee:
    """One guarantee: how its runs go, its constants, and what they give."""

    scheme: str  # the runs' order: "RR" (reshuffled) or "IG" (fixed)
    # (ds, model, x_star, b, K, num_perms, seed) -> BoundInputs, with
    # D = ||x_star||: runs start at the origin
    inputs: Callable
    step: Callable  # BoundInputs -> constant step
    rhs: Callable  # (BoundInputs, eta) -> bound on the averaged output's gap
    general: bool = False  # runs take each component's gradient from an oracle
    planted: bool = False  # the problem is a planted hinge, whose optimum is known


def _finite_sum(base: Guarantee) -> Guarantee:
    """base with the finite-sum constants of L_i = w_i ||a_i||^2 in hatL and
    tildeL (identity order for IG, else the sampled max). base's inputs
    still measure the data-matrix hat and tilde that these replace."""
    def inputs(ds, model, x_star, b, K, num_perms, seed):
        inp = base.inputs(ds, model, x_star, b, K, num_perms, seed)
        Lvals = regularity(model).values * row_sq_norms(ds)
        perms = ([np.arange(ds.n)] if base.scheme == "IG" else
                 [random_permutation(ds.n, seed, j) for j in range(num_perms)])
        inp.hatL = max(constants.general_hat_L(Lvals, p, b) for p in perms)
        inp.tildeL = max(constants.general_tilde_L(Lvals, p, b) for p in perms)
        return inp

    return replace(base, inputs=inputs, general=True)


_RR = Guarantee("RR", _rr_inputs, step_size_smooth_rr, bound_rhs_smooth_rr)
_IG = Guarantee("IG", _ig_inputs, step_size_ig, bound_rhs_ig)
_NONSMOOTH = Guarantee("RR", _nonsmooth_inputs, step_size_nonsmooth, bound_rhs_nonsmooth,
                       planted=True)
GUARANTEES = {"rr": _RR, "ig": _IG, "nonsmooth": _NONSMOOTH,
              "general_rr": _finite_sum(_RR), "general_ig": _finite_sum(_IG)}


"""Scalar loss families for linear-predictor ERM.

Each component i carries a target t_i (the dataset label), and the
objective is f(x) = (1/n) sum_i loss_i(a_i^T x).

Families and their regularity constants:

    squared   l(z) = 1/2 (z - t)^2        smooth,    L = 1
    logistic  l(z) = log(1 + e^{-tz})     smooth,    L = t^2 / 4
    hinge     l(z) = max(0, 1 - tz)       Lipschitz, G = |t|
    absolute  l(z) = |z - t|              Lipschitz, G = 1

Nonsmooth subgradient selections are fixed so runs are reproducible: the
hinge kink returns 0 (the flat side) and the absolute kink returns 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import SparseDataset

SMOOTH_FAMILIES = ("squared", "logistic")
LIPSCHITZ_FAMILIES = ("hinge", "absolute")
FAMILIES = SMOOTH_FAMILIES + LIPSCHITZ_FAMILIES

# Lower bound on regularity entries so weighted inverse norms stay finite.
MIN_REGULARITY = 1e-12


@dataclass
class LossModel:
    family: str
    targets: np.ndarray

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown loss family {self.family!r}")
        self.targets = np.asarray(self.targets, dtype=np.float64)

    @property
    def smooth(self) -> bool:
        return self.family in SMOOTH_FAMILIES

    @classmethod
    def for_dataset(cls, family: str, ds: SparseDataset) -> "LossModel":
        return cls(family, ds.labels)


@dataclass
class RegularityDiag:
    """Per-component regularity: smoothness constants L_i, or squared
    Lipschitz constants G_i^2 for nonsmooth families (LossModel.smooth
    tells which)."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if not np.all(np.isfinite(self.values) & (self.values > 0)):
            raise ValueError("regularity entries must be finite and strictly positive")


def value_vec(m: LossModel, idx: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Vectorized loss values for components idx at pre-activations z."""
    t = m.targets[idx]
    if m.family == "squared":
        return 0.5 * (z - t) ** 2
    if m.family == "logistic":
        return np.logaddexp(0.0, -t * z)
    if m.family == "hinge":
        return np.maximum(0.0, 1.0 - t * z)
    return np.abs(z - t)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x) to a few ulp for every x, without overflow or a
    warning: the one exponential taken is e^-|x| <= 1."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def derivative(family: str, t, z):
    """(Sub)derivatives l'(z) of components with targets t at
    pre-activations z (arrays or scalars of one shape), with the documented
    kink selections."""
    if family == "squared":
        return z - t
    if family == "logistic":
        return -t * sigmoid(-t * z)
    if family == "hinge":
        return np.where(t * z < 1.0, -t, 0.0)
    return np.sign(z - t)


def derivative_vec(m: LossModel, idx: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Vectorized (sub)derivatives for components idx at pre-activations z."""
    return derivative(m.family, m.targets[idx], z)


def regularity(m: LossModel) -> RegularityDiag:
    """Smooth families give L_i entries; Lipschitz families give G_i^2."""
    t = m.targets
    if m.family == "logistic":
        vals = t * t / 4.0
    elif m.family == "hinge":
        vals = t * t
    else:
        vals = np.ones_like(t)
    return RegularityDiag(np.maximum(vals, MIN_REGULARITY))


def objective(m: LossModel, ds: SparseDataset, x: np.ndarray) -> float:
    z = ds.matvec(x)
    return float(np.mean(value_vec(m, np.arange(ds.n), z)))


def conjugate_pair(m: LossModel, ds: SparseDataset, x: np.ndarray) -> np.ndarray:
    """Dual vector paired with x: entry i is the (sub)derivative at a_i^T x."""
    z = ds.matvec(x)
    return derivative_vec(m, np.arange(ds.n), z)


def full_gradient(m: LossModel, ds: SparseDataset, x: np.ndarray) -> np.ndarray:
    """(1/n) sum_i l_i'(a_i^T x) a_i, computed sparsely."""
    y = conjugate_pair(m, ds, x)
    return ds.rmatvec(y) / ds.n

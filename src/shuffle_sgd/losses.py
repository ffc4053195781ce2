"""Scalar loss families for linear-predictor ERM.

Each component i carries a target t_i (the dataset label) and a positive
scale c_i, and the objective is f(x) = (1/n) sum_i loss_i(a_i^T x).

Families and their regularity constants (scale c multiplies everything):

    squared   l(z) = c/2 (z - t)^2        smooth,    L = c
    logistic  l(z) = c log(1 + e^{-tz})   smooth,    L = c t^2 / 4
    hinge     l(z) = c max(0, 1 - tz)     Lipschitz, G = c |t|
    absolute  l(z) = c |z - t|            Lipschitz, G = c

Nonsmooth subgradient selections are fixed so runs are reproducible: the
hinge kink returns 0 (the flat side) and the absolute kink returns 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

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
    scales: np.ndarray | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown loss family {self.family!r}")
        self.targets = np.asarray(self.targets, dtype=np.float64)
        if self.scales is None:
            self.scales = np.ones_like(self.targets)
        else:
            self.scales = np.asarray(self.scales, dtype=np.float64)
            if self.scales.shape != self.targets.shape:
                raise ValueError("scales must have one entry per component")
            if np.any(self.scales <= 0):
                raise ValueError("scales must be positive")

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
        if np.any(self.values <= 0):
            raise ValueError("regularity entries must be strictly positive")


def value_vec(m: LossModel, idx: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Vectorized loss values for components idx at pre-activations z."""
    t = m.targets[idx]
    c = m.scales[idx]
    if m.family == "squared":
        return 0.5 * c * (z - t) ** 2
    if m.family == "logistic":
        return c * np.logaddexp(0.0, -t * z)
    if m.family == "hinge":
        return c * np.maximum(0.0, 1.0 - t * z)
    return c * np.abs(z - t)


def derivative_vec(m: LossModel, idx: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Vectorized (sub)derivatives with the documented kink selections."""
    t = m.targets[idx]
    c = m.scales[idx]
    if m.family == "squared":
        return c * (z - t)
    if m.family == "logistic":
        return -c * t * expit(-t * z)
    if m.family == "hinge":
        return np.where(t * z < 1.0, -c * t, 0.0)
    return c * np.sign(z - t)


def loss_derivative(m: LossModel, i: int, z: float) -> float:
    return float(derivative_vec(m, np.array([i]), np.array([float(z)]))[0])


def regularity(m: LossModel) -> RegularityDiag:
    """Smooth families give L_i entries; Lipschitz families give G_i^2."""
    t, c = m.targets, m.scales
    if m.family == "squared":
        vals = c.copy()
    elif m.family == "logistic":
        vals = c * t * t / 4.0
    elif m.family == "hinge":
        vals = (c * np.abs(t)) ** 2
    else:
        vals = c * c
    return RegularityDiag(np.maximum(vals, MIN_REGULARITY))


def objective(m: LossModel, ds: SparseDataset, x: np.ndarray) -> float:
    z = ds.to_csr() @ x
    return float(np.mean(value_vec(m, np.arange(ds.n), z)))


def conjugate_pair(m: LossModel, ds: SparseDataset, x: np.ndarray) -> np.ndarray:
    """Dual vector paired with x: entry i is the (sub)derivative at a_i^T x."""
    z = ds.to_csr() @ x
    return derivative_vec(m, np.arange(ds.n), z)


def full_gradient(m: LossModel, ds: SparseDataset, x: np.ndarray) -> np.ndarray:
    """(1/n) sum_i l_i'(a_i^T x) a_i, computed sparsely."""
    y = conjugate_pair(m, ds, x)
    return (ds.to_csr().T @ y) / ds.n

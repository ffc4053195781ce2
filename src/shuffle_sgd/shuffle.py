"""Epoch permutation schedules: random reshuffling, shuffle-once, incremental.

Permutations for epoch k come from the PCG64 stream keyed by (seed, k) so
epochs can be generated in any order or in parallel without changing the
schedule; shuffle-once reuses the epoch-1 stream for every k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import prng

SCHEMES = ("RR", "SO", "IG")


class ConfigError(ValueError):
    pass


def check_batch(n: int, b: int) -> int:
    """The block count n/b; a batch size b that does not divide n is a
    ConfigError naming the valid ones."""
    if b < 1 or n % b != 0:
        divisors = [k for k in range(1, n + 1) if n % k == 0]
        raise ConfigError(f"batch size {b} must divide n = {n}; valid divisors: {divisors}")
    return n // b


@dataclass
class ShufflePlan:
    scheme: str
    n: int
    epochs: int
    seed: int = 0
    fixed_perm: np.ndarray | None = None

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.n < 1 or self.epochs < 1:
            raise ConfigError("n and epochs must be >= 1")
        if self.fixed_perm is not None:
            p = np.asarray(self.fixed_perm, dtype=np.int64)
            if p.shape != (self.n,) or not np.array_equal(np.sort(p), np.arange(self.n)):
                raise ConfigError("fixed_perm must be a permutation of range(n)")
            self.fixed_perm = p
        elif self.scheme == "IG":
            self.fixed_perm = np.arange(self.n, dtype=np.int64)


def _draw(seed: int, k: int, n: int) -> np.ndarray:
    rng = prng.generator(prng.substream(seed, prng.DOMAIN_PERM, k))
    # Generator.permutation is a Fisher-Yates shuffle under the hood.
    return rng.permutation(n).astype(np.int64)


def permutation_for(plan: ShufflePlan, k: int) -> np.ndarray:
    """Permutation used in epoch k (1-based, 1 <= k <= epochs)."""
    if not 1 <= k <= plan.epochs:
        raise ConfigError(f"epoch index {k} outside [1, {plan.epochs}]")
    if plan.scheme == "IG":
        return plan.fixed_perm.copy()
    if plan.scheme == "SO":
        return _draw(plan.seed, 1, plan.n)
    return _draw(plan.seed, k, plan.n)


def random_permutation(n: int, seed: int, trial: int = 0) -> np.ndarray:
    """Standalone uniform permutation on the (seed, trial) stream, for
    permutation-sampling experiments outside any epoch schedule."""
    rng = prng.generator(prng.substream(seed, prng.DOMAIN_TRIAL, trial))
    return rng.permutation(n).astype(np.int64)

"""Epoch permutation schedules: random reshuffling, shuffle-once, incremental.

A plan is a scheme and a seed; the row count n comes from the data and the
epoch index k from the engine's loop. Permutations for epoch k come from the
PCG64 stream keyed by (seed, k) so epochs can be generated in any order or
in parallel without changing the schedule; shuffle-once reuses the epoch-1
stream for every k, and incremental visits the rows in their stored order.
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
    seed: int = 0

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")


def _draw(seed: int, k: int, n: int) -> np.ndarray:
    rng = prng.generator(prng.substream(seed, prng.DOMAIN_PERM, k))
    # Generator.permutation is a Fisher-Yates shuffle under the hood.
    return rng.permutation(n).astype(np.int64, copy=False)


def permutation_for(plan: ShufflePlan, n: int, k: int) -> np.ndarray:
    """Permutation of range(n) used in epoch k (1-based)."""
    if plan.scheme == "IG":
        return np.arange(n, dtype=np.int64)
    return _draw(plan.seed, 1 if plan.scheme == "SO" else k, n)


def trial_stream(seed: int, trial: int) -> int:
    """The id of the stream that random_permutation(n, seed, trial) draws
    from; analyze reports it as each permutation's perm_seed."""
    return prng.substream(seed, prng.DOMAIN_TRIAL, trial)


def random_permutation(n: int, seed: int, trial: int = 0) -> np.ndarray:
    """Standalone uniform permutation on the (seed, trial) stream, for
    permutation-sampling experiments outside any epoch schedule."""
    rng = prng.generator(trial_stream(seed, trial))
    return rng.permutation(n).astype(np.int64, copy=False)

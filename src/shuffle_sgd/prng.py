"""Deterministic random streams.

All randomness in the library flows through PCG64 generators whose seeds are
derived by folding a user seed and one or more stream tags through the
splitmix64 finalizer. A (seed, tags...) tuple therefore names the same stream
no matter when or on which worker it is instantiated, which keeps parallel
experiments bit-reproducible.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Domain tags keep unrelated uses of the same user seed on disjoint streams.
DOMAIN_DATA = 0x5D47A1
DOMAIN_PERM = 0x9E12B3
DOMAIN_POWER = 0x503EC5
DOMAIN_TRIAL = 0x7214D7
DOMAIN_PLANTED = 0x3B8E61


def splitmix64(z: int) -> int:
    """One step of the splitmix64 output finalizer (public-domain constants)."""
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def mix64(seed: int, tag: int) -> int:
    """Derive a 64-bit stream id from (seed, tag)."""
    return splitmix64((seed & _MASK64) ^ splitmix64(tag & _MASK64))


def substream(seed: int, *tags: int) -> int:
    """Fold any number of tags into a stream id, left to right."""
    z = seed & _MASK64
    for t in tags:
        z = mix64(z, t)
    return z


def generator(stream_id: int) -> np.random.Generator:
    """PCG64 generator for a derived stream id."""
    return np.random.Generator(np.random.PCG64(stream_id & _MASK64))


def standard_normal(rng: np.random.Generator, size: int) -> np.ndarray:
    """Standard normal draws via the Box-Muller transform.

    Uses 1 - U so the log argument lies in (0, 1]; consumes exactly
    2 * ceil(size / 2) uniforms, so output is a pure function of the stream.
    """
    half = (size + 1) // 2
    u1 = 1.0 - rng.random(half)
    u2 = rng.random(half)
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
    return z[:size]


def random_unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = standard_normal(rng, dim)
    nrm = np.linalg.norm(v)
    if nrm == 0.0:  # astronomically unlikely; retry once
        v = standard_normal(rng, dim)
        nrm = np.linalg.norm(v)
    return v / nrm

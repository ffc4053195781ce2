import numpy as np
import pytest
import scipy.stats
from hypothesis import given, strategies as st

import shuffle_sgd as ss
from shuffle_sgd.shuffle import ConfigError, ShufflePlan, permutation_for


class TestSchemes:
    def test_ig_defaults_to_identity(self):
        plan = ShufflePlan("IG", seed=1)
        for k in range(1, 6):
            assert np.array_equal(permutation_for(plan, 3, k), [0, 1, 2])

    def test_so_repeats_first_epoch(self):
        plan = ShufflePlan("SO", seed=11)
        first = permutation_for(plan, 16, 1)
        for k in range(2, 5):
            assert np.array_equal(permutation_for(plan, 16, k), first)

    def test_rr_epochs_differ(self):
        plan = ShufflePlan("RR", seed=11)
        perms = [permutation_for(plan, 32, k) for k in range(1, 4)]
        assert not np.array_equal(perms[0], perms[1])
        assert not np.array_equal(perms[1], perms[2])

    @given(st.integers(1, 40), st.integers(0, 2**31), st.integers(1, 6))
    def test_always_a_bijection(self, n, seed, k):
        plan = ShufflePlan("RR", seed=seed)
        p = permutation_for(plan, n, k)
        assert np.array_equal(np.sort(p), np.arange(n))

    def test_determinism(self):
        a = ShufflePlan("RR", seed=3)
        b = ShufflePlan("RR", seed=3)
        for k in range(1, 5):
            assert np.array_equal(permutation_for(a, 20, k), permutation_for(b, 20, k))

    def test_rr_uniform_position_chi2(self):
        # position of element 0 across 10^4 epochs is uniform over 64 cells
        n, epochs = 64, 10_000
        plan = ShufflePlan("RR", seed=2024)
        counts = np.zeros(n)
        for k in range(1, epochs + 1):
            perm = permutation_for(plan, n, k)
            counts[int(np.nonzero(perm == 0)[0][0])] += 1
        expected = epochs / n
        stat = float(np.sum((counts - expected) ** 2 / expected))
        threshold = scipy.stats.chi2.isf(0.01, n - 1)
        assert stat < threshold


class TestValidation:
    def test_bad_scheme(self):
        with pytest.raises(ConfigError):
            ShufflePlan("XX")


class TestStandalonePermutations:
    def test_trials_are_independent_streams(self):
        p0 = ss.random_permutation(50, seed=5, trial=0)
        p1 = ss.random_permutation(50, seed=5, trial=1)
        assert not np.array_equal(p0, p1)
        assert np.array_equal(p0, ss.random_permutation(50, seed=5, trial=0))


MASK64 = (1 << 64) - 1
# Stream domain tags of the documented seeding recipe.
DOMAIN_PERM = 0x9E12B3
DOMAIN_TRIAL = 0x7214D7


def published_permutation(seed, domain, index, n):
    """The documented recipe, written out here on purpose: fold the domain
    tag and then the index into the seed with z <- splitmix64(z ^
    splitmix64(tag)), seed PCG64 with z and draw Generator.permutation(n)."""

    def splitmix64(z):
        z = (z + 0x9E3779B97F4A7C15) & MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return (z ^ (z >> 31)) & MASK64

    z = seed & MASK64
    for tag in (domain, index):
        z = splitmix64(z ^ splitmix64(tag))
    return np.random.Generator(np.random.PCG64(z)).permutation(n)


@pytest.mark.parametrize("seed", [0, 101, -1, 2**40 + 3])
@pytest.mark.parametrize("n", [1, 7, 64])
def test_streams_follow_the_published_recipe(seed, n):
    for k in (1, 2, 3):
        rr = permutation_for(ShufflePlan("RR", seed=seed), n, k)
        so = permutation_for(ShufflePlan("SO", seed=seed), n, k)
        ig = permutation_for(ShufflePlan("IG", seed=seed), n, k)
        assert rr.dtype == so.dtype == ig.dtype == np.int64
        assert np.array_equal(rr, published_permutation(seed, DOMAIN_PERM, k, n))
        assert np.array_equal(so, published_permutation(seed, DOMAIN_PERM, 1, n))
        assert np.array_equal(ig, np.arange(n))
    for trial in (0, 1, 2):
        assert np.array_equal(ss.random_permutation(n, seed, trial),
                              published_permutation(seed, DOMAIN_TRIAL, trial, n))

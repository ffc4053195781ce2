import contextlib

import hypothesis
import numpy as np
import pytest

hypothesis.settings.register_profile(
    "default", max_examples=60, deadline=None, derandomize=True
)
hypothesis.settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_sparse_dataset(rng, n=None, d=None, density=0.6, ensure_nonzero=True):
    """Random row-sparse dataset with nontrivial labels, for oracle tests."""
    import shuffle_sgd as ss

    n = int(rng.integers(2, 24)) if n is None else n
    d = int(rng.integers(1, 10)) if d is None else d
    A = rng.standard_normal((n, d)) * (rng.random((n, d)) < density)
    if ensure_nonzero:
        for i in range(n):
            if not A[i].any():
                A[i, int(rng.integers(0, d))] = float(rng.standard_normal()) or 1.0
    labels = rng.choice([-1.0, 1.0], size=n)
    return ss.SparseDataset.from_dense(A, labels=labels)


def assert_same_dataset(a, b):
    """Assert that two datasets have equal d, CSR arrays and labels."""
    assert a.d == b.d
    for name in ("indptr", "indices", "values", "labels"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def divisors(n):
    return [k for k in range(1, n + 1) if n % k == 0]


# The masked Gram's two representations (constants._dense_gram picks one
# from the size of B); tests of the Gram run on each of them.
GRAM_PATHS = ("prefix-sum", "dense")


@contextlib.contextmanager
def gram_path(path):
    """Build every masked Gram inside the block in the given representation."""
    from shuffle_sgd import constants

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(constants, "_dense_gram", lambda n, d, nnz: path == "dense")
        yield


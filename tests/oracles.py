"""Independent dense oracles used to cross-check the matrix-free code paths.

Everything here is built directly from the mathematical definitions with
plain numpy (dense matrices, eigendecompositions, one-line SGD updates), on
purpose sharing no code with the package internals it checks. The one
exception, run_recording_inner, only observes the engine: it wraps its
in-place primal step to see the inner iterates the engine does not keep.
"""

import numpy as np

import shuffle_sgd.engine


def weighted_rows(A, w, perm):
    """B with rows sqrt(w_{perm_i}) * A_{perm_i}."""
    A = np.asarray(A, dtype=float)
    w = np.asarray(w, dtype=float)
    perm = np.asarray(perm, dtype=int)
    return (np.sqrt(w)[:, None] * A)[perm]


def dense_prefix_matrix(A, w, perm, b):
    """The prefix-masked Gram sum as an explicit matrix: (B B^T) o C with
    C[k, l] = ceil(min(k+1, l+1) / b)."""
    B = weighted_rows(A, w, perm)
    n = B.shape[0]
    G = B @ B.T
    idx = np.arange(1, n + 1)
    C = np.ceil(np.minimum.outer(idx, idx) / b)
    return G * C


def dense_blockdiag_matrix(A, w, perm, b):
    B = weighted_rows(A, w, perm)
    n = B.shape[0]
    G = B @ B.T
    M = np.zeros_like(G)
    for j in range(n // b):
        sl = slice(j * b, (j + 1) * b)
        M[sl, sl] = G[sl, sl]
    return M


def top_eig(M):
    return float(np.linalg.eigvalsh(M)[-1])


def dense_hat(A, w, perm, b):
    n = np.asarray(A).shape[0]
    m = n // b
    return top_eig(dense_prefix_matrix(A, w, perm, b)) / (m * n)


def dense_tilde(A, w, perm, b):
    B = weighted_rows(A, w, perm)
    n = B.shape[0]
    best = 0.0
    for j in range(n // b):
        Bj = B[j * b : (j + 1) * b]
        best = max(best, top_eig(Bj @ Bj.T))
    return best / b


def dense_full_gradient(A, w):
    B = np.sqrt(np.asarray(w, float))[:, None] * np.asarray(A, float)
    return top_eig(B @ B.T) / B.shape[0]


def scalar_derivative(family, t, z, scale=1.0):
    """Reference loss derivatives written independently of the package."""
    if family == "squared":
        return scale * (z - t)
    if family == "logistic":
        return scale * (-t / (1.0 + np.exp(t * z)))
    if family == "hinge":
        return scale * (-t if t * z < 1.0 else 0.0)
    if family == "absolute":
        return scale * float(np.sign(z - t))
    raise ValueError(family)


def scalar_value(family, t, z, scale=1.0):
    if family == "squared":
        return scale * 0.5 * (z - t) ** 2
    if family == "logistic":
        return scale * float(np.log1p(np.exp(-abs(t * z))) + max(0.0, -t * z))
    if family == "hinge":
        return scale * max(0.0, 1.0 - t * z)
    if family == "absolute":
        return scale * abs(z - t)
    raise ValueError(family)


def vanilla_epoch(A, targets, family, perm, b, eta, x0, scales=None):
    """One epoch of mini-batch shuffled SGD written as plain dense updates;
    returns all inner iterates x_0 .. x_m."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    scales = np.ones(n) if scales is None else np.asarray(scales, float)
    x = np.asarray(x0, dtype=float).copy()
    inner = [x.copy()]
    for i in range(n // b):
        rows = perm[i * b : (i + 1) * b]
        g = np.zeros_like(x)
        for r in rows:
            z = float(A[r] @ x)
            g += scalar_derivative(family, targets[r], z, scales[r]) * A[r]
        x = x - (eta / b) * g
        inner.append(x.copy())
    return inner


def numeric_derivative(fn, z, h=1e-5):
    return (fn(z + h) - fn(z - h)) / (2.0 * h)


def run_recording_inner(ds, model, plan, cfg):
    """engine.run with a copy of x taken after each of its in-place primal
    block steps; returns the result and, per epoch, the inner iterates
    x_0 .. x_m (x_0 the previous epoch's end, the origin for the first)."""
    engine = shuffle_sgd.engine
    steps = []
    primal = engine.primal_block_step

    def recording(x, *args):
        g = primal(x, *args)
        steps.append(x.copy())
        return g

    engine.primal_block_step = recording
    try:
        result = engine.run(ds, model, plan, cfg)
    finally:
        engine.primal_block_step = primal
    m = len(steps) // cfg.epochs
    xs = [np.zeros(ds.d)] + steps
    return result, [xs[k * m : (k + 1) * m + 1] for k in range(cfg.epochs)]

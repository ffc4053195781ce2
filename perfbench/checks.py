"""Output checks for the benchmark's commands.

Everything here is written from the mathematical definitions with plain
numpy and shares no code with the package under test: the permutation
streams are re-derived from their published recipe (splitmix64-folded
seeds feeding PCG64), the constants come from dense eigendecompositions,
and optimizer runs are replayed with one-line SGD updates. Each check
returns None when the output is correct, else a one-line reason.
"""

from __future__ import annotations

import csv
import json
import sys

import numpy as np

# Stream domain tags of the program's seeded streams (a stable, documented
# part of its reproducibility contract).
DOMAIN_PERM = 0x9E12B3
DOMAIN_TRIAL = 0x7214D7

# hat/tilde from the program must sit at or below the dense oracle (up to
# roundoff) and within ORACLE_REL_TOL of it. Power iteration at the CLI's
# default tolerance 1e-6 usually lands about 1e-5 low, but it can stop on a
# plateau near the second eigenvalue: over 1200 sonar-shaped permutations
# the worst shortfall was 4.5e-2 (99th percentile 5.5e-5). The tolerance
# admits that solver and any more accurate one; shortfalls beyond
# ACCURACY_NOTE are reported on stderr without failing the command.
ORACLE_REL_TOL = 1e-1
ACCURACY_NOTE = 1e-3
ROUNDOFF = 1e-10
# Final objectives of a replayed run, and L and the trace bound recomputed
# from the generated rows, must agree to this relative distance (prefix-sum
# roundoff over 0.74M nonzeros alone reaches about 1e-11).
REL_TOL = 1e-9
# Largest acceptable |retraction term - closed form| per traced epoch.
RETRACTION_RESIDUAL_MAX = 1e-12

_MASK = (1 << 64) - 1


def _splitmix64(z):
    z = (z + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def stream_permutation(seed, domain, index, n):
    """Permutation drawn on the program's (seed, domain, index) stream."""
    z = seed & _MASK
    for tag in (domain, index):
        z = _splitmix64(z ^ _splitmix64(tag & _MASK))
    return np.random.Generator(np.random.PCG64(z)).permutation(n)


def dense_hat(A, perm, b):
    """(1/(m n)) lambda_max((B B^T) o C), C[k, l] = ceil(min(k+1, l+1) / b)."""
    B = np.asarray(A, dtype=float)[perm]
    n = B.shape[0]
    idx = np.arange(1, n + 1)
    M = (B @ B.T) * np.ceil(np.minimum.outer(idx, idx) / b)
    return float(np.linalg.eigvalsh(M)[-1]) / ((n // b) * n)


def dense_tilde(A, perm, b):
    """(1/b) max over diagonal blocks of lambda_max(B_j B_j^T)."""
    B = np.asarray(A, dtype=float)[perm]
    n, d = B.shape
    blocks = B.reshape(n // b, b, d)
    grams = blocks @ blocks.transpose(0, 2, 1)
    return float(np.linalg.eigvalsh(grams)[:, -1].max()) / b


def oracle_rel_err(value, oracle):
    """Relative shortfall of `value` below `oracle`, or None if it is above."""
    if value > oracle * (1.0 + ROUNDOFF):
        return None
    return (oracle - value) / oracle


def _load_json(prefix):
    with open(prefix + ".json") as fh:
        return json.load(fh)


def _load_csv(prefix):
    with open(prefix + ".csv", newline="") as fh:
        return list(csv.reader(fh))


def _exit_error(code):
    return None if code == 0 else f"exit code {code}"


def analyze_oracle(prefix, code, A, b, seed):
    """Every sampled hat and tilde against the dense eigvalsh oracle."""
    if (err := _exit_error(code)) is not None:
        return err
    out = _load_json(prefix)
    n = A.shape[0]
    for j, (hat, til) in enumerate(zip(out["hatL_values"], out["tildeL_values"])):
        perm = stream_permutation(seed, DOMAIN_TRIAL, j, n)
        for name, value, oracle in (("hat", hat, dense_hat(A, perm, b)),
                                    ("tilde", til, dense_tilde(A, perm, b))):
            rel = oracle_rel_err(value, oracle)
            if rel is None or rel > ORACLE_REL_TOL:
                return f"perm {j}: {name} {value!r} vs oracle {oracle!r}"
            if rel > ACCURACY_NOTE:
                print(f"note: perm {j}: {name} {rel:.2e} below the dense oracle",
                      file=sys.stderr)
    if len(out["hatL_values"]) != out["num_perms"]:
        return "missing permutations"
    return None


def analyze_chain(prefix, code, row_sq):
    """The relaxation chain hat <= trace_bound <= L and tilde <= L, with L
    and trace_bound recomputed from the generated rows."""
    if (err := _exit_error(code)) is not None:
        return err
    out = _load_json(prefix)
    L, trace_bound = float(np.max(row_sq)), float(np.mean(row_sq))
    if abs(out["L"] - L) > REL_TOL * L or abs(out["trace_bound"] - trace_bound) > REL_TOL * L:
        return f"L/trace_bound {out['L']!r}/{out['trace_bound']!r} vs {L!r}/{trace_bound!r}"
    slack = 1.0 + ROUNDOFF
    if not trace_bound <= L * slack:
        return "trace bound above L"
    for hat in out["hatL_values"]:
        if not 0.0 < hat <= trace_bound * slack:
            return f"hat {hat!r} outside (0, trace_bound]"
    for til in out["tildeL_values"]:
        if not 0.0 < til <= L * slack:
            return f"tilde {til!r} outside (0, L]"
    return None


def _derivative(family, t, z):
    if family == "squared":
        return z - t
    if family == "hinge":
        return np.where(t * z < 1.0, -t, 0.0)
    raise ValueError(family)


def _objective(family, csr, t, x):
    indptr, indices, values = csr
    z = np.add.reduceat(values * x[indices], indptr[:-1])
    if family == "squared":
        return float(np.mean(0.5 * (z - t) ** 2))
    return float(np.mean(np.maximum(0.0, 1.0 - t * z)))


def replay(csr, t, family, b, step, seed, epochs, d):
    """Plain shuffled SGD: per block, derivatives at the current point, then
    one step against their data-weighted average. Returns f(x_k), k=1..K."""
    indptr, indices, values = csr
    n = len(t)
    x = np.zeros(d)
    f = []
    for k in range(1, epochs + 1):
        perm = stream_permutation(seed, DOMAIN_PERM, k, n)
        for i in range(n // b):
            rows = [(indices[indptr[r]:indptr[r + 1]], values[indptr[r]:indptr[r + 1]])
                    for r in perm[i * b:(i + 1) * b]]
            ys = [_derivative(family, t[r], vals @ x[idx])
                  for r, (idx, vals) in zip(perm[i * b:(i + 1) * b], rows)]
            for (idx, vals), y in zip(rows, ys):
                x[idx] -= (step / b) * y * vals
        f.append(_objective(family, csr, t, x))
    return f


def optimize_replay(prefix, code, csr, t, family, b, seeds, epochs, residual_max=None):
    """Per-epoch f_x of every seed against a replay of the same permutations,
    and (for traced runs) the retraction-identity residual."""
    if (err := _exit_error(code)) is not None:
        return err
    out = _load_json(prefix)
    if out["diverged"]:
        return f"diverged seeds {out['diverged']}"
    rows = _load_csv(prefix)[1:]
    d = int(np.max(csr[1])) + 1
    for s in seeds:
        got = [r for r in rows if int(r[0]) == s]
        if [int(r[1]) for r in got] != list(range(1, epochs + 1)):
            return f"seed {s}: epochs {[r[1] for r in got]}"
        want = replay(csr, t, family, b, out["step_size"], s, epochs, d)
        for r, f in zip(got, want):
            if abs(float(r[2]) - f) > REL_TOL * max(abs(f), 1e-300):
                return f"seed {s} epoch {r[1]}: f_x {r[2]} vs replay {f!r}"
            if residual_max is not None and not float(r[4]) <= residual_max:
                return f"seed {s} epoch {r[1]}: retraction residual {r[4]}"
    return None


def verify_holds(prefix, code):
    if (err := _exit_error(code)) is not None:
        return err
    verdict = _load_json(prefix)["verdict"]
    return None if verdict == "holds" else f"verdict {verdict}"

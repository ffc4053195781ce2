"""The benchmark's workloads: seeded input generators and the CLI commands
each workload runs, with the output check attached to every command.

Inputs are generated here with plain numpy from the benchmark seed and
written as LIBSVM text; the program under test only ever sees those files
and command-line flags. Values are written with `repr`, so the program
parses back exactly the floats the checks replay against.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import checks

NAMES = ("rcv1-sparse", "small-dense")


@dataclass
class Command:
    """One CLI invocation; `check(prefix, exit_code)` returns None when the
    outputs at `prefix` are correct, else a reason."""

    kind: str  # analyze | optimize | verify-bound
    tag: str
    argv: list
    check: Callable[[str, int], str | None]


@dataclass
class Workload:
    name: str
    sizes: dict  # n, d, nnz, b of the input (per part for a combined workload)
    # commands(p) lists pass p's commands. Passes differ only in the CLI's
    # --seed, so a run's median pass averages over permutation draws.
    commands: Callable[[int], list]
    # Traced counts that follow from the command flags alone.
    expected_counts: dict = field(default_factory=dict)
    # Blocks processed by engine.run, from seeds * epochs * n / b.
    engine_blocks: int = 0


def write_libsvm(path, indptr, indices, values, labels):
    with open(path, "w") as fh:
        for i in range(len(labels)):
            lo, hi = indptr[i], indptr[i + 1]
            pairs = " ".join(
                f"{j + 1}:{v!r}" for j, v in zip(indices[lo:hi].tolist(), values[lo:hi].tolist())
            )
            fh.write(f"{float(labels[i])!r} {pairs}\n")


def pass_seed(seed, p):
    """The CLI --seed of pass p of a run with benchmark seed `seed`."""
    return seed * 100 + p


def dense_csr(A):
    n, d = A.shape
    return np.arange(n + 1) * d, np.tile(np.arange(d), n), A.ravel()


def rcv1_like(n, d, k, seed):
    """rcv1-shaped rows: k nonzeros per row, positive, unit norm, +-1 labels.

    Column j of row i is drawn from the j-th of k strata whose widths grow
    quadratically, so low feature ids are frequent (a skewed, text-like
    column distribution) and each row's indices come out sorted and distinct.
    """
    rng = np.random.default_rng(seed)
    edges = np.floor(d * (np.arange(k + 1) / k) ** 2).astype(np.int64)
    cols = edges[:-1] + (rng.random((n, k)) * np.diff(edges)).astype(np.int64)
    vals = rng.random((n, k)) + 0.05
    vals /= np.linalg.norm(vals, axis=1, keepdims=True)
    labels = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    return np.arange(n + 1) * k, cols.ravel(), vals.ravel(), labels


def _rcv1_sparse(seed, tiny, workdir):
    n, d, k, b = (200, 470, 8, 10) if tiny else (10000, 23500, 74, 10)
    indptr, indices, values, labels = rcv1_like(n, d, k, seed)
    path = os.path.join(workdir, "rcv1.svm")
    write_libsvm(path, indptr, indices, values, labels)
    row_sq = np.add.reduceat(values * values, indptr[:-1])

    def commands(p):
        return [
            Command("analyze", "analyze",
                    ["analyze", "--input", path, "--b", str(b), "--num-perms", "1",
                     "--seed", str(pass_seed(seed, p))],
                    lambda prefix, code: checks.analyze_chain(prefix, code, row_sq)),
            # hinge with a fixed step: the reference minimizer would not
            # terminate on this separable data
            Command("optimize", "optimize",
                    ["optimize", "--input", path, "--loss", "hinge", "--b", "1",
                     "--epochs", "1", "--step", "0.5", "--no-trace"],
                    lambda prefix, code: checks.optimize_replay(
                        prefix, code, (indptr, indices, values), labels, "hinge",
                        b=1, seeds=[0], epochs=1)),
        ]

    return Workload(
        name="rcv1-sparse",
        sizes={"n": n, "d": d, "nnz": int(indptr[-1]), "b": b},
        commands=commands,
        expected_counts={
            "data.parse_libsvm.calls": 2,
            "constants.hat_constant.calls": 1,
            "constants.tilde_constant.calls": 1,
            "shuffle.random_permutation.calls": 1,
            "shuffle.permutation_for.calls": 1,
            "engine.run.calls": 1,
            "engine.dual_block_update.calls": n,
            "engine.primal_block_step.calls": n,
        },
        engine_blocks=n,
    )


def _sonar(seed, tiny, workdir):
    n, d, b, perms = (24, 6, 4, 3) if tiny else (208, 60, 4, 40)
    epochs, run_seeds, step_perms = (2, [0, 1], 3) if tiny else (10, [0, 1, 2], 50)
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, d))
    t = rng.standard_normal(n)
    path = os.path.join(workdir, "sonar.svm")
    write_libsvm(path, *dense_csr(A), t)
    blocks = len(run_seeds) * epochs * n

    def commands(p):
        s = pass_seed(seed, p)
        return [
            Command("analyze", "analyze",
                    ["analyze", "--input", path, "--b", str(b), "--num-perms", str(perms),
                     "--seed", str(s)],
                    lambda prefix, code: checks.analyze_oracle(prefix, code, A, b, s)),
            Command("optimize", "optimize",
                    ["optimize", "--input", path, "--loss", "squared", "--step", "theoretical",
                     "--b", "1", "--epochs", str(epochs),
                     "--seeds", ",".join(map(str, run_seeds)), "--perms", str(step_perms),
                     "--seed", str(s)],
                    lambda prefix, code: checks.optimize_replay(
                        prefix, code, dense_csr(A), t, "squared", b=1, seeds=run_seeds,
                        epochs=epochs, residual_max=checks.RETRACTION_RESIDUAL_MAX)),
        ]

    return Workload(
        name="sonar",
        sizes={"n": n, "d": d, "nnz": n * d, "b": b},
        commands=commands,
        expected_counts={
            "data.parse_libsvm.calls": 2,
            "constants.hat_constant.calls": perms + step_perms,
            "constants.tilde_constant.calls": perms + step_perms,
            "constants.reference_minimizer.calls": 1,
            "shuffle.random_permutation.calls": perms + step_perms,
            "shuffle.permutation_for.calls": len(run_seeds) * epochs,
            "engine.run.calls": len(run_seeds),
            "engine.dual_block_update.calls": blocks,
            "engine.primal_block_step.calls": blocks,
        },
        engine_blocks=blocks,
    )


def _verify_many_seeds(seed, tiny, workdir):
    # The 24 x 5 squared-loss problem of scripts/bound_verification.py.
    n, d, b = 24, 5, 2
    rng = np.random.default_rng([seed, 1])
    A = rng.standard_normal((n, d))
    t = rng.standard_normal(n)
    path = os.path.join(workdir, "small.svm")
    write_libsvm(path, *dense_csr(A), t)
    if tiny:
        rr, grr, ns = (4, 4, 2), (3, 3, 2), (3, 3, 2)
        planted = (12, 3)
    else:
        rr, grr, ns = (200, 100, 10), (100, 100, 8), (50, 50, 10)  # seeds, perms, epochs
        planted = (50, 5)

    def verify(kind, extra, cfg, p):
        seeds, perms, epochs = cfg
        return Command(
            "verify-bound", kind,
            ["verify-bound", "--bound", kind, *extra, "--epochs", str(epochs),
             "--seeds", str(seeds), "--perms", str(perms), "--seed", str(pass_seed(seed, p))],
            checks.verify_holds)

    smooth = ["--input", path, "--loss", "squared", "--b", str(b)]
    rr_blocks = rr[0] * rr[2] * n // b
    ns_blocks = ns[0] * ns[2] * planted[0]  # b = 1
    return Workload(
        name="verify",
        sizes={"n": n, "d": d, "nnz": n * d, "b": b},
        commands=lambda p: [
            verify("rr", smooth, rr, p),
            verify("general-rr", smooth, grr, p),
            verify("nonsmooth", ["--planted", "--gaussian", f"{planted[0]},{planted[1]}",
                                 "--b", "1"], ns, p),
        ],
        expected_counts={
            "data.parse_libsvm.calls": 2,
            "constants.hat_constant.calls": rr[1] + grr[1] + ns[1],
            "constants.tilde_constant.calls": rr[1] + grr[1] + ns[1],
            "constants.general_hat_L.calls": grr[1],
            "constants.reference_minimizer.calls": 2,
            "shuffle.random_permutation.calls": rr[1] + 2 * grr[1] + ns[1],
            "constants.gbar_estimate.calls": 1,
            "shuffle.permutation_for.calls": rr[0] * rr[2] + grr[0] * grr[2] + ns[0] * ns[2],
            "engine.run.calls": rr[0] + ns[0],
            "engine.run_general.calls": grr[0],
            "engine.dual_block_update.calls": rr_blocks + ns_blocks,
            "engine.primal_block_step.calls": rr_blocks + ns_blocks,
        },
        engine_blocks=rr_blocks + ns_blocks,
    )


def _small_dense(seed, tiny, workdir):
    """The small dense side: the sonar-shaped analyze/optimize pair, then the
    many tiny verify-bound runs. One workload rather than two, so that each
    run can be long enough to average out this class of machine's slow
    phases within the benchmark's time budget."""
    parts = [_sonar(seed, tiny, workdir), _verify_many_seeds(seed, tiny, workdir)]
    counts = {}
    for part in parts:
        for key, value in part.expected_counts.items():
            counts[key] = counts.get(key, 0) + value
    return Workload(
        name="small-dense",
        sizes={part.name: part.sizes for part in parts},
        commands=lambda p: [cmd for part in parts for cmd in part.commands(p)],
        expected_counts=counts,
        engine_blocks=sum(part.engine_blocks for part in parts),
    )


_BUILDERS = {
    "rcv1-sparse": _rcv1_sparse,
    "small-dense": _small_dense,
}


def build(name: str, seed: int, tiny: bool, workdir: str) -> Workload:
    """Generate the workload's inputs from `seed` into `workdir`."""
    return _BUILDERS[name](seed, tiny, workdir)

"""Command-line drivers: the per-permutation ratio study (analyze: L, L_full
and the trace bound once, hat and tilde per permutation), optimizer runs
(optimize) and bound verification (verify-bound). The L / tilde study over
batch sizes is analyze at each b: scripts/batch_size_sweep.py runs it over
every divisor of n.

Every command reads its data from an --input LIBSVM file, with as many
columns as its largest feature index, or generates --gaussian N,D.
Every command is deterministic given its full flag set. Permutation trials
and run seeds go one after another, in order. Numeric outputs go to CSV (LF
endings, `.` decimal); each command also writes a JSON report carrying
schema_version and the effective configuration for provenance.
verify-bound and optimize --step theoretical read their guarantee's record
in bounds.GUARANTEES for its constants, step and right-hand side; every run
starts at the origin, from which those records measure D = ||x*||. --loss
defaults to squared, but verify-bound --bound nonsmooth runs the planted
hinge and takes no other loss. Every Lanczos solve stops at
constants.LANCZOS_TOL, which analyze's JSON report records.

Each flag is checked where it is declared, by its argparse type; rules that
join two flags open their command. So every usage error returns 2 from main
before any data is read, except a batch size that must divide the n of an
--input file, which is checked as soon as the file is read. An analyze
study whose estimated cost exceeds DEFAULT_COST_BUDGET is refused unless
--force: over --gaussian N,D data before the data is generated, over an
--input file once it is read.

Exit codes: 0 success, 1 verdict failure (a verified bound was violated or
could not be certified), 2 usage / IO / parse errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import bounds as bd
from . import constants as consts
from . import engine, losses, prng, shuffle
from .data import ParseError, SparseDataset, gen_gaussian, load_libsvm

# Refuse permutation studies whose rough cost estimate exceeds this many
# operations, unless --force. Per permutation, a hat solve of S Lanczos steps
# costs S matvecs (nnz each) plus 4 k n for reorthogonalising step k against
# the basis, 2 S^2 n in all, and tilde's batched eigvalsh costs n b^2.
# On 2 cores estimates ran at 1.2e9-6e9 ops/s (analyze --b 1 at 1000 perms
# took 3-10 s on sonar- to leu-shaped files, 0.2 s a perm on rcv1-shaped
# 10000 x 23500), so a study within budget takes a minute or two at most.
DEFAULT_COST_BUDGET = 1e11
_ASSUMED_LANCZOS_STEPS = 100


class CliError(Exception):
    def __init__(self, message, code=2):
        self.code = code
        super().__init__(message)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors are CliErrors: exit 2 from main."""

    def error(self, message):
        raise CliError(message)


def _checked(message, convert=int, ok=lambda v: v >= 1):
    """argparse type: convert the text, then refuse a value that fails ok
    (by default, an integer below 1) with message, formatted with it."""
    def parse(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(message.format(value))
        return value

    parse.__name__ = convert.__name__  # argparse's "invalid int value" names it
    return parse


def _ints(text) -> list:
    try:
        return [int(t) for t in text.split(",") if t != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated integer list, got {text!r}")


def _run_seeds(text) -> list:
    """optimize --seeds: distinct run seeds, at least one."""
    seeds = _checked("provide at least one run seed", _ints, bool)(text)
    repeated = sorted({s for s in seeds if seeds.count(s) > 1})
    if repeated:
        raise argparse.ArgumentTypeError(f"run seed {repeated[0]} is repeated in --seeds")
    return seeds


def _step(text):
    """optimize --step: 'theoretical' or a positive finite float."""
    try:
        return text if text == "theoretical" else _checked(
            "step sizes must be positive and finite, got {}", float,
            lambda v: math.isfinite(v) and v > 0)(text)
    except ValueError:
        raise argparse.ArgumentTypeError("--step expects a float or 'theoretical'")


def _check_data_flags(args):
    """Rules that join the data flags, checked before any data is read:
    one source of data, and for --gaussian N,D the batch size dividing N."""
    if args.gaussian:
        if args.input:
            raise CliError("give --input PATH or --gaussian N,D, not both")
        shuffle.check_batch(args.gaussian[0], args.b)


def _load_dataset(args) -> SparseDataset:
    """The --input or --gaussian data, refused at once unless the batch size
    divides its n: before anything is computed from it."""
    if args.gaussian:
        ds = gen_gaussian(*args.gaussian, args.seed)
    elif not args.input:
        raise CliError("provide --input PATH or --gaussian N,D")
    elif not os.path.exists(args.input):
        raise CliError(f"input file not found: {args.input}")
    else:
        try:
            ds = load_libsvm(args.input)
        except ParseError as exc:
            raise CliError(f"{args.input}: {exc}")
    shuffle.check_batch(ds.n, args.b)
    return ds


def _unit_regularity(ds: SparseDataset) -> losses.RegularityDiag:
    """Unit per-component constants: ratio experiments fix the loss scale so
    only the data matrix matters."""
    return losses.RegularityDiag(np.ones(ds.n))


def _load_ratio_study(args) -> SparseDataset:
    """The data of analyze's permutation study, once the study passes every
    rule: the data flags, the batch size dividing n, some nonzero value (else
    every L / hat and L / tilde ratio is 0 / 0), and an estimated cost within
    DEFAULT_COST_BUDGET unless --force."""
    def check_cost(n, nnz):
        S, b = _ASSUMED_LANCZOS_STEPS, args.b
        est = args.num_perms * (S * nnz + 2 * S * S * n + n * b * b)
        if est > DEFAULT_COST_BUDGET and not args.force:
            raise CliError(f"estimated cost {est:.2e} ops exceeds budget "
                           f"{DEFAULT_COST_BUDGET:.2e}; rerun with --force to proceed")

    _check_data_flags(args)
    if args.gaussian:  # nnz is N·D, so the cost needs no generated data
        check_cost(args.gaussian[0], math.prod(args.gaussian))
    ds = _load_dataset(args)
    if not np.any(ds.values):
        raise CliError("the data has no nonzero value, so every ratio is 0 / 0")
    check_cost(ds.n, ds.nnz)
    return ds


def _write_csv(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerows(rows)


def _write_json(args, payload):
    """Write the command's report to --out .json, with the schema version
    and the effective configuration every report carries. The report is
    strict JSON: a NaN or infinity is an error, not written."""
    config = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    report = {"schema_version": consts.SCHEMA_VERSION, "config": config, **payload}
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    with open(args.out + ".json", "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _check_sampled_perms(args):
    """Refuse --perms < 1 for a step sized from sampled permutations."""
    if args.perms < 1:
        raise CliError(f"num_perms must be >= 1, got --perms {args.perms}")


def cmd_analyze(args) -> int:
    t0 = time.perf_counter()
    ds = _load_ratio_study(args)
    reg = _unit_regularity(ds)
    L_full = consts.full_gradient_L(ds, reg)
    report = consts.ratio_stats(ds, reg, b=args.b, num_perms=args.num_perms, seed=args.seed)
    payload = {**report.to_json_dict(), "L_full": L_full,
               "runtime_sec": time.perf_counter() - t0}
    _write_json(args, payload)
    _write_csv(args.out + ".csv", report.to_csv_rows())
    print(
        f"L={report.L:.6g} mean(L/hatL)={report.ratio_summary['mean']:.4g} "
        f"std={report.ratio_summary['std']:.3g} runtime={payload['runtime_sec']:.2f}s"
    )
    return 0


def _minimizer_record(ref):  # None when no minimizer ran
    if ref is not None:
        return {"reason": ref.reason, "iterations": ref.iterations, "grad_norm": ref.grad_norm}


def cmd_optimize(args) -> int:
    args.loss = args.loss or "squared"
    theoretical = args.step == "theoretical"
    if theoretical and args.loss not in losses.SMOOTH_FAMILIES:
        raise CliError("theoretical step for nonsmooth losses needs verify-bound --planted, "
                       f"got --loss {args.loss}")
    if theoretical and args.scheme != "IG":
        _check_sampled_perms(args)
    _check_data_flags(args)
    ds = _load_dataset(args)
    model = losses.LossModel.for_dataset(args.loss, ds)
    trace = not args.no_trace

    eta = args.step
    ref = consts.reference_minimizer(ds, model) if model.smooth else None
    if theoretical:
        if not ref.converged:
            raise CliError(f"reference minimizer stopped ({ref.reason}); cannot size the step",
                           code=1)
        guarantee = bd.GUARANTEES["ig" if args.scheme == "IG" else "rr"]
        eta = guarantee.step(guarantee.inputs(ds, model, ref.x, args.b, args.epochs, args.perms,
                                              args.seed))
    f_star = ref.value if ref is not None and ref.converged else None

    rows = [("seed", "epoch", "f_x", "f_avg", "retraction_residual")]
    final_gaps = {}
    diverged = {}
    cfg = engine.RunConfig(batch=args.b, epochs=args.epochs, step=eta, trace=trace)
    for s in args.seeds:
        try:
            result = engine.run(ds, model, shuffle.ShufflePlan(args.scheme, seed=s), cfg)
        except engine.DivergenceError as exc:
            diverged[s] = exc.epoch
            continue
        for k, (f_x, f_avg) in enumerate(zip(result.objectives, result.objectives_avg), 1):
            res = (engine.retraction_residual(result.traces[k - 1], args.b, ds.n) if trace
                   else float("nan"))
            rows.append((s, k, repr(float(f_x)), repr(float(f_avg)), repr(res)))
        if f_star is not None:
            final_gaps[s] = float(result.objective_avg - f_star)

    _write_csv(args.out + ".csv", rows)
    payload = {
        "step_size": eta,
        "diverged": {str(k): v for k, v in diverged.items()},
        "minimizer": _minimizer_record(ref),
    }
    if final_gaps:
        payload["final_gaps"] = {str(k): v for k, v in final_gaps.items()}
        payload["mean_final_gap"] = float(np.mean(list(final_gaps.values())))
    _write_json(args, payload)
    if len(diverged) == len(args.seeds):
        print("all seeds diverged", file=sys.stderr)
        return 1
    gap = f" mean_final_gap={payload['mean_final_gap']:.6g}" if final_gaps else ""
    print(f"step={eta:.4g}{gap}")
    return 0


def _planted_hinge(n, d, seed):
    """Hinge problem with a known optimum: targets are the signs of a planted
    direction's margins and the optimum is that direction scaled so the
    smallest margin is 2, making the minimum value exactly 0."""
    ds0 = gen_gaussian(n, d, seed)
    A = ds0.to_dense()
    rng = prng.generator(prng.substream(seed, prng.DOMAIN_PLANTED))
    direction = prng.standard_normal(rng, d)
    direction /= np.linalg.norm(direction)
    z = A @ direction
    t = np.sign(z)
    scale = 2.0 / np.min(np.abs(z))
    x_star = scale * direction
    ds = SparseDataset.from_dense(A, labels=t)
    return ds, x_star


def _inconclusive(args, reason, ref) -> int:
    _write_json(args, {"verdict": "inconclusive", "reason": reason,
                       "minimizer": _minimizer_record(ref)})
    print("verdict=inconclusive")
    return 1


def _general_runs(ds, model):
    """(plan, cfg) -> engine.run_general on the GLM's component gradients
    l_i'(a_i^T x) a_i. Each row's id, columns and values are sliced once,
    for every run."""
    rows = [(np.array([i]), *ds.row(i)) for i in range(ds.n)]

    def glm_oracle(i, x):
        ids, cols, vals = rows[i]
        g = np.zeros(ds.d)
        g[cols] = losses.derivative_vec(model, ids, vals @ x[cols]) * vals
        return g

    def run(plan, cfg):
        return engine.run_general(glm_oracle, ds.n, ds.d, plan, cfg,
                                  objective_fn=lambda x: losses.objective(model, ds, x))

    return run


def cmd_verify_bound(args) -> int:
    kind = args.bound.replace("-", "_")
    guarantee = bd.GUARANTEES[kind]
    if guarantee.planted and not (args.planted and args.gaussian):
        raise CliError("nonsmooth verification needs --planted --gaussian N,D (known optimum)")
    if args.planted and not guarantee.planted:
        raise CliError(f"--planted builds the nonsmooth problem; --bound {args.bound} "
                       "does not use it")
    if guarantee.planted:
        if args.loss not in (None, "hinge"):
            raise CliError(f"--bound {args.bound} runs the planted hinge problem, "
                           f"got --loss {args.loss}")
        args.loss = "hinge"
    else:
        args.loss = args.loss or "squared"
        if args.loss not in losses.SMOOTH_FAMILIES:
            raise CliError(f"--bound {args.bound} needs a smooth loss, got --loss {args.loss}")
    if guarantee.scheme == "RR":
        _check_sampled_perms(args)
    _check_data_flags(args)

    # a constant whose spectral solve did not converge cannot size the step
    ref = None  # stays None for --planted: the optimum is known
    try:
        if guarantee.planted:
            ds, x_star = _planted_hinge(*args.gaussian, args.seed)
            model = losses.LossModel.for_dataset(args.loss, ds)
            f_star = 0.0
        else:
            ds = _load_dataset(args)
            model = losses.LossModel.for_dataset(args.loss, ds)
            ref = consts.reference_minimizer(ds, model)
            if not ref.converged:
                return _inconclusive(
                    args, f"reference minimizer stopped ({ref.reason}); cannot size the step", ref)
            x_star, f_star = ref.x, ref.value
        inp = guarantee.inputs(ds, model, x_star, args.b, args.epochs, args.perms, args.seed)
        eta = guarantee.step(inp)
        rhs = guarantee.rhs(inp, eta)
    except consts.ConvergenceError as exc:
        return _inconclusive(args, str(exc), ref)

    # IG runs are deterministic: one run suffices. The bound is on f(x_bar_K)
    # alone: no per-epoch objectives.
    seeds = [0] if guarantee.scheme == "IG" else range(args.seeds)
    run = (_general_runs(ds, model) if guarantee.general
           else functools.partial(engine.run, ds, model))
    cfg = engine.RunConfig(batch=args.b, epochs=args.epochs, step=eta, epoch_objectives=False)
    gaps = []
    for s in seeds:
        try:
            result = run(shuffle.ShufflePlan(guarantee.scheme, seed=s), cfg)
        except engine.DivergenceError:
            continue
        gap = float(result.objective_avg - f_star)
        if math.isfinite(gap):
            gaps.append(gap)
    diverged = len(seeds) - len(gaps)
    if diverged:
        # a diverged run's gap is unbounded: no mean to compare, and none to write
        _write_json(args, {
            "bound": kind,
            "step_size": eta,
            "rhs": rhs,
            "num_runs": len(seeds),
            "diverged_runs": diverged,
            "verdict": "violated",
            "reason": f"{diverged} of {len(seeds)} runs diverged",
            "minimizer": _minimizer_record(ref),
        })
        print(f"verdict=violated diverged_runs={diverged} rhs={rhs:.6g}")
        return 1

    mean_gap = float(np.mean(gaps))
    # the standard error of the mean, from the unbiased sample variance
    sem = float(np.std(gaps, ddof=1) / math.sqrt(len(gaps))) if len(gaps) > 1 else 0.0
    holds = mean_gap <= rhs
    payload = {
        "bound": kind,
        "step_size": eta,
        "empirical_mean_gap": mean_gap,
        "standard_error": sem,
        "rhs": rhs,
        "margin": rhs - mean_gap,
        "num_runs": len(gaps),
        "verdict": "holds" if holds else "violated",
        "minimizer": _minimizer_record(ref),
    }
    _write_json(args, payload)
    print(f"verdict={payload['verdict']} mean_gap={mean_gap:.6g} rhs={rhs:.6g}")
    return 0 if holds else 1


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="shuffle-sgd",
        description="Shuffled SGD constants, runs, and bound verification. "
        "Desk-scale studies (small LIBSVM sets, Gaussian sweeps up to ~500x500) "
        "finish in seconds to minutes; larger inputs need --force.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def flags(*parents):  # flags that subcommands share through parents=
        return _Parser(add_help=False, parents=list(parents))

    common = flags()
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", required=True, help="output path prefix")
    data = flags()
    data.add_argument("--input")
    data.add_argument("--gaussian", type=_checked("--gaussian expects N,D >= 1, got {}", _ints,
                                                  lambda v: len(v) == 2 and min(v) >= 1),
                      help="N,D synthetic data instead of --input")
    batch = flags()
    batch.add_argument("--b", type=_checked("--b must be >= 1, got {}"), default=1)
    run = flags(batch)
    run.add_argument("--loss", choices=losses.FAMILIES, default=None,
                     help="default squared; verify-bound --bound nonsmooth takes only hinge")
    run.add_argument("--epochs", type=_checked("--epochs must be >= 1, got {}"), default=10)

    sp = sub.add_parser("analyze", parents=[data, batch, common],
                        help="per-permutation hat/tilde constants and L / hat ratios")
    sp.add_argument("--num-perms", type=_checked("num_perms must be >= 1, got {}"), default=1000)
    sp.add_argument("--force", action="store_true")
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("optimize", parents=[data, run, common],
                        help="run shuffled SGD and trace objectives")
    sp.add_argument("--scheme", choices=shuffle.SCHEMES, default="RR")
    sp.add_argument("--step", type=_step, default="theoretical",
                    help="'theoretical' or a float")
    sp.add_argument("--seeds", type=_run_seeds, default="0", help="comma-separated run seeds")
    sp.add_argument("--perms", type=int, default=50,
                    help="permutations sampled for step-size constants")
    sp.add_argument("--no-trace", action="store_true", help="skip the retraction-identity check")
    sp.set_defaults(func=cmd_optimize)

    sp = sub.add_parser("verify-bound", parents=[data, run, common],
                        help="check a convergence guarantee empirically")
    sp.add_argument("--bound", required=True,
                    choices=tuple(k.replace("_", "-") for k in bd.GUARANTEES))
    sp.add_argument("--planted", action="store_true",
                    help="construct a hinge problem with a known optimum")
    sp.add_argument("--seeds", type=_checked("provide at least one run seed, got --seeds {}"),
                    default=100, help="number of independent runs")
    sp.add_argument("--perms", type=int, default=100,
                    help="permutations for constant estimation")
    sp.set_defaults(func=cmd_verify_bound)

    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except consts.ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ParseError, shuffle.ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

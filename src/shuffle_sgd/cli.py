"""Command-line drivers for constants analysis, sweeps, optimizer runs, and
bound verification.

Every command is deterministic given its full flag set. The permutation
trials of analyze, gaussian-sweep and histogram run on a worker pool capped
by SHUFFLE_SGD_THREADS and are written in trial order; run seeds go one
after another. Numeric outputs go to CSV (LF endings, `.` decimal); each
command also writes a JSON report carrying schema_version and the effective
configuration for provenance.

Exit codes: 0 success, 1 verdict failure (a verified bound was violated or
could not be certified), 2 usage / IO / parse errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time

import numpy as np

from . import bounds as bd
from . import constants as consts
from . import engine, losses, shuffle
from .data import ParseError, SparseDataset, gen_gaussian, load_libsvm, row_sq_norms

# Refuse permutation studies whose rough cost estimate exceeds this many
# operations, unless --force. Per permutation, a hat solve of S Lanczos steps
# costs S matvecs (nnz each) plus 4 k n for reorthogonalising step k against
# the basis, 2 S^2 n in all, and tilde's batched eigvalsh costs n b^2.
DEFAULT_COST_BUDGET = 2e10
_ASSUMED_LANCZOS_STEPS = 100


class CliError(Exception):
    def __init__(self, message, code=2):
        self.code = code
        super().__init__(message)


def _max_workers() -> int | None:
    """Permutation workers for ratio_stats, from SHUFFLE_SGD_THREADS."""
    raw = os.environ.get("SHUFFLE_SGD_THREADS")
    if not raw:
        return None
    try:
        return max(1, int(raw))
    except ValueError:
        raise CliError(f"SHUFFLE_SGD_THREADS must be an integer, got {raw!r}")


def _load_dataset(args) -> SparseDataset:
    if getattr(args, "gaussian", None):
        try:
            n, d = (int(t) for t in args.gaussian.split(","))
        except ValueError:
            raise CliError("--gaussian expects N,D")
        return gen_gaussian(n, d, args.seed)
    path = getattr(args, "input", None)
    if not path:
        raise CliError("provide --input PATH or --gaussian N,D")
    if not os.path.exists(path):
        raise CliError(f"input file not found: {path}")
    try:
        return load_libsvm(path, d=getattr(args, "features", None))
    except ParseError as exc:
        raise CliError(f"{path}: {exc}")


def _unit_regularity(ds: SparseDataset) -> losses.RegularityDiag:
    """Unit per-component constants: ratio experiments fix the loss scale so
    only the data matrix matters."""
    return losses.RegularityDiag(np.ones(ds.n))


def _check_budget(ds, num_perms, b, args):
    budget = DEFAULT_COST_BUDGET if args.max_cost is None else args.max_cost
    if not (math.isfinite(budget) and budget > 0):
        raise CliError(f"--max-cost must be positive and finite, got {budget}")
    S = _ASSUMED_LANCZOS_STEPS
    est = num_perms * (S * ds.nnz + 2 * S * S * ds.n + ds.n * b * b)
    if est > budget and not args.force:
        raise CliError(
            f"estimated cost {est:.2e} ops exceeds budget {budget:.2e}; "
            "rerun with --force to proceed"
        )


def _write_csv(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerows(rows)


def _config_echo(args) -> dict:
    skip = {"func"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _write_json(args, payload):
    """Write the command's report to --out .json, with the schema version
    and the effective configuration every report carries. The report is
    strict JSON: a NaN or infinity is an error, not written."""
    report = {"schema_version": consts.SCHEMA_VERSION, "config": _config_echo(args), **payload}
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    with open(args.out + ".json", "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _int_list(text) -> list:
    try:
        return [int(t) for t in str(text).split(",") if t != ""]
    except ValueError:
        raise CliError(f"expected a comma-separated integer list, got {text!r}")


def _check_run_length(args, sampled: bool):
    """Refuse --epochs < 1, and --perms < 1 when the step is sized from
    sampled permutations, before any data is loaded."""
    if args.epochs < 1:
        raise CliError(f"--epochs must be >= 1, got {args.epochs}")
    if sampled and args.perms < 1:
        raise CliError(f"num_perms must be >= 1, got --perms {args.perms}")


def _ratio_report(ds, args, num_perms, compute_tilde) -> consts.ConstantsReport:
    """ratio_stats at unit regularity with the command's --b, --seed and
    --tol, on the SHUFFLE_SGD_THREADS pool."""
    return consts.ratio_stats(
        ds, _unit_regularity(ds), b=args.b, num_perms=num_perms, seed=args.seed,
        tol=args.tol, compute_tilde=compute_tilde, max_workers=_max_workers(),
    )


def cmd_analyze(args) -> int:
    t0 = time.time()
    ds = _load_dataset(args)
    _check_budget(ds, args.num_perms, args.b, args)
    report = _ratio_report(ds, args, args.num_perms, compute_tilde=not args.no_tilde)
    payload = report.to_json_dict()
    payload["runtime_sec"] = time.time() - t0
    _write_json(args, payload)
    _write_csv(args.out + ".csv", report.to_csv_rows())
    print(
        f"L={report.L:.6g} mean(L/hatL)={report.ratio_summary['mean']:.4g} "
        f"std={report.ratio_summary['std']:.3g} runtime={payload['runtime_sec']:.2f}s"
    )
    return 0


def cmd_gaussian_sweep(args) -> int:
    grid = _int_list(args.grid)
    if not grid:
        raise CliError("grid must be nonempty")
    rows = [("n", "d", "perm_index", "ratio")]
    summary = [("n", "d", "num_perms", "mean_ratio", "std_ratio")]
    means = []
    for g in grid:
        if args.fixed == "d":
            n, d = g, args.fixed_value
        else:
            n, d = args.fixed_value, g
        ds = gen_gaussian(n, d, seed=consts.prng.mix64(args.seed, g))
        report = _ratio_report(ds, args, args.perms, compute_tilde=False)
        for j, r in enumerate(report.ratios):
            rows.append((n, d, j, repr(float(r))))
        summary.append(
            (n, d, args.perms, repr(report.ratio_summary["mean"]), repr(report.ratio_summary["std"]))
        )
        means.append(report.ratio_summary["mean"])
    _write_csv(args.out + ".csv", rows)
    _write_csv(args.out + ".summary.csv", summary)
    _write_json(args, {"grid": grid, "mean_ratios": means})
    print(" ".join(f"{g}:{m:.4g}" for g, m in zip(grid, means)))
    return 0


def cmd_batch_sweep(args) -> int:
    if args.perms < 1:
        raise CliError("num_perms must be >= 1")
    b_grid = _int_list(args.b_grid)
    if not b_grid:
        raise CliError("b-grid must be nonempty")
    ds = _load_dataset(args)
    for b in b_grid:
        shuffle.check_batch(ds.n, b)
    _check_budget(ds, args.perms * len(b_grid), max(b_grid), args)
    reg = _unit_regularity(ds)
    L = consts.classical_constant(ds, reg)
    rows = [("b", "perm_index", "ratio")]
    summary = [("b", "num_perms", "mean_ratio", "std_ratio")]
    means = []
    for b in b_grid:
        ratios = []
        for j in range(args.perms):
            perm = shuffle.random_permutation(ds.n, args.seed, j)
            til = consts.tilde_constant(ds, reg, perm, b)
            ratios.append(L / til)
        for j, r in enumerate(ratios):
            rows.append((b, j, repr(float(r))))
        means.append(float(np.mean(ratios)))
        summary.append((b, args.perms, repr(means[-1]), repr(float(np.std(ratios)))))
    # log-log slope of the mean ratio against b; a single b has none
    alpha = (float(np.polyfit(np.log(b_grid), np.log(np.maximum(means, 1e-300)), 1)[0])
             if len(b_grid) > 1 else None)
    _write_csv(args.out + ".csv", rows)
    _write_csv(args.out + ".summary.csv", summary)
    _write_json(args, {"b_grid": b_grid, "mean_ratios": means, "loglog_slope": alpha})
    slope = "none" if alpha is None else f"{alpha:.4g}"
    print(f"alpha={slope} " + " ".join(f"b={b}:{m:.4g}" for b, m in zip(b_grid, means)))
    return 0


def cmd_histogram(args) -> int:
    if args.bins < 1:
        raise CliError("bins must be >= 1")
    ds = _load_dataset(args)
    _check_budget(ds, args.num_perms, args.b, args)
    ratios = _ratio_report(ds, args, args.num_perms, compute_tilde=False).ratios
    lo, hi = float(np.min(ratios)), float(np.max(ratios))
    if hi - lo <= 1e-12 * hi:
        # ratios that agree to roundoff are one value: give it the unit-wide
        # range np.histogram gives equal values, not bins narrower than the
        # spacing of floats, which it refuses
        lo, hi = lo - 0.5, hi + 0.5
    density, edges = np.histogram(ratios, bins=args.bins, range=(lo, hi), density=True)
    rows = [("bin_left", "bin_right", "density")]
    for i in range(len(density)):
        rows.append((repr(float(edges[i])), repr(float(edges[i + 1])), repr(float(density[i]))))
    mean = float(np.mean(ratios))
    cv = float(np.std(ratios) / mean) if mean else float("nan")
    _write_csv(args.out + ".csv", rows)
    _write_json(args, {"mean_ratio": mean, "coefficient_of_variation": cv})
    print(f"mean={mean:.4g} cv={cv:.4g}")
    return 0


def _minimizer_record(ref) -> dict:
    return {"reason": ref.reason, "iterations": ref.iterations, "grad_norm": ref.grad_norm}


def _theoretical_step(ds, model, x_star, scheme, b, K, num_perms, seed, tol, proxy):
    """Assemble BoundInputs and the matching step size for a smooth run
    whose minimizer is x_star."""
    reg = losses.regularity(model)
    sig = consts.sigma_star(ds, model, x_star, grad_tol=1e-6)
    D = float(np.linalg.norm(x_star))  # x0 = 0
    if scheme == "IG":
        perm0 = np.arange(ds.n)
        hat = consts.hat_constant(ds, reg, perm0, b, tol=tol)
        til = consts.tilde_constant(ds, reg, perm0, b)
        ynorm = consts.ystar_weighted_norm(ds, model, x_star, grad_tol=1e-6)
        inp = bd.BoundInputs(n=ds.n, b=b, K=K, hatL=hat, tildeL=til,
                             sigma_star=sig, D=D, ystar_norm=ynorm)
        return bd.step_size_ig(inp), inp
    report = consts.ratio_stats(ds, reg, b=b, num_perms=num_perms, seed=seed, tol=tol)
    hat = _proxy_value(report.hatL, proxy)
    til = _proxy_value(report.tildeL, proxy)
    inp = bd.BoundInputs(n=ds.n, b=b, K=K, hatL=hat, tildeL=til, sigma_star=sig, D=D)
    return bd.step_size_smooth_rr(inp), inp


# --proxy values besides "max": the sampled deciles, q0 (min) to q100 (max).
DECILE_PROXIES = tuple(f"q{10 * i}" for i in range(11))


def _check_proxy(proxy: str):
    if proxy != "max" and proxy not in DECILE_PROXIES:
        raise CliError(f"unknown proxy {proxy!r}; use max or one of {', '.join(DECILE_PROXIES)}")


def _proxy_value(summary: dict, proxy: str) -> float:
    """Pick the constant fed to step sizes from sampled per-permutation values:
    the sampled max (default, matching a deterministic constant step) or a
    decile."""
    if proxy == "max":
        return summary["max"]
    return summary["deciles"][DECILE_PROXIES.index(proxy)]


def cmd_optimize(args) -> int:
    _check_proxy(args.proxy)
    _check_run_length(args, sampled=args.step == "theoretical" and args.scheme != "IG")
    ds = _load_dataset(args)
    model = losses.LossModel.for_dataset(args.loss, ds)
    seeds = _int_list(args.seeds)
    if not seeds:
        raise CliError("provide at least one run seed")
    repeated = sorted({s for s in seeds if seeds.count(s) > 1})
    if repeated:
        raise CliError(f"run seed {repeated[0]} is repeated in --seeds")
    shuffle.check_batch(ds.n, args.b)
    trace = not args.no_trace

    if args.step != "theoretical":
        try:
            eta = float(args.step)
        except ValueError:
            raise CliError("--step expects a float or 'theoretical'")
        # refuse a bad step before the reference minimizer runs
        engine.RunConfig(
            batch=args.b, epochs=args.epochs, step=eta, x0=np.zeros(ds.d)
        ).step_schedule()
    elif not model.smooth:
        raise CliError("theoretical step for nonsmooth losses needs verify-bound --planted")
    ref = consts.reference_minimizer(ds, model, tol=1e-10) if model.smooth else None
    if args.step == "theoretical":
        if not ref.converged:
            raise CliError(
                f"reference minimizer stopped ({ref.reason}); cannot size the step", code=1
            )
        eta, _ = _theoretical_step(
            ds, model, ref.x, args.scheme, args.b, args.epochs, args.perms, args.seed,
            args.tol, args.proxy,
        )
    f_star = ref.value if ref is not None and ref.converged else None

    rows = [("seed", "epoch", "f_x", "f_avg", "retraction_residual")]
    final_gaps = {}
    diverged = {}
    for s in seeds:
        plan = shuffle.ShufflePlan(args.scheme, seed=s)
        cfg = engine.RunConfig(
            batch=args.b, epochs=args.epochs, step=eta, x0=np.zeros(ds.d), trace=trace
        )
        try:
            result = engine.run(ds, model, plan, cfg)
        except engine.DivergenceError as exc:
            diverged[s] = exc.epoch
            continue
        for k, (f_x, f_avg) in enumerate(zip(result.objectives, result.objectives_avg), 1):
            res = (
                engine.retraction_residual(result.traces[k - 1], args.b, ds.n)
                if trace
                else float("nan")
            )
            rows.append((s, k, repr(float(f_x)), repr(float(f_avg)), repr(res)))
        if f_star is not None:
            final_gaps[s] = float(result.objective_avg - f_star)

    if len(diverged) == len(seeds):
        print("all seeds diverged", file=sys.stderr)
        return 1
    _write_csv(args.out + ".csv", rows)
    payload = {
        "step_size": eta,
        "diverged": {str(k): v for k, v in diverged.items()},
        "minimizer": _minimizer_record(ref) if ref is not None else None,
    }
    if final_gaps:
        payload["final_gaps"] = {str(k): v for k, v in final_gaps.items()}
        payload["mean_final_gap"] = float(np.mean(list(final_gaps.values())))
    _write_json(args, payload)
    if final_gaps:
        print(f"step={eta:.4g} mean_final_gap={payload['mean_final_gap']:.6g}")
    else:
        print(f"step={eta:.4g}")
    return 0


def _planted_hinge(n, d, seed, margin=2.0):
    """Hinge problem with a known optimum: targets are the signs of a planted
    direction's margins and the optimum is that direction scaled so every
    margin clears 1, making the minimum value exactly 0."""
    ds0 = gen_gaussian(n, d, seed)
    A = ds0.to_dense()
    rng = consts.prng.generator(consts.prng.substream(seed, consts.prng.DOMAIN_TRIAL, 999))
    direction = consts.prng.standard_normal(rng, d)
    direction /= np.linalg.norm(direction)
    z = A @ direction
    z[np.abs(z) < 1e-6] = 1e-6
    t = np.sign(z)
    scale = margin / np.min(np.abs(z))
    x_star = scale * direction
    ds = SparseDataset.from_dense(A, labels=t)
    return ds, x_star


def _inconclusive(args, reason, ref) -> int:
    _write_json(args, {
        "verdict": "inconclusive",
        "reason": reason,
        "minimizer": _minimizer_record(ref) if ref is not None else None,
    })
    print("verdict=inconclusive")
    return 1


def cmd_verify_bound(args) -> int:
    kind = args.bound.replace("-", "_")
    if kind not in bd.GUARANTEE_KINDS:
        raise CliError(f"--bound must be one of {bd.GUARANTEE_KINDS}")
    if args.seeds < 1:
        raise CliError("provide at least one run seed")
    _check_proxy(args.proxy)
    b, K = args.b, args.epochs
    scheme = "IG" if kind.endswith("ig") else "RR"
    _check_run_length(args, sampled=scheme == "RR")
    # IG runs are deterministic: one run suffices
    seeds = [0] if scheme == "IG" else list(range(args.seeds))

    # a constant whose spectral solve did not converge cannot size the step
    ref = None  # stays None for --planted: the optimum is known
    try:
        if kind == "nonsmooth":
            if not args.planted:
                raise CliError("nonsmooth verification needs --planted (known optimum)")
            try:
                n, d = (int(t) for t in args.gaussian.split(","))
            except (AttributeError, ValueError):
                raise CliError("--gaussian N,D is required with --planted")
            ds, x_star = _planted_hinge(n, d, args.seed)
            model = losses.LossModel.for_dataset("hinge", ds)
            f_star = 0.0
            reg = losses.regularity(model)
            gbar = consts.gbar_estimate(ds, reg, b, args.perms, seed=args.seed, tol=args.tol)
            D = float(np.linalg.norm(x_star))
            inp = bd.BoundInputs(n=ds.n, b=b, K=K, D=D, Gbar=gbar)
            eta = bd.step_size_nonsmooth(inp)
            rhs = bd.bound_rhs_nonsmooth(inp, eta)
        else:
            ds = _load_dataset(args)
            model = losses.LossModel.for_dataset(args.loss, ds)
            if not model.smooth:
                raise CliError(f"--bound {args.bound} needs a smooth loss")
            ref = consts.reference_minimizer(ds, model, tol=1e-10)
            if not ref.converged:
                return _inconclusive(
                    args, f"reference minimizer stopped ({ref.reason}); cannot size the step", ref)
            x_star = ref.x
            eta, inp = _theoretical_step(
                ds, model, x_star, scheme, b, K, args.perms, args.seed, args.tol, args.proxy
            )
            f_star = ref.value
            step_size, bound_rhs = ((bd.step_size_ig, bd.bound_rhs_ig) if scheme == "IG"
                                    else (bd.step_size_smooth_rr, bd.bound_rhs_smooth_rr))
            if kind.startswith("general"):
                # the same guarantees with the finite-sum constants of
                # L_i = w_i ||a_i||^2: at the identity order for IG, else the
                # sampled max
                Lvals = losses.regularity(model).values * row_sq_norms(ds)
                perms = ([np.arange(ds.n)] if scheme == "IG" else
                         [shuffle.random_permutation(ds.n, args.seed, j)
                          for j in range(args.perms)])
                inp.hatL = max(consts.general_hat_L(Lvals, p, b, tol=args.tol) for p in perms)
                inp.tildeL = max(consts.general_tilde_L(Lvals, p, b) for p in perms)
                eta = step_size(inp)
            rhs = bound_rhs(inp, eta)
    except consts.ConvergenceError as exc:
        return _inconclusive(args, str(exc), ref)

    def glm_oracle(i, x):
        lo, hi = ds.indptr[i], ds.indptr[i + 1]
        g = np.zeros(ds.d)
        z = float(ds.values[lo:hi] @ x[ds.indices[lo:hi]])
        g[ds.indices[lo:hi]] = losses.loss_derivative(model, i, z) * ds.values[lo:hi]
        return g

    gaps = []
    for s in seeds:
        plan = shuffle.ShufflePlan(scheme, seed=s)
        cfg = engine.RunConfig(batch=b, epochs=K, step=eta, x0=np.zeros(ds.d))
        if kind.startswith("general"):
            result = engine.run_general(
                glm_oracle, ds.n, ds.d, plan, cfg,
                objective_fn=lambda x: losses.objective(model, ds, x),
            )
        else:
            result = engine.run(ds, model, plan, cfg)
        gaps.append(float(result.objective_avg - f_star))

    mean_gap = float(np.mean(gaps))
    sem = float(np.std(gaps) / math.sqrt(len(gaps))) if len(gaps) > 1 else 0.0
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
        "minimizer": _minimizer_record(ref) if ref is not None else None,
    }
    _write_json(args, payload)
    print(f"verdict={payload['verdict']} mean_gap={mean_gap:.6g} rhs={rhs:.6g}")
    return 0 if holds else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="shuffle-sgd",
        description="Shuffled SGD constants, sweeps, runs, and bound verification. "
        "Desk-scale studies (small LIBSVM sets, Gaussian sweeps up to ~500x500) "
        "finish in seconds to minutes; larger inputs need --force.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--tol", type=float, default=1e-6,
                        help="Lanczos stops once the Ritz residual of the top eigenvalue "
                        "is at most tol times that value (hat, full_gradient_L, and "
                        "general_hat_L in verify-bound); a solve that does not get "
                        "there is an error, and so is a tol that is not positive and "
                        "finite. batch-sweep computes only the exact tilde and "
                        "ignores it")
        sp.add_argument("--out", required=True, help="output path prefix")

    sp = sub.add_parser("analyze", help="per-permutation hat/tilde constants for one dataset")
    sp.add_argument("--input", required=True)
    sp.add_argument("--features", type=int, default=None, help="feature count override")
    sp.add_argument("--b", type=int, default=1)
    sp.add_argument("--num-perms", type=int, default=1000)
    sp.add_argument("--no-tilde", action="store_true")
    sp.add_argument("--force", action="store_true")
    sp.add_argument("--max-cost", type=float, default=None)
    common(sp)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("gaussian-sweep", help="ratio trend over Gaussian sizes")
    sp.add_argument("--fixed", choices=("n", "d"), required=True,
                    help="which dimension stays fixed while the grid varies the other")
    sp.add_argument("--fixed-value", type=int, required=True)
    sp.add_argument("--grid", required=True, help="comma-separated grid for the varying dimension")
    sp.add_argument("--perms", type=int, default=20)
    sp.add_argument("--b", type=int, default=1)
    common(sp)
    sp.set_defaults(func=cmd_gaussian_sweep)

    sp = sub.add_parser("batch-sweep", help="L / tilde ratio against batch size")
    sp.add_argument("--input")
    sp.add_argument("--features", type=int, default=None)
    sp.add_argument("--gaussian", help="N,D synthetic data instead of --input")
    sp.add_argument("--b-grid", required=True)
    sp.add_argument("--perms", type=int, default=20)
    sp.add_argument("--force", action="store_true")
    sp.add_argument("--max-cost", type=float, default=None)
    common(sp)
    sp.set_defaults(func=cmd_batch_sweep)

    sp = sub.add_parser("histogram", help="distribution of L / hat over permutations")
    sp.add_argument("--input")
    sp.add_argument("--features", type=int, default=None)
    sp.add_argument("--gaussian")
    sp.add_argument("--b", type=int, default=1)
    sp.add_argument("--num-perms", type=int, default=1000)
    sp.add_argument("--bins", type=int, default=30)
    sp.add_argument("--force", action="store_true")
    sp.add_argument("--max-cost", type=float, default=None)
    common(sp)
    sp.set_defaults(func=cmd_histogram)

    sp = sub.add_parser("optimize", help="run shuffled SGD and trace objectives")
    sp.add_argument("--input")
    sp.add_argument("--features", type=int, default=None)
    sp.add_argument("--gaussian")
    sp.add_argument("--loss", choices=losses.FAMILIES, default="squared")
    sp.add_argument("--scheme", choices=shuffle.SCHEMES, default="RR")
    sp.add_argument("--b", type=int, default=1)
    sp.add_argument("--epochs", type=int, default=10)
    sp.add_argument("--step", default="theoretical", help="'theoretical' or a float")
    sp.add_argument("--seeds", default="0", help="comma-separated run seeds")
    sp.add_argument("--perms", type=int, default=50,
                    help="permutations sampled for step-size constants")
    sp.add_argument("--proxy", default="max",
                    help="constant proxy: max or a decile q0, q10, ..., q100")
    sp.add_argument("--no-trace", action="store_true", help="skip the retraction-identity check")
    common(sp)
    sp.set_defaults(func=cmd_optimize)

    sp = sub.add_parser("verify-bound", help="check a convergence guarantee empirically")
    sp.add_argument("--bound", required=True,
                    help="rr | ig | nonsmooth | general-rr | general-ig")
    sp.add_argument("--input")
    sp.add_argument("--features", type=int, default=None)
    sp.add_argument("--gaussian")
    sp.add_argument("--loss", choices=losses.FAMILIES, default="squared")
    sp.add_argument("--planted", action="store_true",
                    help="construct a hinge problem with a known optimum")
    sp.add_argument("--b", type=int, default=1)
    sp.add_argument("--epochs", type=int, default=10)
    sp.add_argument("--seeds", type=int, default=100, help="number of independent runs")
    sp.add_argument("--perms", type=int, default=100,
                    help="permutations for constant estimation")
    sp.add_argument("--proxy", default="max",
                    help="constant proxy: max or a decile q0, q10, ..., q100")
    common(sp)
    sp.set_defaults(func=cmd_verify_bound)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # every command takes --tol; refuse a bad one before any data is loaded
        if not (math.isfinite(args.tol) and args.tol > 0):
            raise CliError(f"tol must be positive and finite, got {args.tol}")
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

"""Benchmark of the shuffle-sgd command-line tool.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): rcv1-sparse, small-dense.
Each run starts fresh worker processes (worker.py) on the checkout's
`src/`, single-threaded as far as the program goes: SHUFFLE_SGD_THREADS is
unset and BLAS threads are capped at the number of usable cores.

--trace 0 times the workload's commands, untraced, for S seconds and
reports the end-to-end metrics; --trace 1 makes one untraced and one
traced pass and reports the per-layer metrics and the tracing overhead.
Either way every command's output is checked, human-readable lines and an
`env` record come first, and the last line of standard output is the JSON
result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# Set-up is sampled this many times per untraced run; the median is reported.
SETUP_SAMPLES = 3
# Workers still running this long after the start of the run are killed,
# so a run ends inside the three minutes it is allowed.
DEADLINE_S = 170
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Per-kind wall metrics reported alongside the end-to-end ones.
COMMAND_METRICS = {"analyze": "analyze_s", "optimize": "optimize_s", "verify-bound": "verify_s"}

sys.path.insert(0, HERE)
import workloads  # noqa: E402


def blas_threads():
    nproc = str(len(os.sched_getaffinity(0)))
    return {var: nproc for var in BLAS_THREAD_VARS}


def worker_env(src):
    env = dict(os.environ, **blas_threads(), PYTHONPATH=src + os.pathsep + HERE)
    env.pop("SHUFFLE_SGD_THREADS", None)
    return env


def spawn(args, workdir, env, index, setup_only, deadline):
    """Start one worker, wait for it, and return (result, seconds from just
    before the spawn to the end of the worker's set-up)."""
    result_path = os.path.join(workdir, f"result-{index}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--result", result_path]
    cmd += ["--tiny"] * args.tiny + ["--setup-only"] * setup_only
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(deadline - time.monotonic(), 0.0))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"error: the run did not finish within {DEADLINE_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise SystemExit(f"error: worker exited with code {code}")
    with open(result_path) as fh:
        result = json.load(fh)
    return result, result["ready"] - t0


def environment(sizes):
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "shuffle_sgd_threads": "unset",
        "workload_sizes": sizes,
    }


def median_metric(values, unit):
    return {"value": statistics.median(values), "unit": unit, "samples": values}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs, for the benchmark's own self-test")
    args = p.parse_args(argv)
    # Turn a polite stop into SystemExit, so the worker is killed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "shuffle_sgd", "cli.py")):
        sys.exit("error: run from the root of a shuffle-sgd checkout (no src/shuffle_sgd)")
    workdir = os.path.abspath(os.path.join(
        ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}"))
    os.makedirs(workdir)
    env = worker_env(src)
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = []
        for i in range(SETUP_SAMPLES - 1 if not args.trace else 0):
            setups.append(spawn(args, workdir, env, i, True, deadline)[1])
        result, setup = spawn(args, workdir, env, len(setups), False, deadline)
        setups.append(setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            os.rmdir(os.path.dirname(workdir))

    if args.trace:
        metrics = result["layers"]
        for name in result["missing"] + result["broken"]:
            print(f"note: {name} is not traceable in this version; its metrics are dropped")
        walls = result["walls"]
        print(f"traced pass {walls['traced']:.3f} s, untraced pass {walls['untraced']:.3f} s")
    else:
        samples = result["samples"]
        metrics = {"commands_s": median_metric(samples["commands"], "s"),
                   "setup_s": median_metric(setups, "s"),
                   "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB",
                                   "samples": [result["peak_rss_mb"]]}}
        shown = {COMMAND_METRICS[k]: median_metric(v, "s")
                 for k, v in samples.items() if k in COMMAND_METRICS}
        for name, m in {**shown, **metrics}.items():
            print(f"{name:<14} {m['value']:>12.4f} {m['unit']:<3} (median of "
                  f"{len(m['samples'])}: {' '.join(f'{v:.4g}' for v in m['samples'])})")
    attempted, failed = result["attempted"], result["failed"]
    print(f"failed_frac    {failed / attempted:>12.4f}     ({failed} of {attempted} commands)")
    print("env " + json.dumps(environment({args.workload: result["sizes"]}), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }))


if __name__ == "__main__":
    main()

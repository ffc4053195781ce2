"""One benchmark process: set up a workload, then run its CLI commands.

Started by run.py as a fresh interpreter per set-up sample. Set-up is the
`shuffle_sgd` import plus generating and writing the inputs; the moment it
ends is written to the result file (CLOCK_MONOTONIC, shared by all
processes) so the parent can time set-up from before the spawn. Unless
--setup-only, the process then runs the workload's commands through
`shuffle_sgd.cli.main` and checks every output.

With --trace 0 it repeats passes over the command list while another
pass is expected to end within --seconds (always at least one). With
--trace 1 it runs one untraced pass, for the overhead reference, then one
pass with the tracer installed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import resource
import sys
import time
import traceback

import shuffle_sgd.cli as cli  # timed as part of set-up

import workloads


def run_command(cmd, prefix, tracer=None):
    """Run one CLI command, inside a root span `cli.<kind>` when traced;
    returns (wall seconds, failure reason or None)."""
    argv = cmd.argv + ["--out", prefix]
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.span("cli." + cmd.kind, cli.main, argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    except Exception:  # the run must go on; the failure is counted
        traceback.print_exc()
        code = -1
    wall = time.perf_counter() - t0
    try:
        reason = cmd.check(prefix, code)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        reason = f"unreadable output: {exc!r}"
    if reason is not None:
        print(f"FAILED {cmd.tag}: {reason}", file=sys.stderr)
    return wall, reason


def run_pass(wl, workdir, p, tracer=None):
    """Pass p over the workload's commands: per-kind wall seconds and the
    number of failed commands."""
    walls, failed = {}, 0
    for i, cmd in enumerate(wl.commands(p)):
        wall, reason = run_command(cmd, f"{workdir}/{i}-{cmd.tag}", tracer)
        walls[cmd.kind] = walls.get(cmd.kind, 0.0) + wall
        failed += reason is not None
    return walls, failed


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)

    wl = workloads.build(args.workload, args.seed, args.tiny, args.workdir)
    result = {"ready": time.monotonic(), "sizes": wl.sizes}
    if not args.setup_only:
        result.update(trace_pass(wl, args) if args.trace else timed_passes(wl, args))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w") as fh:
        json.dump(result, fh)


def timed_passes(wl, args):
    samples, attempted, failed = {}, 0, 0
    start = time.monotonic()
    for p in itertools.count():
        walls, bad = run_pass(wl, args.workdir, p)
        walls["commands"] = sum(walls.values())
        for kind, wall in walls.items():
            samples.setdefault(kind, []).append(wall)
        attempted += len(wl.commands(p))
        failed += bad
        elapsed = time.monotonic() - start
        if elapsed + elapsed / (p + 1) > args.seconds:  # the next pass would not fit
            break
    return {"samples": samples, "attempted": attempted, "failed": failed}


def trace_pass(wl, args):
    import tracer as tracing

    walls, failed = run_pass(wl, args.workdir, 0)
    untraced = sum(walls.values())
    tr = tracing.Tracer()
    tr.install()
    try:
        walls, bad = run_pass(wl, args.workdir, 0, tr)
    finally:
        tr.uninstall()
    traced = sum(walls.values())
    return {
        "attempted": 2 * len(wl.commands(0)),
        "failed": failed + bad,
        "layers": tracing.layer_metrics(tr, wl.engine_blocks, traced, untraced),
        "missing": tr.missing,
        "broken": sorted(tr.broken),
        "expected_counts": wl.expected_counts,
        "walls": {"untraced": untraced, "traced": traced},
    }


if __name__ == "__main__":
    main()

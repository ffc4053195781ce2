"""In-memory span tracing of the package's public functions.

`Tracer.install()` replaces each traced function on every module of the
package that binds it (so `from .losses import objective` in the engine is
traced too) and each traced method on its class. Every call records a span
(name, start, end, parent span); a span's self time is its duration minus
the time its child spans cover. Names a later version no longer defines
are skipped, and their metrics drop out of the report.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

import checks

# (module, attribute) pairs; a dotted attribute is a method on a class.
TRACED = [
    ("data", "parse_libsvm"), ("data", "load_libsvm"), ("data", "gen_gaussian"),
    ("data", "row_sq_norms"), ("data", "SparseDataset.__post_init__"),
    ("losses", "derivative_vec"), ("losses", "objective"), ("losses", "full_gradient"),
    ("losses", "conjugate_pair"),
    ("shuffle", "permutation_for"), ("shuffle", "random_permutation"),
    ("engine", "run"), ("engine", "run_general"), ("engine", "dual_block_update"),
    ("engine", "primal_block_step"),
    ("constants", "MaskedGramOperator.matvec"), ("constants", "operator_norm"),
    ("constants", "hat_constant"), ("constants", "tilde_constant"),
    ("constants", "full_gradient_L"), ("constants", "ratio_stats"),
    ("constants", "gbar_estimate"), ("constants", "general_hat_L"),
    ("constants", "reference_minimizer"),
]
PACKAGE = "shuffle_sgd"
# Every public function of `bounds` is traced; they report as one layer.
BOUNDS_PREFIX = "bounds."
# hat values are checked against the dense oracle up to this many rows.
ORACLE_MAX_N = 2000


class Tracer:
    def __init__(self):
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self._stack = []
        self.counters = {}
        self.hat_samples = []  # (dataset, weights, perm, b, value)
        self.missing = []
        self.broken = set()  # names whose hook no longer fits the program
        self._restore = []

    # -- recording ---------------------------------------------------------
    def _open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, name, fn, *args):
        """Call fn(*args) inside a span named `name` (a root span)."""
        idx = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx)
                if type(exc).__name__ == "DivergenceError":
                    self.count(name + ".diverged")
                raise
            self._close(idx)
            if hook is not None and name not in self.broken:
                try:
                    hook(self, name, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    self.broken.add(name)
            return result

        return traced

    # -- installation ------------------------------------------------------
    def install(self):
        mods = {k: v for k, v in sys.modules.items()
                if k == PACKAGE or k.startswith(PACKAGE + ".")}
        targets = []
        for mod_name, attr in TRACED:
            mod = mods.get(f"{PACKAGE}.{mod_name}")
            owner, _, leaf = attr.rpartition(".")
            holder = getattr(mod, owner, None) if owner else mod
            fn = getattr(holder, leaf, None) if holder is not None else None
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            targets.append((f"{mod_name}.{attr}", holder if owner else None, leaf, fn))
        bounds = mods.get(f"{PACKAGE}.bounds")
        for leaf, fn in sorted(vars(bounds).items()) if bounds else ():
            if callable(fn) and not leaf.startswith("_") and not isinstance(fn, type) \
                    and getattr(fn, "__module__", None) == bounds.__name__:
                targets.append((BOUNDS_PREFIX + leaf, None, leaf, fn))
        for name, cls, leaf, fn in targets:
            wrapper = self._wrap(name, fn, _HOOKS.get(name))
            if cls is not None:
                self._set(cls, leaf, wrapper)
                continue
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, key, wrapper)

    def _set(self, obj, key, value):
        self._restore.append((obj, key, getattr(obj, key)))
        setattr(obj, key, value)

    def uninstall(self):
        for obj, key, value in reversed(self._restore):
            setattr(obj, key, value)
        self._restore.clear()

    # -- reduction ---------------------------------------------------------
    def aggregate(self):
        """{name: {"calls", "total_s", "self_s"}} over all recorded spans."""
        starts, ends = np.asarray(self.starts), np.asarray(self.ends)
        dur = ends - starts
        parents = np.asarray(self.parents, dtype=np.int64)
        child = np.zeros(len(dur))
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_time = dur - child
        out = {}
        for i, name in enumerate(self.names):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += dur[i]
            agg["self_s"] += self_time[i]
        return out

    def hat_rel_err_max(self):
        """Largest |hat - oracle| / oracle over the traced hat values small
        enough to check against the dense oracle (0.0 if none was)."""
        worst = 0.0
        for ds, w, perm, b, value in self.hat_samples:
            A = np.zeros((ds.n, ds.d))
            A[np.repeat(np.arange(ds.n), np.diff(ds.indptr)), ds.indices] = ds.values
            A *= np.sqrt(np.asarray(w, dtype=float))[:, None]
            oracle = checks.dense_hat(A, np.asarray(perm), b)
            worst = max(worst, abs(value - oracle) / oracle)
        return worst


# -- hooks: counters taken from arguments and results ------------------------

def _parse_hook(tr, name, args, kwargs, result):
    tr.count(name + ".nnz", result.nnz)


def _matvec_hook(tr, name, args, kwargs, result):
    op = args[0]
    tr.count(name + ".nnz", op.B.nnz)
    tr.counters[name + ".buffer_bytes"] = max(
        tr.counters.get(name + ".buffer_bytes", 0), op.m * op.d * 8)


def _norm_hook(tr, name, args, kwargs, result):
    tr.count(name + ".iterations", result.iterations)
    tr.count(name + ".converged", int(result.converged))


def _minimizer_hook(tr, name, args, kwargs, result):
    tr.count(name + ".iterations", result.iterations)


def _hat_hook(tr, name, args, kwargs, result):
    ds, reg, perm, b = args[:4]
    if ds.n <= ORACLE_MAX_N:
        tr.hat_samples.append((ds, reg.values, perm, b, result))


_HOOKS = {
    "data.parse_libsvm": _parse_hook,
    "constants.MaskedGramOperator.matvec": _matvec_hook,
    "constants.operator_norm": _norm_hook,
    "constants.reference_minimizer": _minimizer_hook,
    "constants.hat_constant": _hat_hook,
}


# -- reduction to the per-layer metrics of BENCHMARK.json ---------------------

def layer_metrics(tracer, engine_blocks, traced_wall, untraced_wall):
    """Per-layer metrics of one traced pass. `engine_blocks` is the pass's
    seeds * epochs * n / b, so us_per_block does not depend on how the
    engine is split into functions."""
    agg = tracer.aggregate()
    c = tracer.counters
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def ratio(num, den):
        return num / den if den else 0.0

    def usable(name):
        return name not in tracer.missing and name not in tracer.broken

    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    for mod, attr in TRACED:
        name = f"{mod}.{attr}"
        if name not in tracer.missing:
            put(name + ".calls", agg.get(name, empty)["calls"], "count")
            put(name + ".self_s", agg.get(name, empty)["self_s"], "s")

    name = "data.parse_libsvm"
    if usable(name):
        put(name + ".us_per_nnz",
            ratio(agg.get(name, empty)["self_s"] * 1e6, c.get(name + ".nnz", 0)), "us")
    name = "constants.MaskedGramOperator.matvec"
    if usable(name):
        put(name + ".ns_per_nnz",
            ratio(agg.get(name, empty)["self_s"] * 1e9, c.get(name + ".nnz", 0)), "ns")
        put(name + ".buffer_mb", c.get(name + ".buffer_bytes", 0) / 1e6, "MB-computed")
    name = "constants.operator_norm"
    if usable(name):
        solves = agg.get(name, empty)["calls"]
        put(name + ".matvecs_per_solve", ratio(c.get(name + ".iterations", 0), solves), "count")
        put(name + ".converged_frac", ratio(c.get(name + ".converged", 0), solves), "fraction")
    if usable("constants.hat_constant"):
        put("constants.hat_constant.rel_err_max", tracer.hat_rel_err_max(), "fraction")
    name = "constants.reference_minimizer"
    if usable(name):
        put(name + ".iterations", c.get(name + ".iterations", 0), "count")
    name = "engine.run"
    if usable(name):
        put(name + ".blocks", engine_blocks, "count")
        put(name + ".us_per_block",
            ratio(agg.get(name, empty)["total_s"] * 1e6, engine_blocks), "us")
        put(name + ".diverged", c.get(name + ".diverged", 0), "count")

    put("bounds.self_s",
        sum(a["self_s"] for n, a in agg.items() if n.startswith(BOUNDS_PREFIX)), "s")
    for kind in ("analyze", "optimize", "verify-bound"):
        put(f"cli.{kind.replace('-', '_')}.self_s",
            agg.get("cli." + kind, empty)["self_s"], "s")

    put("trace.spans", len(tracer.names), "count")
    self_sum = sum(v["value"] for k, v in out.items() if k.endswith(".self_s"))
    put("trace.self_sum_frac", ratio(self_sum, traced_wall), "fraction")
    put("trace.overhead_frac", ratio(traced_wall - untraced_wall, untraced_wall), "fraction")
    return out

"""Span tracing of sl2prop from outside the package, and per-layer metrics.

``install`` wraps every public function of each sl2prop module and patches
every name in every loaded sl2prop module that refers to it, since
``from .x import y`` copies the binding (``evolve.kernel_values``,
``oracle.bessel_j``, ``kernels.factor_coeffs``, ...).  A wrapper records a
span (name, start, end, parent) and a few counts read from the arguments or
the result; it passes arguments and results through untouched, so traced
output is byte-identical to untraced output.  Spans stay in memory for the
process's lifetime.

``layer_metrics`` turns a span list into the per-layer metrics.  A layer
whose function no longer exists is reported as absent with zero values.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np

MODULES = ("sl2rep", "numerics", "kernels", "oracle", "evolve", "cli")
# Functions the per-layer metrics read; any other public function is traced
# only so that its time is not charged to its caller's self time.
KEY_FUNCTIONS = (
    "cli.main", "kernels.kernel_values", "numerics.bessel_j", "numerics.bessel_i_complex",
    "numerics.integrate_oscillatory", "oracle.hankel_kernel_oracle", "oracle.grid_evolve",
    "evolve.propagate", "sl2rep.factor_coeffs",
)
LARGE_ARG = 12.0  # |z| from which the in-house Bessel code switches to asymptotics
INTEGRAND = "numerics.quad.integrand"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, counts]
        self._stack: list[int] = []
        self.absent: list[str] = []
        self.bindings: set[str] = set()  # every module attribute that was patched

    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int, counts: dict | None):
        self._stack.pop()
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[4] = counts

    def wrap(self, name: str, fn):
        sig = inspect.signature(fn)
        count = _COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is None:
                idx = self._enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._exit(idx, None)
            bound = sig.bind(*args, **kwargs)
            if name == "numerics.integrate_oscillatory" and "f" in bound.arguments:
                bound.arguments["f"] = self.traced_integrand(bound.arguments["f"])
            idx = self._enter(name)
            result = None
            try:
                result = fn(*bound.args, **bound.kwargs)
                return result
            finally:
                try:
                    counts = count(bound.arguments, result)
                except (KeyError, AttributeError, TypeError):
                    counts = None  # a changed signature loses counts, never the call
                self._exit(idx, counts)

        traced.__perfbench_name__ = name
        return traced

    def traced_integrand(self, f):
        def integrand(k, eps):
            idx = self._enter(INTEGRAND)
            try:
                return f(k, eps)
            finally:
                self._exit(idx, {"nodes": int(np.size(k))})
        return integrand

    def install(self):
        """Wrap sl2prop's public functions; call after importing sl2prop.cli."""
        originals = {}
        for mod_name in MODULES:
            try:
                mod = importlib.import_module(f"sl2prop.{mod_name}")
            except ImportError:
                continue
            names = list(getattr(mod, "__all__", ())) + (["main"] if mod_name == "cli" else [])
            for attr in names:
                obj = getattr(mod, attr, None)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    originals[id(obj)] = (obj, self.wrap(f"{mod_name}.{attr}", obj))
        wrapped = {w.__perfbench_name__ for _, w in originals.values()}
        self.absent = [k for k in KEY_FUNCTIONS if k not in wrapped]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "sl2prop" or mod_name.startswith("sl2prop.")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self.bindings.add(f"{mod_name}.{attr}")


def _count_bessel(arg_name):
    def count(args, result):
        z = np.abs(np.asarray(args[arg_name]))
        return {"points": int(z.size), "large": int(np.count_nonzero(z >= LARGE_ARG))}
    return count


def _count_values(args, result):
    return {"values": int(np.size(getattr(result, "value", result)))}


def _count_quad(args, result):
    return {"panels": int(args["spec"].panel_count), "err": float(result.error_estimate)}


def _count_cn(args, result):
    psi0, t_final = args["psi0"], float(args["t_final"])
    dt = args.get("dt") or psi0.grid.dt
    steps = max(1, round(abs(t_final) / dt)) if t_final != 0 else 0
    return {"steps": steps, "points": int(psi0.grid.points + 1)}


_COUNTS = {
    "numerics.bessel_j": _count_bessel("x"),
    "numerics.bessel_i_complex": _count_bessel("z"),
    "numerics.integrate_oscillatory": _count_quad,
    "oracle.grid_evolve": _count_cn,
    **{f"kernels.{k}": _count_values for k in (
        "kernel_values", "free_kernel", "sho_kernel", "radial_h0_kernel",
        "radial_sho_kernel", "kernel_via_route")},
}


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

PER_LAYER = {  # metric -> unit
    "cli.self_s": "s", "cli.rows": "count", "cli.bytes": "bytes",
    "kernels.calls": "count", "kernels.values": "count", "kernels.self_s": "s",
    "kernels.ns_per_value": "ns",
    "numerics.bessel_j.calls": "count", "numerics.bessel_j.points": "count",
    "numerics.bessel_j.self_s": "s",
    "numerics.bessel_i.calls": "count", "numerics.bessel_i.points": "count",
    "numerics.bessel_i.self_s": "s", "numerics.bessel.large_arg_frac": "fraction",
    "numerics.quad.calls": "count", "numerics.quad.nodes": "count",
    "numerics.quad.integrand_s": "s", "numerics.quad.self_s": "s",
    "numerics.quad.err_est_max": "1",
    "oracle.hankel.calls": "count", "oracle.hankel.panels": "count",
    "oracle.hankel.self_s": "s",
    "oracle.cn.calls": "count", "oracle.cn.steps": "count", "oracle.cn.points": "count",
    "oracle.cn.self_s": "s", "oracle.cn.us_per_step": "us",
    "evolve.propagate.calls": "count", "evolve.propagate.matrix_elems": "count",
    "evolve.propagate.self_s": "s",
    "sl2rep.factor_coeffs.calls": "count", "sl2rep.self_s": "s",
    "trace.overhead_frac": "fraction",
}
# Metrics that are counts repeat exactly between traced passes; the rest are
# times or derived from times and are reported as medians over passes.
COUNT_METRICS = {k for k, u in PER_LAYER.items() if u == "count"} | {
    "cli.bytes", "numerics.bessel.large_arg_frac", "numerics.quad.err_est_max"}


def _has_ancestor(spans, idx, prefix):
    p = spans[idx][3]
    while p >= 0:
        if spans[p][0].startswith(prefix):
            return True
        p = spans[p][3]
    return False


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics (without cli.rows, cli.bytes, trace.overhead_frac)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    m = {k: 0.0 for k in PER_LAYER}
    large = points = 0
    for i, (name, start, end, parent, counts) in enumerate(spans):
        dur = end - start
        self_s = dur - child[i]
        counts = counts or {}
        if name == "cli.main":
            m["cli.self_s"] += self_s
        elif name.startswith("kernels."):
            m["kernels.calls"] += 1
            m["kernels.self_s"] += self_s
            if not _has_ancestor(spans, i, "kernels."):
                v = counts.get("values", 0)
                m["kernels.values"] += v
                if _has_ancestor(spans, i, "evolve.propagate"):
                    m["evolve.propagate.matrix_elems"] += v
        elif name in ("numerics.bessel_j", "numerics.bessel_i_complex"):
            key = "numerics.bessel_j" if name.endswith("_j") else "numerics.bessel_i"
            m[f"{key}.calls"] += 1
            m[f"{key}.points"] += counts.get("points", 0)
            m[f"{key}.self_s"] += self_s
            if not _has_ancestor(spans, i, "numerics.bessel_"):
                large += counts.get("large", 0)
                points += counts.get("points", 0)
        elif name == "numerics.integrate_oscillatory":
            m["numerics.quad.calls"] += 1
            m["numerics.quad.self_s"] += self_s
            m["numerics.quad.err_est_max"] = max(m["numerics.quad.err_est_max"],
                                                 counts.get("err", 0.0))
            if _has_ancestor(spans, i, "oracle.hankel_kernel_oracle"):
                m["oracle.hankel.panels"] += counts.get("panels", 0)
        elif name == INTEGRAND:
            m["numerics.quad.nodes"] += counts.get("nodes", 0)
            m["numerics.quad.integrand_s"] += dur
        elif name == "oracle.hankel_kernel_oracle":
            m["oracle.hankel.calls"] += 1
            m["oracle.hankel.self_s"] += self_s
        elif name == "oracle.grid_evolve":
            m["oracle.cn.calls"] += 1
            m["oracle.cn.steps"] += counts.get("steps", 0)
            m["oracle.cn.points"] += counts.get("points", 0)
            m["oracle.cn.self_s"] += self_s
        elif name == "evolve.propagate":
            m["evolve.propagate.calls"] += 1
            m["evolve.propagate.self_s"] += self_s
        if name.startswith("sl2rep."):
            m["sl2rep.self_s"] += self_s
            if name == "sl2rep.factor_coeffs":
                m["sl2rep.factor_coeffs.calls"] += 1
    if m["kernels.values"]:
        m["kernels.ns_per_value"] = 1e9 * m["kernels.self_s"] / m["kernels.values"]
    if m["oracle.cn.steps"]:
        m["oracle.cn.us_per_step"] = 1e6 * m["oracle.cn.self_s"] / m["oracle.cn.steps"]
    if points:
        m["numerics.bessel.large_arg_frac"] = large / points
    return m


def calls_of(spans: list[list], layer: str) -> int:
    """Spans recorded for a function name or a module prefix."""
    return sum(1 for s in spans if s[0] == layer or s[0].startswith(layer + "."))

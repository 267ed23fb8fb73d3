"""Spans and counters around zetareg's layer functions, installed from outside.

``install`` replaces each layer function with a wrapper at every name that
binds it in a loaded ``zetareg`` module (the package binds names with
``from .x import y``, so ``adaptive_quadrature`` lives in ``quadrature``,
``fractional`` and ``contour`` at once).  A wrapper records a span
(id, name, start, end, parent, op) in memory and adds the counts read from
the call's arguments or result.  Nothing under ``src/`` changes and
results pass through untouched, so outputs are byte-identical with tracing
on and off.  ``metrics`` turns the spans into per-layer calls and self
time (span minus the time covered by its child spans).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

# span name -> (module, attribute) of the function it wraps
LAYERS = {
    "integer_trace.trace_integer": ("zetareg.integer_trace", "trace_integer"),
    "generator.build_phi": ("zetareg.generator", "build_phi"),
    "generator.validate_hankel": ("zetareg.generator", "validate_hankel"),
    "quadrature.adaptive_quadrature": ("zetareg.quadrature", "adaptive_quadrature"),
    "fractional.finite_part_mellin": ("zetareg.fractional", "finite_part_mellin"),
    "fractional.frac_regulator": ("zetareg.fractional", "frac_regulator"),
    "contour.circle_integral": ("zetareg.contour", "circle_integral"),
    "contour.ray_integral": ("zetareg.contour", "ray_integral"),
    "special.zeta_c": ("zetareg.special", "zeta_c"),
    "special.gamma_c": ("zetareg.special", "gamma_c"),
    "special.polylog_series": ("zetareg.special", "polylog_series"),
    "special.polylog_expand_near_one": ("zetareg.special", "polylog_expand_near_one"),
    "contour.branch_map": ("zetareg.contour", "branch_map"),
    "cli.write_grid_csv": ("zetareg.contour", "write_grid_csv"),
    "cli.main": ("zetareg.cli", "main"),
    "zeta_fn.reg_product": ("zetareg.zeta_fn", "reg_product"),
    "zeta_fn.gen_zeta": ("zetareg.zeta_fn", "gen_zeta"),
}
# PowerSeries methods; spans are named by coefficient field at exit
SERIES_METHODS = ("cpow", "reciprocal", "__mul__")
CACHED = ("special.zeta_c", "special.gamma_c")

# every per-layer metric a traced run reports, with unit and direction
PER_LAYER = [
    ("series.cpow_complex.calls", "count", "lower"),
    ("series.cpow_complex.self_s", "s", "lower"),
    ("series.exact.calls", "count", "lower"),
    ("series.exact.self_s", "s", "lower"),
    ("integer_trace.trace_integer.calls", "count", "lower"),
    ("integer_trace.trace_integer.self_s", "s", "lower"),
    ("generator.build_phi.calls", "count", "lower"),
    ("generator.build_phi.self_s", "s", "lower"),
    ("generator.validate_hankel.calls", "count", "lower"),
    ("generator.validate_hankel.self_s", "s", "lower"),
    ("quadrature.adaptive_quadrature.calls", "count", "lower"),
    ("quadrature.adaptive_quadrature.self_s", "s", "lower"),
    ("quadrature.adaptive_quadrature.evals", "count", "lower"),
    ("quadrature.adaptive_quadrature.panels", "count", "lower"),
    ("quadrature.adaptive_quadrature.failed", "count", "lower"),
    ("quadrature.adaptive_quadrature.useful_eval_ratio", "ratio", "higher"),
    ("fractional.finite_part_mellin.calls", "count", "lower"),
    ("fractional.finite_part_mellin.self_s", "s", "lower"),
    ("fractional.frac_regulator.route.integer_formula", "count", "lower"),
    ("fractional.frac_regulator.route.fp_mellin", "count", "lower"),
    ("contour.circle_integral.calls", "count", "lower"),
    ("contour.circle_integral.self_s", "s", "lower"),
    ("contour.circle_integral.nodes", "count", "lower"),
    ("contour.circle_integral.doublings", "count", "lower"),
    ("contour.ray_integral.calls", "count", "lower"),
    ("contour.ray_integral.self_s", "s", "lower"),
    ("special.zeta_c.calls", "count", "lower"),
    ("special.zeta_c.self_s", "s", "lower"),
    ("special.zeta_c.hit_ratio", "ratio", "higher"),
    ("special.gamma_c.calls", "count", "lower"),
    ("special.gamma_c.self_s", "s", "lower"),
    ("special.gamma_c.hit_ratio", "ratio", "higher"),
    ("special.polylog_series.calls", "count", "lower"),
    ("special.polylog_series.self_s", "s", "lower"),
    ("special.polylog_expand_near_one.calls", "count", "lower"),
    ("special.polylog_expand_near_one.self_s", "s", "lower"),
    ("contour.branch_map.calls", "count", "lower"),
    ("contour.branch_map.self_s", "s", "lower"),
    ("contour.branch_map.cells", "count", "lower"),
    ("contour.branch_map.defined_cells", "count", "lower"),
    ("cli.write_grid_csv.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("zeta_fn.reg_product.calls", "count", "lower"),
    ("zeta_fn.reg_product.self_s", "s", "lower"),
    ("zeta_fn.gen_zeta.calls", "count", "lower"),
    ("tracing.op_p50_ms_delta", "ms", "lower"),
    ("tracing.values_per_s_delta", "1/s", "higher"),
    ("tracing.op_s_ratio", "ratio", "lower"),
]


class Tracer:
    def __init__(self):
        self.spans = []          # (id, name, start, end, parent, op)
        self.stack = []
        self.counts = Counter()
        self.op = -1
        self._next = 0
        self._cache0 = {}
        self._originals = {}

    def _wrap(self, fn, name=None, namer=None, post=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._next
            tracer._next += 1
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.stack.append(sid)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if post is not None:
                    post(args, result)
                return result
            except Exception:
                tracer.counts[f"{name}.raised"] += 1
                raise
            finally:
                t1 = time.perf_counter()
                tracer.stack.pop()
                label = namer(args, result) if namer else name
                tracer.spans.append((sid, label, t0, t1, parent, tracer.op))
        return wrapper

    def install(self):
        """Wrap every layer function at every zetareg module name bound to it."""
        for modname, _attr in LAYERS.values():
            importlib.import_module(modname)
        import zetareg.contour as contour
        import zetareg.series as series
        mods = [m for n, m in sorted(sys.modules.items())
                if n == "zetareg" or n.startswith("zetareg.")]
        for name, (modname, attr) in LAYERS.items():
            orig = getattr(sys.modules[modname], attr)
            self._originals[name] = orig
            wrapper = self._wrap(orig, name=name, post=self._post(name))
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)
        for name in CACHED:
            self._cache0[name] = self._originals[name].cache_info()

        for meth in SERIES_METHODS:
            orig = getattr(series.PowerSeries, meth)
            setattr(series.PowerSeries, meth,
                    self._wrap(orig, name="series", namer=_series_label(meth)))
        series.PowerSeries.__rmul__ = series.PowerSeries.__mul__

        once = contour._circle_once
        last = [-1]

        def circle_once(g, alpha, rho, n):
            # called straight from circle_integral, whose span is on top;
            # every pass after the first of a call is a node doubling
            caller = self.stack[-1] if self.stack else -1
            if caller == last[0]:
                self.counts["contour.circle_integral.doublings"] += 1
            last[0] = caller
            self.counts["contour.circle_integral.nodes"] += n
            return once(g, alpha, rho, n)
        contour._circle_once = circle_once

    def _post(self, name):
        counts = self.counts
        if name == "quadrature.adaptive_quadrature":
            def post(args, r):
                counts[f"{name}.evals"] += int(r.n_evals)
                counts[f"{name}.panels"] += int(r.n_panels)
                counts[f"{name}.useful_evals"] += 15 * int(r.n_panels)
            return post
        if name == "fractional.frac_regulator":
            def post(args, r):
                counts[f"{name}.route.{r.route}"] += 1
            return post
        if name == "contour.branch_map":
            def post(args, r):
                counts[f"{name}.cells"] += int(r.nx * r.ny)
                counts[f"{name}.defined_cells"] += int(r.defined.sum())
            return post
        return None

    def metrics(self) -> dict:
        dur = {}
        child = defaultdict(float)
        calls = Counter()
        self_s = defaultdict(float)
        for sid, name, t0, t1, parent, _op in self.spans:
            dur[sid] = t1 - t0
            if parent >= 0:
                child[parent] += t1 - t0
        for sid, name, t0, t1, parent, _op in self.spans:
            calls[name] += 1
            self_s[name] += dur[sid] - child[sid]
        c = self.counts
        out = {}
        for key, _unit, _better in PER_LAYER:
            layer, _, stat = key.rpartition(".")
            if key.startswith("tracing."):
                continue
            if stat == "calls":
                out[key] = calls[layer]
            elif stat == "self_s":
                out[key] = self_s[layer]
            elif stat == "hit_ratio":
                info0 = self._cache0[layer]
                info1 = self._originals[layer].cache_info()
                hits, misses = info1.hits - info0.hits, info1.misses - info0.misses
                out[key] = hits / (hits + misses) if hits + misses else 0.0
            elif stat == "useful_eval_ratio":
                ev = c[f"{layer}.evals"]
                out[key] = c[f"{layer}.useful_evals"] / ev if ev else 0.0
            elif stat == "failed":
                out[key] = c[f"{layer}.raised"]
            else:
                out[key] = c[key]
        return out

    def dump(self, path: str):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,name,start,end,parent,op\n")
            for sid, name, t0, t1, parent, op in self.spans:
                fh.write(f"{sid},{name},{t0:.9f},{t1:.9f},{parent},{op}\n")


def _series_label(meth: str):
    def label(args, result):
        c = result.coeffs[0] if result is not None else args[0].coeffs[0]
        if isinstance(c, (int, Fraction)):
            return "series.exact"
        if meth == "cpow" and isinstance(c, complex):
            return "series.cpow_complex"
        return "series.float"
    return label

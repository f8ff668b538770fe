"""Layer tracing from outside the program.

:class:`Tracer` replaces public functions of pinchlab's modules with timed
wrappers for the length of a ``with`` block and puts the originals back on
exit.  Nothing inside ``src/`` changes.  A name is wrapped in every pinchlab
module that binds it (``verify`` calls ``distance`` through its own
imported name, for instance), so calls between layers are seen too.

Every wrapped call adds to an aggregate (calls, inclusive time, self time);
self time is the call's duration minus the time of the wrapped calls made
inside it.  Calls at layer boundaries are also kept as spans
``(name, start, end, parent)``; the finest-grained calls (profile
evaluation, curvature tables, Jacobi integrands) are aggregated only, which
keeps memory bounded on runs with 10^5 or more of them.  Third-party
entry points (``solve_ivp``, ``brentq``, ``eigvalsh_tridiagonal``) are
counted under the layer that imported them, with their time left in the
caller's self time.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

MODULES = ("profiles", "curvature", "geodesics", "variation", "verify", "cli")


class Tracer:
    def __init__(self):
        self.spans = []                      # (name, start, end, parent index or -1)
        self.agg = defaultdict(lambda: [0, 0.0, 0.0])   # name -> calls, incl, self
        self.counts = defaultdict(int)
        self._stack = []                     # frames: [child time, span index]
        self._patches = []

    # -- wrapping -------------------------------------------------------------

    def _timed(self, name, fn, keep_span, count=None):
        stack, agg = self._stack, self.agg

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            frame = [0.0, parent]
            if keep_span:
                frame[1] = len(self.spans)
                self.spans.append(None)
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                a = agg[name]
                a[0] += 1
                a[1] += dur
                a[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if keep_span:
                    self.spans[frame[1]] = (name, t0, t1, parent)
            if count is not None:
                count(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn, count):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            count(args, kwargs, out)
            return out
        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch(self, module, attr, make):
        """Replace ``module.attr`` everywhere pinchlab binds that object."""
        mod = importlib.import_module(f"pinchlab.{module}")
        original = getattr(mod, attr, None)
        if original is None:
            return
        wrapped = make(original)
        for m in [sys.modules["pinchlab"]] + [sys.modules.get(f"pinchlab.{x}")
                                              for x in MODULES]:
            if m is not None and getattr(m, attr, None) is original:
                self._set(m, attr, wrapped)

    def patch_local(self, module, attr, make):
        """Replace a module-level name only in ``module`` (imported helpers)."""
        mod = importlib.import_module(f"pinchlab.{module}")
        if getattr(mod, attr, None) is not None:
            self._set(mod, attr, make(getattr(mod, attr)))

    def __enter__(self):
        from pinchlab import profiles

        span = lambda name: (lambda fn: self._timed(name, fn, True))
        agg_only = lambda name, count=None: (lambda fn: self._timed(name, fn, False, count))

        def add(key, n):
            self.counts[key] += n

        # profiles
        self._set(profiles.RadialProfile, "eval", self._timed(
            "profiles.eval", profiles.RadialProfile.eval, False,
            lambda a, k, out: add("profiles.eval_points", int(np.size(out)))))
        scalar_fn = profiles.RadialProfile.scalar_fn

        def traced_scalar_fn(prof, *a, **k):
            return self._timed("profiles.scalar_fn", scalar_fn(prof, *a, **k), False)
        self._set(profiles.RadialProfile, "scalar_fn", traced_scalar_fn)
        self.patch("profiles", "build_model", span("profiles.build"))
        self.patch("profiles", "build_family", span("profiles.build"))

        # curvature
        def table_count(a, k, out):
            size = int(np.size(out["r"]))
            add("curvature.table_points", size)
            add("curvature.table_single_point_calls", int(size == 1))
        self.patch("curvature", "curvature_table", agg_only("curvature.table", table_count))

        # geodesics
        self.patch("geodesics", "shoot", span("geodesics.shoot"))
        self.patch("geodesics", "distance", span("geodesics.distance"))
        self.patch("geodesics", "inj_at_pole", span("geodesics.inj"))
        for layer in ("geodesics", "variation"):
            self.patch_local(layer, "solve_ivp", lambda fn, layer=layer: self._counted(
                fn, lambda a, k, out: add(f"{layer}.ode_nfev", int(out.nfev))))
        self.patch_local("geodesics", "brentq", lambda fn: self._counted(
            fn, lambda a, k, out: add("geodesics.brentq_calls", 1)))

        # variation
        self.patch("variation", "geodesic_index", span("variation.index"))
        self.patch("variation", "jacobi_conjugate_points", span("variation.jacobi"))
        self.patch("variation", "eigen_index", span("variation.eigen"))
        self.patch("variation", "quad_piecewise", span("variation.quad"))
        self.patch("variation", "line_integral", span("variation.line_integral"))
        self.patch("variation", "loop_index_check", span("variation.loop"))
        self.patch_local("variation", "eigvalsh_tridiagonal", lambda fn: self._counted(
            fn, lambda a, k, out: add("variation.eigvalsh_calls", 1)))
        self.patch("variation", "path_curvature", lambda fn: (
            lambda *a, **k: self._timed("variation.K", fn(*a, **k), False)))

        # verify
        self.patch("verify", "verify_pinch", span("verify.pinch"))
        self.patch("verify", "diameter_gap", span("verify.gap"))
        self.patch("verify", "criticality_certificate", span("verify.certificate"))
        self.patch("verify", "klingenberg_delta_search", span("verify.klingenberg"))

        # cli (in-process dispatch)
        self.patch("cli", "run_cli", span("cli.dispatch"))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    # -- results --------------------------------------------------------------

    def _nested_count(self, inner, outer):
        n = 0
        for name, _, _, parent in self.spans:
            if name != inner:
                continue
            while parent >= 0:
                if self.spans[parent][0] == outer:
                    n += 1
                    break
                parent = self.spans[parent][3]
        return n

    def layer_metrics(self):
        """Per-layer metric values, keyed by their BENCHMARK.json names."""
        a, c = self.agg, self.counts
        calls = lambda name: a[name][0] if name in a else 0
        self_s = lambda name: a[name][2] if name in a else 0.0
        return {
            "profiles.eval_calls": calls("profiles.eval"),
            "profiles.eval_points": c["profiles.eval_points"],
            "profiles.eval_self_s": self_s("profiles.eval"),
            "profiles.scalar_fn_calls": calls("profiles.scalar_fn"),
            "profiles.scalar_fn_self_s": self_s("profiles.scalar_fn"),
            "profiles.build_self_s": self_s("profiles.build"),
            "curvature.table_calls": calls("curvature.table"),
            "curvature.table_points": c["curvature.table_points"],
            "curvature.table_self_s": self_s("curvature.table"),
            "curvature.table_single_point_calls": c["curvature.table_single_point_calls"],
            "geodesics.shoot_calls": calls("geodesics.shoot"),
            "geodesics.shoot_self_s": self_s("geodesics.shoot"),
            "geodesics.ode_nfev": c["geodesics.ode_nfev"],
            "geodesics.distance_calls": calls("geodesics.distance"),
            "geodesics.distance_self_s": self_s("geodesics.distance"),
            "geodesics.brentq_calls": c["geodesics.brentq_calls"],
            "geodesics.inj_self_s": self_s("geodesics.inj"),
            "variation.index_self_s": self_s("variation.index"),
            "variation.jacobi_calls": calls("variation.jacobi"),
            "variation.jacobi_self_s": self_s("variation.jacobi"),
            "variation.ode_nfev": c["variation.ode_nfev"],
            "variation.K_evals": calls("variation.K"),
            "variation.eigen_self_s": self_s("variation.eigen"),
            "variation.quad_calls": calls("variation.quad"),
            "variation.quad_self_s": self_s("variation.quad"),
            "verify.pinch_self_s": self_s("verify.pinch"),
            "verify.gap_self_s": self_s("verify.gap"),
            "verify.certificate_self_s": self_s("verify.certificate"),
            "verify.klingenberg_self_s": self_s("verify.klingenberg"),
            "verify.klingenberg_jacobi_solves": self._nested_count("variation.jacobi",
                                                                   "verify.klingenberg"),
        }

    def write(self, path):
        """Spans, aggregates and counts as gzipped JSON lines."""
        with gzip.open(path, "wt") as fh:
            for name, (calls, incl, self_t) in sorted(self.agg.items()):
                fh.write(json.dumps({"aggregate": name, "calls": calls,
                                     "incl_s": incl, "self_s": self_t}) + "\n")
            for name, n in sorted(self.counts.items()):
                fh.write(json.dumps({"count": name, "value": n}) + "\n")
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(json.dumps({"span": i, "name": name, "start": t0,
                                     "end": t1, "parent": parent}) + "\n")

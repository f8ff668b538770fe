"""Piecewise-C2 radial profiles and rotationally symmetric model construction.

A profile is a scalar function of the radial coordinate r (a warping function
or a potential) represented as an ordered list of closed-form segments.  All
segments expose exact value / first / second derivative evaluation, so the
curvature formulas downstream never need numerical differentiation.

The builtin models are

* ``gaussian``     -- flat cap, phi(r) = r, f(r) = r^2/2,
* ``round_sphere`` -- phi = sin r doubled at pi/2, f = 0,
* ``family``       -- the half-capped cylinder with smoothing bands, doubled
  into a sphere.  The two band shapes are produced by
  :func:`solve_smoothing_band`; all junction constants are implicit in exact
  double integration, so C2 matching is automatic rather than tuned.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .errors import ConstructionError, DomainError

C2_TOL = 1e-9
BAND_INTEGRAL_TOL = 1e-12
DEFAULT_CAP_RMAX = 50.0

SINE = "SINE"
LINEAR = "LINEAR"
CONSTANT = "CONSTANT"
PARABOLA = "PARABOLA"
PL2_BAND = "PL2_BAND"
KINDS = (SINE, LINEAR, CONSTANT, PARABOLA, PL2_BAND)

CAP = "CAP"
DOUBLED_SPHERE = "DOUBLED_SPHERE"


@dataclass(frozen=True)
class SegmentSpec:
    """One closed-form piece of a radial profile on the half-open interval [lo, hi).

    ``params`` depends on ``kind``:

    * SINE, LINEAR: none (evaluated in the global coordinate r)
    * CONSTANT: ``value``
    * PARABOLA: ``c0, c1, c2`` in the shifted coordinate s = r - lo,
      value = c0 + c1 s + c2 s^2
    * PL2_BAND: ``left_value``, ``left_slope`` and ``nodes`` -- a list of
      (offset, second_derivative) pairs defining a continuous piecewise-linear
      second derivative; value and slope come from exact double integration.
    """

    kind: str
    lo: float
    hi: float
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConstructionError(f"unknown segment kind {self.kind!r}")
        if not self.hi > self.lo:
            raise ConstructionError(f"empty segment interval [{self.lo}, {self.hi})")
        if self.kind == PL2_BAND:
            nodes = self.params["nodes"]
            offs = [o for o, _ in nodes]
            if offs != sorted(offs) or abs(offs[0]) > 1e-15:
                raise ConstructionError("PL2_BAND nodes must start at offset 0 and be sorted")
            if abs(offs[-1] - (self.hi - self.lo)) > 1e-12:
                raise ConstructionError("PL2_BAND nodes must span the full segment width")

    def eval(self, r, order):
        """Exact value (order 0) or derivative (order 1, 2) at radii ``r`` (array ok)."""
        r = np.asarray(r, dtype=float)
        return np.full_like(r, self.closed_form(order, np)(r))

    def closed_form(self, order, xp):
        """Callable giving the value (order 0) or a derivative (order 1, 2).

        Each kind's formulas are written once: with ``xp=np`` the callable
        takes an array of radii, with ``xp=math`` one float, and both give the
        same bits.  A constant comes back as a scalar that broadcasts.
        """
        kind, p, lo = self.kind, self.params, self.lo
        if kind == SINE:
            return (xp.sin, xp.cos, lambda r: -xp.sin(r))[order]
        if kind == LINEAR:
            return (lambda r: r, lambda r: 1.0, lambda r: 0.0)[order]
        if kind == CONSTANT:
            v = p["value"] if order == 0 else 0.0
            return lambda r: v
        if kind == PARABOLA:
            c0, c1, c2 = p["c0"], p["c1"], p["c2"]
            return (lambda r: c0 + (r - lo) * (c1 + c2 * (r - lo)),
                    lambda r: c1 + 2.0 * c2 * (r - lo),
                    lambda r: 2.0 * c2)[order]
        # PL2_BAND: exact integrals of the piecewise-linear second derivative
        offs, d2s, d1s, d0s, slopes = self._band_table[xp]
        # the piece holding s is the number of interior nodes <= s
        inner = offs[1:-1]
        search = partial(np.searchsorted, side="right") if xp is np else bisect.bisect_right

        def band(r):
            s = r - lo
            i = search(inner, s)
            ds = s - offs[i]
            if order == 2:
                return d2s[i] + slopes[i] * ds
            if order == 1:
                return d1s[i] + d2s[i] * ds + 0.5 * slopes[i] * (ds * ds)
            return (d0s[i] + d1s[i] * ds + 0.5 * d2s[i] * (ds * ds)
                    + slopes[i] * ds**3 / 6.0)

        return band

    @cached_property
    def _band_table(self):
        """Node offsets and second derivatives, the slope and value that exact
        integration gives at each node, and the slope of the second derivative
        on each piece; as lists under ``math`` and as arrays under ``np``."""
        nodes = self.params["nodes"]
        offs = [float(o) for o, _ in nodes]
        d2s = [float(d) for _, d in nodes]
        d1s = [float(self.params["left_slope"])]
        d0s = [float(self.params["left_value"])]
        slopes = []
        for o0, o1, a, b in zip(offs, offs[1:], d2s, d2s[1:]):
            h = o1 - o0
            d0s.append(d0s[-1] + d1s[-1] * h + (2.0 * a + b) * h**2 / 6.0)
            d1s.append(d1s[-1] + 0.5 * (a + b) * h)
            slopes.append((b - a) / h if h > 0 else 0.0)
        lists = (offs, d2s, d1s, d0s, slopes)
        return {math: lists, np: tuple(np.array(v) for v in lists)}


@dataclass(frozen=True)
class RadialProfile:
    """Ordered, abutting segments; optionally reflected about ``reflect_at``.

    When ``reflect_at = L`` is set the segments cover [0, L] and the profile is
    defined on [0, 2L] by even reflection, which keeps the doubled profile
    exactly symmetric by construction.
    """

    segments: tuple
    reflect_at: float | None = None

    def __post_init__(self):
        segs = tuple(self.segments)
        object.__setattr__(self, "segments", segs)
        for a, b in zip(segs, segs[1:]):
            if abs(a.hi - b.lo) > 1e-13:
                raise ConstructionError(
                    f"segments do not abut: [..,{a.hi}) then [{b.lo},..)")
        if self.reflect_at is not None:
            if abs(segs[-1].hi - self.reflect_at) > 1e-12:
                raise ConstructionError("reflect_at must coincide with the last segment end")

    @property
    def r_max(self):
        if self.reflect_at is not None:
            return 2.0 * self.reflect_at
        return self.segments[-1].hi

    def junctions(self):
        js = [s.lo for s in self.segments[1:]]
        if self.reflect_at is not None:
            js.append(self.reflect_at)
        return js

    def kinks(self):
        """Sorted radii in (0, r_max) where the second derivative is not smooth.

        The junctions, the interior nodes of every ``PL2_BAND`` and, on a
        doubled profile, their mirror images about L.  Composite quadrature of
        anything built from the second derivative needs a node at each.
        """
        ks = self.junctions()
        for seg in self.segments:
            if seg.kind == PL2_BAND:
                ks.extend(seg.lo + o for o, _ in seg.params["nodes"][1:-1])
        if self.reflect_at is not None:
            L = self.reflect_at
            ks.extend([L + (L - k) for k in ks])
        return sorted(k for k in set(ks) if 0.0 < k < self.r_max)

    def eval(self, r, order=0):
        """Vectorized evaluation; raises DomainError outside [0, r_max]."""
        r = np.atleast_1d(np.asarray(r, dtype=float))
        if np.any(r < -1e-12) or np.any(r > self.r_max + 1e-12):
            raise DomainError(
                f"radius outside profile domain [0, {self.r_max}]")
        return self._eval(np.clip(r, 0.0, self.r_max), order)

    def _eval(self, r, order):
        """:meth:`eval` on a float array of radii already in [0, r_max].

        No domain check and no clip: for callers that clip themselves.
        """
        L = self.reflect_at
        if L is not None:
            mirrored = r > L
            # L - (r - L) instead of 2L - r: r - L is exact for r in [L, 2L]
            r = np.where(mirrored, L - (r - L), r)
        segs = self.segments
        first = last = 0
        if len(segs) > 1 and r.size:
            idx = np.searchsorted(self._starts, r, side="right")
            first, last = int(idx.min()), int(idx.max())
        if first == last:
            # one segment holds every radius: no masks
            out = np.full_like(r, segs[first].closed_form(order, np)(r))
        else:
            out = np.empty_like(r)
            for i in range(first, last + 1):
                m = idx == i
                out[m] = segs[i].closed_form(order, np)(r[m])
        if L is not None and order % 2 == 1:
            np.negative(out, out=out, where=mirrored)
        return out

    @cached_property
    def _starts(self):
        """Start radii of the segments after the first."""
        return np.array([s.lo for s in self.segments[1:]])

    def __call__(self, r, order=0):
        return float(self.eval(r, order)[0]) if np.isscalar(r) else self.eval(r, order)

    def scalar_fn(self, order=0):
        """Closure evaluating one scalar radius fast (no array round-trips).

        Built for ODE right-hand sides, where the array machinery of
        :meth:`eval` dominates the step cost.  No domain checks: the caller
        guarantees 0 <= r <= r_max.
        """
        edges = [s.lo for s in self.segments[1:]]
        evals = [seg.closed_form(order, math) for seg in self.segments]
        L = self.reflect_at
        odd = order % 2 == 1

        def fn(r, edges=edges, evals=evals, bl=bisect.bisect_right):
            sign = 1.0
            if L is not None and r > L:
                r = L - (r - L)
                if odd:
                    sign = -1.0
            return sign * evals[bl(edges, r)](r)

        return fn


def eval_profile(profile, r, order=0):
    """Closed-form value/derivative of ``profile`` at radius ``r``."""
    if order not in (0, 1, 2):
        raise DomainError("order must be 0, 1 or 2")
    return profile(r, order)


def check_c2(profile):
    """One-sided residuals (value, slope, curvature jumps) at every junction.

    Pure report: the profile passes C2 iff every residual is <= 1e-9.
    Residuals are re-measured from the segment closed forms, independently of
    how the profile was constructed.
    """
    out = []
    segs = profile.segments
    for left, right in zip(segs, segs[1:]):
        rj = right.lo
        out.append((rj, *(abs(float(left.eval(rj, o)) - float(right.eval(rj, o)))
                          for o in (0, 1, 2))))
    if profile.reflect_at is not None:
        L = profile.reflect_at
        last = segs[-1]
        # mirror image: even orders match themselves, odd orders flip sign
        v1 = float(last.eval(L, 1))
        out.append((L, 0.0, 2.0 * abs(v1), 0.0))
    return out


def c2_ok(profile, tol=C2_TOL):
    return all(max(res[1:]) <= tol for res in check_c2(profile))


# ---------------------------------------------------------------------------
# smoothing bands


def _pl_integral(nodes):
    """Exact integral of the continuous piecewise-linear function given by nodes."""
    tot = 0.0
    for (o0, a), (o1, b) in zip(nodes, nodes[1:]):
        tot += 0.5 * (a + b) * (o1 - o0)
    return tot


def solve_smoothing_band(a, b, width, target):
    """Node list (offset, second derivative) for a C2 smoothing band.

    Two shapes are produced, keyed off the right-hand prescribed value ``b``:

    * ``b > 0 > a`` (potential band, ``target`` must be 0): monotone
      nondecreasing, one plateau and one linear ramp.  The ramp width is the
      closed form u = -2 a w/(b-a) when |a| <= b (plateau on the left),
      u = 2 b w/(b-a) when b <= |a| (plateau on the right).
    * ``b == 0 > a`` (warping band): a monotone prescription cannot meet the
      required integral, so the band ramps from ``a`` into a slightly deeper
      plateau ``h`` and takes a terminal plunge back to 0.  The plateau is
      pinned at h = 1/a and the matching ramp/plunge width is solved by
      bisection of the exact integral.
    """
    if width <= 0:
        raise ConstructionError("band width must be positive")
    if a >= 0:
        raise ConstructionError("band requires a negative left second derivative")

    if b > 0:
        if abs(target) > BAND_INTEGRAL_TOL:
            raise ConstructionError("monotone band supports only a zero integral target")
        if -a <= b:
            u = -2.0 * a * width / (b - a)
            nodes = [(0.0, a), (width - u, a), (width, b)]
        else:
            u = 2.0 * b * width / (b - a)
            nodes = [(0.0, a), (u, b), (width, b)]
        nodes = [(o, d) for i, (o, d) in enumerate(nodes)
                 if i == 0 or o - nodes[i - 1][0] > 1e-15]
        if abs(_pl_integral(nodes) - target) > BAND_INTEGRAL_TOL:
            raise ConstructionError("monotone band integral failed to close")
        return nodes

    if b == 0:
        h = min(a, 1.0 / a)

        def integral(u):
            return _pl_integral([(0.0, a), (u, h), (width - u, h), (width, 0.0)])

        lo, hi = 0.0, 0.5 * width
        flo, fhi = integral(lo) - target, integral(hi) - target
        if flo > 0 or fhi < 0:
            raise ConstructionError(
                "boundary-layer band infeasible: integral target out of reach")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fm = integral(mid) - target
            if fm <= 0:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-18 * max(1.0, width):
                break
        u = 0.5 * (lo + hi)
        nodes = [(0.0, a), (u, h), (width - u, h), (width, 0.0)]
        if abs(_pl_integral(nodes) - target) > BAND_INTEGRAL_TOL:
            raise ConstructionError("boundary-layer band integral failed to close")
        return nodes

    raise ConstructionError("unsupported band endpoint signs")


# ---------------------------------------------------------------------------
# models


@dataclass(frozen=True)
class ManifoldWithDensity:
    """Rotationally symmetric manifold dr^2 + phi^2 g_{S^{n-1}} with radial potential f.

    ``potential_scale`` is 1 for Ricci-mode checks and 1/(n-1) when the model
    is used for weighted sectional curvature; the potential profile itself is
    always stored unscaled.
    """

    n: int
    phi: RadialProfile
    f: RadialProfile
    topology: str
    potential_scale: float = 1.0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 2:
            raise ConstructionError("dimension must be >= 2")
        if self.topology not in (CAP, DOUBLED_SPHERE):
            raise ConstructionError(f"unknown topology {self.topology!r}")
        if self.topology == DOUBLED_SPHERE:
            if self.phi.reflect_at is None or self.f.reflect_at is None:
                raise ConstructionError("doubled sphere requires reflected profiles")
            if abs(self.phi.reflect_at - self.f.reflect_at) > 1e-12:
                raise ConstructionError("phi and f must double at the same point")
            L = self.phi.reflect_at
            if abs(self.phi(L, 1)) > C2_TOL or abs(self.f(L, 1)) > C2_TOL:
                raise ConstructionError("smooth doubling needs vanishing slopes at L")

    @property
    def L(self):
        return self.phi.reflect_at

    @property
    def r_max(self):
        return self.phi.r_max


def doubling_point(n, eps, delta):
    """Closed-form zero of the potential slope in the cylinder branch.

    L = pi/2 - delta + (1 - eps)(pi/2 - 2 delta)/eps.
    """
    if eps <= 0:
        raise DomainError("eps must be positive")
    if delta <= 0:
        raise DomainError("delta must be positive")
    return math.pi / 2 - delta + (1.0 - eps) * (math.pi / 2 - 2.0 * delta) / eps


def _family_fdot_third_branch(n, eps, delta, r):
    return (n - 1) * eps * (r - math.pi / 2 + delta) \
        - (n - 1) * (1.0 - eps) * (math.pi / 2 - 2.0 * delta)


def build_model(kind, n, eps=None, delta=None, potential_scale=1.0, r_max=DEFAULT_CAP_RMAX):
    """Assemble one of the builtin models.  ``kind`` in {gaussian, round_sphere, family}."""
    kind = kind.upper()
    if kind == "GAUSSIAN":
        phi = RadialProfile((SegmentSpec(LINEAR, 0.0, r_max),))
        f = RadialProfile((SegmentSpec(PARABOLA, 0.0, r_max,
                                       {"c0": 0.0, "c1": 0.0, "c2": 0.5}),))
        return ManifoldWithDensity(n, phi, f, CAP, potential_scale,
                                   {"eps": 1.0 / (n - 1) if eps is None else eps})
    if kind == "ROUND_SPHERE":
        half = math.pi / 2
        phi = RadialProfile((SegmentSpec(SINE, 0.0, half),), reflect_at=half)
        f = RadialProfile((SegmentSpec(CONSTANT, 0.0, half, {"value": 0.0}),),
                          reflect_at=half)
        return ManifoldWithDensity(n, phi, f, DOUBLED_SPHERE, potential_scale,
                                   {"eps": 1.0 if eps is None else eps})
    if kind == "FAMILY":
        return build_family(n, eps, delta, potential_scale)
    raise ConstructionError(f"unknown model kind {kind!r}")


def build_family(n, eps, delta, potential_scale=1.0):
    """The doubled-sphere example family.

    phi: sin on [0, pi/2 - delta), boundary-layer band to slope zero on
    [pi/2 - delta, pi/2), then constant A up to L.  f: downward parabola on
    [0, pi/2 - 2 delta), monotone band over one delta, then an upward parabola
    whose slope vanishes exactly at L.  Both profiles are reflected about L.
    A and all branch constants come from exact integration, never assumed.
    """
    if n < 3:
        raise ConstructionError("family requires n >= 3")
    if eps is None or eps <= 0:
        raise ConstructionError("family requires eps > 0")
    if delta is None or delta <= 0:
        raise ConstructionError("family requires delta > 0")
    half = math.pi / 2
    r_band_f = half - 2.0 * delta
    r_band_phi = half - delta
    if r_band_f <= 0:
        raise ConstructionError("delta too large: potential band starts below 0")
    L = doubling_point(n, eps, delta)
    if L <= half:
        raise ConstructionError(
            f"doubling point L={L:.6f} <= pi/2: eps/delta leave no cylinder")

    # warping profile
    phi_nodes = solve_smoothing_band(-math.cos(delta), 0.0, delta, -math.sin(delta))
    phi_band = SegmentSpec(PL2_BAND, r_band_phi, half,
                           {"left_value": math.cos(delta),
                            "left_slope": math.sin(delta),
                            "nodes": phi_nodes})
    A = float(phi_band.eval(half, 0))
    phi = RadialProfile((SegmentSpec(SINE, 0.0, r_band_phi),
                         phi_band,
                         SegmentSpec(CONSTANT, half, L, {"value": A})),
                        reflect_at=L)

    # potential profile
    c2_cap = -0.5 * (n - 1) * (1.0 - eps)
    cap = SegmentSpec(PARABOLA, 0.0, r_band_f, {"c0": 0.0, "c1": 0.0, "c2": c2_cap})
    f_nodes = solve_smoothing_band(-(n - 1) * (1.0 - eps), (n - 1) * eps, delta, 0.0)
    f_band = SegmentSpec(PL2_BAND, r_band_f, r_band_phi,
                         {"left_value": float(cap.eval(r_band_f, 0)),
                          "left_slope": float(cap.eval(r_band_f, 1)),
                          "nodes": f_nodes})
    f_tail = SegmentSpec(PARABOLA, r_band_phi, L,
                         {"c0": float(f_band.eval(r_band_phi, 0)),
                          "c1": float(f_band.eval(r_band_phi, 1)),
                          "c2": 0.5 * (n - 1) * eps})
    f = RadialProfile((cap, f_band, f_tail), reflect_at=L)

    fdot_L = float(f_tail.eval(L, 1))
    if abs(fdot_L) > C2_TOL:
        raise ConstructionError(f"potential slope at doubling point is {fdot_L:.3e}, not 0")
    if not c2_ok(phi) or not c2_ok(f):
        raise ConstructionError("family profiles failed the C2 junction check")

    meta = {"eps": eps, "delta": delta, "A": A, "L": L}
    # cylinder pinch constraint is measured, not enforced (see verify module)
    if eps > (n - 2) / ((n - 1) * A * A):
        meta["warning"] = (
            f"eps={eps} exceeds the cylinder bound (n-2)/((n-1) A^2)="
            f"{(n - 2) / ((n - 1) * A * A):.6f}; the pinch verifier will report it")
    return ManifoldWithDensity(n, phi, f, DOUBLED_SPHERE, potential_scale, meta)


# ---------------------------------------------------------------------------
# serialization


def _seg_to_dict(seg):
    d = {"kind": seg.kind, "domain": [seg.lo, seg.hi]}
    d.update(seg.params)
    if seg.kind == PL2_BAND:
        d["nodes"] = [[o, v] for o, v in seg.params["nodes"]]
    return d


def _seg_from_dict(d):
    lo, hi = d["domain"]
    params = {k: v for k, v in d.items() if k not in ("kind", "domain")}
    if d["kind"] == PL2_BAND:
        params["nodes"] = [(o, v) for o, v in d["nodes"]]
    return SegmentSpec(d["kind"], lo, hi, params)


def manifold_to_dict(m):
    d = {
        "n": m.n,
        "topology": m.topology,
        "L": m.L,
        "potential_scale": m.potential_scale,
        "phi": {"segments": [_seg_to_dict(s) for s in m.phi.segments]},
        "f": {"segments": [_seg_to_dict(s) for s in m.f.segments]},
        "meta": dict(m.meta),
    }
    return d


def manifold_from_dict(d):
    reflect = d["L"] if d["topology"] == DOUBLED_SPHERE else None
    phi = RadialProfile(tuple(_seg_from_dict(s) for s in d["phi"]["segments"]),
                        reflect_at=reflect)
    f = RadialProfile(tuple(_seg_from_dict(s) for s in d["f"]["segments"]),
                      reflect_at=reflect)
    return ManifoldWithDensity(d["n"], phi, f, d["topology"],
                               d.get("potential_scale", 1.0), d.get("meta", {}))


def save_manifold(m, path):
    with open(path, "w") as fh:
        json.dump(manifold_to_dict(m), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_manifold(path):
    with open(path) as fh:
        return manifold_from_dict(json.load(fh))

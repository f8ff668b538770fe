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
import sys
from dataclasses import dataclass, field
from functools import cached_property

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
# segment kind -> the parameters its closed form reads
KINDS = {SINE: (), LINEAR: (), CONSTANT: ("value",), PARABOLA: ("c0", "c1", "c2"),
         PL2_BAND: ("left_value", "left_slope", "nodes")}

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
        for key in KINDS[self.kind]:
            if key not in self.params:
                raise ConstructionError(f"{self.kind} segment lacks parameter {key!r}")
        if not self.hi > self.lo:
            raise ConstructionError(f"empty segment interval [{self.lo}, {self.hi})")
        if self.kind == PL2_BAND:
            nodes = self.params["nodes"]
            offs = [o for o, _ in nodes]
            if offs != sorted(offs) or abs(offs[0]) > 1e-15:
                raise ConstructionError("PL2_BAND nodes must start at offset 0 and be sorted")
            if abs(offs[-1] - (self.hi - self.lo)) > 1e-12:
                raise ConstructionError("PL2_BAND nodes must span the full segment width")

    def closed_form(self, order, xp):
        """Callable giving the value (order 0) or a derivative (order 1, 2).

        Each kind's formulas are written once: with ``xp=np`` the callable
        takes an array of radii, with ``xp=math`` one float, and both give the
        same bits.  A constant comes back as a scalar that broadcasts.

        With ``xp=np``, ``order`` may also be a tuple of orders: the callable
        then returns a tuple, one entry per order, with the bits each order
        gives alone, and the orders share their work -- sin r on a SINE
        segment; the piece index, the offset into the piece and the
        coefficient gather on a PL2_BAND.
        """
        kind, p, lo = self.kind, self.params, self.lo
        if isinstance(order, tuple):
            return self._joint_form(order)
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
        if xp is np:
            joint = self._joint_form((order,))
            return lambda r: joint(r)[0]
        offs, rows = self._band_table[math]
        # the piece holding s is the number of interior nodes <= s
        inner = offs[1:-1]
        form = _BAND_FORMS[order]

        def band(r):
            s = r - lo
            i = bisect.bisect_right(inner, s)
            return form(rows[i], s - offs[i])

        return band

    def _joint_form(self, orders):
        """:meth:`closed_form` for a tuple of orders, on arrays."""
        kind, lo = self.kind, self.lo
        if kind == SINE:
            def sine(r):
                # phi'' = -phi, and negation is exact: sin r is taken once
                sin = np.sin(r) if 0 in orders or 2 in orders else None
                values = (sin, np.cos(r) if 1 in orders else None,
                          -sin if 2 in orders else None)
                return tuple(values[o] for o in orders)
            return sine
        if kind == PL2_BAND:
            offs, cols = self._band_table[np]
            inner = offs[1:-1]
            forms = [_BAND_FORMS[o] for o in orders]

            def band(r):
                s = r - lo
                i = np.searchsorted(inner, s, side="right")
                c, ds = np.take(cols, i, axis=1), s - offs[i]
                return tuple(form(c, ds) for form in forms)
            return band
        fns = [self.closed_form(o, np) for o in orders]
        return lambda r: tuple(fn(r) for fn in fns)

    @cached_property
    def _band_table(self):
        """Node offsets, and each piece's coefficients at its left node:
        the value and slope that exact integration gives, the second
        derivative and its slope on the piece.  Under ``math`` a list of
        offsets and one tuple of coefficients per piece; under ``np`` arrays,
        with one row per coefficient."""
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
        rows = list(zip(d0s, d1s, d2s, slopes))
        return {math: (offs, rows), np: (np.array(offs), np.array(rows).T.copy())}


# The value (order 0) and the derivatives (orders 1, 2) of a PL2_BAND at the
# offset ds into a piece, from the piece's coefficients c = (value, slope,
# second derivative, slope of the second derivative) at its left node.
_BAND_FORMS = (
    lambda c, ds: c[0] + c[1] * ds + 0.5 * c[2] * (ds * ds) + c[3] * ds**3 / 6.0,
    lambda c, ds: c[1] + c[2] * ds + 0.5 * c[3] * (ds * ds),
    lambda c, ds: c[2] + c[3] * ds,
)


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
        doubled profile, their mirror images about L.  L itself is one only
        after a ``PL2_BAND``, whose third derivative flips sign there: the
        slopes of a doubled model vanish at L, and the even reflection of a
        sine, a constant or a parabola with zero slope is smooth.  Composite
        quadrature of anything built from the second derivative needs a node
        at each.
        """
        ks = [s.lo for s in self.segments[1:]]
        for seg in self.segments:
            if seg.kind == PL2_BAND:
                ks.extend(seg.lo + o for o, _ in seg.params["nodes"][1:-1])
        L = self.reflect_at
        if L is not None:
            ks.extend([L + (L - k) for k in ks])
            if self.segments[-1].kind == PL2_BAND:
                ks.append(L)
        return sorted(k for k in set(ks) if 0.0 < k < self.r_max)

    def inflections(self):
        """Sorted radii in (0, r_max) where the second derivative has a zero
        inside a segment: with the ends and :meth:`kinks`, every radius where
        the slope can be extreme.

        On a SINE segment they are the multiples of pi, on a ``PL2_BAND``
        piece the zero of its linear second derivative; PARABOLA, LINEAR and
        CONSTANT have a constant second derivative and none.  A doubled
        profile adds their mirror images about L.
        """
        zs = []
        for seg in self.segments:
            if seg.kind == SINE:
                zs.extend(k * math.pi for k in range(math.ceil(seg.lo / math.pi),
                                                     math.floor(seg.hi / math.pi) + 1))
            elif seg.kind == PL2_BAND:
                offs, rows = seg._band_table[math]
                for o0, o1, (_, _, d2, slope) in zip(offs, offs[1:], rows):
                    if slope != 0.0 and 0.0 < -d2 / slope < o1 - o0:
                        zs.append(seg.lo + (o0 - d2 / slope))
        L = self.reflect_at
        if L is not None:
            zs.extend([L + (L - z) for z in zs])
        return sorted(z for z in set(zs) if 0.0 < z < self.r_max)

    def eval(self, r, order=0):
        """Vectorized evaluation: the value (order 0) or a derivative (order 1,
        2) at radii ``r``, as a float array.

        ``order`` may be a tuple of orders, such as ``(0, 1, 2)``; the result
        is then a tuple of arrays, one per order, with the bits each order
        gives alone, at the cost of one domain check, one reflection and one
        segment split.  Raises DomainError outside [0, r_max] and on NaN.
        """
        r = np.atleast_1d(np.asarray(r, dtype=float))
        R = self.r_max
        # min and max are NaN when r holds one, and NaN fails the check
        lo, hi = (r.min(), r.max()) if r.size else (0.0, 0.0)
        if not (lo >= -1e-12 and hi <= R + 1e-12):
            raise DomainError(f"radius outside profile domain [0, {R}]")
        if lo < 0.0 or hi > R:
            r = np.clip(r, 0.0, R)
        return self._eval(r, order)

    def _eval(self, r, order):
        """:meth:`eval` on a float array of radii already in [0, r_max].

        No domain check and no clip: for callers that clip themselves.
        """
        joint = isinstance(order, tuple)
        orders = order if joint else (order,)
        L = self.reflect_at
        if L is not None:
            mirrored = r > L
            # L - (r - L) instead of 2L - r: r - L is exact for r in [L, 2L]
            r = np.where(mirrored, L - (r - L), r)
        segs = self.segments
        first = last = 0
        if len(segs) > 1 and r.size:
            # the segment holding r is the number of starts <= r; on large
            # arrays one comparison per start costs less than a searchsorted
            idx = np.zeros(r.shape, np.min_scalar_type(len(segs)))
            for start in self._starts:
                idx += r >= start
            first, last = int(idx.min()), int(idx.max())
        if first == last:
            # one segment holds every radius: no masks
            outs = [np.full_like(r, v) for v in segs[first].closed_form(orders, np)(r)]
        else:
            outs = [np.empty_like(r) for _ in orders]
            for i in range(first, last + 1):
                m = idx == i
                for out, v in zip(outs, segs[i].closed_form(orders, np)(r[m])):
                    out[m] = v
        if L is not None:
            for o, out in zip(orders, outs):
                if o % 2 == 1:
                    np.negative(out, out=out, where=mirrored)
        return tuple(outs) if joint else outs[0]

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
        out.append((rj, *(abs(left.closed_form(o, math)(rj) - right.closed_form(o, math)(rj))
                          for o in (0, 1, 2))))
    if profile.reflect_at is not None:
        L = profile.reflect_at
        last = segs[-1]
        # mirror image: even orders match themselves, odd orders flip sign
        v1 = last.closed_form(1, math)(L)
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
      pinned at h = min(a, 1/a).  The nodes integrate to u (a/2 - h) + h w,
      so the ramp/plunge width is the closed form u = (target - h w)/(a/2 - h).
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
        # a/2 - h > 0 for every a < 0, so the integral increases with u
        u = (target - h * width) / (0.5 * a - h)
        if not 0.0 <= u <= 0.5 * width:
            raise ConstructionError(
                "boundary-layer band infeasible: integral target out of reach")
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


def build_model(kind, n, eps=None, delta=None, potential_scale=1.0, r_max=DEFAULT_CAP_RMAX):
    """Assemble one of the builtin models.  ``kind`` in {gaussian, round_sphere, family}.

    Raises ConstructionError naming ``n``, ``eps`` or ``delta`` when n < 2 or
    a given eps or delta is not finite and positive.
    """
    if not n >= 2:
        raise ConstructionError(f"n must be at least 2, got {n}")
    for name, value in (("eps", eps), ("delta", delta)):
        if value is not None and not (math.isfinite(value) and value > 0):
            raise ConstructionError(f"{name} must be finite and positive, got {value}")
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
    if eps is None:
        raise ConstructionError("family requires eps")
    if delta is None:
        raise ConstructionError("family requires delta")
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
    A = phi_band.closed_form(0, math)(half)
    phi = RadialProfile((SegmentSpec(SINE, 0.0, r_band_phi),
                         phi_band,
                         SegmentSpec(CONSTANT, half, L, {"value": A})),
                        reflect_at=L)

    # potential profile
    c2_cap = -0.5 * (n - 1) * (1.0 - eps)
    cap = SegmentSpec(PARABOLA, 0.0, r_band_f, {"c0": 0.0, "c1": 0.0, "c2": c2_cap})
    f_nodes = solve_smoothing_band(-(n - 1) * (1.0 - eps), (n - 1) * eps, delta, 0.0)
    f_band = SegmentSpec(PL2_BAND, r_band_f, r_band_phi,
                         {"left_value": cap.closed_form(0, math)(r_band_f),
                          "left_slope": cap.closed_form(1, math)(r_band_f),
                          "nodes": f_nodes})
    f_tail = SegmentSpec(PARABOLA, r_band_phi, L,
                         {"c0": f_band.closed_form(0, math)(r_band_phi),
                          "c1": f_band.closed_form(1, math)(r_band_phi),
                          "c2": 0.5 * (n - 1) * eps})
    f = RadialProfile((cap, f_band, f_tail), reflect_at=L)

    fdot_L = f_tail.closed_form(1, math)(L)
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


def _field(d, key, where="top level"):
    """``d[key]``, or a ConstructionError naming the missing field."""
    if not isinstance(d, dict) or key not in d:
        raise ConstructionError(f"profile JSON: {where} lacks field {key!r}")
    return d[key]


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_finite(x):
    return _is_number(x) and abs(x) <= sys.float_info.max


def _is_node(p):
    return isinstance(p, (list, tuple)) and len(p) == 2 and all(map(_is_finite, p))


def _finite_field(d, key, where="top level"):
    """``d[key]`` if it is a finite number, else a ConstructionError naming it."""
    v = _field(d, key, where)
    if not _is_finite(v):
        raise ConstructionError(
            f"profile JSON: {where} field {key!r} must be a finite number, got {v!r}")
    return v


def _seg_from_dict(d):
    kind = _field(d, "kind", "segment")
    domain = _field(d, "domain", "segment")
    if not (isinstance(domain, (list, tuple)) and len(domain) == 2
            and all(_is_number(x) for x in domain)):
        raise ConstructionError(
            f"profile JSON: segment field 'domain' must be [lo, hi], got {domain!r}")
    lo, hi = domain
    params = {k: v for k, v in d.items() if k not in ("kind", "domain")}
    for key in KINDS.get(kind, ()):
        if key != "nodes" and key in params:
            _finite_field(params, key, "segment")
    if kind == PL2_BAND and "nodes" in params:
        nodes = params["nodes"]
        if not (isinstance(nodes, (list, tuple)) and nodes and all(map(_is_node, nodes))):
            raise ConstructionError("profile JSON: segment field 'nodes' must be a "
                                    f"non-empty list of [offset, value] pairs, got {nodes!r}")
        params["nodes"] = [(o, v) for o, v in nodes]
    return SegmentSpec(kind, lo, hi, params)


def _profile_from_dict(d, name, reflect_at):
    segments = _field(_field(d, name), "segments", name)
    return RadialProfile(tuple(_seg_from_dict(s) for s in segments), reflect_at=reflect_at)


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
    """Inverse of :func:`manifold_to_dict`; a missing field, a non-integer
    ``n``, a segment ``domain`` other than [lo, hi], an ``L``,
    ``potential_scale`` or segment parameter that is not a finite number, or
    ``nodes`` that are not [offset, value] pairs raise ConstructionError
    naming the field."""
    topology = _field(d, "topology")
    reflect = _finite_field(d, "L") if topology == DOUBLED_SPHERE else None
    n = _field(d, "n")
    if not (_is_number(n) and isinstance(n, int)):
        raise ConstructionError(f"profile JSON: field 'n' must be an integer, got {n!r}")
    scale = _finite_field(d, "potential_scale") if "potential_scale" in d else 1.0
    return ManifoldWithDensity(n, _profile_from_dict(d, "phi", reflect),
                               _profile_from_dict(d, "f", reflect), topology,
                               scale, d.get("meta", {}))


def save_manifold(m, path):
    with open(path, "w") as fh:
        json.dump(manifold_to_dict(m), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_manifold(path):
    with open(path) as fh:
        try:
            d = json.load(fh)
        except ValueError as e:
            raise ConstructionError(f"{path} is not a profile JSON file: {e}") from None
    return manifold_from_dict(d)

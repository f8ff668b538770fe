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
import operator
import os
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

    @cached_property
    def _forms(self):
        """The (value, slope, second derivative) callables of a LINEAR,
        CONSTANT or PARABOLA segment: arithmetic that takes one float or an
        array of radii alike."""
        p, lo = self.params, self.lo
        if self.kind == LINEAR:
            return (lambda r: r, lambda r: 1.0, lambda r: 0.0)
        if self.kind == CONSTANT:
            v = p["value"]
            return (lambda r: v, lambda r: 0.0, lambda r: 0.0)
        c0, c1, c2 = p["c0"], p["c1"], p["c2"]
        return (lambda r: c0 + (r - lo) * (c1 + c2 * (r - lo)),
                lambda r: c1 + 2.0 * c2 * (r - lo),
                lambda r: 2.0 * c2)

    @cached_property
    def _triple(self):
        """r -> (value, slope, second derivative) on one float, built once."""
        kind, lo = self.kind, self.lo
        if kind == SINE:
            def triple(r):
                s = math.sin(r)
                return s, math.cos(r), -s
        elif kind == PL2_BAND:
            # exact integrals of the piecewise-linear second derivative
            offs, rows = self._band_table[math]
            # the piece holding s is the number of interior nodes <= s
            inner = offs[1:-1]
            f0, f1, f2 = _BAND_FORMS

            def triple(r):
                s = r - lo
                i = bisect.bisect_right(inner, s)
                c, ds = rows[i], s - offs[i]
                return f0(c, ds), f1(c, ds), f2(c, ds)
        else:
            f0, f1, f2 = self._forms

            def triple(r):
                return f0(r), f1(r), f2(r)
        return triple

    def _array_form(self, orders):
        """Callable taking an array of radii to the tuple of the ``orders``
        (0 the value, 1 and 2 the derivatives), with the bits of
        :attr:`_triple`; a constant comes back as a scalar that broadcasts.
        The orders share their work: sin r on a SINE segment; the piece
        search and the offset into the piece on a PL2_BAND."""
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
        fns = [self._forms[o] for o in orders]
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
    # products, not ds**3: numpy's array power and libm's pow round apart
    lambda c, ds: c[0] + c[1] * ds + 0.5 * c[2] * (ds * ds) + c[3] * (ds * ds * ds) / 6.0,
    lambda c, ds: c[1] + c[2] * ds + 0.5 * c[3] * (ds * ds),
    lambda c, ds: c[2] + c[3] * ds,
)


def _picker(order):
    """Callable taking a (value, slope, second derivative) tuple to the entry
    of an int ``order``, or to the tuple of a tuple of orders."""
    if not isinstance(order, tuple):
        return operator.itemgetter(order)
    if len(order) > 1:
        return operator.itemgetter(*order)
    return lambda v: tuple(v[o] for o in order)


class _FloatMath:
    """numpy's names for the closed forms, on one float: the ``xp`` that
    runs an array formula on one float with the bits an array entry gets.
    math's sin, cos and sqrt round as numpy's do, and floor and ceil are
    exact; arctan2 is numpy's own, because libm's atan2 may differ from it
    in the last bit."""

    sin, cos, sqrt, maximum = math.sin, math.cos, math.sqrt, max
    floor, ceil = math.floor, math.ceil
    arctan2 = lambda y, x: float(np.arctan2(y, x))
    where = lambda cond, a, b: a if cond else b


@dataclass(frozen=True)
class RadialProfile:
    """Ordered segments, at least one, abutting from r = 0; optionally
    reflected about ``reflect_at``.

    When ``reflect_at = L`` is set the segments cover [0, L] and the profile is
    defined on [0, 2L] by even reflection, which keeps the doubled profile
    exactly symmetric by construction.
    """

    segments: tuple
    reflect_at: float | None = None
    _fns: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        segs = tuple(self.segments)
        object.__setattr__(self, "segments", segs)
        if not segs:
            raise ConstructionError("a profile needs at least one segment, got none")
        for hi, b in zip([0.0, *(a.hi for a in segs)], segs):
            if not abs(hi - b.lo) <= 1e-13:
                raise ConstructionError(
                    f"segments do not abut from r = 0: [..,{hi}) then [{b.lo},..)")
        if self.reflect_at is not None:
            if abs(segs[-1].hi - self.reflect_at) > 1e-12:
                raise ConstructionError("reflect_at must coincide with the last segment end")

    @property
    def r_max(self):
        if self.reflect_at is not None:
            return 2.0 * self.reflect_at
        return self.segments[-1].hi

    def kinks(self):
        """Sorted radii in (0, r_max) where the second derivative is not smooth.

        The starts of the :attr:`pieces` after the first -- the junctions
        and the interior nodes of every ``PL2_BAND`` -- and, on a doubled
        profile, their mirror images about L.  L itself is one only
        after a ``PL2_BAND``, whose third derivative flips sign there: the
        slopes of a doubled model vanish at L, and the even reflection of a
        sine, a constant or a parabola with zero slope is smooth.  Composite
        quadrature of anything built from the second derivative needs a node
        at each.
        """
        ks = [piece[1] for piece in self.pieces[1:]]
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

    def slope_extreme_radii(self, b):
        """Sorted radii of [0, b] where the slope can take its least or
        greatest value over [0, b]: 0, b and the :meth:`kinks` and
        :meth:`inflections` between them.  The slope's extremes over [0, b]
        are its extremes over these radii, exactly."""
        rs = self._slope_candidates
        return [*rs[:bisect.bisect_left(rs, b)], b]

    @cached_property
    def pieces(self):
        """The smooth pieces of the segments as (kind, lo, hi, k), in order:
        a SINE, LINEAR or CONSTANT segment with k its ``value`` (None but on
        a CONSTANT), or a cubic, of kind PL2_BAND, with k its value and three
        derivatives at lo: a whole PARABOLA or a PL2_BAND between two nodes.
        The mirror image about ``reflect_at`` is not listed."""
        out = []
        for seg in self.segments:
            if seg.kind == PL2_BAND:
                offs, rows = seg._band_table[math]
                out += [(PL2_BAND, seg.lo + o0, seg.lo + o1, row)
                        for o0, o1, row in zip(offs, offs[1:], rows)]
            elif seg.kind == PARABOLA:
                p = seg.params
                out.append((PL2_BAND, seg.lo, seg.hi, (p["c0"], p["c1"], 2.0 * p["c2"], 0.0)))
            else:
                out.append((seg.kind, seg.lo, seg.hi, seg.params.get("value")))
        return tuple(out)

    @cached_property
    def _slope_candidates(self):
        return sorted({0.0, *self.kinks(), *self.inflections()})

    def eval(self, r, order=0):
        """Vectorized evaluation: the value (order 0) or a derivative (order 1,
        2) at radii ``r``, as a float array.

        ``order`` may be a tuple of orders, such as ``(0, 1, 2)``; the result
        is then a tuple of arrays, one per order, with the bits each order
        gives alone, at the cost of one domain check, one reflection and one
        segment split.  Raises DomainError outside [0, r_max], on NaN and on
        an order other than 0, 1 or 2.
        """
        _check_order(order)
        return self._eval(clip_radii(r, self.r_max), order)

    def _eval(self, r, order):
        """:meth:`eval` on a float array of radii already in [0, r_max].

        No domain check and no clip: for callers that clip themselves.
        """
        joint = isinstance(order, tuple)
        orders = order if joint else (order,)
        r, mirrored, idx = self._locate(r)
        segs = self.segments
        first, last = (0, 0) if idx is None else (int(idx.min()), int(idx.max()))
        if first == last:
            # one segment holds every radius: no masks
            outs = [np.full_like(r, v) for v in segs[first]._array_form(orders)(r)]
        else:
            outs = [np.empty_like(r) for _ in orders]
            for i in range(first, last + 1):
                m = idx == i
                for out, v in zip(outs, segs[i]._array_form(orders)(r[m])):
                    out[m] = v
        if mirrored is not None:
            for o, out in zip(orders, outs):
                if o % 2 == 1:
                    np.negative(out, out=out, where=mirrored)
        return tuple(outs) if joint else outs[0]

    @cached_property
    def _starts(self):
        """Start radii of the segments after the first."""
        return np.array([s.lo for s in self.segments[1:]])

    def _locate(self, r):
        """Radii ``r`` in [0, r_max] folded about L, the mask of those folded and
        each one's segment index: None without a mirror, one segment or radius."""
        L, mirrored, idx = self.reflect_at, None, None
        if L is not None:
            mirrored = r > L
            # L - (r - L) instead of 2L - r: r - L is exact for r in [L, 2L]
            r = np.where(mirrored, L - (r - L), r)
        if len(self.segments) > 1 and r.size:
            # the segment holding r is the number of starts <= r; on large
            # arrays one comparison per start costs less than a searchsorted
            idx = np.zeros(r.shape, np.min_scalar_type(len(self.segments)))
            for start in self._starts:
                idx += r >= start
        return r, mirrored, idx

    def segments_at(self, r):
        """The segments holding radii ``r`` in [0, r_max], folded about L."""
        idx = self._locate(r)[2]
        return [self.segments[i] for i in (idx.tolist() if idx is not None else [0] * r.size)]

    def __call__(self, r, order=0):
        """The checked reader: on one radius, the value or derivatives of
        :meth:`scalar_fn` at ``r`` clipped as :func:`clip_radius` clips it, a
        float for an int ``order`` and a tuple of floats for a tuple; on an
        array, :meth:`eval`."""
        if not np.isscalar(r):
            return self.eval(r, order)
        v = self.scalar_fn(order)(clip_radius(r, self.r_max))
        return tuple(map(float, v)) if isinstance(order, tuple) else float(v)

    def scalar_fn(self, order=0):
        """Closure evaluating one scalar radius fast (no array round-trips).

        Built for ODE right-hand sides, where the array machinery of
        :meth:`eval` dominates the step cost: one segment search, then the
        segment's cached (value, slope, second derivative) triple.  ``order``
        may be a tuple of orders, such as ``(0, 1)``; the closure then
        returns a tuple with the bits each order gives alone.  Raises
        DomainError on an order other than 0, 1 or 2; no domain checks: the
        caller guarantees 0 <= r <= r_max.  Built once per profile and order.
        """
        _check_order(order)
        if order in self._fns:
            return self._fns[order]
        edges = [s.lo for s in self.segments[1:]]
        triples = [seg._triple for seg in self.segments]
        pick = _picker(order)
        L = self.reflect_at

        def fn(r, edges=edges, triples=triples, bl=bisect.bisect_right):
            if L is not None and r > L:
                # beyond L the slope flips sign
                r = L - (r - L)
                v0, v1, v2 = triples[bl(edges, r)](r)
                return pick((v0, -v1, v2))
            return pick(triples[bl(edges, r)](r))

        self._fns[order] = fn
        return fn


def clip_radii(r, R):
    """Radii ``r`` as a float array in [0, R]: those within 1e-12 outside are
    clipped to it; NaN, or a radius further out, raises DomainError."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    # min and max are NaN when r holds one, and NaN fails the check
    lo, hi = (r.min(), r.max()) if r.size else (0.0, 0.0)
    if not (lo >= -1e-12 and hi <= R + 1e-12):
        raise DomainError(f"radius outside profile domain [0, {R}]")
    return np.clip(r, 0.0, R) if lo < 0.0 or hi > R else r


def clip_radius(r, R):
    """:func:`clip_radii` for one float radius, with the same result bits."""
    if not -1e-12 <= r <= R + 1e-12:
        raise DomainError(f"radius outside profile domain [0, {R}]")
    return 0.0 if r < 0.0 else R if r > R else r


def sorted_unique(x):
    """np.unique of a float array without its numpy.ma import: sort, then
    drop repeats.  The sort is stable (a merge sort), which runs fastest on
    the few presorted runs every caller concatenates."""
    x = np.sort(x, kind="stable")
    return x[np.concatenate(([True], x[1:] != x[:-1]))]


def _check_order(order):
    """Raise DomainError unless ``order``, or each order of a tuple, is 0, 1 or 2."""
    for o in order if isinstance(order, tuple) else (order,):
        if o not in (0, 1, 2):
            raise DomainError("order must be 0, 1 or 2")


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
        out.append((rj, *(abs(a - b) for a, b in zip(left._triple(rj), right._triple(rj)))))
    if profile.reflect_at is not None:
        L = profile.reflect_at
        last = segs[-1]
        # mirror image: even orders match themselves, odd orders flip sign
        v1 = last._triple(L)[1]
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

    The one check of a model, built in code or read from JSON alike: the
    constructor raises ConstructionError naming the failed condition of n >= 2,
    the topology and its doubling, phi and f ending at the same r_max, phi > 0
    on (0, r_max) and at r_max on a cap, and a smooth pole where X = 0:
    phi(0) = 0, phi'(0) = 1, f'(0) = 0, each to C2_TOL; then phi and phi'
    continuous to C2_TOL at each junction (see :func:`check_c2`).  phi'' at
    junctions and at 0, and f at its junctions, are not checked.
    """

    n: int
    phi: RadialProfile
    f: RadialProfile
    topology: str
    potential_scale: float = 1.0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.n >= 2:
            raise ConstructionError(f"dimension n must be at least 2, got {self.n}")
        if self.topology not in (CAP, DOUBLED_SPHERE):
            raise ConstructionError(f"unknown topology {self.topology!r}")
        doubled = self.topology == DOUBLED_SPHERE
        if doubled and None in (self.phi.reflect_at, self.f.reflect_at):
            raise ConstructionError("doubled sphere requires reflected profiles")
        if self.phi.r_max != self.f.r_max:
            raise ConstructionError(f"phi and f must end at the same radius, but phi ends at "
                                    f"r = {self.phi.r_max!r} and f at r = {self.f.r_max!r}")
        L = self.phi.reflect_at
        if doubled and (abs(self.phi(L, 1)) > C2_TOL or abs(self.f(L, 1)) > C2_TOL):
            raise ConstructionError("smooth doubling needs vanishing slopes at L")
        _check_positive(self.phi)
        phi0, dphi0, _ = self.phi.segments[0]._triple(0.0)   # closed forms, no closure
        for name, v, want in (("phi(0)", phi0, 0.0), ("phi'(0)", dphi0, 1.0),
                              ("f'(0)", self.f.segments[0]._triple(0.0)[1], 0.0)):
            if not abs(v - want) <= C2_TOL:
                raise ConstructionError("a smooth pole with X = 0 needs phi(0) = 0, phi'(0) = 1"
                                        f" and f'(0) = 0, but {name} = {v!r}")
        # a jump in phi or phi' breaks Clairaut's constant and the Jacobi
        # state across a junction; a jump in phi'' leaves the metric C1
        for rj, dv, d1, _ in check_c2(self.phi)[:len(self.phi.segments) - 1]:
            if not max(dv, d1) <= C2_TOL:
                raise ConstructionError(f"phi and phi' must be continuous at each junction, "
                                        f"but at r = {rj!r} they jump by {dv!r} and {d1!r}")

    @property
    def L(self):
        return self.phi.reflect_at

    @property
    def r_max(self):
        return self.phi.r_max


def _model_eps(m, eps):
    """``eps`` as a float, or the model's meta eps when it is None; raises
    DomainError unless the value is finite and positive."""
    if eps is None:
        eps = m.meta.get("eps")
    if eps is None or not (math.isfinite(eps) and eps > 0):
        raise DomainError("a finite positive eps is required (pass it or set model meta)")
    return float(eps)


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

    Raises ConstructionError naming ``eps`` or ``delta`` when a given one is
    not finite and positive; :class:`ManifoldWithDensity` checks the model.
    """
    for name, value in (("eps", eps), ("delta", delta)):
        if value is not None and not (math.isfinite(value) and value > 0):
            raise ConstructionError(f"{name} must be finite and positive, got {value}")
    kind = kind.upper()
    if kind == "GAUSSIAN":
        phi = RadialProfile((SegmentSpec(LINEAR, 0.0, r_max),))
        f = RadialProfile((SegmentSpec(PARABOLA, 0.0, r_max,
                                       {"c0": 0.0, "c1": 0.0, "c2": 0.5}),))
        m = ManifoldWithDensity(n, phi, f, CAP, potential_scale)
        m.meta["eps"] = 1.0 / (n - 1) if eps is None else eps   # n >= 2 by now
        return m
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
    if not n >= 3:
        raise ConstructionError(f"family requires n >= 3, got {n}")
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
    A = phi_band._triple(half)[0]
    phi = RadialProfile((SegmentSpec(SINE, 0.0, r_band_phi),
                         phi_band,
                         SegmentSpec(CONSTANT, half, L, {"value": A})),
                        reflect_at=L)

    # potential profile
    c2_cap = -0.5 * (n - 1) * (1.0 - eps)
    cap = SegmentSpec(PARABOLA, 0.0, r_band_f, {"c0": 0.0, "c1": 0.0, "c2": c2_cap})
    f_nodes = solve_smoothing_band(-(n - 1) * (1.0 - eps), (n - 1) * eps, delta, 0.0)
    f_band = SegmentSpec(PL2_BAND, r_band_f, r_band_phi,
                         {"left_value": cap._triple(r_band_f)[0],
                          "left_slope": cap._triple(r_band_f)[1],
                          "nodes": f_nodes})
    f_tail = SegmentSpec(PARABOLA, r_band_phi, L,
                         {"c0": f_band._triple(r_band_phi)[0],
                          "c1": f_band._triple(r_band_phi)[1],
                          "c2": 0.5 * (n - 1) * eps})
    f = RadialProfile((cap, f_band, f_tail), reflect_at=L)

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
#
# Every file pinchlab writes goes through json_text or csv_lines, then
# write_text: JSON with sorted keys, each float as its shortest round-trip
# repr and a non-finite float as null; CSV floats at 17 significant digits.


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        # strict JSON has no Infinity or NaN
        return float(v) if math.isfinite(v) else None
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.bool_,)):
        return bool(v)
    if isinstance(v, dict):
        return {k: _fmt(x) for k, x in v.items()}
    if isinstance(v, (list, tuple, np.ndarray)):
        return [_fmt(x) for x in v]
    return v


def json_text(doc):
    """``doc`` as indented JSON text with sorted keys, ending in a newline."""
    return json.dumps(_fmt(doc), sort_keys=True, indent=2, allow_nan=False) + "\n"


def csv_lines(header, columns):
    """CSV lines, each ending in a newline: ``header``, then one row per
    index of the equal-length ``columns``.  Yields row by row, so numpy
    columns are read in place rather than copied to lists."""
    yield ",".join(header) + "\n"
    for row in zip(*columns):
        yield ",".join(f"{v:.17g}" for v in row) + "\n"


def write_text(out, lines):
    """Write the strings ``lines`` in turn to ``out``, a path or a text stream."""
    if isinstance(out, (str, bytes, os.PathLike)):
        with open(out, "w") as fh:
            fh.writelines(lines)
    else:
        out.writelines(lines)


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
    naming the field.  The model itself is checked where it is made, in
    :class:`ManifoldWithDensity`."""
    topology = _field(d, "topology")
    reflect = _finite_field(d, "L") if topology == DOUBLED_SPHERE else None
    n = _field(d, "n")
    if not (_is_number(n) and isinstance(n, int)):
        raise ConstructionError(f"profile JSON: field 'n' must be an integer, got {n!r}")
    scale = _finite_field(d, "potential_scale") if "potential_scale" in d else 1.0
    return ManifoldWithDensity(n, _profile_from_dict(d, "phi", reflect),
                               _profile_from_dict(d, "f", reflect), topology,
                               scale, d.get("meta", {}))


def _check_positive(phi):
    """Raise ConstructionError unless the warping profile is positive on
    (0, r_max), and at r_max on a cap, and phi^2 and phi'^2 are finite.

    Each segment's least and greatest values over [lo, hi] are taken at an
    end or at a zero of its slope, and those zeros are in closed form:
    cos r = 0 on SINE, the vertex of a PARABOLA and the roots of each
    PL2_BAND piece's quadratic slope.  Its slope is extreme at an end or at
    an inflection (:meth:`RadialProfile.slope_extreme_radii`).  The segments
    of a doubled profile end at L, so its far pole, where phi vanishes, is
    not among them, and its mirror image repeats the values checked.
    """
    extremes = phi.slope_extreme_radii(phi.r_max)
    for seg in phi.segments:
        lo, hi = seg.lo, seg.hi
        rs = [lo, hi]
        if seg.kind == SINE:
            k0, k1 = (math.ceil((x - 0.5 * math.pi) / math.pi) for x in (lo, hi))
            rs += [(k + 0.5) * math.pi for k in range(k0, k1 + 1)]
        elif seg.kind == PARABOLA and seg.params["c2"] != 0.0:
            rs.append(lo - 0.5 * seg.params["c1"] / seg.params["c2"])
        elif seg.kind == PL2_BAND:
            offs, rows = seg._band_table[math]
            for o0, o1, (_, d1, d2, d3) in zip(offs, offs[1:], rows):
                # the slope d1 + d2 x + d3 x^2 / 2 at the offset x into the piece
                rs += [lo + o0 + x for x in _quadratic_roots(0.5 * d3, d2, d1)
                       if 0.0 <= x <= o1 - o0]
        for r in (r for r in rs + extremes if lo <= r <= hi):
            v, d1, _ = seg._triple(r)
            if r > 0.0 and not (v > 0.0 and v * v > 0.0):   # phi^2 divides the curvature
                raise ConstructionError(f"phi must be positive on (0, r_max), phi^2 too,"
                                        f" but phi({r!r}) = {v!r}")
            if not (math.isfinite(v * v) and math.isfinite(d1 * d1)):
                raise ConstructionError(f"phi^2 and phi'^2 must be finite, but phi({r!r}) = "
                                        f"{v!r} and phi'({r!r}) = {d1!r}")


def _quadratic_roots(a, b, c):
    """Real roots of a x^2 + b x + c, in cancellation-free form."""
    if a == 0.0:
        return [-c / b] if b != 0.0 else []
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    return [q / a] + ([c / q] if q != 0.0 else [])


def save_manifold(m, out):
    """Write the profile JSON of ``m`` to ``out``, a path or a text stream."""
    write_text(out, [json_text(manifold_to_dict(m))])


def load_manifold(path):
    with open(path) as fh:
        try:
            d = json.load(fh)
        except ValueError as e:
            raise ConstructionError(f"{path} is not a profile JSON file: {e}") from None
    return manifold_from_dict(d)

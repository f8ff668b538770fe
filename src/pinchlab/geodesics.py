"""Geodesics of dr^2 + phi^2 g_{S^{n-1}} via the Clairaut reduction.

Rotational symmetry confines every geodesic to a totally geodesic
2-dimensional slice, so the state is (r, theta) with a single fiber angle and
the conserved Clairaut constant c = phi^2 theta_dot.  Shooting integrates the
full second-order system (without using the conservation laws), so the
Clairaut and unit-speed residuals are genuine diagnostics of integration
quality.

The distance search sweeps a fixed grid of ``N_ANGLES`` launch angles,
evaluates every geodesic class through the first-order form of the reduction
(arc integrals with a sqrt substitution at turning points, so the integrable
endpoint singularity is removed exactly), brackets each class/target crossing
and refines it by bracketed bisection (Brent).  Candidates within
``DEFAULT_DISTANCE_TOL`` of the shortest are kept once per length rounded to
it, so of two minimizers of equal length (a theta-mirror pair) only one
survives.  The survivors are re-shot through the ODE integrator to produce
the returned paths.  A search whose shortest candidate exceeds the broken
path through a pole raises ``SearchError`` instead of returning it.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ._scipy import brentq, solve_ivp
from .errors import DomainError, IntegrationError, SearchError
from .profiles import CAP, DOUBLED_SPHERE

DEFAULT_SHOOT_TOL = 1e-12       # shoot's DOP853 rtol; atol is 1e-2 of it
DEFAULT_DISTANCE_TOL = 1e-6     # distance's tie window and dedupe rounding
N_ANGLES = 256                  # launch angles of distance's scan
SHOOT_SAMPLES = 1025            # rows of a shot path's ``samples``
ANCHOR_ORDER = 32               # Gauss-Legendre nodes per panel of _anchored
MAX_LENGTH_FACTOR = 100.0
_POLE = 1e-12


@functools.cache
def _leggauss(n):
    return np.polynomial.legendre.leggauss(n)


@functools.cache
def _scan_nodes():
    """Fixed relative s-nodes/weights on [0, 1], geometric toward 0."""
    x, w = _leggauss(6)
    edges = np.concatenate([[0.0], np.power(2.0, -np.arange(14, -1, -1.0))])
    s, ws = [], []
    for s0, s1 in zip(edges, edges[1:]):
        s.append(0.5 * (s0 + s1) + 0.5 * (s1 - s0) * x)
        ws.append(0.5 * (s1 - s0) * w)
    return np.concatenate(s), np.concatenate(ws)


def _wrap_angle(a):
    return (a + math.pi) % (2.0 * math.pi) - math.pi


@dataclass
class GeodesicPath:
    """A unit-speed geodesic sampled along arclength."""

    clairaut_c: float
    samples: np.ndarray            # (N, 4) columns t, r, theta, rdot
    length: float
    clairaut_residual: float
    speed_residual: float
    meridian: bool
    thetadot: np.ndarray = field(repr=False, default=None)
    _state_fn: object = field(repr=False, default=None)
    _phi2: object = field(repr=False, default=None)

    def state(self, t):
        """(r, rdot, theta, thetadot) at arclength t.

        An array of arclengths gives four arrays.  One float gives four
        floats computed in float arithmetic: in closed form on a meridian,
        and otherwise from the integrator's dense output with the same bits
        the array evaluation gives at that point.
        """
        return self._state_fn(t)

    def dump_csv(self, out):
        close = False
        if isinstance(out, (str, bytes)):
            out, close = open(out, "w"), True
        try:
            out.write("t,r,theta,rdot,clairaut_residual,speed_residual\n")
            for (t, r, th, rd), td in zip(self.samples, self.thetadot):
                p2 = self._phi2(r)
                cres = abs(p2 * td - self.clairaut_c)
                sres = abs(rd * rd + p2 * td * td - 1.0)
                out.write(",".join(f"{v:.17g}" for v in (t, r, th, rd, cres, sres)))
                out.write("\n")
        finally:
            if close:
                out.close()


# ---------------------------------------------------------------------------
# shooting


def _meridian_state_fn(m, r0, d0, theta0):
    R = m.r_max
    doubled = m.topology == DOUBLED_SPHERE

    def point(t):
        """(r, rdot, theta, thetadot) at one float t, in float arithmetic."""
        x = r0 + d0 * t
        if doubled:
            y = x % (2.0 * R)
            up = y <= R
            bounces = abs(math.floor(x / R) - math.floor(r0 / R)) if d0 > 0 \
                else abs(math.ceil(x / R) - math.ceil(r0 / R))
            return (y if up else 2.0 * R - y, d0 if up else -d0,
                    theta0 + math.pi * bounces, 0.0)
        up = x >= 0
        return abs(x), d0 if up else -d0, theta0 + math.pi * (not up), 0.0

    def state(t):
        if isinstance(t, float):
            return point(float(t))
        x = r0 + d0 * np.asarray(t, dtype=float)
        if doubled:
            y = np.mod(x, 2.0 * R)
            r = np.where(y <= R, y, 2.0 * R - y)
            rd = np.where(y <= R, d0, -d0) * 1.0
            # each pole passage (x crossing a multiple of R) flips the meridian
            bounces = np.abs(np.floor(x / R) - math.floor(r0 / R)) if d0 > 0 \
                else np.abs(np.ceil(x / R) - math.ceil(r0 / R))
            th = theta0 + math.pi * bounces
        else:
            r = np.abs(x)
            rd = np.where(x >= 0, d0, -d0) * 1.0
            th = theta0 + math.pi * (x < 0)
        return r, rd, th, np.zeros_like(r)

    return state


def check_arclength(m, T):
    """Raise DomainError unless the arclength ``T`` is finite, positive and at
    most ``MAX_LENGTH_FACTOR * r_max``."""
    if not (math.isfinite(T) and T > 0):
        raise DomainError("arclength must be finite and positive")
    if T > MAX_LENGTH_FACTOR * m.r_max:
        # dense output is kept over the whole arc, so memory and time grow with T
        raise DomainError(f"arclength {T} exceeds the bound {MAX_LENGTH_FACTOR:g} r_max"
                          f" = {MAX_LENGTH_FACTOR * m.r_max}")


def check_cap_meridian(m, r0, d0, T):
    """Raise IntegrationError if the meridian of arclength ``T`` from radius
    ``r0`` (outward for ``d0 > 0``) leaves the domain of a cap model."""
    top = r0 + T if d0 > 0 else T - r0
    if m.topology == CAP and top > m.r_max:
        reached = (m.r_max - r0) if d0 > 0 else (r0 + m.r_max)
        raise IntegrationError("meridian leaves the configured cap domain",
                               reached=reached)


def shoot(m, r0, alpha, T, theta0=0.0):
    """Integrate the geodesic launched from radius ``r0`` at angle ``alpha``
    (measured from the outward radial direction) for arclength ``T``.

    ``T`` must be finite, positive and at most ``MAX_LENGTH_FACTOR * r_max``;
    otherwise :class:`DomainError` is raised."""
    check_arclength(m, T)
    if not math.isfinite(alpha):
        raise DomainError("launch angle must be finite")
    sa, ca = math.sin(alpha), math.cos(alpha)
    if abs(sa) < 1e-15:
        sa = 0.0
    if r0 < _POLE and sa != 0.0:
        raise DomainError("non-meridian launch from the pole")
    if not 0 <= r0 <= m.r_max + 1e-12:
        raise DomainError("launch radius outside the manifold domain")

    ts = np.linspace(0.0, T, SHOOT_SAMPLES)
    R = m.r_max
    phi_s = m.phi.scalar_fn(0)
    dphi_s = m.phi.scalar_fn(1)
    # sampled radii may stray past [0, R] by rounding; clip as eval does
    phi2 = lambda rr: phi_s(min(max(float(rr), 0.0), R)) ** 2

    if sa == 0.0:
        d0 = 1.0 if ca >= 0 else -1.0
        check_cap_meridian(m, r0, d0, T)
        st = _meridian_state_fn(m, r0, d0, theta0)
        r, rd, th, td = st(ts)
        samples = np.column_stack([ts, r, th, rd])
        return GeodesicPath(0.0, samples, T, 0.0, 0.0, True, thetadot=td,
                            _state_fn=st, _phi2=phi2)

    phi0 = phi_s(min(float(r0), R))
    c = phi0 * sa
    y0 = [r0, ca, theta0, sa / phi0]

    def rhs(t, y):
        # Python floats: cheaper arithmetic than numpy scalars, same bits
        r, rd, th, td = y.tolist()
        p = phi_s(r)
        dp = dphi_s(r)
        return [rd, p * dp * td * td, td, -2.0 * dp / p * rd * td]

    events = None
    if m.topology == CAP:
        def leave(t, y):
            return m.r_max - y[0]
        leave.terminal = True
        events = [leave]

    sol = solve_ivp(rhs, (0.0, T), y0, method="DOP853", rtol=DEFAULT_SHOOT_TOL,
                    atol=DEFAULT_SHOOT_TOL * 1e-2, dense_output=True, events=events)
    if not sol.success:
        raise IntegrationError(f"geodesic integration failed: {sol.message}",
                               reached=float(sol.t[-1]))
    if sol.status == 1:
        raise IntegrationError("geodesic left the configured cap domain",
                               reached=float(sol.t_events[0][0]))

    r, rd, th, td = sol.sol(ts)
    phi = m.phi._eval(np.clip(r, 0.0, R), 0)
    clair = float(np.max(np.abs(phi**2 * td - c)))
    speed = float(np.max(np.abs(rd**2 + phi**2 * td**2 - 1.0)))
    samples = np.column_stack([ts, r, th, rd])

    return GeodesicPath(c, samples, T, clair, speed, False, thetadot=td,
                        _state_fn=_dense_state_fn(sol.sol), _phi2=phi2)


def _dense_state_fn(sol):
    """(r, rdot, theta, thetadot), or (psi, psi'), from the dense output ``sol``.

    An array goes through ``sol``.  One float t is answered in float
    arithmetic: the segment is picked as ``OdeSolution`` picks it, and the
    interpolant is evaluated with ``Dop853DenseOutput``'s operations in its
    order, so the result has the bits ``sol(t)`` has.  The step times are
    read into a list on the first float call, and each segment's
    coefficients on the first call that lands in it, so a path asked for
    its end point alone does not pay for the whole table.
    """
    last = len(sol.interpolants) - 1
    times = functools.cache(sol.ts.tolist)

    @functools.cache
    def segment(i):
        seg = sol.interpolants[i]
        rows = seg.F[::-1].T.tolist()            # per component: f0 .. f6
        # scipy accumulates from zeros, so f0 enters as 0.0 + f0
        coeffs = [(0.0 + f[0], *f[1:]) for f in rows]
        return float(seg.t_old), float(seg.h), seg.y_old.tolist(), coeffs

    def state(t):
        if not isinstance(t, float):
            return tuple(sol(t))
        t = float(t)
        t_old, h, y_old, coeffs = segment(min(max(bisect.bisect_left(times(), t) - 1, 0), last))
        x = (t - t_old) / h
        x1 = 1.0 - x
        return [((((((a * x + b) * x1 + c) * x + d) * x1 + e) * x + f) * x1 + g) * x + y
                for (a, b, c, d, e, f, g), y in zip(coeffs, y_old)]

    return state


# ---------------------------------------------------------------------------
# first-order (quadrature) evaluation of candidate geodesics
#
# For a unit-speed geodesic with Clairaut constant c on a monotone-r arc,
#     dtheta/dr = c / (phi^2 sqrt(1 - c^2/phi^2)),   dt/dr = 1/sqrt(...).
# Every candidate reduces to the single primitive  up_to(c, r) = integral
# from the lower turning radius r_-(c) up to r (crossing the warping peak if
# needed), with the substitution r = r_* -/+ s^2 about turning points:
#     direct arc lo->hi  :  up_to(hi) - up_to(lo)
#     one turn down      :  up_to(r1) + up_to(r2)
#     one turn up        :  2 H - up_to(r1) - up_to(r2),   H = full half-swing
# _Geometry._classes applies these to the accurate and to the scan-grade arc
# integrals alike.


class _Geometry:
    """Unimodal-warping helper: turning radii and arc integrals."""

    def __init__(self, m):
        self.m = m
        self.doubled = m.topology == DOUBLED_SPHERE
        self.R = m.r_max
        half = m.L if self.doubled else m.r_max
        self.mid = half
        grid = np.linspace(0.0, half, 4097)
        dphi = m.phi.eval(grid, 1)
        if np.any(dphi < -1e-9):
            raise SearchError("distance search requires a unimodal warping profile")
        flat = np.nonzero(dphi <= 1e-13)[0]
        if flat.size and flat[0] == 0:
            raise SearchError("warping profile is flat at the pole")
        # float closures for one-radius work; callers keep r in [0, r_max]
        self.phi_s = m.phi.scalar_fn(0)
        self.dphi_s = m.phi.scalar_fn(1)
        if flat.size:
            i = int(flat[0])
            lo, hi = grid[i - 1], grid[i]
            for _ in range(80):
                mm = 0.5 * (lo + hi)
                if self.dphi_s(mm) > 1e-13:
                    lo = mm
                else:
                    hi = mm
            self.r_inc_end = hi
        else:
            self.r_inc_end = half
        self.c_max = float(self.phi_s(self.r_inc_end))
        js = set(m.phi.junctions())
        if self.doubled:
            js |= {2.0 * m.L - j for j in m.phi.junctions()}
        self.junctions = sorted(j for j in js if 0.0 < j < m.r_max)
        # monotone table of the increasing flank for turning-radius brackets
        self._tab_r = np.linspace(0.0, self.r_inc_end, 4097)
        self._tab_phi = m.phi.eval(self._tab_r)

    # -- turning radii ----------------------------------------------------

    def turn_lo(self, c):
        """Radius on the increasing flank where phi = c (scalar, accurate)."""
        i = int(np.searchsorted(self._tab_phi, c))
        i = min(max(i, 1), len(self._tab_r) - 1)
        lo, hi = self._tab_r[i - 1], self._tab_r[i]
        f = lambda r: self.phi_s(r) - c
        flo, fhi = f(lo), f(hi)
        k = 1
        while flo * fhi > 0 and k < 8:
            lo = self._tab_r[max(i - 1 - k, 0)]
            hi = self._tab_r[min(i + k, len(self._tab_r) - 1)]
            flo, fhi = f(lo), f(hi)
            k += 1
        if flo == 0.0:
            rm = float(lo)
        else:
            rm = float(brentq(f, lo, hi, xtol=1e-15, rtol=8.9e-16))
        # Newton polish: brentq's absolute xtol is not enough relative
        # precision for pole-adjacent turning radii (rm ~ c), and the arc
        # integrals are sqrt-sensitive to relative errors in rm
        for _ in range(3):
            dp = self.dphi_s(rm)
            if dp <= 0.0:
                break
            step = (self.phi_s(rm) - c) / dp
            if rm - step < 0.0:
                break
            rm -= step
            if abs(step) < 1e-17 * max(rm, 1e-300):
                break
        return rm

    def turn_lo_vec(self, c):
        lo = np.zeros_like(c)
        hi = np.full_like(c, self.r_inc_end)
        for _ in range(60):
            mm = 0.5 * (lo + hi)
            above = self.m.phi._eval(mm, 0) > c
            hi = np.where(above, mm, hi)
            lo = np.where(above, lo, mm)
        rm = 0.5 * (lo + hi)
        for _ in range(3):
            dp = self.m.phi._eval(rm, 1)
            step = np.where(dp > 0.0,
                            (self.m.phi._eval(rm, 0) - c) / np.maximum(dp, 1e-300), 0.0)
            rm = np.where(rm - step >= 0.0, rm - step, rm)
        return rm

    # -- quadrature kernels -----------------------------------------------

    def _kernel_s(self, c, rstar, sgn, s):
        """Integrand pair (g_theta, g_t) at substituted nodes r = rstar + sgn s^2.

        Near the turning point the direct 1 - c^2/phi^2 is pure cancellation
        noise, so it is replaced there by the midpoint-derivative form
        q = sgn s^2 phi'(rstar + sgn s^2/2) (phi + c)/phi^2, which is exact to
        O(s^4) relative and keeps the substituted integrand smooth down to
        s = 0.
        """
        r = np.clip(rstar + sgn * s * s, 0.0, self.R)
        p = self.m.phi._eval(r, 0)
        cb = np.broadcast_to(np.asarray(c, dtype=float), p.shape)
        q = 1.0 - (cb / p) ** 2
        small = q < 1e-10
        if np.any(small):
            rmid = np.clip(np.broadcast_to(rstar + sgn * s * s * 0.5, p.shape),
                           0.0, self.R)
            dp = self.m.phi._eval(rmid[small], 1)
            sb = np.broadcast_to(s, p.shape)
            q[small] = sgn * sb[small] ** 2 * dp \
                * (p[small] + cb[small]) / p[small] ** 2
        q = np.maximum(q, 1e-30)
        g = 1.0 / np.sqrt(q)
        return g * cb / p**2, g

    def _anchored(self, c, rstar, sgn, r_far):
        """(dtheta, dt) over radii between the turning point ``rstar`` and
        ``r_far`` under r = rstar + sgn s^2, scalar c.

        The panel adjacent to s = 0 is refined geometrically: the integrand
        lives on multiplicative s-scales (sqrt of the distance to a pole or
        of the flank slope), which uniform panels cannot resolve.  The depth
        adapts so the innermost panel resolves the turning layer.
        """
        s_top = math.sqrt(max(sgn * (r_far - rstar), 0.0))
        if s_top == 0.0:
            return 0.0, 0.0
        a, b = (rstar, r_far) if sgn > 0 else (r_far, rstar)
        pts = {s_top}
        for j in self.junctions:
            if a < j < b:
                pts.add(math.sqrt(sgn * (j - rstar)))
        knots = sorted(pts)
        # width-cap the outer panels
        edges = [knots[0]]
        for s1 in knots[1:]:
            k = max(1, int(math.ceil((s1 - edges[-1]) / 0.7)))
            edges.extend(np.linspace(edges[-1], s1, k + 1)[1:])
        # geometric refinement of [0, first edge]; depth covers the layer
        # scale sqrt(rstar) (pole-adjacent turns have rstar ~ c)
        layer = math.sqrt(max(min(rstar, self.R - rstar), 1e-28))
        levels = int(min(60, max(30, math.log2(max(edges[0], 1e-10) / layer) + 10)))
        geo = edges[0] * np.power(2.0, -np.arange(levels, 0, -1.0))
        E = np.concatenate([[0.0], geo, np.asarray(edges)])
        s0, s1 = E[:-1], E[1:]
        x, w = _leggauss(ANCHOR_ORDER)
        mid = 0.5 * (s0 + s1)[:, None]
        half = 0.5 * (s1 - s0)[:, None]
        s = mid + half * x
        wt = half * w * 2.0 * s
        gth, gt = self._kernel_s(c, rstar, sgn, s)
        return float((wt * gth).sum()), float((wt * gt).sum())

    # -- candidate classes ------------------------------------------------

    def _classes(self, arc, r1, r2, classes):
        """(dtheta, dt) of each class in ``classes`` from the arc primitive
        ``arc(sgn, r_far)``: the integral from the lower (sgn = +1) or upper
        (sgn = -1) turning radius to ``r_far``.

        Works on floats and on arrays alike.  Each distinct arc is integrated
        once: above ``mid`` both radii and the half swing share the two arcs
        that end at the peak.
        """
        arc = functools.cache(arc)

        def up_to(r):
            th, tt = arc(+1.0, min(r, self.mid))
            if self.doubled and r > self.mid + 1e-16:
                ta, la = arc(-1.0, self.mid)
                tb, lb = arc(-1.0, r)
                th, tt = th + (ta - tb), tt + (la - lb)
            return th, tt

        u1, u2 = up_to(r1), up_to(r2)
        out = {}
        for cls in classes:
            if cls == "direct":
                out[cls] = abs(u2[0] - u1[0]), abs(u2[1] - u1[1])
            elif cls == "turn_lo":
                out[cls] = u1[0] + u2[0], u1[1] + u2[1]
            elif cls == "turn_hi":
                # H: the full half swing r_-(c) -> r_+(c)
                (ta, la), (tb, lb) = arc(+1.0, self.mid), arc(-1.0, self.mid)
                out[cls] = (2 * (ta + tb) - u1[0] - u2[0],
                            2 * (la + lb) - u1[1] - u2[1])
            else:
                raise ValueError(cls)
        return out

    def class_eval(self, cls, r1, r2, c):
        """(dtheta, length) of the class-``cls`` candidate, accurately."""
        rm = self.turn_lo(c)
        arc = lambda sgn, r_far: self._anchored(
            c, rm if sgn > 0 else self.R - rm, sgn, r_far)
        return self._classes(arc, r1, r2, (cls,))[cls]

    def class_scan(self, c, rm, r1, r2, classes):
        """Scan-grade (dtheta, dt) arrays of each class over the grid ``c``
        with lower turning radii ``rm``."""
        arc = lambda sgn, r_far: self._anchored_vec(
            c, rm if sgn > 0 else self.R - rm, sgn, np.full_like(c, r_far))
        return self._classes(arc, r1, r2, classes)

    # -- vectorized scan primitive (bracket-grade accuracy) ----------------

    def _anchored_vec(self, c, rstar, sgn, r_far):
        """Vectorized (dtheta, dt) between turning point and ``r_far``."""
        st, wt = _scan_nodes()
        s_top = np.sqrt(np.maximum(sgn * (np.asarray(r_far) - rstar), 0.0))
        s = s_top[:, None] * st
        ww = s_top[:, None] * wt * 2.0 * s
        gth, gt = self._kernel_s(np.asarray(c)[:, None],
                                 np.asarray(rstar)[:, None], sgn, s)
        return (ww * gth).sum(axis=1), (ww * gt).sum(axis=1)


# ---------------------------------------------------------------------------
# distance


def _pole_kind(m, r):
    if r < _POLE:
        return "north"
    if m.topology == DOUBLED_SPHERE and abs(r - m.r_max) < _POLE:
        return "south"
    return None


def distance(m, p, q, return_paths=True):
    """Distance between points (r, theta) and realizing geodesics found.

    Every returned path runs from p to q.  Pole queries reduce to meridians
    exactly.  General queries sweep the launch-angle grid, bracket every
    geodesic class that can hit the target angle and refine by bracketed
    bisection.  Candidates within ``DEFAULT_DISTANCE_TOL`` of the shortest
    are deduplicated by their length rounded to it: one path is returned
    per distinct length, so a second minimizer of the same length (such as
    the theta-mirror image) is dropped.  A returned path may be missing
    when re-shooting it fails.

    Raises SearchError when no candidate is found, and when the shortest
    candidate exceeds the broken path through a pole, min(r1 + r2,
    2 r_max - r1 - r2) (only r1 + r2 on a cap), by more than
    ``DEFAULT_DISTANCE_TOL``; the message names both numbers.
    """
    r1, th1 = float(p[0]), float(p[1])
    r2, th2 = float(q[0]), float(q[1])
    for r in (r1, r2):
        if not -1e-12 <= r <= m.r_max + 1e-12:
            raise DomainError("point outside the manifold domain")
    r1, r2 = max(r1, 0.0), max(r2, 0.0)

    pk, qk = _pole_kind(m, r1), _pole_kind(m, r2)
    if pk or qk:
        # the meridian from p to q: (length, launch radius, angle, theta0)
        if pk == "north":
            d, r0, alpha, theta0 = r2, 0.0, 0.0, th2
        elif pk == "south":
            d, r0, alpha, theta0 = m.r_max - r2, m.r_max, math.pi, th2
        elif qk == "north":
            d, r0, alpha, theta0 = r1, r1, math.pi, th1
        else:
            d, r0, alpha, theta0 = m.r_max - r1, r1, 0.0, th1
        if d < 1e-15:
            return 0.0, []
        if not return_paths:
            return d, []
        return d, [shoot(m, r0, alpha, d, theta0=theta0)]

    dtheta = abs(_wrap_angle(th2 - th1))
    geom = _Geometry(m)
    # r may exceed r_max by up to 1e-12; clip as eval does
    phi1, phi2 = geom.phi_s(min(r1, geom.R)), geom.phi_s(min(r2, geom.R))
    cmax_pair = min(phi1, phi2, geom.c_max * (1.0 - 1e-13))

    candidates = []   # (length, cls, c, target)

    if (abs(r1 - r2) < 1e-12 and abs(geom.dphi_s(min(r1, geom.R))) < 1e-12
            and dtheta > 0):
        candidates.append((phi1 * dtheta, "parallel", None, dtheta))
    if dtheta < 1e-12 and abs(r1 - r2) > 0:
        candidates.append((abs(r1 - r2), "meridian", None, 0.0))
    if abs(dtheta - math.pi) < 1e-12:
        candidates.append((r1 + r2, "meridian_np", None, math.pi))
        if m.topology == DOUBLED_SPHERE:
            candidates.append((2.0 * m.r_max - r1 - r2, "meridian_sp", None,
                               math.pi))

    classes = ["direct", "turn_lo"]
    if m.topology == DOUBLED_SPHERE:
        classes.append("turn_hi")

    alphas = (np.arange(N_ANGLES) + 0.5) * (math.pi / 2.0) / N_ANGLES
    cgrid = cmax_pair * np.sin(alphas)
    # extra nodes approaching the grazing limit c -> cmax geometrically
    near = cmax_pair * (1.0 - np.power(10.0, -np.arange(2.0, 13.0)))
    cgrid = np.unique(np.concatenate([[cmax_pair * 1e-8], cgrid,
                                      near[near > cgrid[-1]]]))
    targets = [t for t in (dtheta, 2.0 * math.pi - dtheta)
               if 1e-12 < t < 2.0 * math.pi - 1e-12]

    tables = geom.class_scan(cgrid, geom.turn_lo_vec(cgrid), r1, r2, classes)
    # scan tables prepended with the exact meridian limits at c = 0
    cgrid0 = np.concatenate([[0.0], cgrid])
    limits = {"direct": (0.0, abs(r2 - r1)), "turn_lo": (math.pi, r1 + r2),
              "turn_hi": (math.pi, 2.0 * m.r_max - r1 - r2)}
    scan = {cls: tuple(np.concatenate([[lim], tab])
                       for lim, tab in zip(limits[cls], tables[cls]))
            for cls in classes}

    brackets = []
    for cls in classes:
        fvals, tvals = scan[cls]
        for target in targets:
            fv = fvals - target
            for i in np.nonzero(fv[:-1] * fv[1:] <= 0)[0]:
                if fv[i] == 0.0 and fv[i + 1] == 0.0:
                    continue
                approx = min(tvals[i], tvals[i + 1])
                brackets.append((float(approx), cls, target, int(i)))

    # refine cheapest-first; stop once a bracket cannot beat the best length
    brackets.sort()
    best = min((cand[0] for cand in candidates), default=math.inf)
    for approx, cls, target, i in brackets:
        if approx > best + 0.1:
            break
        found = _refine(geom, cls, r1, r2, target, cgrid0, int(i))
        if found is None:
            continue
        c_star, (_, length) = found
        best = min(best, length)
        candidates.append((length, cls, c_star, target))

    if not candidates:
        raise SearchError("no geodesic candidate found between the given points")

    candidates.sort(key=lambda t: t[0])
    d = candidates[0][0]
    # the broken path through a pole bounds every distance
    bound = r1 + r2
    if m.topology == DOUBLED_SPHERE:
        bound = min(bound, 2.0 * m.r_max - r1 - r2)
    if d > bound + DEFAULT_DISTANCE_TOL:
        raise SearchError(f"distance search returned {d!r}, longer than the "
                          f"broken path through a pole ({bound!r})")
    winners, seen = [], set()
    for cand in candidates:
        if cand[0] > d + DEFAULT_DISTANCE_TOL:
            break
        key = round(cand[0] / DEFAULT_DISTANCE_TOL)
        if key in seen:
            continue
        seen.add(key)
        winners.append(cand)
    if not return_paths:
        return d, []
    paths = []
    for length, cls, c, target in winners:
        path = _materialize(m, cls, c, r1, th1, r2, th2, length, target)
        if path is not None:
            paths.append(path)
    return d, paths


def _refine(geom, cls, r1, r2, target, cgrid, i):
    """(c*, (dtheta, length) at c*) for the root of dtheta = target bracketed
    by scan cell ``i``, or None when the cell holds no true root."""
    # brentq returns a point it has evaluated; the memo serves the check
    ev = functools.cache(lambda c: geom.class_eval(cls, r1, r2, c))
    f = lambda c: ev(c)[0] - target
    lo, hi = cgrid[i], cgrid[i + 1]
    if lo == 0.0:
        # the c = 0 row holds the analytic meridian limit; quadrature needs
        # a strictly positive Clairaut constant
        lo = hi * 1e-6
    vlo, vhi = ev(lo), ev(hi)
    if (vlo[0] - target) * (vhi[0] - target) > 0:
        # the scan is low-order; allow the bracket to shift by one cell
        lo = cgrid[max(i - 1, 1)]
        hi = cgrid[min(i + 2, len(cgrid) - 1)]
        vlo, vhi = ev(lo), ev(hi)
        if (vlo[0] - target) * (vhi[0] - target) > 0:
            return None
    if vlo[0] - target == 0.0:
        return float(lo), vlo
    if vhi[0] - target == 0.0:
        return float(hi), vhi
    try:
        c_star = float(brentq(f, lo, hi, xtol=1e-13, rtol=8.9e-16, maxiter=200))
    except ValueError:
        return None
    v = ev(c_star)
    # reject pseudo-roots where f merely jumps through zero
    if abs(v[0] - target) > 1e-5 * max(1.0, target):
        return None
    return c_star, v


def _materialize(m, cls, c, r1, th1, r2, th2, length, target):
    """Re-shoot a winning candidate through the ODE integrator."""
    raw = _wrap_angle(th2 - th1)
    sgn_th = 1.0 if abs(raw - target) <= abs(raw + target) else -1.0
    if cls == "parallel":
        alpha = sgn_th * math.pi / 2.0
        return shoot(m, r1, alpha, length, theta0=th1)
    if cls in ("meridian", "meridian_np", "meridian_sp"):
        if cls == "meridian":
            alpha = 0.0 if r2 >= r1 else math.pi
        elif cls == "meridian_np":
            alpha = math.pi
        else:
            alpha = 0.0
        return shoot(m, r1, alpha, length, theta0=th1)
    sa = min(c / m.phi.scalar_fn(0)(min(r1, m.r_max)), 1.0)
    up = r2 >= r1 if cls == "direct" else cls == "turn_hi"
    alpha = math.asin(sa) if up else math.pi - math.asin(sa)
    if sgn_th < 0:
        alpha = -alpha
    try:
        return shoot(m, r1, alpha, length, theta0=th1)
    except IntegrationError:
        return None


# ---------------------------------------------------------------------------
# injectivity radius and farthest point


def inj_at_pole(m):
    """Injectivity radius at the pole: the first conjugate distance along a
    meridian, since every geodesic from the pole is a meridian.

    Along a meridian from the pole the tangential Jacobi field is the warping
    profile phi itself (Petersen, Riemannian Geometry, 3rd ed., 4.2.3).  With
    phi > 0 on (0, r_max), as :func:`farthest_from_pole` also assumes, its
    first zero is the far pole r_max of a doubled model; a cap has none.
    """
    return math.inf if m.topology == CAP else m.r_max


def farthest_from_pole(m):
    """((r, theta), arclength) of the point maximizing distance from the pole.

    Every meridian from the pole reaches the far pole r = r_max at arclength
    r_max, and a point at radius r lies at distance r from the pole.
    """
    if m.topology == CAP:
        raise DomainError("no farthest point on a complete non-compact cap")
    return (m.r_max, 0.0), m.r_max

"""Geodesics of dr^2 + phi^2 g_{S^{n-1}} via the Clairaut reduction.

Rotational symmetry confines every geodesic to a totally geodesic
2-dimensional slice, so the state is (r, theta) with a single fiber angle and
the conserved Clairaut constant c = phi^2 theta_dot.  Shooting integrates the
full second-order system (without using the conservation laws), so the
Clairaut and unit-speed residuals are genuine diagnostics of integration
quality.  The integration restarts wherever r crosses a kink of phi, at the
arclengths the Clairaut primitive below gives, so no step straddles a jump
in phi's third derivative.

The distance search needs a warping profile that rises from the pole to its
peak (L on a doubled model, r_max on a cap).  Unimodality is checked exactly
at the slope's candidate extremes on that flank, which are the pole, the peak
and the profile's kinks and inflections between; the same radii bracket each
turning radius, and phi at the peak bounds the Clairaut constants that turn.
Every geodesic class is evaluated through the first-order form of the
reduction from one primitive: the arc integrals from the lower turning
radius, summed over whole pieces of the flank, in closed form on SINE, LINEAR
and CONSTANT segments and by Gauss-Legendre under a sqrt substitution at the
turning radius on cubic pieces.  A doubled model's upper flank is the lower
one reflected about L.  The search evaluates the primitive on a fixed grid of
``N_ANGLES`` launch angles, brackets each class/target crossing and refines it
by bracketed bisection (Brent) on the same function, so every bracket holds.
Each class is scanned for both theta sweeps, and its c = 0 end is the exact
meridian.  A candidate is one record (length, class, c, side), where side is
the sign of its theta sweep.  Candidates within ``DEFAULT_DISTANCE_TOL`` of
the shortest are kept once per class and side, a meridian once per class, so
both members of a theta-mirror pair survive.  The survivors are re-shot
through the ODE integrator, all from one launch formula, to produce the
returned paths.  A search whose shortest candidate exceeds the broken path
through a pole raises ``SearchError`` instead of returning it.
"""

from __future__ import annotations

import bisect
import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, IntegrationError, SearchError
from .profiles import (CAP, CONSTANT, DOUBLED_SPHERE, LINEAR, PL2_BAND, SINE, _FloatMath,
                       csv_lines, sorted_unique, write_text)

DEFAULT_SHOOT_TOL = 1e-12       # shoot's DOP853 rtol; atol is 1e-2 of it
DEFAULT_DISTANCE_TOL = 1e-6     # distance's tie window
N_ANGLES = 256                  # launch angles of distance's scan
SHOOT_SAMPLES = 1025            # rows of a shot path's ``samples``
ANCHOR_ORDER = 32               # Gauss-Legendre nodes per panel of an arc quadrature
MAX_LENGTH_FACTOR = 100.0
_POLE = 1e-12
_EXIT_TOL = 4 * sys.float_info.epsilon     # Brent's xtol and rtol for a cap exit


# The solver module is imported on the first solve or root finding, because
# compiling it adds about 5 ms to every command's import where bytecode is
# not cached; most commands never call it.
def solve_ivp(*args, **kwargs):
    from ._solvers import solve_ivp
    return solve_ivp(*args, **kwargs)


def brentq(*args, **kwargs):
    from ._solvers import brentq
    return brentq(*args, **kwargs)


def _wrap_angle(a):
    return (a + math.pi) % (2.0 * math.pi) - math.pi


@dataclass
class GeodesicPath:
    """A unit-speed geodesic sampled along arclength."""

    clairaut_c: float
    samples: np.ndarray            # (N, 4) columns t, r, theta, rdot
    length: float
    meridian: bool
    thetadot: np.ndarray = field(repr=False, default=None)
    _state_fn: object = field(repr=False, default=None)
    _phi: object = field(repr=False, default=None)      # the warping profile
    _crossings: object = field(repr=False, default=None)
    exact_crossings: bool = field(repr=False, default=False)

    def state(self, t, rows=4):
        """(r, rdot, theta, thetadot) at arclength t, or its first ``rows``.

        An array of arclengths gives arrays.  One float gives floats computed
        in float arithmetic: in closed form on a meridian, and otherwise from
        the integrator's dense output with the same bits the array
        evaluation gives at that point.
        """
        return self._state_fn(t, rows)

    @property
    def crossings(self):
        """Sorted arclengths in (0, length) where r crosses a kink of phi.

        Wherever a curvature integrand along the path is integrated, these
        are its forced quadrature nodes or the restarts of its Jacobi solve.
        A non-meridian path was solved in pieces between them
        (:func:`kink_crossings`).  A meridian's come from its closed form,
        and those of a path on a profile without a Clairaut primitive from
        its solve (:func:`_solved_crossings`), both on first read; only these
        last may miss a crossing, and :attr:`exact_crossings` is then False.
        """
        if callable(self._crossings):
            self._crossings = self._crossings()
        return self._crossings

    @functools.cached_property
    def _residuals(self):
        """The CSV's columns |phi^2 thetadot - c| and |rdot^2 + phi^2
        thetadot^2 - 1|, one float per sample, on first read."""
        # sampled radii may stray past [0, r_max] by rounding; clip as eval does
        phi = self._phi._eval(np.clip(self.samples[:, 1], 0.0, self._phi.r_max), 0)
        # a float's ** (C pow), not numpy's x * x, which differs from it in
        # the last bit on some inputs: the golden CSV holds pow's phi^2
        rows = [(p ** 2, rd, td) for p, rd, td in
                zip(phi.tolist(), self.samples[:, 3].tolist(), self.thetadot.tolist())]
        return ([abs(p2 * td - self.clairaut_c) for p2, _, td in rows],
                [abs(rd * rd + p2 * td * td - 1.0) for p2, rd, td in rows])

    @property
    def clairaut_residual(self):
        """The maximum of the CSV's ``clairaut_residual`` column."""
        return max(self._residuals[0])

    @property
    def speed_residual(self):
        """The maximum of the CSV's ``speed_residual`` column."""
        return max(self._residuals[1])

    def dump_csv(self, out):
        """Write the samples and residual columns as CSV to a path or stream."""
        header = ("t", "r", "theta", "rdot", "clairaut_residual", "speed_residual")
        write_text(out, csv_lines(header, [*self.samples.T.tolist(), *self._residuals]))


# ---------------------------------------------------------------------------
# shooting


def _meridian_state_fn(m, r0, d0, theta0):
    R = m.r_max
    doubled = m.topology == DOUBLED_SPHERE

    def state(t, rows=4):
        # one float in float arithmetic, with the bits an array entry gets
        xp, t = (_FloatMath, float(t)) if isinstance(t, float) else (np, np.asarray(t, float))
        x = r0 + d0 * t
        if doubled:
            y = x % (2.0 * R)
            up = y <= R
            r = xp.where(up, y, 2.0 * R - y)
            # each pole passage (x crossing a multiple of R) flips the meridian
            flips = abs(xp.floor(x / R) - math.floor(r0 / R)) if d0 > 0 \
                else abs(xp.ceil(x / R) - math.ceil(r0 / R))
        else:
            up = x >= 0
            r, flips = abs(x), x < 0
        return (r, xp.where(up, d0, -d0) * 1.0, theta0 + math.pi * flips, 0.0 * r)[:rows]

    return state


def _meridian_crossings(m, r0, d0, T):
    """Sorted arclengths in (0, T) where the meridian from ``r0`` (outward
    for ``d0 > 0``) crosses a kink of phi, in closed form.

    The meridian is x = r0 + d0 t folded at the poles as in
    :func:`_meridian_state_fn`: r = |x| on a cap, and on a doubled model x
    modulo 2 r_max, reflected about r_max.  So it meets a kink k wherever
    x = +-k, plus a multiple of 2 r_max on a doubled model.  As in
    :func:`kink_crossings`, crossings within 1e-15 of 0 or T are dropped.
    """
    R2 = 2.0 * m.r_max
    lo, hi = sorted((r0, r0 + d0 * T))
    out = []
    for k in m.phi.kinks():
        for x0 in (k, -k):
            laps = range(math.floor((lo - x0) / R2), math.ceil((hi - x0) / R2) + 1) \
                if m.topology == DOUBLED_SPHERE else (0,)
            out.extend(d0 * (x0 + j * R2 - r0) for j in laps)
    return sorted(t for t in out if 1e-15 < t < T - 1e-15)


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
        raise IntegrationError("meridian leaves the configured cap domain",
                               reached=(m.r_max - r0) if d0 > 0 else (r0 + m.r_max))


def shoot(m, r0, alpha, T, theta0=0.0):
    """Integrate the geodesic launched from radius ``r0`` at angle ``alpha``
    (measured from the outward radial direction) for arclength ``T``.

    ``T`` must be finite, positive and at most ``MAX_LENGTH_FACTOR * r_max``,
    ``r0`` in [0, r_max + 1e-12], and a launch off the meridians must start
    more than ``_POLE`` from a pole; otherwise :class:`DomainError` is
    raised.  ``r0`` is then clipped to [0, r_max].  A geodesic that leaves a
    cap raises :class:`IntegrationError` with ``reached``, the arclength at
    which it crosses r_max.  Off the meridians that crossing is read from the
    solve: past the rim phi and phi' keep their values at r_max, so a solve
    that leaves runs on to T through finite values, and the first step that
    ends above r_max holds the crossing, found there by Brent's method."""
    check_arclength(m, T)
    if not math.isfinite(alpha):
        raise DomainError("launch angle must be finite")
    sa, ca = math.sin(alpha), math.cos(alpha)
    if abs(sa) < 1e-15:
        sa = 0.0
    if not 0 <= r0 <= m.r_max + 1e-12:
        raise DomainError("launch radius outside the manifold domain")
    # phi vanishes at a pole, and theta_dot = sin(alpha) / phi(r0)
    if sa != 0.0 and (r0 < _POLE or (m.topology == DOUBLED_SPHERE and m.r_max - r0 < _POLE)):
        raise DomainError("non-meridian launch from a pole")
    R = m.r_max
    r0 = min(float(r0), R)

    if sa == 0.0:
        d0 = 1.0 if ca >= 0 else -1.0
        check_cap_meridian(m, r0, d0, T)
        c, state = 0.0, _meridian_state_fn(m, r0, d0, theta0)
        crossings, exact = (lambda: _meridian_crossings(m, r0, d0, T)), True
    else:
        phi0 = m.phi.scalar_fn(0)(r0)
        c = phi0 * sa
        phi_dphi = m.phi.scalar_fn((0, 1))
        if m.topology == CAP:
            inside = phi_dphi
            phi_dphi = lambda r: inside(R if r > R else r)

        def rhs(t, y):
            # y is a list of floats (an array under scipy, with the same bits)
            r, rd, th, td = y
            p, dp = phi_dphi(r)
            return [rd, p * dp * td * td, td, -2.0 * dp / p * rd * td]

        crossings = kink_crossings(m, r0, ca, c, T)
        exact = crossings is not None
        state = solve_pieces(solve_ivp, rhs, [0.0, *(crossings or ()), T],
                             [r0, ca, theta0, sa / phi0], "geodesic",
                             rtol=DEFAULT_SHOOT_TOL, atol=DEFAULT_SHOOT_TOL * 1e-2)
        if m.topology == CAP:
            _raise_on_cap_exit(state, R)
        if crossings is None:
            # no Clairaut primitive: read from the solve, on first read
            crossings = lambda: _solved_crossings(m, state)

    ts = np.linspace(0.0, T, SHOOT_SAMPLES)
    r, rd, th, td = state(ts)
    return GeodesicPath(c, np.column_stack([ts, r, th, rd]), T, sa == 0.0, thetadot=td,
                        _state_fn=state, _phi=m.phi, _crossings=crossings,
                        exact_crossings=exact)


def _raise_on_cap_exit(sol, R):
    """Raise IntegrationError if the solved path ``sol`` leaves the cap
    r <= R.  The first step that ends above R holds the exit, which Brent's
    method finds on the dense output from the step's start at r <= R.  The
    launch is no step end, so a launch from the rim leaves only if its first
    step ends above it."""
    ts = sol.ts
    above = np.nonzero(sol(ts[1:], 1)[0] > R)[0]
    if above.size:
        i = above[0]
        reached = brentq(lambda t: R - sol(t, 1)[0], ts[i], ts[i + 1],
                         xtol=_EXIT_TOL, rtol=_EXIT_TOL)
        raise IntegrationError("geodesic left the configured cap domain", reached=reached)


def _solved_crossings(m, sol):
    """Sorted arclengths in (0, T) where the solved path ``sol`` crosses a
    kink of phi, on a profile without a Clairaut primitive, where
    :func:`kink_crossings` gives None.

    The crossings are read from the solve, kink by kink, by :func:`step_roots`.
    """
    out = [t for k in m.phi.kinks() for t in step_roots(sol, 0, k)]
    return sorted(t for t in out if 1e-15 < t < sol.ts[-1] - 1e-15)


def step_roots(sol, row, level=0.0):
    """The arclengths, in order, where component ``row`` of the solve ``sol``
    crosses ``level``: one for each accepted step whose two ends lie strictly
    on either side of it, refined by Brent's method (xtol 1e-15) on that
    step's dense output (Hairer, Norsett and Wanner, *Solving ODEs I*, II.6).
    A step that crosses the level and comes back is missed."""
    ts = sol.ts
    d = sol(ts, row + 1)[row] - level
    return [brentq(lambda t: sol(t, row + 1)[row] - level, float(ts[i]), float(ts[i + 1]),
                   xtol=1e-15)
            for i in np.nonzero(d[:-1] * d[1:] < 0)[0]]


def pieces_between(cuts):
    """The pieces (lo, hi) between successive ``cuts`` that :func:`solve_pieces`
    runs: none shorter than 1e-15, or the whole span if every one is."""
    return [(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if hi - lo >= 1e-15] \
        or [(cuts[0], cuts[-1])]


def solve_pieces(solve, fun, cuts, y0, stage, **settings):
    """DOP853 over [cuts[0], cuts[-1]], restarted at every interior cut.

    ``solve`` is the caller's ``solve_ivp`` and ``settings`` its keyword
    arguments, the same for every piece.  Pieces shorter than 1e-15 are
    skipped (:func:`pieces_between`), and each other piece gets its own run
    from the previous piece's final state (Hairer, Norsett and Wanner,
    *Solving ODEs I*, II.6), so no step straddles a cut.  Returns the pieces'
    dense outputs joined into one reader.  A run that fails raises :class:`IntegrationError` with
    ``solve``'s ``reached``, an arclength of the whole span, since every
    piece runs on its own part of it; its message names the ``stage`` and
    ``reached`` before ``solve``'s.
    """
    pieces = pieces_between(cuts)
    times, interpolants = [[float(pieces[0][0])]], []
    for lo, hi in pieces:
        try:
            run = solve(fun, (lo, hi), y0, **settings)
        except IntegrationError as e:
            raise IntegrationError(f"{stage} integration failed at arclength {e.reached}: {e}",
                                   reached=e.reached) from e
        times.append(run.sol.ts[1:])
        interpolants.extend(run.sol.interpolants)
        y0 = run.y
    return type(run.sol)(np.concatenate(times), interpolants)


def kink_crossings(m, r0, ca, c, T):
    """Sorted arclengths in (0, T) where the geodesic launched from radius
    ``r0`` with radial velocity ``ca`` and Clairaut constant ``c`` crosses a
    kink of phi, read from the Clairaut primitive before any integration.

    With U(r) the arclength from the lower turning radius r_-(c) up to r
    (H - U(2L - r) past L on a doubled model, where H is the full swing and
    P = 2H the period), a kink k between the turning radii is met at
    U(k) rising and P - U(k) falling.  The launch sits at U(r0) rising or
    P - U(r0) falling, so the crossings are those less the launch's, plus
    multiples of P.  A cap has no period: one fall, then one rise (P = 0).
    A launch with c = phi(r0) (alpha = pi/2) starts at a turning radius: it
    rises where phi'(r0) > 0 and falls where phi'(r0) < 0, and where
    phi'(r0) = 0 it runs along a parallel and crosses nothing.  Crossings
    within 1e-15 of 0 or T are dropped.  A profile without kinks gives [].
    One that :class:`_Geometry` rejects has no Clairaut primitive and gives
    None: its crossings can only be read from a solve
    (:func:`_solved_crossings`).
    """
    kinks = m.phi.kinks()
    if not kinks:
        return []
    try:
        geom = _Geometry(m)
    except SearchError:
        return None
    c = abs(c)
    r0 = min(max(float(r0), 0.0), m.r_max)
    if c < geom.phi_s(r0):
        rising = ca > 0.0
    else:
        slope = geom.dphi_s(r0)
        if slope == 0.0:
            return []
        rising = slope > 0.0
    lo = geom.turn_lo(c)
    inside = [k for k in kinks if lo < k < (2.0 * geom.mid - lo if geom.doubled else math.inf)]
    if not inside:
        return []
    u, H = geom.up_to(c, [r0, *inside])
    P = 2.0 * H[1] if geom.doubled else 0.0
    if geom.doubled and not 0.0 < P < math.inf:
        return []
    t0 = u[r0][1] if rising else P - u[r0][1]
    laps = int(T / P) + 2 if geom.doubled else 1
    hints = [tau - t0 + j * P for k in inside for tau in (u[k][1], P - u[k][1])
             for j in range(laps)]
    return sorted(t for t in hints if 1e-15 < t < T - 1e-15)


# ---------------------------------------------------------------------------
# first-order evaluation of candidate geodesics
#
# For a unit-speed geodesic with Clairaut constant c on a monotone-r arc,
#     dtheta/dr = c / (phi sqrt(phi^2 - c^2)),   dt/dr = phi / sqrt(phi^2 - c^2).
# Every candidate reduces to the primitive arc(c, r): both integrals from the
# turning radius r_-(c) on the rising flank [0, mid] up to r <= mid.  A
# doubled model is even about L = mid, so the integral from r up to the upper
# turning radius 2L - r_-(c) is arc(c, 2L - r), and H = 2 arc(c, L) is the
# full swing between the two.  With up_to(r) = arc(r) for r <= L and
# H - arc(2L - r) above:
#     direct arc lo->hi  :  up_to(hi) - up_to(lo)
#     one turn down      :  up_to(r1) + up_to(r2)
#     one turn up        :  2 H - up_to(r1) - up_to(r2)
# arc sums whole pieces of the flank: the integrals are elementary on SINE,
# LINEAR and CONSTANT segments (do Carmo, Differential Geometry of Curves and
# Surfaces, 4-4), and on the cubic pieces of PARABOLA and PL2_BAND segments
# they are Gauss-Legendre sums under r = r_b + s^2, so no panel straddles a
# kink and the sqrt singularity at a turning radius r_b is removed exactly.


@functools.cache
def _panels(levels):
    """Gauss-Legendre nodes and weights on [0, 1], ``ANCHOR_ORDER`` per panel,
    on panels graded geometrically toward 0: [0, 2^-levels], ..., [1/2, 1]."""
    x, w = np.polynomial.legendre.leggauss(ANCHOR_ORDER)
    edges = np.concatenate([[0.0], np.power(2.0, -np.arange(levels, -1, -1.0))])
    a, b = edges[:-1, None], edges[1:, None]
    return (0.5 * (a + b) + 0.5 * (b - a) * x).ravel(), (0.5 * (b - a) * w).ravel()


class _Geometry:
    """Turning radii and arc integrals of a unimodal warping profile.

    The warping profile must be nondecreasing on the flank [0, mid], mid = L
    on a doubled model and r_max on a cap.  That is checked exactly: the
    slope over the flank is least at 0, mid or one of the profile's kinks
    and inflections between, and it must be at least -1e-9 at each (it is 1
    at the pole, by construction).  The same radii bracket every turning radius,
    and the largest Clairaut constant of a turning geodesic is c_max = phi(mid).

    ``turn_lo``, ``arcs`` and ``classes`` take one float c or an array of
    them, and give an array entry the bits the float gives.
    """

    def __init__(self, m):
        self.doubled = m.topology == DOUBLED_SPHERE
        self.mid = m.L if self.doubled else m.r_max
        # float closures for one-radius work; callers keep r in [0, r_max]
        self._phi = m.phi
        self.phi_s = m.phi.scalar_fn(0)
        self.dphi_s = m.phi.scalar_fn(1)
        self._flank_r = m.phi.slope_extreme_radii(self.mid)
        if min(map(self.dphi_s, self._flank_r)) < -1e-9:
            raise SearchError("distance search requires a unimodal warping profile")
        self._flank_phi = [self.phi_s(r) for r in self._flank_r]
        self.c_max = self._flank_phi[-1]
        self._pieces = m.phi.pieces
        self._starts = [p[1] for p in self._pieces]
        # the piece holding each interval between successive flank radii
        self._flank_pieces = [
            self._pieces[bisect.bisect_right(self._starts, 0.5 * (lo + hi)) - 1]
            for lo, hi in zip(self._flank_r, self._flank_r[1:])]

    def turn_lo(self, c):
        """Radius on the increasing flank where phi = c."""
        if isinstance(c, np.ndarray):
            return self._turn_lo_array(c)
        i = min(max(bisect.bisect_left(self._flank_phi, c), 1), len(self._flank_r) - 1)
        lo, hi = self._flank_r[i - 1], self._flank_r[i]
        rm = min(max(self._root(i, c), lo), hi)
        # Newton polish: the closed forms and brentq's absolute xtol leave up
        # to a few ulp of phi.  A step is kept only when it brings phi closer
        # to c: where the flank is nearly flat, the rounding of phi made
        # plain Newton cycle between -2 and +2 ulp of c.
        err = self.phi_s(rm) - c
        for _ in range(3):
            dp = self.dphi_s(rm)
            if dp <= 0.0 or err == 0.0:
                break
            r_new = rm - err / dp
            if r_new < 0.0:
                break
            e_new = self.phi_s(r_new) - c
            if abs(e_new) >= abs(err):
                break
            rm, err = r_new, e_new
        return rm

    def _turn_lo_array(self, c):
        """:meth:`turn_lo` of each entry of the array c, with its bits: the
        roots of each flank interval in one pass, then the float path's
        Newton polish as masked array steps, every entry keeping or stopping
        as the float path would."""
        i = np.clip(np.searchsorted(self._flank_phi, c), 1, len(self._flank_r) - 1)
        flank = np.array(self._flank_r)
        rm = np.empty_like(c)
        for j in set(i.tolist()):
            rows = i == j
            rm[rows] = self._root(j, c[rows])
        rm = np.minimum(np.maximum(rm, flank[i - 1]), flank[i])
        err = self._phi._eval(rm, 0) - c
        live = np.arange(c.size)
        for _ in range(3):
            dp = self._phi._eval(rm[live], 1)
            keep = ~((dp <= 0.0) | (err[live] == 0.0))
            live, dp = live[keep], dp[keep]
            r_new = rm[live] - err[live] / dp
            keep = ~(r_new < 0.0)
            live, r_new = live[keep], r_new[keep]
            e_new = self._phi._eval(r_new, 0) - c[live]
            keep = ~(np.abs(e_new) >= np.abs(err[live]))
            live = live[keep]
            rm[live], err[live] = r_new[keep], e_new[keep]
            if not live.size:
                break
        return rm

    def _root(self, i, c):
        """The root of phi = c on the flank's interval i, for one float c or
        an array of them: in closed form where the piece has one (math.asin
        entry by entry, because numpy's arcsin may differ in the last bit),
        else by brentq, entry by entry."""
        kind, a, _, k = self._flank_pieces[i - 1]
        many = isinstance(c, np.ndarray)
        each = (lambda f: np.array(list(map(f, c.tolist())))) if many else (lambda f: f(c))
        if kind == SINE:
            return each(math.asin)
        if kind == LINEAR:
            return c
        if kind == PL2_BAND and k[3] == 0.0:
            # the root of k0 + k1 y + k2 y^2 / 2 = c, in cancellation-free form
            xp = np if many else _FloatMath
            d = c - k[0]
            return a + 2.0 * d / (k[1] + xp.sqrt(xp.maximum(k[1] * k[1] + 2.0 * k[2] * d, 0.0)))
        lo, hi = self._flank_r[i - 1], self._flank_r[i]
        return each(lambda x: float(brentq(lambda r: self.phi_s(r) - x, lo, hi,
                                           xtol=1e-15, rtol=8.9e-16)))

    def arcs(self, c, radii):
        """{r: (dtheta, dt)} from the turning radius r_-(c) up to each radius
        of ``radii`` in [0, mid]; zero where r_-(c) >= r.

        The pieces below a radius are integrated once for all of ``radii``:
        each radius takes its own piece up to it, and the pieces between
        radii are whole.  An array c evaluates one piece at a time.  One
        float c evaluates every cubic piece it needs in one ``_cubic_arc``
        pass, a row per (piece, top), and the rest in float arithmetic; the
        sums run in the same order either way, so each c has the bits the
        array gives it.
        """
        rm = self.turn_lo(c)
        # (piece, top, r): the integral over piece up to top, which ends at
        # radius r, or is a whole piece below the next radius when r is None
        steps, todo = [], sorted(radii)
        for piece in self._pieces:
            # the last piece ends within 1e-12 of mid; it takes what is left
            while todo and (todo[0] <= piece[2] or piece is self._pieces[-1]):
                r = todo.pop(0)
                steps.append((piece, r, r))
            if not todo:
                break
            steps.append((piece, piece[2], None))
        if isinstance(c, np.ndarray):
            vals = [self._piece_arc(piece, top, c, rm, np) for piece, top, _ in steps]
        else:
            vals = self._float_arcs(steps, c, rm)
        out = {}
        th = t = 0.0           # the integrals up to the current piece's start
        for (_, _, r), (dth, dt) in zip(steps, vals):
            if r is None:
                th, t = th + dth, t + dt
            else:
                out[r] = th + dth, t + dt
        return out

    def _float_arcs(self, steps, c, rm):
        """[(dtheta, dt)] of each (piece, top, _) of ``steps`` at one float c,
        the cubic pieces as the rows of one ``_cubic_arc`` pass."""
        cubic = [(piece, top) for piece, top, _ in steps if piece[0] == PL2_BAND]
        if cubic:
            k = np.array([piece[3] for piece, _ in cubic]).T
            a, top = np.array([(piece[1], top) for piece, top in cubic]).T
            n = len(cubic)
            th, tt = self._cubic_arc(k, a, top, np.full(n, c), np.full(n, rm))
            rows = zip(th.tolist(), tt.tolist())
        return [next(rows) if piece[0] == PL2_BAND
                else self._piece_arc(piece, top, c, rm, _FloatMath)
                for piece, top, _ in steps]

    def _piece_arc(self, piece, top, c, rm, xp):
        """(dtheta, dt) over [max(lo, rm), top] of one flank piece, lo <= top;
        zero where rm >= top."""
        kind, a, _, k = piece
        if kind == CONSTANT:
            # c < k wherever rm < top; the floor keeps the other rows finite
            w = xp.sqrt(xp.maximum((k - c) * (k + c), 1e-300))
            dr = xp.maximum(top - xp.maximum(a, rm), 0.0)
            return c * dr / (k * w), k * dr / w
        if kind == PL2_BAND:
            return self._cubic_arc(k, a, top, c, rm)

        def prim(r):
            # both integrals from the segment's own turning radius up to r
            if kind == SINE:
                s = xp.sin(r)
                y = xp.sqrt(xp.maximum((s - c) * (s + c), 0.0))
                return xp.arctan2(y, c * xp.cos(r)), xp.arctan2(y, xp.cos(r))
            y = xp.sqrt(xp.maximum((r - c) * (r + c), 0.0))     # LINEAR
            return xp.arctan2(y, c), y

        (th1, t1), (th0, t0) = prim(top), prim(a)
        below = rm < a         # the turning radius lies below the piece
        return th1 - xp.where(below, th0, 0.0), t1 - xp.where(below, t0, 0.0)

    def _cubic_arc(self, k, a, top, c, rm):
        """(dtheta, dt) arrays over [max(a, rm), top] of the cubic with value
        and derivatives ``k`` at ``a``, for arrays c and rm.  ``k``, ``a``
        and ``top`` are floats shared by every row, or arrays of one entry
        per row.

        Each row substitutes r = r_b + s^2.  Where the piece holds the turning
        radius, r_b is the cubic's root, found again by Newton in offsets from
        ``a`` to far finer than one ulp of rm, and phi - c is the Taylor
        series there.  Below it, r_b = rm and phi - c = (k0 - c) + the series
        at ``a``.  A row whose s-range starts closer to 0 than its length is
        summed on 31 panels graded toward its start, to resolve the turning
        layer; every other row on one.
        """
        k0, k1, k2, k3 = k
        turn = rm >= a
        t = np.where(turn, rm - a, 0.0)                 # r_b - a on turning rows
        # the steps move turning rows only: with none, t stays 0.0
        for _ in range(3 if turn.any() else 0):
            e = (k0 - c) + t * (k1 + t * (0.5 * k2 + t * k3 / 6.0))
            d = k1 + t * (k2 + 0.5 * k3 * t)
            t = np.where(turn, t - e / np.where(d > 0.0, d, np.inf), t)
        t = np.clip(t, 0.0, top - a)                    # rows with rm >= top get no width
        e = np.where(turn, 0.0, k0 - c)                 # phi(a + t) - c
        j1 = k1 + t * (k2 + 0.5 * k3 * t)               # phi' and phi'' at a + t
        j2 = k2 + k3 * t
        s_lo = np.sqrt(np.maximum(a - rm, 0.0))
        width = (top - a) - t
        s_hi = np.sqrt(s_lo * s_lo + width)
        span = width / np.maximum(s_lo + s_hi, 1e-300)  # s_hi - s_lo, cancellation-free
        th, tt = np.zeros_like(c), np.zeros_like(c)
        for rows, levels in ((span > s_lo, 30), ((span <= s_lo) & (span > 0.0), 0)):
            if not rows.any():
                continue
            u, w = _panels(levels)
            lo, sp = s_lo[rows, None], span[rows, None]
            k3r = k3[rows, None] if isinstance(k3, np.ndarray) else k3
            s = lo + sp * u
            x = sp * u * (s + lo)                       # r - (a + t), cancellation-free
            dphi = e[rows, None] + x * (j1[rows, None]
                                        + x * (0.5 * j2[rows, None] + x * k3r / 6.0))
            cc = c[rows, None]
            phi = cc + dphi
            # 2 s dr/ds over sqrt(phi^2 - c^2), with dphi / s^2 finite at s = 0
            g = 2.0 * w / np.sqrt(dphi / (s * s) * (phi + cc))
            th[rows] = (g * (cc / phi)).sum(axis=-1) * sp[:, 0]
            tt[rows] = (g * phi).sum(axis=-1) * sp[:, 0]
        return th, tt

    def up_to(self, c, radii):
        """({r: (dtheta, dt)}, H): both integrals from the turning radius
        r_-(c) up to each radius of ``radii`` in [0, r_max], and the full
        swing H = 2 arcs(c, L) on a doubled model (None on a cap).  Past L
        a doubled model is even about L: up_to(r) = H - arcs(c, 2L - r)."""
        mid = self.mid
        fold = lambda r: r if r <= mid else mid - (r - mid)     # 2L - r, exactly
        got = self.arcs(c, {fold(r) for r in radii} | ({mid} if self.doubled else set()))
        H = [2.0 * v for v in got[mid]] if self.doubled else None
        return {r: got[r] if r <= mid else [h - v for h, v in zip(H, got[fold(r)])]
                for r in radii}, H

    def classes(self, c, r1, r2):
        """{cls: (dtheta, dt)} of every geodesic class between radii r1 and r2
        in [0, r_max]: direct, turn_lo and, on a doubled model, turn_hi."""
        u, H = self.up_to(c, (r1, r2))
        u1, u2 = u[r1], u[r2]
        out = {"direct": (abs(u2[0] - u1[0]), abs(u2[1] - u1[1])),
               "turn_lo": (u1[0] + u2[0], u1[1] + u2[1])}
        if self.doubled:
            out["turn_hi"] = tuple(2.0 * h - v1 - v2 for h, v1, v2 in zip(H, u1, u2))
        return out


# ---------------------------------------------------------------------------
# distance


def distance(m, p, q, return_paths=True):
    """Distance between points (r, theta) and the minimal geodesics found.

    Every candidate geodesic is one record (length, class, c, side): its
    class (direct, turn_lo, turn_hi or, on a parallel where phi' = 0,
    parallel), its Clairaut constant c >= 0 and the sign of its theta sweep.
    The search sweeps the launch-angle grid for both sweeps, |dtheta| one
    way and 2 pi - |dtheta| the other, brackets every class that hits the
    target angle and refines by bracketed bisection.  The c = 0 end of each
    class is a meridian, taken exactly when its angle is the target's.  A
    radius within ``_POLE`` of a pole is that pole, and the only candidate is
    the meridian to it.  Candidates within ``DEFAULT_DISTANCE_TOL`` of the
    shortest are kept once per (class, side), a meridian once per class, so
    both members of a theta-mirror pair are returned; p = q gives 0 and no
    path.  A re-shot path whose solve fails raises its
    :class:`IntegrationError`.

    Raises SearchError when no candidate is found, and when the shortest
    candidate exceeds the broken path through a pole, min(r1 + r2,
    2 r_max - r1 - r2) (only r1 + r2 on a cap), by more than
    ``DEFAULT_DISTANCE_TOL``; the message names both numbers.
    """
    r1, th1 = float(p[0]), float(p[1])
    r2, th2 = float(q[0]), float(q[1])
    R, doubled = m.r_max, m.topology == DOUBLED_SPHERE
    for r in (r1, r2):
        if not -1e-12 <= r <= R + 1e-12:
            raise DomainError("point outside the manifold domain")

    def snap(r):
        # r may stray past [0, r_max] by 1e-12; clip as eval does
        r = min(max(r, 0.0), R)
        if r < _POLE:
            return 0.0, True
        if doubled and R - r < _POLE:
            return R, True
        return r, False

    # a point at a pole takes the other point's theta
    (r1, pole1), (r2, pole2) = snap(r1), snap(r2)
    if pole1:
        th1 = th2
    elif pole2:
        th2 = th1
    raw = _wrap_angle(th2 - th1)
    dtheta, side = abs(raw), (1.0 if raw >= 0 else -1.0)
    targets = ((dtheta, side), (2.0 * math.pi - dtheta, -side))
    phi1 = m.phi.scalar_fn(0)(r1)

    candidates = []   # (length, class, c, side)
    if pole1 or pole2:
        candidates.append((abs(r2 - r1), "direct", 0.0, 1.0))
    else:
        geom = _Geometry(m)
        if abs(r1 - r2) < 1e-12 and abs(geom.dphi_s(r1)) < 1e-12 and dtheta > 0:
            candidates += [(phi1 * t, "parallel", phi1, s) for t, s in targets]
        cmax_pair = min(phi1, geom.phi_s(r2), geom.c_max * (1.0 - 1e-13))
        alphas = (np.arange(N_ANGLES) + 0.5) * (math.pi / 2.0) / N_ANGLES
        cgrid = cmax_pair * np.sin(alphas)
        # extra nodes approaching the grazing limit c -> cmax geometrically
        near = cmax_pair * (1.0 - np.power(10.0, -np.arange(2.0, 13.0)))
        cgrid = sorted_unique(np.concatenate([[cmax_pair * 1e-8], cgrid, near[near > cgrid[-1]]]))
        # scan tables prepended with the exact meridian limits at c = 0
        cgrid0 = np.concatenate([[0.0], cgrid])
        limits = {"direct": (0.0, abs(r2 - r1)), "turn_lo": (math.pi, r1 + r2),
                  "turn_hi": (math.pi, 2.0 * R - r1 - r2)}
        brackets, scans = [], {}
        for cls, (thetas, lengths) in geom.classes(cgrid, r1, r2).items():
            lim, lim_t = limits[cls]
            fvals, tvals = np.concatenate([[lim], thetas]), np.concatenate([[lim_t], lengths])
            scans[cls] = fvals, tvals
            for target, s in targets:
                fv = fvals - target
                cells = np.nonzero(fv[:-1] * fv[1:] <= 0)[0]
                if abs(lim - target) < 1e-12:
                    # the meridian hits the target; near c = 0 brentq would
                    # only chase the rounding of its limit
                    candidates.append((lim_t, cls, 0.0, s))
                    cells = cells[cells > 0]
                for i in cells.tolist():
                    if fv[i] != 0.0 or fv[i + 1] != 0.0:
                        brackets.append((min(tvals[i], tvals[i + 1]), cls, target, s, i))

        # refine cheapest-first; stop once a bracket cannot beat the best length
        brackets.sort()
        best = min((cand[0] for cand in candidates), default=math.inf)
        for approx, cls, target, s, i in brackets:
            if approx > best + 0.1:
                break
            found = _refine(geom, cls, r1, r2, target, cgrid0, i, scans[cls])
            if found is not None:
                c_star, (_, length) = found
                best = min(best, length)
                candidates.append((length, cls, c_star, s))

    if not candidates:
        raise SearchError("no geodesic candidate found between the given points")
    candidates.sort(key=lambda t: t[0])
    d = candidates[0][0]
    # the broken path through a pole bounds every distance
    bound = min(r1 + r2, 2.0 * R - r1 - r2) if doubled else r1 + r2
    if d > bound + DEFAULT_DISTANCE_TOL:
        raise SearchError(f"distance search returned {d!r}, longer than the "
                          f"broken path through a pole ({bound!r})")
    if d == 0.0 or not return_paths:
        return d, []
    # a meridian is its own theta-mirror, so it is kept once per class
    winners = {}
    for length, cls, c, s in candidates:
        if length > d + DEFAULT_DISTANCE_TOL:
            break
        winners.setdefault((cls, s if c else 0.0), (length, cls, c, s))
    paths = []
    for length, cls, c, s in winners.values():
        sa = min(c / phi1, 1.0) if c else 0.0
        up = r2 >= r1 if cls == "direct" else cls == "turn_hi"
        alpha = math.asin(sa) if up else math.pi - math.asin(sa)
        paths.append(shoot(m, r1, s * alpha, length, theta0=th1))
    return d, paths


def _refine(geom, cls, r1, r2, target, cgrid, i, scan):
    """(c*, (dtheta, length) at c*) for the root of dtheta = target bracketed
    by scan cell ``i``, or None when the cell holds no true root.  ``scan``
    is the class's (dtheta, length) rows over ``cgrid``.  An array entry of
    the scan has the bits the float evaluation gives, so the cell's ends are
    taken from it, not evaluated again.  Only the first cell, whose c = 0 end
    holds the analytic meridian limit, can fail to bracket."""
    lo, hi = float(cgrid[i]), float(cgrid[i + 1])
    # brentq returns a point it has evaluated; the memo serves the check
    memo = {c: (float(scan[0][j]), float(scan[1][j]))
            for j, c in ((i, lo), (i + 1, hi)) if c != 0.0}
    if lo == 0.0:
        # a cubic piece at the pole reaches that limit only as c -> 0
        lo = hi * 1e-6

    def ev(c):
        if c not in memo:
            memo[c] = geom.classes(c, r1, r2)[cls]
        return memo[c]

    f = lambda c: ev(c)[0] - target
    vlo, vhi = ev(lo), ev(hi)
    if (vlo[0] - target) * (vhi[0] - target) > 0:
        return None
    if vlo[0] - target == 0.0:
        return lo, vlo
    if vhi[0] - target == 0.0:
        return hi, vhi
    c_star = float(brentq(f, lo, hi, xtol=1e-13, rtol=8.9e-16, maxiter=200))
    v = ev(c_star)
    # reject pseudo-roots where f merely jumps through zero
    if abs(v[0] - target) > 1e-5 * max(1.0, target):
        return None
    return c_star, v


# ---------------------------------------------------------------------------
# injectivity radius and farthest point


def inj_at_pole(m):
    """Injectivity radius at the pole: the first conjugate distance along a
    meridian, since every geodesic from the pole is a meridian.

    Along a meridian from the pole the tangential Jacobi field is the warping
    profile phi itself (Petersen, Riemannian Geometry, 3rd ed., 4.2.3).  Its
    first zero is the far pole r_max of a doubled model, since phi > 0 on
    (0, r_max) (:class:`ManifoldWithDensity` checks it); a cap has none.
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

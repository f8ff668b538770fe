"""Second variation of energy, curvature line integrals and geodesic index.

The index machinery works along a sampled geodesic path.  Rotational symmetry
splits the perpendicular directions into two classes,

* in-slice: the plane is the 2-dimensional slice itself, whose curvature is
  sec_rad = -phi''/phi;
* fiber-orthogonal ((n-2) directions): the plane mixes the radial and
  tangential sectional values with weight w(t) = rdot(t)^2.

Along a meridian both classes coincide (w = 1), giving the single tangential
Jacobi equation psi'' + sec_rad(r(t)) psi = 0 with multiplicity n-1.

The index is computed two independent ways: counting interior conjugate
points of the Jacobi equation (JACOBI_ZEROS) and counting negative
eigenvalues of the discretized index form int (psi')^2 - K psi^2
(EIGEN_COUNT); the verify/acceptance suites require the two to agree.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from ._scipy import solve_ivp
from .errors import DomainError, IntegrationError
from .curvature import curvature_table, ricci_eigenvalues, sectional_fn
from .geodesics import _dense_state_fn

QUAD_TOL = 1e-9
QUAD_N0 = 16              # Simpson intervals of a first pass
QUAD_MAX_DOUBLINGS = 16
KINK_GRID = 2048          # path_kinks brackets crossings on this many cells
JACOBI_ZERO_TOL = 1e-8
JACOBI_RTOL = 1e-11
JACOBI_GRID = 4096        # cells on which a sign change of psi brackets a zero
EIGEN_NODES = 1500        # interior nodes of the discretized index form

JACOBI_ZEROS = "JACOBI_ZEROS"
EIGEN_COUNT = "EIGEN_COUNT"

RICCI = "RICCI"
SEC_PERP = "SEC_PERP"


# ---------------------------------------------------------------------------
# quadrature


def quad_piecewise(f, a, b, breakpoints=()):
    """Composite Simpson over [a, b], forced nodes at ``breakpoints``.

    Each smooth subinterval is refined by doubling until two successive
    Simpson values differ by less than ``QUAD_TOL``; ``f`` must accept arrays.
    A subinterval still unconverged after ``QUAD_MAX_DOUBLINGS`` raises
    :class:`IntegrationError` with ``reached`` at its left end: a kink of
    ``f`` that is not among the breakpoints usually causes it.
    """
    pts = sorted({float(a), float(b), *(p for p in breakpoints if a < p < b)})
    total = 0.0
    for lo, hi in zip(pts, pts[1:]):
        if hi - lo < 1e-15:
            continue
        n = QUAD_N0
        prev = None
        for _ in range(QUAD_MAX_DOUBLINGS):
            x = np.linspace(lo, hi, n + 1)
            y = f(x)
            h = (hi - lo) / n
            s = h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())
            diff = math.inf if prev is None else abs(s - prev)
            if diff < QUAD_TOL * 0.5:
                break
            prev = s
            n *= 2
        else:
            raise IntegrationError(
                f"quadrature on [{lo}, {hi}] did not converge: last |S2n - Sn| = "
                f"{diff} against tol {QUAD_TOL}", reached=lo)
        total += s
    return total


# ---------------------------------------------------------------------------
# test fields


@dataclass(frozen=True)
class TestField:
    """Piecewise-smooth variation field vanishing at both endpoints.

    The Berger shape is sin on the first quarter period, a unit plateau, and
    a mirrored quarter sine at the far end.
    """

    total_length: float

    @property
    def breakpoints(self):
        r = self.total_length
        return (0.0, math.pi / 2, r - math.pi / 2, r)

    def value(self, t):
        t = np.asarray(t, dtype=float)
        r = self.total_length
        return np.where(t <= math.pi / 2, np.sin(t),
                        np.where(t < r - math.pi / 2, 1.0, -np.sin(t - r)))

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        r = self.total_length
        return np.where(t <= math.pi / 2, np.cos(t),
                        np.where(t < r - math.pi / 2, 0.0, -np.cos(t - r)))

    def __call__(self, t):
        return self.value(t)


def berger_test_field(r):
    """The sin / plateau / -sin field on [0, r]; requires r >= pi."""
    if r < math.pi - 1e-12:
        raise DomainError("Berger test field needs total length >= pi")
    return TestField(float(r))


def second_variation(K, psi, length=None, breakpoints=()):
    """int (psi')^2 - psi^2 K dt for a field vanishing at both ends.

    ``psi`` is a :class:`TestField` or a (value, derivative) pair of
    callables, in which case ``length`` is required.  ``K`` is the sectional
    curvature sampled along the geodesic, as a callable of arclength.
    Quadrature nodes are forced at the field's breakpoints and at
    ``breakpoints``; for a K from :func:`path_curvature` pass
    ``breakpoints=path_kinks(m, path)``, without which the kinks of K keep
    the quadrature from converging and it raises :class:`IntegrationError`.
    """
    if isinstance(psi, TestField):
        val, der = psi.value, psi.derivative
        length = psi.total_length
        bps = set(psi.breakpoints)
    else:
        val, der = psi
        if length is None:
            raise DomainError("length is required for a user-supplied field")
        bps = set()
    bps.update(breakpoints)

    def f(t):
        return der(t) ** 2 - val(t) ** 2 * np.asarray(K(t), dtype=float)

    return quad_piecewise(f, 0.0, length, sorted(bps))


# ---------------------------------------------------------------------------
# curvature along a path


def path_kinks(m, path):
    """Arclengths where the path crosses a kink of phi, in increasing order.

    Pass them as ``breakpoints`` wherever a K from :func:`path_curvature` is
    integrated: as forced quadrature nodes, or as restarts of the Jacobi
    solve.

    Every integrand along a path is built from sec_rad and sec_tan, which
    read phi alone, so the radii of :meth:`RadialProfile.kinks` -- junctions,
    band nodes and their mirror images -- are where it loses smoothness.
    A stretch of the path that runs along a kink radius (the equator of the
    round sphere) counts by its two ends: the rounding noise of r about the
    kink inside it would otherwise give a crossing at every sample.
    """
    ts = np.linspace(0.0, path.length, KINK_GRID + 1)
    r, _, _, _ = path.state(ts)
    r = np.asarray(r, dtype=float)
    out = set()
    for j in m.phi.kinks():
        d = r - j
        on = np.abs(d) < 1e-12
        inside = np.zeros_like(on)
        inside[1:-1] = on[:-2] & on[2:]
        for i in np.nonzero((d[:-1] * d[1:] < 0) & ~(on[:-1] & on[1:]))[0]:
            lo, hi = ts[i], ts[i + 1]
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if (float(path.state(mid)[0]) - j) * d[i] > 0:
                    lo = mid
                else:
                    hi = mid
            out.add(0.5 * (lo + hi))
        # tangential crossings (the meridian touches a junction exactly)
        for i in np.nonzero(on & ~inside)[0]:
            out.add(float(ts[i]))
    return sorted(out)


def path_curvature(m, path, kind=RICCI, direction="fiber"):
    """Curvature integrand along the path, as a callable of arclength.

    An array of arclengths goes through :func:`curvature_table`; one float,
    as an ODE right-hand side passes, goes through the float kernel of
    :func:`sectional_fn` and gives a float.

    ``RICCI``: Ric(gdot, gdot) = a^2 ric_rr + (1 - a^2) ric_tt with a = rdot.
    ``SEC_PERP``: sec of the plane spanned by gdot and a perpendicular
    parallel field; ``direction`` picks the in-slice class (w = 1) or the
    fiber-orthogonal class (w = rdot^2).
    """
    if kind not in (RICCI, SEC_PERP):
        raise DomainError(f"unknown integrand {kind!r}")
    if direction not in ("slice", "fiber"):
        raise DomainError(f"unknown direction class {direction!r}")

    R = m.r_max
    sec = sectional_fn(m)

    def K(t):
        if np.isscalar(t):
            r, rd, _, _ = path.state(float(t))
            sec_rad, sec_tan = sec(min(max(float(r), 0.0), R))
            rd = float(rd)
            a2 = min(rd * rd, 1.0)
        else:
            r, rd, _, _ = path.state(np.atleast_1d(np.asarray(t, dtype=float)))
            r = np.clip(np.atleast_1d(np.asarray(r, dtype=float)), 0.0, R)
            tab = curvature_table(m, r)
            sec_rad, sec_tan = tab["sec_rad"], tab["sec_tan"]
            a2 = np.clip(np.atleast_1d(np.asarray(rd, dtype=float)) ** 2, 0.0, 1.0)
        if kind == RICCI:
            ric_rr, ric_tt = ricci_eigenvalues(m.n, sec_rad, sec_tan)
            return a2 * ric_rr + (1.0 - a2) * ric_tt
        w = 1.0 if direction == "slice" else a2
        return w * sec_rad + (1.0 - w) * sec_tan

    return K


def line_integral(m, path, kind=RICCI, direction="fiber"):
    """Composite quadrature of the chosen curvature along the path.

    Nodes are forced wherever the path crosses a kink of phi, so every
    subinterval has a smooth integrand and converges; one that does not
    raises :class:`IntegrationError`.
    """
    K = path_curvature(m, path, kind, direction)
    bps = path_kinks(m, path)
    return quad_piecewise(K, 0.0, path.length, bps)


# ---------------------------------------------------------------------------
# Jacobi equation and index


def jacobi_conjugate_points(K, length, tol=JACOBI_ZERO_TOL, breakpoints=()):
    """Interior zeros of psi'' + K psi = 0, psi(0) = 0, psi'(0) = 1.

    ``breakpoints`` are the arclengths where ``K`` is not smooth (for a
    path's K, :func:`path_kinks`).  The solve restarts at each of them:
    [0, length] is cut there, pieces shorter than 1e-15 are skipped, and
    each piece gets its own DOP853 run from the previous piece's final state
    (Hairer, Norsett and Wanner, *Solving ODEs I*, II.6), so no step
    straddles a kink.  Every piece keeps ``max_step = length / 16`` of the
    whole length; with no breakpoints there is one piece.  Zeros are
    bracketed on a sample grid and refined by bisection of the pieces' dense
    outputs, joined into one; a zero within ``tol`` of the endpoint is
    excluded (Morse convention counts only interior conjugate points).
    """
    if not (math.isfinite(length) and length > 0):
        raise DomainError("Jacobi length must be finite and positive")

    def rhs(t, y):
        k = K(t)
        if not math.isfinite(k):
            # a NaN step size never ends solve_ivp's step-rejection loop
            raise IntegrationError(f"curvature {k} at t = {t}", reached=float(t))
        return [float(y[1]), -k * float(y[0])]

    cuts = sorted({0.0, float(length), *(b for b in breakpoints if 0.0 < b < length)})
    pieces = [(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if hi - lo >= 1e-15] \
        or [(0.0, length)]
    times, interpolants, y0 = [[0.0]], [], [0.0, 1.0]
    for lo, hi in pieces:
        sol = solve_ivp(rhs, (lo, hi), y0, method="DOP853", rtol=JACOBI_RTOL,
                        atol=1e-13, dense_output=True, max_step=length / 16.0)
        if not sol.success:
            raise IntegrationError(f"Jacobi integration failed: {sol.message}",
                                   reached=float(sol.t[-1]))
        times.append(sol.sol.ts[1:])
        interpolants.extend(sol.sol.interpolants)
        y0 = sol.y[:, -1]
    state = _dense_state_fn(type(sol.sol)(np.concatenate(times), interpolants))
    ts = np.unique(np.concatenate([np.linspace(0.0, length, JACOBI_GRID + 1),
                                   np.asarray(list(breakpoints), dtype=float)]))
    vals = state(ts)[0]
    zeros = []
    for i in np.nonzero(vals[:-1] * vals[1:] < 0)[0]:
        lo, hi = ts[i], ts[i + 1]
        while hi - lo > tol * 0.25:
            mid = 0.5 * (lo + hi)
            if state(mid)[0] * vals[i] > 0:
                lo = mid
            else:
                hi = mid
        zeros.append(0.5 * (lo + hi))
    return [z for z in zeros if tol < z < length - tol]


def eigen_index(K, length):
    """Negative-eigenvalue count of the discretized form int (psi')^2 - K psi^2.

    Second-difference discretization with Dirichlet ends.  Eigenvalues within
    the O(h^2) discretization error of zero are not counted, matching the
    Morse convention for endpoint conjugate points.  By Sylvester's law of
    inertia the count below that cutoff is the number of negative LDL^T
    pivots of the shifted matrix (Golub and Van Loan, *Matrix Computations*,
    8.4); a zero pivot counts as positive, leaving out an eigenvalue equal
    to the cutoff.
    """
    h = length / (EIGEN_NODES + 1)
    t = np.linspace(h, length - h, EIGEN_NODES)
    Kv = np.asarray(K(t), dtype=float)
    cutoff = -10.0 * h**2 * max(1.0, float(np.max(np.abs(Kv))))
    off2 = (1.0 / h**2) ** 2
    count, pivot = 0, math.inf          # off2 / inf = 0: the first pivot is d
    for d in (2.0 / h**2 - Kv - cutoff).tolist():
        pivot = d - off2 / pivot or math.ulp(0.0)     # a zero pivot is positive
        count += pivot < 0.0
    return count


@dataclass(frozen=True)
class IndexResult:
    conjugate_points: tuple
    multiplicity: int
    index: int
    method: str
    cross_check_agree: bool = True
    classes: dict = field(default_factory=dict)

    def to_dict(self, length=None):
        d = {"multiplicity": self.multiplicity,
             "conjugate_points": list(self.conjugate_points),
             "index": self.index,
             "method": self.method,
             "cross_check_agree": self.cross_check_agree}
        if length is not None:
            d["length"] = length
        return d

    def to_json(self, length=None):
        return json.dumps(self.to_dict(length), sort_keys=True)


def geodesic_index(m, path):
    """Index of the path with Dirichlet ends, with the eigenvalue cross-check.

    Meridians use the single tangential Jacobi equation with multiplicity
    n-1; other paths are evaluated per perpendicular direction class.
    """
    bps = path_kinks(m, path)
    if path.meridian or m.n == 2:
        classes = [("all", m.n - 1, "slice")]
    else:
        classes = [("slice", 1, "slice"), ("fiber", m.n - 2, "fiber")]

    conj, index_j, index_e, detail = [], 0, 0, {}
    for name, mult, direction in classes:
        K = path_curvature(m, path, SEC_PERP, direction)
        zeros = jacobi_conjugate_points(K, path.length, breakpoints=bps)
        ne = eigen_index(K, path.length)
        conj.extend(zeros)
        index_j += mult * len(zeros)
        index_e += mult * ne
        detail[name] = {"multiplicity": mult, "conjugate_points": zeros,
                        "negative_eigenvalues": ne}
    mult = classes[0][1] if len(classes) == 1 else 1
    return IndexResult(tuple(sorted(conj)), mult, index_j, JACOBI_ZEROS,
                       cross_check_agree=index_j == index_e, classes=detail)


# ---------------------------------------------------------------------------
# loop index (weighted sectional lower bound mechanism)


def loop_index_check(m, loop, eps=None):
    """Check the loop implication: length > pi/eps forces index >= n-1.

    The loop must be based at the pole, which must be a zero of the field
    (so the boundary term of int sec_X cancels and int sec_X = int sec per
    perpendicular parallel direction).
    """
    from .curvature import x_field_norm

    r_start = float(loop.state(0.0)[0])
    r_end = float(loop.state(loop.length)[0])
    if r_start > 1e-9 or r_end > 1e-9:
        raise DomainError("loop must start and end at the pole")
    if x_field_norm(m, 0.0) > 1e-12:
        raise DomainError("loop base point must be a zero of the field")
    if eps is None:
        eps = m.meta.get("eps")
    if eps is None or eps <= 0:
        raise DomainError("loop check needs a positive eps")

    threshold = math.pi / eps
    dirs = ["slice"] if (loop.meridian or m.n == 2) else ["slice", "fiber"]
    sec_integrals = {d: line_integral(m, loop, SEC_PERP, d) for d in dirs}
    res = geodesic_index(m, loop)
    applicable = loop.length > threshold
    satisfied = (not applicable) or res.index >= m.n - 1
    return {
        "length": loop.length,
        "threshold": threshold,
        "sec_integral_per_direction": sec_integrals,
        "index": res.index,
        "index_result": res,
        "applicable": applicable,
        "lemma_satisfied": satisfied,
        "status": "SATISFIED" if applicable and satisfied
                  else ("NOT_APPLICABLE" if not applicable else "VIOLATED"),
    }

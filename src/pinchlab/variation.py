"""Second variation of energy, curvature line integrals and geodesic index.

The index machinery works along a sampled geodesic path.  Rotational symmetry
splits the perpendicular directions into two classes,

* in-slice: the plane is the 2-dimensional slice itself, whose curvature is
  sec_rad = -phi''/phi;
* fiber-orthogonal ((n-2) directions): the plane mixes the radial and
  tangential sectional values with weight w(t) = rdot(t)^2.

Along a meridian both classes coincide (w = 1), giving the single tangential
Jacobi equation psi'' + sec_rad(r(t)) psi = 0 with multiplicity n-1.

The index is computed two independent ways, which the verify and acceptance
suites require to agree: the interior conjugate points of one Jacobi state
for all classes, in closed form on pieces of constant curvature and by DOP853
elsewhere (JACOBI_ZEROS), and the negative eigenvalues of each class's
discretized index form int (psi')^2 - K psi^2 (EIGEN_COUNT).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, IntegrationError
from .profiles import CONSTANT, LINEAR, SINE, _model_eps
from .curvature import curvature_table, ricci_eigenvalues, sectional_fn
from .geodesics import pieces_between, solve_ivp, solve_pieces, step_roots

QUAD_TOL = 1e-9
QUAD_N0 = 16              # Simpson intervals of a first pass
QUAD_MAX_DOUBLINGS = 16
JACOBI_ZERO_TOL = 1e-8
JACOBI_RTOL = 1e-11
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
    Simpson values differ by less than ``QUAD_TOL``; ``f`` must accept arrays
    and work element by element.  One call of ``f`` per doubling level reads
    the ``np.linspace`` nodes of every subinterval not yet converged, each
    of which keeps its own Simpson sum and stopping test and leaves the batch
    when it converges; the totals are added in order.  A subinterval still
    unconverged after ``QUAD_MAX_DOUBLINGS`` raises :class:`IntegrationError`
    with ``reached`` at its left end, the first such one in order: a kink of
    ``f`` that is not among the breakpoints usually causes it.
    """
    pts = sorted({float(a), float(b), *(p for p in breakpoints if a < p < b)})
    spans = [(lo, hi) for lo, hi in zip(pts, pts[1:]) if not hi - lo < 1e-15]
    sums, diff = [None] * len(spans), [math.inf] * len(spans)
    live, n = list(range(len(spans))), QUAD_N0
    for _ in range(QUAD_MAX_DOUBLINGS):
        if not live:
            break
        ys = f(np.concatenate([np.linspace(*spans[i], n + 1) for i in live]))
        for i, y in zip(live, np.reshape(ys, (len(live), n + 1))):
            lo, hi = spans[i]
            h = (hi - lo) / n
            s = h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())
            diff[i] = math.inf if sums[i] is None else abs(s - sums[i])
            sums[i] = s
        live = [i for i in live if not diff[i] < QUAD_TOL * 0.5]
        n *= 2
    if live:
        lo, hi = spans[live[0]]
        raise IntegrationError(
            f"quadrature on [{lo}, {hi}] did not converge: last |S2n - Sn| = "
            f"{diff[live[0]]} against tol {QUAD_TOL}", reached=lo)
    total = 0.0
    for s in sums:
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


def berger_test_field(r):
    """The sin / plateau / -sin field on [0, r]; requires a finite r >= pi."""
    if not (math.isfinite(r) and r >= math.pi - 1e-12):
        raise DomainError(f"Berger test field needs a finite total length >= pi, got {r}")
    return TestField(float(r))


def second_variation(K, psi, length=None, breakpoints=()):
    """int (psi')^2 - psi^2 K dt for a field vanishing at both ends.

    ``psi`` is a :class:`TestField` or a (value, derivative) pair of
    callables, in which case a finite positive ``length`` is required.
    ``K`` is the sectional curvature sampled along the geodesic, as a
    callable of arclength.
    Quadrature nodes are forced at the field's breakpoints and at
    ``breakpoints``; for a K from :func:`path_curvature` pass
    ``breakpoints=path.crossings``, without which the kinks of K keep the
    quadrature from converging and it raises :class:`IntegrationError`.
    """
    if isinstance(psi, TestField):
        val, der = psi.value, psi.derivative
        length = psi.total_length
        bps = set(psi.breakpoints)
    else:
        val, der = psi
        bps = set()
    if length is None or not (math.isfinite(length) and length > 0):
        raise DomainError(f"a finite positive field length is required, got {length}")
    bps.update(breakpoints)

    def f(t):
        return der(t) ** 2 - val(t) ** 2 * np.asarray(K(t), dtype=float)

    return quad_piecewise(f, 0.0, length, sorted(bps))


# ---------------------------------------------------------------------------
# curvature along a path


def path_curvature(m, path, kind=RICCI, direction="fiber"):
    """Curvature integrand along the path, as a callable of arclength.

    One float, as an ODE right-hand side passes, reads only r and rdot
    from the path and goes through the float kernel of :func:`sectional_fn`
    to give a float; an array of arclengths reads the sec_rad and sec_tan
    columns of :func:`curvature_table`, which have the same bits.

    ``RICCI``: Ric(gdot, gdot) = a^2 ric_rr + (1 - a^2) ric_tt with a = rdot.
    ``SEC_PERP``: sec of the plane spanned by gdot and a perpendicular
    parallel field; ``direction`` picks the in-slice class (w = 1) or the
    fiber-orthogonal class (w = rdot^2), or a list of them, read at once.
    """
    if kind not in (RICCI, SEC_PERP):
        raise DomainError(f"unknown integrand {kind!r}")
    one = not isinstance(direction, (list, tuple))
    dirs = [direction] if one else direction
    if any(d not in ("slice", "fiber") for d in dirs):
        raise DomainError(f"unknown direction class {direction!r}")

    R, n = m.r_max, m.n
    sec = sectional_fn(m)
    ricci, in_slice = kind == RICCI, [d == "slice" for d in dirs]
    state = path.state

    def K(t):
        if type(t) is float or np.isscalar(t):
            r, rd = state(float(t), 2)
            sec_rad, sec_tan = sec(min(max(r, 0.0), R))
            a2 = min(rd * rd, 1.0)
        else:
            r, rd = state(np.atleast_1d(np.asarray(t, dtype=float)), 2)
            cols = curvature_table(m, np.clip(r, 0.0, R), ("sec_rad", "sec_tan"))
            sec_rad, sec_tan = cols["sec_rad"], cols["sec_tan"]
            a2 = np.clip(rd ** 2, 0.0, 1.0)
        if ricci:
            ric_rr, ric_tt = ricci_eigenvalues(n, sec_rad, sec_tan)
            return a2 * ric_rr + (1.0 - a2) * ric_tt
        ks = []
        for s in in_slice:          # a comprehension would cost a frame per stage
            w = 1.0 if s else a2
            ks.append(w * sec_rad + (1.0 - w) * sec_tan)
        return ks[0] if one else ks

    return K


def line_integral(m, path, kind=RICCI, direction="fiber"):
    """Composite quadrature of the chosen curvature along the path.

    Nodes are forced at the path's :attr:`~GeodesicPath.crossings` of the
    kinks of phi, so every subinterval has a smooth integrand and converges;
    one that does not raises :class:`IntegrationError`.
    """
    K = path_curvature(m, path, kind, direction)
    return quad_piecewise(K, 0.0, path.length, path.crossings)


# ---------------------------------------------------------------------------
# Jacobi equation and index


def _pieces(length, breakpoints):
    """The pieces of [0, length] between the ``breakpoints`` inside it."""
    return pieces_between(sorted({0.0, float(length),
                                  *(b for b in breakpoints if 0.0 < b < length)}))


def _carry(K, psi, dpsi, lo, hi, zeros):
    """(psi, psi') at ``hi`` from (psi, dpsi) at ``lo`` for a constant K >= 0, adding
    to ``zeros`` those in (lo, hi]: where atan2(sqrt(K) psi, psi') meets a multiple of pi."""
    if not math.isfinite(K):
        raise IntegrationError(f"Jacobi integration failed at arclength {lo}: curvature {K}",
                               reached=lo)
    if K == 0.0:
        end = psi + dpsi * (hi - lo)
        if psi != 0.0 and (end <= 0.0 if psi > 0.0 else end >= 0.0):
            zeros.append(min(lo - psi / dpsi, hi))
        return end, dpsi
    w, pi = math.sqrt(K), math.pi
    a, th0 = math.hypot(w * psi, dpsi), math.atan2(w * psi, dpsi)
    th1 = th0 + w * (hi - lo)
    # the first multiple of pi ahead: psi's sign tells on which side of one
    # th0 lies, where atan2 may have rounded onto it; a zero at lo was counted
    j = (1 if psi > 0.0 else 0) if psi != 0.0 else round(th0 / pi) + 1
    while j * pi <= th1:
        zeros.append(min(lo + (j * pi - th0) / w, hi))
        j += 1
    d, sign = th1 - (j - 1) * pi, 1.0 if j % 2 else -1.0
    return sign * a / w * abs(math.sin(d)), sign * a * math.cos(d)


def jacobi_conjugate_points(K, length, tol=JACOBI_ZERO_TOL, breakpoints=(), classes=None,
                            constant=None):
    """Interior zeros of psi'' + K psi = 0, psi(0) = 0, psi'(0) = 1.

    With ``classes`` = k, ``K`` gives k curvatures, one per direction class,
    carried in one state (psi_1, psi_1', ..., psi_k, psi_k').  ``breakpoints``,
    where ``K`` is not smooth (a path's crossings), cut [0, length] into
    pieces; ``constant`` holds None or one K >= 0 per class for each.  A
    constant piece carries the state in closed form, its zeros read from the
    phase (Pruess, SIAM J. Numer. Anal. 10, 1973); each run of None pieces is
    one DOP853 solve restarted at each cut (:func:`solve_pieces`), ``max_step
    = length / 16``, its zeros read off its own steps by :func:`step_roots`.
    ``tol`` is the Morse end window: a zero within it of either end is
    excluded.  A non-finite K, or a step below ten ulp, raises
    :class:`IntegrationError` with ``reached``, the last arclength accepted,
    named with the Jacobi stage.
    """
    if not (math.isfinite(length) and length > 0):
        raise DomainError("Jacobi length must be finite and positive")

    def rhs(t, y):
        dy, i = [], 0
        for k in (K(t) if classes else (K(t),)):
            if not math.isfinite(k):
                # a NaN step size never ends solve_ivp's step-rejection loop
                raise IntegrationError(f"curvature {k} at t = {t}", reached=float(t))
            dy += (y[i + 1], -k * y[i])
            i += 2
        return dy

    pieces = _pieces(length, breakpoints)
    if len(constant := constant or [None] * len(pieces)) != len(pieces):
        raise DomainError(f"{len(constant)} constant entries for {len(pieces)} pieces")
    y, zeros = [0.0, 1.0] * (classes or 1), [[] for _ in range(classes or 1)]
    for closed_form, run in itertools.groupby(zip(pieces, constant), lambda e: e[1] is not None):
        if closed_form:
            for (lo, hi), ks in run:
                y = [v for c, k in enumerate(ks)
                     for v in _carry(k, y[2 * c], y[2 * c + 1], lo, hi, zeros[c])]
            continue
        # both ends of each piece: solve_pieces skips the empty or sub-1e-15 gaps between
        cuts = [cut for piece, _ in run for cut in piece]
        state = solve_pieces(solve_ivp, rhs, cuts, y, "Jacobi",
                             rtol=JACOBI_RTOL, atol=1e-13, max_step=length / 16.0)
        for c, zs in enumerate(zeros):
            zs += step_roots(state, 2 * c)
        y = state(cuts[-1])
    zeros = [[z for z in zs if tol < z < length - tol] for zs in zeros]
    return zeros if classes else zeros[0]


def eigen_index(K, length, classes=None):
    """Negative-eigenvalue count of the discretized form int (psi')^2 - K psi^2.

    With ``classes`` = k, ``K`` gives k curvatures, one per direction class,
    as :func:`jacobi_conjugate_points` reads them: one read of ``K`` on the
    grid serves every class, and the result is one count per class, each
    from its own array.
    Second-difference discretization with Dirichlet ends.  Eigenvalues within
    the O(h^2) discretization error of zero are not counted, matching the
    Morse convention for endpoint conjugate points.  By Sylvester's law of
    inertia the count below that cutoff is the number of negative LDL^T
    pivots of the shifted matrix (Golub and Van Loan, *Matrix Computations*,
    8.4); a zero pivot counts as positive, leaving out an eigenvalue equal
    to the cutoff.  A ``length`` that is not finite and positive raises
    :class:`DomainError`.
    """
    if not (math.isfinite(length) and length > 0):
        raise DomainError("index form length must be finite and positive")
    h = length / (EIGEN_NODES + 1)
    t = np.linspace(h, length - h, EIGEN_NODES)
    off2 = (1.0 / h**2) ** 2
    counts = []
    for Kv in (K(t) if classes else (K(t),)):
        Kv = np.asarray(Kv, dtype=float)
        cutoff = -10.0 * h**2 * max(1.0, float(np.max(np.abs(Kv))))
        count, pivot = 0, math.inf          # off2 / inf = 0: the first pivot is d
        for d in (2.0 / h**2 - Kv - cutoff).tolist():
            pivot = d - off2 / pivot or math.ulp(0.0)     # a zero pivot is positive
            count += pivot < 0.0
        counts.append(count)
    return counts if classes else counts[0]


@dataclass(frozen=True)
class IndexResult:
    conjugate_points: tuple
    multiplicity: int
    index: int
    method: str
    cross_check_agree: bool = True
    classes: dict = field(default_factory=dict)

    def to_dict(self):
        return {"multiplicity": self.multiplicity,
                "conjugate_points": list(self.conjugate_points),
                "index": self.index,
                "method": self.method,
                "cross_check_agree": self.cross_check_agree}


def _constant_curvatures(m, path, classes):
    """Each Jacobi piece's K per class, slice first, by the segment under its
    middle: 1 on SINE, 0 on LINEAR, 0 and c^2 / A^4 on CONSTANT A, else None;
    all None if the path's crossings, read from its solve, may miss a kink."""
    pieces = _pieces(path.length, path.crossings)
    if not path.exact_crossings:
        return [None] * len(pieces)
    out, c = [], path.clairaut_c
    for seg in m.phi.segments_at(path.state(np.array([0.5 * (a + b) for a, b in pieces]), 1)[0]):
        ks = ({SINE: (1.0, 1.0), LINEAR: (0.0, 0.0)}.get(seg.kind) if seg.kind != CONSTANT
              else (0.0, (c / seg.params["value"]) ** 2 / seg.params["value"] ** 2))
        out.append(ks and ks[:classes])
    return out


def geodesic_index(m, path):
    """Index of the path with Dirichlet ends, with the eigenvalue cross-check.

    Meridians use the single tangential Jacobi equation with multiplicity
    n-1; elsewhere one Jacobi state carries both direction classes, in closed
    form on SINE, LINEAR and CONSTANT segments.  The eigenvalue count reads
    both curvatures once on its own grid: no solve or curvature read is shared.
    """
    classes = ([("all", m.n - 1, "slice")] if path.meridian or m.n == 2
               else [("slice", 1, "slice"), ("fiber", m.n - 2, "fiber")])
    K = path_curvature(m, path, SEC_PERP, [d for _, _, d in classes])
    class_zeros = jacobi_conjugate_points(K, path.length, breakpoints=path.crossings,
                                          classes=len(classes),
                                          constant=_constant_curvatures(m, path, len(classes)))
    class_ne = eigen_index(K, path.length, classes=len(classes))

    conj, index_j, index_e, detail = [], 0, 0, {}
    for (name, mult, direction), zeros, ne in zip(classes, class_zeros, class_ne):
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

    The loop must be based at the pole.  X = 0 there, as
    :class:`ManifoldWithDensity` checks, so the boundary term of int sec_X
    cancels and int sec_X = int sec per perpendicular parallel direction.
    """
    r_start = float(loop.state(0.0)[0])
    r_end = float(loop.state(loop.length)[0])
    if r_start > 1e-9 or r_end > 1e-9:
        raise DomainError("loop must start and end at the pole")
    eps = _model_eps(m, eps)

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

"""Verification suites: pinching, criticality, gap theorems, growth, delta search.

The pinch, gap and Klingenberg suites list each failed check and pass
exactly when the list is empty; nothing is clamped or hidden.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter

import numpy as np

from .errors import DomainError
from .profiles import C2_TOL, DOUBLED_SPHERE, PL2_BAND, _model_eps, sorted_unique
from .curvature import curvature_table, grid_ends, x_field_norm
from .geodesics import (_POLE, N_ANGLES, check_arclength, check_cap_meridian, distance,
                        farthest_from_pole, inj_at_pole)

RICCI_MODE = "RICCI"
SEC_MODE = "SEC"
INFEASIBLE = "INFEASIBLE"   # the status of an infeasible klingenberg_delta_search

PINCH_TOL_LOWER = 1e-6
GAP_TOL = 1e-6
GROWTH_TOL = 1e-8
GROWTH_GRID = 1000        # cells of verify_quadratic_growth's arclength grid
DELTA_SEARCH_TOL = 1e-9   # field_bound bisection stops at 1e-3 of this width
DEFAULT_GRID = 10_000


def _pinch_grid(m, grid_size):
    """Uniform radial grid between :func:`grid_ends`, refined x8 in the bands."""
    lo, hi = grid_ends(m)
    rs = [np.linspace(lo, hi, grid_size + 1)]
    step = m.r_max / grid_size
    bands = [(s.lo, s.hi) for prof in (m.phi, m.f)
             for s in prof.segments if s.kind == PL2_BAND]
    if m.topology == DOUBLED_SPHERE:
        bands += [(m.r_max - b, m.r_max - a) for a, b in bands]
    for a, b in bands:
        k = max(8, int(math.ceil((b - a) / step * 8)))
        rs.append(np.linspace(max(a, lo), min(b, hi), k + 1))
    return sorted_unique(np.concatenate(rs))


@dataclass(frozen=True)
class PinchReport:
    """Outcome of :func:`verify_pinch`: achieved bounds, targets and violations.

    ``violations`` lists every grid point that breaks a bound, as dicts
    {"r", "quantity", "value", "bound"} sorted by r, then by quantity name.
    The report keeps only the hits of each checked column and builds the
    dicts on first read; ``passed`` is true exactly when no column has a hit,
    so callers that read only ``passed`` or ``margins()`` build none.  ``==``
    and ``hash`` read the verdict fields only.
    """

    mode: str
    eps_target: float
    upper_target: float
    grid_size: int
    achieved_lower: float
    achieved_upper: float
    lower_scale: float
    tol_lower: float
    tol_upper: float
    # [(quantity, hit radii, hit values, bound), ...]
    _checks: list = field(repr=False, compare=False)

    @cached_property
    def violations(self):
        out = [{"r": r, "quantity": name, "value": v, "bound": bound}
               for name, rs, values, bound in sorted(self._checks, key=itemgetter(0))
               for r, v in zip(rs.tolist(), values.tolist())]
        # the grid strictly increases (_pinch_grid): a stable sort keeps one r's names in order
        out.sort(key=itemgetter("r"))
        return tuple(out)

    @property
    def passed(self):
        return not any(rs.size for _, rs, _, _ in self._checks)

    def margins(self):
        return {
            "achieved_lower": self.achieved_lower,
            "lower_bound": self.eps_target * self.lower_scale,
            "lower_margin": self.achieved_lower - self.eps_target * self.lower_scale,
            "achieved_upper": self.achieved_upper,
            "upper_bound": self.upper_target,
            "upper_margin": self.upper_target - self.achieved_upper,
        }


def verify_pinch(m, mode=RICCI_MODE, eps=None, upper=None, grid_size=DEFAULT_GRID):
    """Grid verification of the pinching condition, with explicit margins.

    RICCI mode checks min(bakry_rr, bakry_tt) >= (n-1) eps and
    max(ric_rr, ric_tt) <= (n-1) upper with the unscaled potential; SEC mode
    checks min(wsec_*) >= eps and max(sec_rad, sec_tan) <= upper with the
    manifold's potential scale.  A non-finite ``upper`` raises DomainError.

    The report's ``violations`` lists every failing (r, quantity) pair of the
    grid, sorted by r, then by quantity name; it is built on first read.
    """
    if grid_size < 100:
        raise DomainError("grid_size must be at least 100")
    if upper is not None and not math.isfinite(upper):
        raise DomainError(f"upper must be finite, got {upper}")
    mode = mode.upper()
    if mode not in (RICCI_MODE, SEC_MODE):
        raise DomainError(f"unknown pinch mode {mode!r}")
    eps = _model_eps(m, eps)
    rs = _pinch_grid(m, grid_size)

    if mode == RICCI_MODE:
        scale = float(m.n - 1)
        upper = 1.0 if upper is None else float(upper)
        lower_names, upper_names = ("bakry_rr", "bakry_tt"), ("ric_rr", "ric_tt")
        upper_target = scale * upper
    else:
        scale = 1.0
        upper_target = 1.0 if upper is None else float(upper)
        lower_names, upper_names = ("wsec_rT", "wsec_Tr", "wsec_TT"), ("sec_rad", "sec_tan")
    # only the columns this mode checks
    tab = curvature_table(m, rs, lower_names + upper_names)

    delta = m.meta.get("delta")
    tol_lower = PINCH_TOL_LOWER
    # documented band overshoot of the family construction, O(delta^2)
    tol_upper = scale * 5.0 * delta**2 if delta is not None else 1e-6

    # a NaN value fails its bound and makes its extreme NaN; min and max skip a
    # NaN after their first argument, and keep the first of -0.0 and 0.0
    lows = [float(tab[k].min()) for k in lower_names]
    highs = [float(tab[k].max()) for k in upper_names]
    achieved_lower = math.nan if any(map(math.isnan, lows)) else min(lows)
    achieved_upper = math.nan if any(map(math.isnan, highs)) else max(highs)
    lower_bound = eps * scale

    hits = [(k, ~(tab[k] >= lower_bound - tol_lower), lower_bound) for k in lower_names]
    hits += [(k, ~(tab[k] <= upper_target + tol_upper), upper_target) for k in upper_names]
    checks = [(k, rs[bad], tab[k][bad], bound) for k, bad, bound in hits]
    return PinchReport(mode, eps, upper_target, len(rs), achieved_lower, achieved_upper,
                       scale, tol_lower, tol_upper, checks)


# ---------------------------------------------------------------------------
# criticality


def critical_radius(m, p_r=0.0, eps=None):
    """Lemma threshold ((n-1) pi + |X(p)|) / ((n-1) eps)."""
    eps = _model_eps(m, eps)
    n = m.n
    return ((n - 1) * math.pi + x_field_norm(m, p_r)) / ((n - 1) * eps)


@dataclass(frozen=True)
class CriticalityCertificate:
    p: tuple
    q: tuple
    dist: float
    min_inner: float
    threshold: float
    xnorm_lower: float
    n_geodesics: int
    angle_resolution: int

    @property
    def noncritical(self):
        return self.min_inner > 0.0


def criticality_certificate(m, p, q, eps=None):
    """Evaluate g(X(q), gdot) over every minimal geodesic found from p to q.

    ``n_geodesics`` counts the paths :func:`distance` returns, both members
    of a theta-mirror pair included.

    ``xnorm_lower`` is the integral lower bound
    -(n-1) pi - |X(p)| + (n-1) eps d(p,q), which also bounds |X(q)| below.
    """
    eps = _model_eps(m, eps)
    n = m.n
    d, paths = distance(m, p, q)
    if not paths:
        raise DomainError("no realizing geodesic found between p and q")
    inners = []
    for path in paths:
        r_q, rd_q, _, _ = path.state(path.length)
        # the path's end may overshoot r_max by more than clip_radius allows
        inners.append(m.potential_scale * m.f(min(max(r_q, 0.0), m.r_max), 1) * float(rd_q))
    lower = -(n - 1) * math.pi - x_field_norm(m, p[0]) + (n - 1) * eps * d
    return CriticalityCertificate(tuple(p), tuple(q), d, min(inners),
                                  critical_radius(m, p[0], eps), lower,
                                  len(paths), N_ANGLES)


# ---------------------------------------------------------------------------
# gap theorems


@dataclass(frozen=True)
class GapReport:
    p: tuple
    farthest_point: tuple
    farthest: float
    bound: float                  # ((n-1) pi + |X(p)|)/((n-1) eps)
    zero_bound: float | None      # 2 pi / eps when X(p) = 0
    inj_p: float
    berger_inner: float           # min g(X(q), gdot) at the farthest point

    @property
    def diameter_ok(self):
        return self.farthest <= self.bound + GAP_TOL

    @property
    def berger_check(self):
        return self.berger_inner <= GAP_TOL

    @property
    def inj_hypothesis_met(self):
        return self.inj_p >= self.bound - GAP_TOL

    @property
    def violations(self):
        """The failed checks at r of the farthest point, sorted by quantity name."""
        checks = (("berger_inner", self.berger_inner, 0.0, self.berger_check),
                  ("farthest_distance", self.farthest, self.bound, self.diameter_ok))
        return tuple({"r": self.farthest_point[0], "quantity": q, "value": v, "bound": b}
                     for q, v, b, ok in checks if not ok)


def diameter_gap(m, p=(0.0, 0.0), eps=None):
    """Farthest distance from the pole p against the diameter gap bounds.

    The farthest point is taken as the far pole, which it is only as seen
    from the pole, so a p with r >= ``_POLE`` raises DomainError.
    """
    if m.topology != DOUBLED_SPHERE:
        raise DomainError("diameter gap needs a compact (doubled) model")
    if not abs(p[0]) < _POLE:
        raise DomainError("diameter gap is computed from the pole only (r = 0)")
    eps = _model_eps(m, eps)
    q, far = farthest_from_pole(m)
    bound = critical_radius(m, p[0], eps)
    xp = x_field_norm(m, p[0])
    zero_bound = 2.0 * math.pi / eps if xp <= C2_TOL else None
    cert = criticality_certificate(m, p, q, eps)
    inj = inj_at_pole(m)
    return GapReport(tuple(p), q, far, bound, zero_bound, inj, cert.min_inner)


def verify_quadratic_growth(m, p_r=0.0, t_max=None, eps=None):
    """Max violation of the quadratic growth bound for f along radial geodesics.

    bound(t) = f(p) - ((n-1) pi + |X(p)|) t + (n-1) eps t^2 / 2; the report
    is max(bound - f) over the grid, passing iff <= 1e-8.  A ``t_max`` that
    :func:`check_arclength` rejects raises DomainError.
    """
    eps = _model_eps(m, eps)
    n = m.n
    s = m.potential_scale
    if t_max is None:
        t_max = m.r_max - p_r
    check_arclength(m, t_max)
    ts = np.linspace(0.0, t_max, GROWTH_GRID + 1)
    rs = np.clip(p_r + ts, 0.0, m.r_max)
    fvals = s * m.f.eval(rs, 0)
    f_p = s * m.f(p_r, 0)
    xp = x_field_norm(m, p_r)
    bound = f_p - ((n - 1) * math.pi + xp) * ts + 0.5 * (n - 1) * eps * ts**2
    worst = float(np.max(bound - fvals))
    return {"max_violation": worst, "pass": worst <= GROWTH_TOL,
            "grid": GROWTH_GRID, "t_max": float(t_max)}


# ---------------------------------------------------------------------------
# Klingenberg-style delta search


def _infeasible(quantity, value, bound):
    """An infeasible delta search: the failed condition with its two sides."""
    return {"status": INFEASIBLE,
            "violations": [{"r": 0.0, "quantity": quantity, "value": value, "bound": bound}]}


def klingenberg_delta_search(m, eps=None, l=None):
    """Largest delta meeting the arithmetic loop conditions, then halved.

    Conditions on delta, for a hypothesized loop of length ``l`` based at the
    pole, where X = 0 (:class:`ManifoldWithDensity` checks it):

      field_bound:  3 eps delta + N(delta) < pi (2 eps - 1),
                    N(delta) = max |X| on [0, 2 delta], taken at 0, 2 delta
                    and the kinks and inflections of f below 2 delta; |X|
                    is read once at all of those radii below r_max, and a
                    bisection step reads only |X(2 delta)|
      loop_length:  3 delta < 2 pi - l
      global:       5 delta < 2 pi
      exp_diffeo:   2 delta < inj_p
      non_conjugate: gamma(l - delta) is not conjugate to the pole; along
                    the meridian the Jacobi field is phi, so the conjugate
                    points are the multiples k inj_p <= l; failure halves delta.

    An infeasible search returns {"status": INFEASIBLE, "violations": [v]}, v
    naming the failed condition and its two sides: ``eps`` <= 1/2, the
    ``loop_length`` cap <= 0, ``loop_minus_delta`` (l - delta) <= 0 while
    halving, or ``non_conjugate`` after 60 halvings (bound: the nearest
    k inj_p).  A feasible result lists no violation.  Geometric genericity
    beyond these checks (Sard) is reported as an assumption, not verified.
    """
    eps = _model_eps(m, eps)
    if l is None or not (math.isfinite(l) and l > 0):
        raise DomainError("a finite positive hypothesized loop length is required")
    if eps <= 0.5:
        return _infeasible("eps", eps, 0.5)

    rhs = math.pi * (2.0 * eps - 1.0)
    # |X| at every radius where it can be extreme, read once, and its running
    # maximum: N(delta) is the larger of |X(2 delta)| and that maximum over
    # the radii below 2 delta, with np.max's bits
    rs = m.f.slope_extreme_radii(m.r_max)
    peak = np.maximum.accumulate(x_field_norm(m, np.array(rs)))

    def field_cond(d):
        b = min(2.0 * d, m.r_max)
        nd = np.maximum(x_field_norm(m, b), peak[bisect.bisect_left(rs, b) - 1])
        return 3.0 * eps * d + nd - rhs

    hi = m.r_max / 2.0
    caps = {}
    if field_cond(hi) <= 0:
        caps["field_bound"] = hi
    else:
        lo = 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if field_cond(mid) < 0:
                lo = mid
            else:
                hi = mid
            if hi - lo < DELTA_SEARCH_TOL * 1e-3:
                break
        # lo is the largest delta seen to meet the strict condition
        caps["field_bound"] = lo
    caps["loop_length"] = (2.0 * math.pi - l) / 3.0
    caps["global"] = 2.0 * math.pi / 5.0
    inj = inj_at_pole(m)
    caps["exp_diffeo"] = inj / 2.0
    if caps["loop_length"] <= 0:
        return _infeasible("loop_length", caps["loop_length"], 0.0)

    delta_max = min(caps.values())
    binding = min(caps, key=caps.get)

    # the loop is the pole meridian of length l, which must stay on the model
    check_arclength(m, l)
    check_cap_meridian(m, 0.0, 1.0, l)
    # non-conjugacy of gamma(l - delta): shrink by halving until no conjugate
    # point k inj lies within 1e-6 of l - delta (none on a cap, inj = inf)
    zeros = [k * inj for k in range(1, int(l // inj) + 1)]
    delta = delta_max / 2.0
    for _ in range(60):
        if l - delta <= 0:
            return _infeasible("loop_minus_delta", l - delta, 0.0)
        if all(abs(z - (l - delta)) > 1e-6 for z in zeros):
            break
        delta *= 0.5
    else:
        return _infeasible("non_conjugate", l - delta,
                           min(zeros, key=lambda z: abs(z - (l - delta))))

    margins = {name: cap - delta for name, cap in caps.items()}
    return {"delta_max": delta_max, "delta": delta, "binding": binding,
            "caps": caps, "margins": margins, "violations": [],
            "assumptions": ["Sard-generic regular value near gamma(l - delta)"]}


"""Verification suites: pinching, criticality, gap theorems, growth, delta search.

Every suite returns a report object with achieved margins and an explicit
violation list; nothing is clamped or hidden.  Reports serialize to the
common JSON schema {"suite", "model", "params", "pass", "margins",
"violations", "resolution", "tolerances"}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError
from .profiles import DOUBLED_SPHERE, PL2_BAND, manifold_to_dict
from .curvature import curvature_table, x_field_norm
from .geodesics import (N_ANGLES, check_arclength, check_cap_meridian, distance,
                        farthest_from_pole, inj_at_pole)

RICCI_MODE = "RICCI"
SEC_MODE = "SEC"
INFEASIBLE = "INFEASIBLE"

PINCH_TOL_LOWER = 1e-6
GAP_TOL = 1e-6
GROWTH_TOL = 1e-8
GROWTH_GRID = 1000        # cells of verify_quadratic_growth's arclength grid
DELTA_SEARCH_TOL = 1e-9   # field_bound bisection stops at 1e-3 of this width
DEFAULT_GRID = 10_000


def _model_eps(m, eps):
    if eps is None:
        eps = m.meta.get("eps")
    if eps is None or not (math.isfinite(eps) and eps > 0):
        raise DomainError("a finite positive eps is required (pass it or set model meta)")
    return float(eps)


def _pinch_grid(m, grid_size):
    """Uniform radial grid, refined x8 inside the smoothing bands."""
    rs = [np.linspace(0.0, m.r_max, grid_size + 1)]
    step = m.r_max / grid_size
    bands = [(s.lo, s.hi) for prof in (m.phi, m.f)
             for s in prof.segments if s.kind == PL2_BAND]
    if m.topology == DOUBLED_SPHERE:
        bands += [(m.r_max - hi, m.r_max - lo) for lo, hi in bands]
    for lo, hi in bands:
        k = max(8, int(math.ceil((hi - lo) / step * 8)))
        rs.append(np.linspace(lo, hi, k + 1))
    return np.unique(np.concatenate(rs))


@dataclass(frozen=True)
class PinchReport:
    """Outcome of :func:`verify_pinch`: achieved bounds, targets and violations.

    ``violations`` lists every grid point that breaks a bound, as dicts
    {"r", "quantity", "value", "bound"} sorted by r, then by quantity name.
    The report stores them as plain columns and builds the dicts on first
    read, so callers that read only ``passed`` or ``margins()`` build none.
    """

    mode: str
    eps_target: float
    upper_target: float
    grid_size: int
    achieved_lower: float
    achieved_upper: float
    lower_scale: float
    _violation_columns: tuple = field(repr=False)  # (r, quantity, value, bound)
    tol_lower: float
    tol_upper: float

    @cached_property
    def violations(self):
        return tuple({"r": r, "quantity": q, "value": v, "bound": b}
                     for r, q, v, b in zip(*self._violation_columns))

    @property
    def passed(self):
        return (self.achieved_lower >= self.eps_target * self.lower_scale - self.tol_lower
                and self.achieved_upper <= self.upper_target + self.tol_upper)

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
    n = m.n
    rs = _pinch_grid(m, grid_size)
    tab = curvature_table(m, rs)

    if mode == RICCI_MODE:
        scale = float(n - 1)
        upper = 1.0 if upper is None else float(upper)
        lower_q = {"bakry_rr": tab["bakry_rr"], "bakry_tt": tab["bakry_tt"]}
        upper_q = {"ric_rr": tab["ric_rr"], "ric_tt": tab["ric_tt"]}
        upper_target = scale * upper
    else:
        scale = 1.0
        upper_target = 1.0 if upper is None else float(upper)
        lower_q = {"wsec_rT": tab["wsec_rT"], "wsec_Tr": tab["wsec_Tr"],
                   "wsec_TT": tab["wsec_TT"]}
        upper_q = {"sec_rad": tab["sec_rad"], "sec_tan": tab["sec_tan"]}

    delta = m.meta.get("delta")
    tol_lower = PINCH_TOL_LOWER
    # documented band overshoot of the family construction, O(delta^2)
    tol_upper = scale * 5.0 * delta**2 if delta is not None else 1e-6

    achieved_lower = min(float(v.min()) for v in lower_q.values())
    achieved_upper = max(float(v.max()) for v in upper_q.values())
    lower_bound = eps * scale

    # (quantity, values, bound, violation mask), in quantity-name order
    checks = sorted([(name, v, lower_bound, v < lower_bound - tol_lower)
                     for name, v in lower_q.items()]
                    + [(name, v, upper_target, v > upper_target + tol_upper)
                       for name, v in upper_q.items()], key=lambda c: c[0])
    names, values, bounds, masks = zip(*checks)
    hits = [np.flatnonzero(bad) for bad in masks]
    index = np.concatenate(hits)
    rank = np.repeat(np.arange(len(hits)), [len(h) for h in hits])
    value = np.concatenate([v[h] for v, h in zip(values, hits)])
    # rs is strictly increasing (np.unique), so grid-index order is r order
    order = np.lexsort((rank, index))
    rank = rank[order]
    # object arrays hand every hit the same str and float objects
    columns = (tuple(rs[index[order]].tolist()),
               tuple(np.array(names, dtype=object)[rank].tolist()),
               tuple(value[order].tolist()),
               tuple(np.array(bounds, dtype=object)[rank].tolist()))

    return PinchReport(mode, eps, upper_target, len(rs), achieved_lower,
                       achieved_upper, scale, columns, tol_lower, tol_upper)


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
        s = m.potential_scale
        inners.append(s * float(m.f(float(np.clip(r_q, 0.0, m.r_max)), 1))
                      * float(rd_q))
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
    inj_threshold: float
    berger_inner: float           # min g(X(q), gdot) at the farthest point

    @property
    def diameter_ok(self):
        return self.farthest <= self.bound + GAP_TOL

    @property
    def berger_check(self):
        return self.berger_inner <= GAP_TOL


def diameter_gap(m, p=(0.0, 0.0), eps=None):
    """Farthest distance from p against the diameter gap bounds."""
    if m.topology != DOUBLED_SPHERE:
        raise DomainError("diameter gap needs a compact (doubled) model")
    eps = _model_eps(m, eps)
    q, far = farthest_from_pole(m)
    bound = critical_radius(m, p[0], eps)
    xp = x_field_norm(m, p[0])
    zero_bound = 2.0 * math.pi / eps if xp < 1e-12 else None
    cert = criticality_certificate(m, p, q, eps)
    inj = inj_at_pole(m)
    return GapReport(tuple(p), q, far, bound, zero_bound, inj, bound,
                     cert.min_inner)


def inj_gap_hypothesis(m, eps=None):
    """Compare inj at the pole with the gap threshold."""
    eps = _model_eps(m, eps)
    inj = inj_at_pole(m)
    threshold = critical_radius(m, 0.0, eps)
    met = inj >= threshold - GAP_TOL
    boundary = abs(inj - threshold) <= GAP_TOL
    return {"inj_p": inj, "threshold": threshold,
            "hypothesis_met": met, "boundary_case": boundary}


def verify_quadratic_growth(m, p_r=0.0, t_max=None, eps=None):
    """Max violation of the quadratic growth bound for f along radial geodesics.

    bound(t) = f(p) - ((n-1) pi + |X(p)|) t + (n-1) eps t^2 / 2; the report
    is max(bound - f) over the grid, passing iff <= 1e-8.
    """
    eps = _model_eps(m, eps)
    n = m.n
    s = m.potential_scale
    if t_max is None:
        t_max = m.r_max - p_r
    ts = np.linspace(0.0, t_max, GROWTH_GRID + 1)
    rs = np.clip(p_r + ts, 0.0, m.r_max)
    fvals = s * m.f.eval(rs, 0)
    f_p = s * float(m.f(p_r, 0))
    xp = x_field_norm(m, p_r)
    bound = f_p - ((n - 1) * math.pi + xp) * ts + 0.5 * (n - 1) * eps * ts**2
    worst = float(np.max(bound - fvals))
    return {"max_violation": worst, "pass": worst <= GROWTH_TOL,
            "grid": GROWTH_GRID, "t_max": float(t_max)}


# ---------------------------------------------------------------------------
# Klingenberg-style delta search


def klingenberg_delta_search(m, eps=None, l=None):
    """Largest delta meeting the arithmetic loop conditions, then halved.

    Conditions on delta, for a hypothesized loop of length ``l`` based at the
    pole (a zero of the field):

      field_bound:  3 eps delta + N(delta) < pi (2 eps - 1),
                    N(delta) = max |X| on [0, 2 delta], taken at 0, 2 delta
                    and the kinks and inflections of f below 2 delta
      loop_length:  3 delta < 2 pi - l
      global:       5 delta < 2 pi
      exp_diffeo:   2 delta < inj_p
      non_conjugate: gamma(l - delta) is not conjugate to the pole; along
                    the meridian the Jacobi field is phi, so the conjugate
                    points are the multiples k inj_p <= l; failure halves delta.

    Returns INFEASIBLE when eps <= 1/2 (the right side of field_bound is
    non-positive).  Geometric genericity beyond these checks (Sard) is
    reported as an assumption, not verified.
    """
    eps = _model_eps(m, eps)
    if l is None or not (math.isfinite(l) and l > 0):
        raise DomainError("a finite positive hypothesized loop length is required")
    if x_field_norm(m, 0.0) > 1e-12:
        raise DomainError("the pole must be a zero of the field")
    if eps <= 0.5:
        return INFEASIBLE

    rhs = math.pi * (2.0 * eps - 1.0)
    # |f'| is extreme at the ends of [0, 2 delta], at a kink or where f'' = 0
    extremes = [0.0, *m.f.kinks(), *m.f.inflections()]

    def field_cond(d):
        b = min(2.0 * d, m.r_max)
        rs = np.array([b, *(r for r in extremes if r < b)])
        nd = float(np.max(m.potential_scale * np.abs(m.f.eval(rs, 1))))
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
        caps["field_bound"] = 0.5 * (lo + hi)
    caps["loop_length"] = (2.0 * math.pi - l) / 3.0
    caps["global"] = 2.0 * math.pi / 5.0
    inj = inj_at_pole(m)
    caps["exp_diffeo"] = inj / 2.0
    if caps["loop_length"] <= 0:
        return INFEASIBLE

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
            return INFEASIBLE
        if all(abs(z - (l - delta)) > 1e-6 for z in zeros):
            break
        delta *= 0.5
    else:
        return INFEASIBLE

    margins = {name: cap - delta for name, cap in caps.items()}
    return {"delta_max": delta_max, "delta": delta, "binding": binding,
            "caps": caps, "margins": margins,
            "assumptions": ["Sard-generic regular value near gamma(l - delta)"]}


# ---------------------------------------------------------------------------
# JSON report schema


def make_report(suite, m, params, passed, margins, violations=(),
                resolution=None, tolerances=None):
    """Assemble the machine-readable report document common to all suites."""
    return {
        "suite": suite,
        "model": manifold_to_dict(m),
        "params": dict(params),
        "pass": bool(passed),
        "margins": dict(margins),
        "violations": [dict(v) for v in violations],
        "resolution": dict(resolution or {}),
        "tolerances": dict(tolerances or {}),
    }


def pinch_report_doc(m, report, extra_params=None):
    params = {"mode": report.mode, "eps": report.eps_target,
              "upper": report.upper_target}
    params.update(extra_params or {})
    return make_report(
        "pinch", m, params, report.passed, report.margins(),
        report.violations,
        resolution={"grid_size": report.grid_size},
        tolerances={"tol_lower": report.tol_lower, "tol_upper": report.tol_upper})

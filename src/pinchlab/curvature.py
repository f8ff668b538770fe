"""Closed-form curvature of dr^2 + phi^2 g_{S^{n-1}} with a radial potential.

For the rotationally symmetric metric the curvature tensor is determined by
two sectional values,

    sec_rad = -phi''/phi          (planes containing the radial direction)
    sec_tan = (1 - phi'^2)/phi^2  (planes tangent to the fiber sphere)

from which the Ricci eigenvalues, the Bakry-Emery eigenvalues and the three
weighted plane values follow.  Everything here is a pure function of an
immutable manifold, vectorized over radius arrays.

Mode separation: the Bakry-Emery quantities (``bakry_*``) always use the
unscaled potential, while the weighted sectional quantities (``wsec_*``) and
the field norm apply the manifold's ``potential_scale``.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError
from .profiles import DOUBLED_SPHERE, LINEAR, SINE

POLE_TOL = 1e-6

CSV_COLUMNS = ("r", "phi", "dphi", "ddphi", "f", "df", "ddf",
               "sec_rad", "sec_tan", "ric_rr", "ric_tt",
               "bakry_rr", "bakry_tt", "wsec_rT", "wsec_Tr", "wsec_TT", "xnorm")


@dataclass(frozen=True)
class CurvatureSample:
    r: float
    phi: float
    dphi: float
    ddphi: float
    f: float
    df: float
    ddf: float
    sec_rad: float
    sec_tan: float
    ric_rr: float
    ric_tt: float
    bakry_rr: float
    bakry_tt: float
    wsec_rT: float
    wsec_Tr: float
    wsec_TT: float
    xnorm: float


assert tuple(f.name for f in fields(CurvatureSample)) == CSV_COLUMNS


def _pick(cond, a, b):
    """:func:`numpy.where` for one point."""
    return a if cond else b


def _sectional(m, where=np.where):
    """The kernel (r, phi, phi', phi'') -> (sec_rad, sec_tan, at_pole) of ``m``,
    with sec_rad = -phi''/phi, sec_tan = (1 - phi'^2)/phi^2 and the pole rule.

    The one curvature kernel: elementwise on arrays with ``where=np.where``,
    or on one float radius in float arithmetic with ``where=_pick``.  The
    model's constants are read once, here, not on every call.

    * Within POLE_TOL of a pole the 0/0 ratios take the limit of the analytic
      cap (1 on a SINE cap, 0 on a LINEAR cap); a non-analytic pole raises
      DomainError.
    * On a SINE cap phi = sin r, so 1 - phi'^2 = phi^2 and sec_tan is exactly
      1; the quotient would lose every digit to cancellation as phi -> 0.
    """
    R = m.r_max
    doubled = m.topology == DOUBLED_SPHERE
    cap = m.phi.segments[0]
    kind, cap_hi = cap.kind, cap.hi
    analytic = kind in (SINE, LINEAR)

    def kernel(r, phi, dphi, ddphi):
        pole_dist = where(R - r < r, R - r, r) if doubled else r
        at_pole = pole_dist < POLE_TOL
        if not analytic and np.any(at_pole):
            raise DomainError("curvature at a non-analytic pole")
        safe_phi = where(at_pole, 1.0, phi)
        sec_rad = -ddphi / safe_phi
        sec_tan = (1.0 - dphi * dphi) / (safe_phi * safe_phi)
        if kind == SINE:
            sec_rad = where(at_pole, 1.0, sec_rad)
            sec_tan = where(pole_dist < cap_hi, 1.0, sec_tan)
        elif kind == LINEAR:
            sec_rad = where(at_pole, 0.0, sec_rad)
            sec_tan = where(at_pole, 0.0, sec_tan)
        return sec_rad, sec_tan, at_pole

    return kernel


def ricci_eigenvalues(n, sec_rad, sec_tan):
    """(ric_rr, ric_tt): Ricci in the radial and in a tangential direction."""
    return (n - 1) * sec_rad, sec_rad + (n - 2) * sec_tan


def curvature_table(m, r):
    """All 17 curvature columns at radii ``r`` (array), as a dict of arrays.

    At an analytic pole (SINE or LINEAR cap) the 0/0 ratios are replaced by
    their closed-form limits; a non-analytic pole raises DomainError.
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))
    n = m.n
    s = m.potential_scale

    phi, dphi, ddphi = m.phi.eval(r, (0, 1, 2))
    fv, df, ddf = m.f.eval(r, (0, 1, 2))

    sec_rad, sec_tan, at_pole = _sectional(m)(r, phi, dphi, ddphi)
    # f' phi'/phi, limit f'' at the pole
    ratio = np.where(at_pole, ddf, df * dphi / np.where(at_pole, 1.0, phi))

    ric_rr, ric_tt = ricci_eigenvalues(n, sec_rad, sec_tan)
    bakry_rr = ric_rr + ddf
    bakry_tt = ric_tt + ratio
    wsec_rT = sec_rad + s * ddf
    wsec_Tr = sec_rad + s * ratio
    wsec_TT = sec_tan + s * ratio
    xnorm = s * np.abs(df)

    return {
        "r": r, "phi": phi, "dphi": dphi, "ddphi": ddphi,
        "f": fv, "df": df, "ddf": ddf,
        "sec_rad": sec_rad, "sec_tan": sec_tan,
        "ric_rr": ric_rr, "ric_tt": ric_tt,
        "bakry_rr": bakry_rr, "bakry_tt": bakry_tt,
        "wsec_rT": wsec_rT, "wsec_Tr": wsec_Tr, "wsec_TT": wsec_TT,
        "xnorm": xnorm,
    }


def sectional_fn(m, xp=math):
    """Closure r -> (sec_rad, sec_tan) through the one kernel :func:`_sectional`.

    With ``xp=math`` it takes one float radius and computes in float
    arithmetic, for ODE right-hand sides; no domain check: the caller
    guarantees 0 <= r <= r_max.  With ``xp=np`` it takes an array of radii,
    checked as :meth:`RadialProfile.eval` checks them, and gives
    :func:`curvature_table`'s sec_rad and sec_tan, bit for bit, without its
    other 15 columns.
    """
    if xp is np:
        kernel = _sectional(m)

        def sec(r):
            r = np.atleast_1d(np.asarray(r, dtype=float))
            sec_rad, sec_tan, _ = kernel(r, *m.phi.eval(r, (0, 1, 2)))
            return sec_rad, sec_tan

        return sec
    phi = m.phi.scalar_fn((0, 1, 2))
    kernel = _sectional(m, _pick)

    def sec(r):
        sec_rad, sec_tan, _ = kernel(r, *phi(r))
        return sec_rad, sec_tan

    return sec


def curvature_sample(m, r):
    """All curvature quantities at a single radius."""
    t = curvature_table(m, float(r))
    return CurvatureSample(**{k: float(v[0]) for k, v in t.items()})


def sec_plane(m, r, w):
    """Sectional curvature of a plane with radial-wedge weight ``w`` in [0, 1]."""
    w = np.asarray(w, dtype=float)
    if np.any(w < 0) or np.any(w > 1):
        raise DomainError("plane weight must lie in [0, 1]")
    t = curvature_table(m, r)
    out = w * t["sec_rad"] + (1.0 - w) * t["sec_tan"]
    return float(out[0]) if out.size == 1 else out


def x_field_norm(m, r):
    """|X| = potential_scale * |f'(r)|, with the bits of curvature_table's
    ``xnorm``."""
    out = m.potential_scale * np.abs(m.f.eval(r, 1))
    return float(out[0]) if np.isscalar(r) else out


def dump_csv(m, r, out):
    """17-column full-precision CSV (header mandatory) at radii ``r``."""
    t = curvature_table(m, r)
    close = False
    if isinstance(out, (str, bytes)):
        out, close = open(out, "w"), True
    try:
        out.write(",".join(CSV_COLUMNS) + "\n")
        cols = [t[c] for c in CSV_COLUMNS]
        for row in zip(*cols):
            out.write(",".join(f"{v:.17g}" for v in row) + "\n")
    finally:
        if close:
            out.close()


def csv_string(m, r):
    buf = io.StringIO()
    dump_csv(m, r, buf)
    return buf.getvalue()

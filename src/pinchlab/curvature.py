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

import math
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from .errors import DomainError
from .profiles import DOUBLED_SPHERE, LINEAR, SINE, _FloatMath, clip_radii, csv_lines, write_text

POLE_TOL = 1e-6
ANALYTIC_CAPS = (SINE, LINEAR)   # cap kinds whose 0/0 ratios have a closed-form pole limit

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


def _sectional(m, xp=np):
    """The kernel (r, phi, phi', phi'') -> (sec_rad, sec_tan, at_pole) of ``m``,
    with sec_rad = -phi''/phi, sec_tan = (1 - phi'^2)/phi^2 and the pole rule.

    The one curvature kernel: elementwise on arrays with ``xp=np``, or on
    one float radius in float arithmetic with ``xp=_FloatMath``.  The
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
    analytic = kind in ANALYTIC_CAPS
    where = xp.where

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


def grid_ends(m):
    """The ends (lo, hi) of a radial grid every radius of which the kernel
    :func:`_sectional` accepts: 0 and r_max on an analytic cap, else POLE_TOL
    in from each pole, the far one of a doubled model included."""
    R = m.r_max
    if m.phi.segments[0].kind in ANALYTIC_CAPS:
        return 0.0, R
    if m.topology != DOUBLED_SPHERE:
        return POLE_TOL, R
    hi = R - POLE_TOL
    # R - hi is exact, but R - POLE_TOL may have rounded up
    while R - hi < POLE_TOL:
        hi = math.nextafter(hi, 0.0)
    return POLE_TOL, hi


def ricci_eigenvalues(n, sec_rad, sec_tan):
    """(ric_rr, ric_tt): Ricci in the radial and in a tangential direction."""
    return (n - 1) * sec_rad, sec_rad + (n - 2) * sec_tan


_RICCI = frozenset({"ric_rr", "ric_tt", "bakry_rr", "bakry_tt"})
_BAKRY = frozenset({"bakry_rr", "bakry_tt"})
_WSEC = frozenset({"wsec_rT", "wsec_Tr", "wsec_TT"})
_OF_F = frozenset({"f", "df", "ddf", "xnorm"}) | _BAKRY | _WSEC   # columns that read f
_ALL = frozenset(CSV_COLUMNS)


def _columns(m, want, r, phi_at, f_at, xp):
    """The columns of the set ``want`` at ``r`` as a dict, with those of phi
    alone always in it: the one path of the formulas above the kernel
    :func:`_sectional`.

    ``phi_at(orders)`` and ``f_at(orders)`` evaluate the profiles at ``r``
    clipped to their domain.  Elementwise on arrays with ``xp=np``, or on
    one float in float arithmetic with ``xp=_FloatMath``; the two give the
    same bits.
    """
    s, where = m.potential_scale, xp.where
    phi, dphi, ddphi = phi_at((0, 1, 2))
    out = {"r": r, "phi": phi, "dphi": dphi, "ddphi": ddphi}
    if want & _OF_F:
        if "f" in want:
            out["f"], df, ddf = f_at((0, 1, 2))
        else:
            df, ddf = f_at((1, 2))
        out["df"], out["ddf"] = df, ddf
    sec_rad, sec_tan, at_pole = _sectional(m, xp)(r, phi, dphi, ddphi)
    out["sec_rad"], out["sec_tan"] = sec_rad, sec_tan
    if want & (_BAKRY | _WSEC):
        # f' phi'/phi, limit f'' at the pole
        ratio = where(at_pole, ddf, df * dphi / where(at_pole, 1.0, phi))
    if want & _RICCI:
        ric_rr, ric_tt = out["ric_rr"], out["ric_tt"] = ricci_eigenvalues(m.n, sec_rad, sec_tan)
        if want & _BAKRY:
            out["bakry_rr"], out["bakry_tt"] = ric_rr + ddf, ric_tt + ratio
    if "xnorm" in want:
        out["xnorm"] = s * abs(df)
    if want & _WSEC:
        out["wsec_rT"] = sec_rad + s * ddf
        # s * ratio once, in place: one temporary fewer (ratio is ours)
        ratio *= s
        out["wsec_Tr"], out["wsec_TT"] = sec_rad + ratio, sec_tan + ratio
    return out


def curvature_table(m, r, columns=CSV_COLUMNS):
    """The curvature ``columns`` at radii ``r`` (array), as a dict of arrays.

    ``columns`` names any of :data:`CSV_COLUMNS`; an unknown name raises
    DomainError.  The dict holds ``"r"`` and the columns asked for, in
    :data:`CSV_COLUMNS` order, each with the bits of the default all-17
    table, and only they and their inputs are computed: f's value only for
    ``"f"``, the Ricci and Bakry-Emery pairs and the ``wsec_*`` triple only
    when one of their members is asked for, and no f at all for columns of
    phi alone.

    At an analytic pole (SINE or LINEAR cap) the 0/0 ratios are replaced by
    their closed-form limits; a non-analytic pole raises DomainError.
    """
    want = set(columns)
    unknown = want.difference(CSV_COLUMNS)
    if unknown:
        raise DomainError(f"unknown curvature column(s): {', '.join(sorted(unknown))}")
    want.add("r")
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if m.f.r_max == m.r_max:
        # one domain check and clip for both profiles
        rc = clip_radii(r, m.r_max)
        phi_at, f_at = partial(m.phi._eval, rc), partial(m.f._eval, rc)
    else:
        phi_at, f_at = partial(m.phi.eval, r), partial(m.f.eval, r)
    out = _columns(m, want, r, phi_at, f_at, np)
    return {k: out[k] for k in CSV_COLUMNS if k in want}


def sectional_fn(m):
    """Closure r -> (sec_rad, sec_tan) through the one kernel :func:`_sectional`.

    It takes one float radius and computes in float arithmetic, for ODE
    right-hand sides, with the bits of :func:`curvature_table`'s sec_rad and
    sec_tan; no domain check: the caller guarantees 0 <= r <= r_max.
    """
    phi = m.phi.scalar_fn((0, 1, 2))
    kernel = _sectional(m, _FloatMath)

    def sec(r):
        sec_rad, sec_tan, _ = kernel(r, *phi(r))
        return sec_rad, sec_tan

    return sec


def curvature_sample(m, r):
    """All curvature quantities at a single radius, with the bits of
    :func:`curvature_table`'s row, computed in float arithmetic.

    ``r`` is checked and clipped as :meth:`RadialProfile.eval` checks and
    clips it; a non-analytic pole raises DomainError.  Away from the poles
    phi > 0, which :class:`ManifoldWithDensity` checks.
    """
    r = float(r)
    out = _columns(m, _ALL, r, partial(m.phi, r), partial(m.f, r), _FloatMath)
    return CurvatureSample(*[float(out[k]) for k in CSV_COLUMNS])


def sec_plane(m, r, w):
    """Sectional curvature of a plane with radial-wedge weight ``w`` in [0, 1].

    A weight outside [0, 1], NaN included, raises DomainError.
    """
    w = np.asarray(w, dtype=float)
    if not np.all((w >= 0.0) & (w <= 1.0)):
        raise DomainError("plane weight must lie in [0, 1]")
    t = curvature_table(m, r, ("sec_rad", "sec_tan"))
    out = w * t["sec_rad"] + (1.0 - w) * t["sec_tan"]
    return float(out[0]) if out.size == 1 else out


def x_field_norm(m, r):
    """|X| = potential_scale * |f'(r)|, with the bits of curvature_table's
    ``xnorm``: a float on one radius, an array on an array."""
    return m.potential_scale * abs(m.f(r, 1))


def dump_csv(m, r, out):
    """17-column full-precision CSV (header mandatory) at radii ``r``, to a
    path or a text stream."""
    t = curvature_table(m, r)
    write_text(out, csv_lines(CSV_COLUMNS, [t[c] for c in CSV_COLUMNS]))

"""Closed-form and property oracles for pinchlab outputs.

Nothing here imports pinchlab: every expected value comes from geometry known
in closed form (laws of cosines, great circles, the family's doubling point,
the round sphere's conjugate points at k*pi) or from a property any correct
answer has (distance bounds and symmetry, conservation laws).  Each check
raises :class:`OracleError` naming what disagreed.

Tolerances are the ones the repository's tests already pin:

* 1e-6   distances, the family's 2L and pinch tolerance (PINCH_TOL_LOWER)
* 1e-8   conserved quantities, Jacobi zeros on the sphere, near-pole curvature
* 1e-9   positions along shot geodesics
* 1e-12  curvature identities away from the poles and closed-form constants
* 1e-10  Ricci line integral along a flat ray
* 1e-5   end point of a returned path (tests/test_geodesics.py)
"""

from __future__ import annotations

import math

import numpy as np

DIST_TOL = 1e-6
PATH_END_TOL = 1e-5
POSITION_TOL = 1e-9
CONSERVATION_TOL = 1e-8
ZERO_TOL_SPHERE = 1e-8
ZERO_TOL_FAMILY = 1e-6
IDENTITY_TOL = 1e-12
NEAR_POLE_TOL = 1e-8
NEAR_POLE_BAND = 0.05      # below this distance to a pole sec_tan carries 0/0 noise
PINCH_TOL = 1e-6
KLINGENBERG_TOL = 1e-6
LINE_TOL = 1e-8
FLAT_LINE_TOL = 1e-10
VERDICT_MARGIN = 1e-3      # relative distance kept from the pinch boundary


class OracleError(AssertionError):
    """A program output disagreed with its oracle."""


def near(name, got, want, tol):
    if not (abs(got - want) <= tol):
        raise OracleError(f"{name}: got {got!r}, expected {want!r} (tol {tol:g})")


def expect(name, cond):
    if not cond:
        raise OracleError(name)


# ---------------------------------------------------------------------------
# the example family in closed form


def doubling_point(eps, delta):
    """L = pi/2 - delta + (1 - eps)(pi/2 - 2 delta)/eps."""
    return math.pi / 2 - delta + (1.0 - eps) * (math.pi / 2 - 2.0 * delta) / eps


def cylinder_radius_bracket(delta):
    """Bounds on A = phi(pi/2).

    phi = sin r up to pi/2 - delta and is concave with slope falling from
    sin(delta) to 0 across the band, so cos(delta) <= A <= cos(delta) +
    delta sin(delta).
    """
    lo = math.cos(delta)
    return lo, lo + delta * math.sin(delta)


def family_pinch_verdict(n, eps, delta):
    """True/False for (n-1) eps <= (n-2)/A^2 over the whole A bracket, or
    None when the configuration is within VERDICT_MARGIN of the boundary."""
    a_lo, a_hi = cylinder_radius_bracket(delta)
    lhs = (n - 1) * eps
    if lhs <= (n - 2) / a_hi**2 * (1.0 - VERDICT_MARGIN):
        return True
    if lhs >= (n - 2) / a_lo**2 * (1.0 + VERDICT_MARGIN):
        return False
    return None


def check_family_build(meta, r_max, n, eps, delta):
    L = doubling_point(eps, delta)
    near("family L", meta["L"], L, IDENTITY_TOL)
    near("family r_max", r_max, 2.0 * L, IDENTITY_TOL)
    a_lo, a_hi = cylinder_radius_bracket(delta)
    expect(f"family A={meta['A']!r} outside [{a_lo}, {a_hi}]", a_lo <= meta["A"] <= a_hi)


def identity_tol(r, r_max):
    """Pinned tolerance for sec_tan-based columns at radius r."""
    d = np.minimum(r, r_max - r)
    return np.where((d > 0) & (d < NEAR_POLE_BAND), NEAR_POLE_TOL, IDENTITY_TOL)


def _check_cols(name, got, want, tol):
    err = np.abs(np.asarray(got, dtype=float) - want)
    bad = np.nonzero(~(err <= tol))[0]
    if bad.size:
        i = int(bad[0])
        raise OracleError(f"{name}: {bad.size} points off, first at index {i}: "
                          f"got {float(np.asarray(got)[i])!r}, expected "
                          f"{float(np.broadcast_to(want, err.shape)[i])!r}")


def check_family_curvature(tab, n, eps, delta):
    """Cap, cylinder and pole identities of the family (Ricci scale).

    On the sine cap r < pi/2 - 2 delta (and its mirror image):
    bakry_rr = (n-1) eps, bakry_tt = (n-1) - (n-1)(1-eps) r cot r.
    On the cylinder pi/2 <= r <= 2L - pi/2: bakry_rr = (n-1) eps and
    f' = (n-1) eps (r - L).  At either pole both equal (n-1) eps.
    """
    L = doubling_point(eps, delta)
    R = 2.0 * L
    r = np.asarray(tab["r"], dtype=float)
    d = np.minimum(r, R - r)
    lower = (n - 1) * eps
    checked = 0
    cap = d < math.pi / 2 - 2.0 * delta - 1e-9
    if cap.any():
        rc = d[cap]
        with np.errstate(divide="ignore", invalid="ignore"):
            rcot = np.where(rc > 0, rc / np.tan(rc), 1.0)
        _check_cols("cap bakry_rr", tab["bakry_rr"][cap], lower, IDENTITY_TOL)
        _check_cols("cap bakry_tt", tab["bakry_tt"][cap],
                    (n - 1) - (n - 1) * (1.0 - eps) * rcot, identity_tol(r[cap], R))
        checked += int(cap.sum())
    cyl = (r >= math.pi / 2) & (r <= R - math.pi / 2)
    if cyl.any():
        _check_cols("cylinder bakry_rr", tab["bakry_rr"][cyl], lower, IDENTITY_TOL)
        _check_cols("cylinder df", tab["df"][cyl], lower * (r[cyl] - L), IDENTITY_TOL)
        checked += int(cyl.sum())
    return checked


def check_sphere_curvature(tab):
    """Round sphere: sec_rad = sec_tan = 1 everywhere."""
    r = np.asarray(tab["r"], dtype=float)
    _check_cols("sphere sec_rad", tab["sec_rad"], 1.0, IDENTITY_TOL)
    _check_cols("sphere sec_tan", tab["sec_tan"], 1.0, identity_tol(r, math.pi))


def check_gaussian_curvature(tab):
    """Gaussian: Bakry-Emery identically 1, Ricci identically 0."""
    for k in ("bakry_rr", "bakry_tt"):
        _check_cols(f"gaussian {k}", tab[k], 1.0, IDENTITY_TOL)
    for k in ("ric_rr", "ric_tt"):
        _check_cols(f"gaussian {k}", tab[k], 0.0, IDENTITY_TOL)


# ---------------------------------------------------------------------------
# pinching verdicts


def check_pinch(passed, achieved_lower, want_pass, want_lower=None, tol=PINCH_TOL):
    expect(f"pinch verdict {passed!r}, expected {want_pass!r}", bool(passed) == want_pass)
    if want_lower is not None:
        near("pinch achieved_lower", achieved_lower, want_lower, tol)


# ---------------------------------------------------------------------------
# distances


def flat_distance(p, q):
    """Law of cosines in the plane, points in polar coordinates (r, theta)."""
    return math.sqrt(max(p[0] ** 2 + q[0] ** 2
                         - 2.0 * p[0] * q[0] * math.cos(q[1] - p[1]), 0.0))


def sphere_distance(p, q):
    """Spherical law of cosines, points as (polar angle, azimuth)."""
    c = (math.cos(p[0]) * math.cos(q[0])
         + math.sin(p[0]) * math.sin(q[0]) * math.cos(q[1] - p[1]))
    return math.acos(max(-1.0, min(1.0, c)))


def check_distance(d, want):
    near("distance", d, want, DIST_TOL)


def check_family_distance(d, d_rev, p, q, r_max):
    """|r1 - r2| <= d <= min(r1 + r2, 2R - r1 - r2) and d(p, q) = d(q, p)."""
    r1, r2 = p[0], q[0]
    lo, hi = abs(r1 - r2), min(r1 + r2, 2.0 * r_max - r1 - r2)
    expect(f"family distance {d!r} outside [{lo}, {hi}]",
          lo - DIST_TOL <= d <= hi + DIST_TOL)
    near("family distance symmetry", d_rev, d, DIST_TOL)


def check_path_end(end, length, q, d):
    """A returned path ends at q and has length d."""
    r_end, th_end = end
    near("path end radius", r_end, q[0], PATH_END_TOL)
    near("path end angle", math.cos(th_end - q[1]), 1.0, PATH_END_TOL)
    near("path length", length, d, DIST_TOL)


# ---------------------------------------------------------------------------
# shooting


def great_circle(r0, alpha, ts):
    """Unit-sphere points along the geodesic launched at polar angle r0 and
    azimuth 0, at angle alpha from the outward radial direction."""
    x0 = np.array([math.sin(r0), 0.0, math.cos(r0)])
    e_r = np.array([math.cos(r0), 0.0, -math.sin(r0)])
    v = math.cos(alpha) * e_r + math.sin(alpha) * np.array([0.0, 1.0, 0.0])
    return np.cos(ts)[:, None] * x0 + np.sin(ts)[:, None] * v


def straight_line(r0, alpha, ts):
    """Plane points along the straight line from (r0, 0) at angle alpha."""
    v = np.array([math.cos(alpha), math.sin(alpha)])
    return np.array([r0, 0.0]) + ts[:, None] * v


def check_sphere_shoot(samples, r0, alpha):
    """Path samples (t, r, theta, ...) lie on the great circle, point by point."""
    t, r, th = samples[:, 0], samples[:, 1], samples[:, 2]
    got = np.column_stack([np.sin(r) * np.cos(th), np.sin(r) * np.sin(th), np.cos(r)])
    err = np.linalg.norm(got - great_circle(r0, alpha, t), axis=1)
    near("great-circle position error", float(err.max()), 0.0, POSITION_TOL)


def check_flat_shoot(samples, r0, alpha):
    """Path samples (t, r, theta, ...) lie on the straight line, point by point."""
    t, r, th = samples[:, 0], samples[:, 1], samples[:, 2]
    got = np.column_stack([r * np.cos(th), r * np.sin(th)])
    err = np.linalg.norm(got - straight_line(r0, alpha, t), axis=1)
    near("straight-line position error", float(err.max()), 0.0, POSITION_TOL)


def check_conservation(rdot, thetadot, phi, c):
    """Clairaut phi^2 thetadot = c and unit speed, recomputed from samples.

    ``phi`` is the model's warping function at the sampled radii and ``c``
    the Clairaut constant of the launch, phi(r0) sin(alpha).
    """
    clair = float(np.max(np.abs(phi**2 * thetadot - c)))
    speed = float(np.max(np.abs(rdot**2 + phi**2 * thetadot**2 - 1.0)))
    near("Clairaut residual", clair, 0.0, CONSERVATION_TOL)
    near("unit-speed residual", speed, 0.0, CONSERVATION_TOL)


# ---------------------------------------------------------------------------
# index


def check_cross_check(classes):
    """JACOBI_ZEROS equals EIGEN_COUNT, recounted from the per-class detail."""
    jac = sum(c["multiplicity"] * len(c["conjugate_points"]) for c in classes.values())
    eig = sum(c["multiplicity"] * c["negative_eigenvalues"] for c in classes.values())
    expect(f"Jacobi count {jac} != eigenvalue count {eig}", jac == eig)


def sphere_conjugate_points(length):
    """On the unit sphere conjugate points sit at k*pi, k*pi < length."""
    return [k * math.pi for k in range(1, int(length / math.pi) + 1)
            if k * math.pi < length]


def check_index(index, classes, n, want_zeros, tol):
    """Every direction class has its conjugate points at ``want_zeros`` and
    the index is (n-1) per point (the classes' multiplicities sum to n-1)."""
    want_index = (n - 1) * len(want_zeros)
    expect(f"index {index}, expected {want_index}", index == want_index)
    for name, c in classes.items():
        zs = sorted(c["conjugate_points"])
        expect(f"class {name}: {len(zs)} conjugate points, expected {len(want_zeros)}",
              len(zs) == len(want_zeros))
        for z, w in zip(zs, want_zeros):
            near(f"class {name} conjugate point", z, w, tol)


def check_loop(rep, n, eps, length, zeros, zero_tol):
    """A pole-based meridian loop longer than pi/eps: the lemma applies and
    holds, each sec integral is at least eps * length, and the conjugate
    points are ``zeros``, each of multiplicity n-1."""
    near("loop length", rep["length"], length, IDENTITY_TOL)
    near("loop threshold", rep["threshold"], math.pi / eps, IDENTITY_TOL)
    expect(f"loop status {rep['status']!r}", rep["status"] == "SATISFIED")
    for k, v in rep["sec_integral_per_direction"].items():
        expect(f"sec integral {k}={v!r} below eps * length",
              v >= eps * length - PINCH_TOL and v > math.pi)
    check_index(rep["index"], rep["index_result"].classes, n, zeros, zero_tol)


def check_gap(gap, eps, L):
    """Family gap report: the farthest point and inj at the pole are 2L, the
    bounds are pi/eps and 2 pi/eps, and the Berger inner product is 0."""
    near("gap farthest", gap["farthest"], 2.0 * L, DIST_TOL)
    near("gap inj_p", gap["inj_p"], 2.0 * L, DIST_TOL)
    near("gap zero_bound", gap["zero_bound"], 2.0 * math.pi / eps, IDENTITY_TOL)
    near("gap bound", gap["bound"], math.pi / eps, IDENTITY_TOL)
    near("gap berger_inner", gap["berger_inner"], 0.0, IDENTITY_TOL)


def klingenberg_caps(eps, l, field_slope, half_inj):
    """Closed-form caps of the loop-condition search.

    With |X| = field_slope * r on [0, 2 delta] the field cap is
    pi(2 eps - 1)/(3 eps + 2 field_slope); the others are (2 pi - l)/3,
    2 pi/5 and inj/2.
    """
    return {"field_bound": math.pi * (2.0 * eps - 1.0) / (3.0 * eps + 2.0 * field_slope),
            "loop_length": (2.0 * math.pi - l) / 3.0,
            "global": 2.0 * math.pi / 5.0,
            "exp_diffeo": half_inj}


def check_klingenberg(res, caps):
    expect(f"klingenberg returned {res!r}", isinstance(res, dict))
    want = min(caps.values())
    binding = min(caps, key=caps.get)
    near("delta_max", res["delta_max"], want, KLINGENBERG_TOL)
    expect(f"binding cap {res['binding']!r}, expected {binding!r}", res["binding"] == binding)
    near("delta", res["delta"], want / 2.0, KLINGENBERG_TOL)
    expect("negative klingenberg margin", all(v >= 0 for v in res["margins"].values()))


# ---------------------------------------------------------------------------
# line integrals


def family_meridian_sec_bracket(delta):
    """Bounds on int_0^{2L} -phi''/phi dr along the family meridian.

    The sine caps give pi/2 - delta each; on each band phi is in the A
    bracket and -phi'' >= 0 integrates to sin(delta); the cylinder gives 0.
    """
    a_lo, a_hi = cylinder_radius_bracket(delta)
    cap = math.pi / 2 - delta
    return 2.0 * (cap + math.sin(delta) / a_hi), 2.0 * (cap + math.sin(delta) / a_lo)


def check_in_bracket(name, value, lo, hi, tol):
    expect(f"{name} {value!r} outside [{lo}, {hi}]", lo - tol <= value <= hi + tol)

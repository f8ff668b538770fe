import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from pinchlab import (ConstructionError, DomainError, INFEASIBLE, build_model, critical_radius,
                      criticality_certificate, diameter_gap, inj_at_pole,
                      klingenberg_delta_search, manifold_from_dict,
                      verify_pinch, verify_quadratic_growth)
from pinchlab.curvature import curvature_table, x_field_norm
from pinchlab.profiles import (CAP, LINEAR, PARABOLA, ManifoldWithDensity, RadialProfile,
                               SegmentSpec)
from pinchlab.verify import DEFAULT_GRID, DELTA_SEARCH_TOL, GAP_TOL, _pinch_grid


# -- pinch verification -----------------------------------------------------


def test_gaussian_pinch_passes(gaussian3):
    rep = verify_pinch(gaussian3, "RICCI", eps=0.5, grid_size=2000)
    assert rep.passed
    assert rep.achieved_lower == pytest.approx(1.0, abs=1e-12)
    assert rep.achieved_upper == pytest.approx(0.0, abs=1e-12)
    assert rep.violations == ()


def test_family_pinch_passes(family10):
    rep = verify_pinch(family10, grid_size=5000)
    assert rep.passed
    assert rep.achieved_lower >= 7.2 - 1e-6
    delta = family10.meta["delta"]
    assert rep.achieved_upper <= 9.0 * (1.0 + 5.0 * delta**2)
    assert rep.tol_lower == 1e-6
    assert rep.tol_upper == pytest.approx(9.0 * 5.0 * delta**2)


def test_family_sec_mode_pinch_measures_cylinder_zero(family10_sec):
    # the family only has the radial weighted bound; planes not containing
    # the radial direction as first argument drop to 0 on the cylinder, and
    # the verifier reports that rather than hiding it
    rep = verify_pinch(family10_sec, "SEC", grid_size=5000)
    assert not rep.passed
    assert rep.achieved_lower == pytest.approx(0.0, abs=1e-12)
    assert any(v["quantity"] in ("wsec_Tr", "wsec_TT") and v["r"] > math.pi / 2
               for v in rep.violations)


def test_round_sphere_sec_pinch_passes(sphere3):
    rep = verify_pinch(sphere3, "SEC", eps=1.0, grid_size=2000)
    assert rep.passed
    # sec_tan carries ~1e-11 of 0/0 cancellation noise close to the poles
    assert rep.achieved_lower == pytest.approx(1.0, abs=1e-10)
    assert rep.achieved_upper == pytest.approx(1.0, abs=1e-10)


def test_family_range_discrepancy_fails():
    # the cylinder violates the lower bound for eps near the stated range cap
    m = build_model("family", 3, 0.9, 0.02)
    rep = verify_pinch(m, grid_size=5000)
    assert not rep.passed
    assert rep.violations
    v = [x for x in rep.violations if x["quantity"] == "bakry_tt"
         and x["r"] > math.pi / 2 - 1e-9]
    assert v
    A = m.meta["A"]
    assert v[0]["value"] == pytest.approx(1.0 / A**2, abs=1e-6)


def test_pinch_grid_size_validated(gaussian3):
    with pytest.raises(DomainError):
        verify_pinch(gaussian3, grid_size=50)


def test_pinch_upper_must_be_finite(gaussian3):
    for upper in (math.nan, math.inf):
        with pytest.raises(DomainError, match="upper"):
            verify_pinch(gaussian3, "SEC", upper=upper, grid_size=1000)


def test_pinch_rejects_an_unknown_mode(gaussian3):
    with pytest.raises(DomainError, match="unknown pinch mode 'BOGUS'"):
        verify_pinch(gaussian3, "bogus")


def test_pinch_reports_compare_and_hash_by_their_verdict_fields():
    # the grid and columns behind the listing take no part in == or hash
    a, b = (verify_pinch(build_model("family", 3, 0.9, 0.02)) for _ in range(2))
    other = verify_pinch(build_model("family", 10, 0.8, 0.02))
    assert a == b and hash(a) == hash(b)
    assert a != other
    assert a.violations == b.violations
    assert "_checks" not in repr(a)


def test_passing_pinch_reports_keep_only_their_hits(family10):
    # a report keeps the hits of each checked column, not the grid and the
    # columns: those took about 500 KiB per report
    verify_pinch(family10)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        reports = [verify_pinch(family10) for _ in range(20)]
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert all(rep.passed and rep.violations == () for rep in reports)
    assert kept / len(reports) < 50 * 1024


def _extremes_verdict(rep):
    """The verdict as PinchReport.passed computed it from the achieved
    extremes before it read the hits."""
    return (rep.achieved_lower >= rep.eps_target * rep.lower_scale - rep.tol_lower
            and rep.achieved_upper <= rep.upper_target + rep.tol_upper)


def test_pinch_verdict_matches_the_extremes_formula(gaussian3, sphere3, family10,
                                                    family10_sec):
    rng = np.random.default_rng(2028)
    models = [gaussian3, sphere3, family10, family10_sec, build_model("family", 3, 0.9, 0.02),
              build_model("gaussian", 5, 0.4)]
    models += [build_model("family", int(rng.integers(3, 13)), float(rng.uniform(0.55, 0.95)),
                           float(rng.uniform(0.01, 0.08))) for _ in range(40)]
    verdicts = []
    for m in models:
        for mode in ("RICCI", "SEC"):
            rep = verify_pinch(m, mode)
            assert rep.passed is _extremes_verdict(rep) is (rep.violations == ())
            verdicts.append(rep.passed)
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("mode, nan_quantities", [("RICCI", {"bakry_rr", "bakry_tt", "ric_tt"}),
                                                  ("SEC", {"wsec_rT", "wsec_Tr", "wsec_TT"})])
def test_pinch_lists_nan_values_as_violations(mode, nan_quantities):
    # the model contract keeps phi^2 and phi'^2 finite and phi C1, so NaN
    # rows need overflow elsewhere: phi rises from the pole and falls to a
    # minimum of 1e-160 at r = 1, where it overflows sec_rad to -inf and
    # sec_tan to +inf, whose sum ric_tt is NaN, and f' = inf * 0 is NaN;
    # the NaN rows used to break no bound and read -0.0 as achieved_upper
    m = manifold_from_dict({"n": 3, "topology": "CAP", "phi": {"segments": [
        {"kind": "LINEAR", "domain": [0.0, 0.25]},
        {"kind": "PARABOLA", "domain": [0.25, 0.5], "c0": 0.25, "c1": 1.0, "c2": -4.0},
        {"kind": "PARABOLA", "domain": [0.5, 1.0], "c0": 0.25 + 1e-10, "c1": -1.0, "c2": 1.0},
        {"kind": "PARABOLA", "domain": [1.0, 2.0], "c0": 1e-160, "c1": 0.0, "c2": 5e153}]},
        "f": {"segments": [{"kind": "CONSTANT", "domain": [0.0, 1.0], "value": 0.0},
                           {"kind": "PARABOLA", "domain": [1.0, 2.0], "c0": 0.0, "c1": 0.0,
                            "c2": 1e308}]}})
    with np.errstate(over="ignore", invalid="ignore"):
        rep = verify_pinch(m, mode, eps=0.5)
    nan = [v for v in rep.violations if math.isnan(v["value"])]
    assert {v["quantity"] for v in nan} == nan_quantities
    assert all(v["r"] == 1.0 for v in nan)
    # SEC's upper columns are sec_rad and sec_tan, -inf and +inf here, never NaN
    assert math.isnan(rep.achieved_lower) and math.isnan(rep.achieved_upper) is (mode == "RICCI")
    assert not rep.passed


def _reference_quantities(m, mode):
    """The grid and the checked columns of the full 17-column table, as
    (rs, lower quantities, upper quantities)."""
    rs = _pinch_grid(m, DEFAULT_GRID)
    tab = curvature_table(m, rs)
    if mode == "RICCI":
        lower_q = {k: tab[k] for k in ("bakry_rr", "bakry_tt")}
        upper_q = {k: tab[k] for k in ("ric_rr", "ric_tt")}
    else:
        lower_q = {k: tab[k] for k in ("wsec_rT", "wsec_Tr", "wsec_TT")}
        upper_q = {k: tab[k] for k in ("sec_rad", "sec_tan")}
    return rs, lower_q, upper_q


def _reference_violations(rep, rs, lower_q, upper_q):
    """The listing built point by point and sorted by (r, quantity)."""
    lower_bound = rep.eps_target * rep.lower_scale
    violations = []
    for name, v in lower_q.items():
        for i in np.nonzero(v < lower_bound - rep.tol_lower)[0]:
            violations.append({"r": float(rs[i]), "quantity": name,
                               "value": float(v[i]), "bound": lower_bound})
    for name, v in upper_q.items():
        for i in np.nonzero(v > rep.upper_target + rep.tol_upper)[0]:
            violations.append({"r": float(rs[i]), "quantity": name,
                               "value": float(v[i]), "bound": rep.upper_target})
    violations.sort(key=lambda d: (d["r"], d["quantity"]))
    return tuple(violations)


@pytest.mark.parametrize("model, mode, eps, count", [
    (("family", 3, 0.9, 0.02), "RICCI", None, 875),
    (("family", 10, 0.8, 0.02, 1.0 / 9.0), "SEC", None, 1877),
    (("gaussian", 5), "RICCI", 0.4, 20_002),
    (("gaussian", 5, None, None, 0.25), "SEC", 0.4, 30_003),
    (("round_sphere", 3), "SEC", 1.0, 0),
])
def test_pinch_violations_match_reference_listing(model, mode, eps, count):
    m = build_model(*model)
    rep = verify_pinch(m, mode, eps=eps)
    rs, lower_q, upper_q = _reference_quantities(m, mode)
    ref = _reference_violations(rep, rs, lower_q, upper_q)
    assert len(ref) == count
    assert rep.violations == ref
    assert rep.violations is rep.violations
    # the achieved bounds are the full table's extremes, bit for bit
    assert rep.achieved_lower.hex() == min(float(v.min()) for v in lower_q.values()).hex()
    assert rep.achieved_upper.hex() == max(float(v.max()) for v in upper_q.values()).hex()


def test_round_sphere_divergence_consistency(sphere3):
    # on a compact model the achieved lower bound never exceeds 1 + tol
    rep = verify_pinch(sphere3, eps=1.0, grid_size=2000)
    assert rep.passed
    assert rep.achieved_lower / 2.0 <= 1.0 + 1e-6   # per-eigenvalue scale n-1


# -- criticality ------------------------------------------------------------


def test_critical_radius_values(gaussian3, family10):
    assert critical_radius(family10) == pytest.approx(math.pi / 0.8, abs=1e-12)
    assert critical_radius(gaussian3, 0.0, eps=0.5) \
        == pytest.approx(2 * math.pi, abs=1e-12)


def test_critical_radius_requires_positive_eps(sphere3):
    for eps in (-1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            critical_radius(sphere3, eps=eps)


def test_gaussian_certificate_noncritical(gaussian3):
    cert = criticality_certificate(gaussian3, (0.0, 0.0), (5.0, 0.0), eps=0.5)
    assert cert.min_inner == pytest.approx(5.0, abs=1e-9)
    assert cert.noncritical


def test_certificate_of_a_point_to_itself_raises(family10):
    # p = q has distance 0 and no realizing path to certify
    with pytest.raises(DomainError, match="no realizing geodesic"):
        criticality_certificate(family10, (1.0, 0.5), (1.0, 0.5))


def test_family_far_pole_certificate(family10):
    q = (family10.r_max, 0.0)
    cert = criticality_certificate(family10, (0.0, 0.0), q)
    assert cert.min_inner == pytest.approx(0.0, abs=1e-12)
    assert not cert.noncritical
    expected = -9 * math.pi + 9 * 0.8 * 2 * family10.L
    assert cert.xnorm_lower == pytest.approx(expected, abs=1e-9)
    assert cert.xnorm_lower <= 0.0


def test_sphere_zero_field_certificate(sphere3):
    cert = criticality_certificate(sphere3, (1.0, 0.0), (2.0, 1.0), eps=1.0)
    assert cert.min_inner == pytest.approx(0.0, abs=1e-12)
    assert not cert.noncritical


def test_certificate_residual_and_soundness_sampled(gaussian3, family10):
    rng = np.random.default_rng(11)
    # residual: g(X(q), gdot) >= bound on minimal geodesics
    for _ in range(50):
        q = (rng.uniform(0.2, 40.0), rng.uniform(-math.pi, math.pi))
        cert = criticality_certificate(gaussian3, (0.0, 0.0), q, eps=0.5)
        assert cert.min_inner - cert.xnorm_lower >= -1e-6
        if cert.dist > cert.threshold:
            assert cert.noncritical
    for _ in range(20):
        q = (rng.uniform(0.2, family10.r_max - 0.2),
             rng.uniform(-math.pi, math.pi))
        cert = criticality_certificate(family10, (0.0, 0.0), q)
        assert cert.min_inner - cert.xnorm_lower >= -1e-6


def test_gaussian_xnorm_lower_unbounded(gaussian3):
    # the certificate lower bound grows without bound along a radial ray
    eps = 0.5
    rs = np.linspace(2 * math.pi + 0.1, 50.0, 40)
    vals = [criticality_certificate(gaussian3, (0.0, 0.0), (r, 0.0),
                                    eps=eps).xnorm_lower for r in rs]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 10.0


# -- gap theorems -----------------------------------------------------------


def test_family_diameter_gap(family10):
    gap = diameter_gap(family10)
    assert gap.farthest == pytest.approx(3.866991, abs=1e-6)
    assert gap.zero_bound == pytest.approx(2 * math.pi / 0.8, abs=1e-12)
    assert gap.diameter_ok
    assert gap.berger_check


def test_round_sphere_diameter_gap(sphere3):
    gap = diameter_gap(sphere3, eps=1.0)
    assert gap.farthest == pytest.approx(math.pi, abs=1e-6)
    assert gap.farthest <= 2 * math.pi
    assert gap.diameter_ok


def test_diameter_gap_needs_compact(gaussian3):
    with pytest.raises(DomainError):
        diameter_gap(gaussian3)


def test_diameter_gap_off_the_pole_raises(family10):
    # the farthest point from p = (1, 0) lies near (3.0816, pi) at 3.5709,
    # not at the far pole, whose distance r_max from the pole was reported
    with pytest.raises(DomainError, match="pole"):
        diameter_gap(family10, p=(1.0, 0.0))
    assert diameter_gap(family10, p=(0.0, 1.0)).farthest == family10.r_max


def test_gap_ratio_delta_sweep():
    for delta in (0.08, 0.04, 0.02):
        m = build_model("family", 10, 0.8, delta)
        gap = diameter_gap(m)
        ratio = gap.farthest / gap.zero_bound
        assert abs(ratio - 0.5) <= 0.05


@pytest.mark.parametrize("eps, failed", [(0.5, ["berger_inner"]),
                                         (2.0, ["farthest_distance"])])
def test_gap_lists_each_failed_check(eps, failed, sphere3):
    # on the round sphere at eps = 2 the diameter bound pi/2 fails against
    # the diameter pi.  g(X, gdot) > 0 at the far pole needs X != 0 at the
    # pole, which no model has, so that report is made by hand
    gap = diameter_gap(sphere3, eps=eps)
    if "berger_inner" in failed:
        gap = dataclasses.replace(gap, berger_inner=0.3)
    sides = {"berger_inner": (gap.berger_inner, 0.0),
             "farthest_distance": (gap.farthest, gap.bound)}
    assert gap.violations == tuple({"r": gap.farthest_point[0], "quantity": q,
                                    "value": sides[q][0], "bound": sides[q][1]} for q in failed)


def test_inj_gap_hypothesis(family10, sphere3):
    gap = diameter_gap(family10)
    assert gap.inj_p == pytest.approx(3.866991, abs=1e-6)
    assert gap.bound == pytest.approx(math.pi / 0.8, abs=1e-12)
    assert not gap.inj_hypothesis_met
    gap = diameter_gap(sphere3, eps=1.0)
    assert gap.inj_hypothesis_met
    assert abs(gap.inj_p - gap.bound) <= GAP_TOL


def test_inj_threshold_ratio_tends_to_one():
    ratios = []
    for delta in (0.08, 0.04, 0.02, 0.01):
        gap = diameter_gap(build_model("family", 10, 0.8, delta))
        ratios.append(gap.inj_p / gap.bound)
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] < 1.0
    assert ratios[-1] > 0.98


# -- quadratic growth -------------------------------------------------------


def test_gaussian_growth(gaussian3):
    rep = verify_quadratic_growth(gaussian3, t_max=50.0, eps=0.5)
    assert rep["pass"]
    # spot value of the bound at t = 10
    t = 10.0
    bound = -(2 * math.pi) * t + 0.5 * 2 * 0.5 * t**2
    assert bound == pytest.approx(50 - 20 * math.pi, abs=1e-12)
    assert bound <= 0.5 * t**2


def test_family_growth(family10):
    rep = verify_quadratic_growth(family10)
    assert rep["pass"]


def test_growth_rejects_a_bad_t_max(family10):
    # -1 failed over t in [-1, 0], 0 passed vacuously, 1e300 overflowed to
    # an inf violation and inf raised only after a numpy warning
    for t_max in (-1.0, 0.0, 1e300, math.inf, math.nan):
        with pytest.raises(DomainError, match="arclength"):
            verify_quadratic_growth(family10, t_max=t_max)


# -- Klingenberg delta search -----------------------------------------------


def test_klingenberg_family(family10):
    res = klingenberg_delta_search(family10, l=3.0)
    assert res["violations"] == []
    assert res["delta_max"] == pytest.approx(math.pi / 10, abs=1e-6)
    assert res["binding"] == "field_bound"
    assert res["delta"] == pytest.approx(res["delta_max"] / 2)
    assert all(v >= 0 for v in res["margins"].values())


def test_klingenberg_loop_length_binds(family10):
    res = klingenberg_delta_search(family10, l=2 * math.pi - 0.3)
    assert res["binding"] == "loop_length"
    assert res["delta_max"] == pytest.approx(0.1, abs=1e-12)


def test_klingenberg_halves_delta_at_a_conjugate_point(family10):
    # gamma(l - delta_max/2) is the far pole r_max, conjugate to the pole, so
    # the search halves once more
    delta_max = klingenberg_delta_search(family10, l=3.0)["delta_max"]
    res = klingenberg_delta_search(family10, l=family10.r_max + delta_max / 2)
    assert res["delta_max"] == delta_max
    assert res["binding"] == "field_bound"
    assert res["delta"] == delta_max / 4 == 0.0785398163395809


@pytest.mark.parametrize("n, eps, delta", [(3, 0.95, 0.02), (3, 0.95, 0.01),
                                           (5, 0.6, 0.05)])
def test_klingenberg_field_bound_meets_its_condition(n, eps, delta):
    # |f'| peaks inside the potential band, between the points of a coarse
    # grid; a grid of 257 points on [0, 2 delta] reported a field_bound that
    # broke the condition by 4.45e-5 (3, 0.95, 0.02) and 1.19e-6 (3, 0.95,
    # 0.01).  The midpoint of the last bisection bracket broke it by
    # +1.02e-12 (3, 0.95, 0.01) and +1.19e-12 (5, 0.6, 0.05).
    m = build_model("family", n, eps, delta)
    res = klingenberg_delta_search(m, l=0.5)
    assert res["binding"] == "field_bound"
    d = res["caps"]["field_bound"]
    b = 2.0 * d
    exact = [0.0, b, *(r for r in (*m.f.kinks(), *m.f.inflections()) if r < b)]
    rs = np.concatenate([exact, np.linspace(0.0, b, 400_001)])
    nd = float(np.max(m.potential_scale * np.abs(m.f.eval(rs, 1))))
    assert 3.0 * eps * d + nd - math.pi * (2.0 * eps - 1.0) < 0


def _field_bound_one_search_at_a_time(m, eps):
    """klingenberg_delta_search's field_bound cap as it was before |X| was
    read once: each bisection step reads |X| at every slope-extreme radius
    below 2 delta and at 2 delta."""
    rhs = math.pi * (2.0 * eps - 1.0)

    def field_cond(d):
        rs = m.f.slope_extreme_radii(min(2.0 * d, m.r_max))
        nd = float(np.max(x_field_norm(m, rs)))
        return 3.0 * eps * d + nd - rhs

    hi = m.r_max / 2.0
    if field_cond(hi) <= 0:
        return hi
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if field_cond(mid) < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < DELTA_SEARCH_TOL * 1e-3:
            break
    return lo


def test_klingenberg_field_bound_keeps_its_bits(sphere3, family10, monkeypatch):
    # the running maximum of |X| over the slope-extreme radii, read once,
    # and the float |X(2 delta)| give N(delta) with the bits of the
    # per-step array read, so every cap, margin and delta is unchanged; a
    # search reads the array once
    import pinchlab.verify as verify
    draw = np.random.default_rng(3503)
    cases = [(sphere3, 0.9, 1.0), (family10, 0.8, 3.0), (family10, 0.8, 5.5)]
    for _ in range(8):
        n, eps = int(draw.integers(3, 13)), float(draw.uniform(0.6, 0.95))
        m = build_model("family", n, eps, float(draw.uniform(0.005, 0.05)))
        cases.append((m, eps, float(draw.uniform(0.5, 5.0))))
    reads = []
    inner = verify.x_field_norm
    monkeypatch.setattr(verify, "x_field_norm",
                        lambda m, r: reads.append(np.isscalar(r)) or inner(m, r))
    bound_by_field = 0
    for m, eps, l in cases:
        reads.clear()
        res = klingenberg_delta_search(m, eps=eps, l=l)
        assert reads.count(False) == 1
        ref = _field_bound_one_search_at_a_time(m, eps)
        assert res["caps"]["field_bound"].hex() == ref.hex()
        bound_by_field += res["binding"] == "field_bound"
    assert bound_by_field >= 2


def test_klingenberg_infeasible_at_half(family10):
    assert klingenberg_delta_search(family10, eps=0.5, l=3.0)["status"] == INFEASIBLE


def test_klingenberg_infeasible_names_its_condition(family10):
    # on near_half the field cap is about 1e-9, so l - delta stays within
    # 1e-6 of the conjugate point inj_p = r_max through every halving
    delta = klingenberg_delta_search(family10, l=3.0)["delta"]
    near_half = build_model("family", 10, 0.5 + 1e-9, 0.02)
    l_far = near_half.r_max
    for quantity, m, eps, l, value, bound in (
            ("eps", family10, 0.5, 3.0, 0.5, 0.5),
            ("loop_length", family10, None, 7.0, (2 * math.pi - 7.0) / 3, 0.0),
            ("loop_minus_delta", family10, None, 0.01, 0.01 - delta, 0.0),
            ("non_conjugate", near_half, None, l_far, l_far, inj_at_pole(near_half))):
        res = klingenberg_delta_search(m, eps=eps, l=l)
        assert res["status"] == INFEASIBLE
        assert res["violations"] == [{"r": 0.0, "quantity": quantity,
                                      "value": pytest.approx(value, abs=1e-12),
                                      "bound": pytest.approx(bound, abs=1e-12)}]


def test_klingenberg_rejects_non_finite_loop_length(family10):
    for l in (math.nan, math.inf, -1.0):
        with pytest.raises(DomainError):
            klingenberg_delta_search(family10, l=l)


def test_klingenberg_needs_zero_at_pole(gaussian3):
    m = build_model("round_sphere", 3)
    res = klingenberg_delta_search(m, eps=0.9, l=3.0)
    assert res["violations"] == []   # X = 0 everywhere, N(delta) = 0
    # a cap with f = r + r^2/2, |X| = 1 at the pole, is no model
    f = SegmentSpec(PARABOLA, 0.0, 10.0, {"c0": 0.0, "c1": 1.0, "c2": 0.5})
    with pytest.raises(ConstructionError, match=r"f'\(0\) = 1\.0"):
        ManifoldWithDensity(3, RadialProfile((SegmentSpec(LINEAR, 0.0, 10.0),)),
                            RadialProfile((f,)), CAP)


import json
import math

import numpy as np
import pytest

from pinchlab import (ConstructionError, DomainError, RadialProfile,
                      SegmentSpec, build_model, check_c2, doubling_point,
                      eval_profile, manifold_from_dict, manifold_to_dict,
                      solve_smoothing_band)
from pinchlab.profiles import (BAND_INTEGRAL_TOL, PL2_BAND, SINE, CONSTANT, c2_ok,
                               _pl_integral)


def test_eval_sine_segment():
    prof = RadialProfile((SegmentSpec(SINE, 0.0, math.pi),))
    assert eval_profile(prof, math.pi / 6, 0) == pytest.approx(0.5, abs=1e-15)
    assert eval_profile(prof, math.pi / 6, 2) == pytest.approx(-0.5, abs=1e-15)


def test_eval_band_constant_second_derivative():
    seg = SegmentSpec(PL2_BAND, 0.0, 1.0,
                      {"left_value": 1.0, "left_slope": 0.0,
                       "nodes": [(0.0, 2.0), (1.0, 2.0)]})
    prof = RadialProfile((seg,))
    assert eval_profile(prof, 1.0, 0) == pytest.approx(2.0, abs=1e-14)
    assert eval_profile(prof, 1.0, 1) == pytest.approx(2.0, abs=1e-14)
    assert eval_profile(prof, 0.5, 2) == pytest.approx(2.0, abs=1e-14)


def test_eval_profile_domain_and_order_errors():
    prof = RadialProfile((SegmentSpec(SINE, 0.0, math.pi),))
    from pinchlab import DomainError
    with pytest.raises(DomainError):
        eval_profile(prof, 4.0, 0)
    with pytest.raises(DomainError):
        eval_profile(prof, 1.0, 3)


# -- smoothing bands --------------------------------------------------------


def test_band_plateau_then_ramp_closed_form():
    nodes = solve_smoothing_band(-1.8, 7.2, 0.02, 0.0)
    # ramp width u = -2 a w / (b - a) = 3.6 * 0.02 / 9
    assert nodes[0] == (0.0, -1.8)
    assert nodes[-1][0] == pytest.approx(0.02)
    assert nodes[-1][1] == pytest.approx(7.2)
    ramp_start = nodes[-2][0]
    assert 0.02 - ramp_start == pytest.approx(0.008, abs=1e-15)
    assert abs(_pl_integral(nodes)) <= 1e-12
    # monotone nondecreasing second derivative
    d2 = [d for _, d in nodes]
    assert d2 == sorted(d2)


def test_band_symmetric_full_width_ramp():
    nodes = solve_smoothing_band(-1.0, 1.0, 1.0, 0.0)
    assert nodes == [(0.0, -1.0), (1.0, 1.0)]
    assert abs(_pl_integral(nodes)) <= 1e-12


def test_band_boundary_layer_shape():
    d = 0.02
    nodes = solve_smoothing_band(-math.cos(d), 0.0, d, -math.sin(d))
    assert abs(_pl_integral(nodes) - (-math.sin(d))) <= 1e-12
    heights = [h for _, h in nodes]
    assert heights[1] == pytest.approx(-1.0002, abs=1e-4)   # plateau
    plunge = nodes[-1][0] - nodes[-2][0]
    assert plunge == pytest.approx(1.1e-5, rel=0.05)


def test_band_boundary_layer_closes_for_seeded_deltas():
    # the family's warping band, a = -cos d, target -sin d over width d
    for d in np.random.default_rng(14).uniform(0.001, 0.4, 11):
        nodes = solve_smoothing_band(-math.cos(d), 0.0, d, -math.sin(d))
        assert abs(_pl_integral(nodes) - (-math.sin(d))) <= BAND_INTEGRAL_TOL
        (_, a), (u, h), (v, h2), (w, z) = nodes
        assert 0.0 <= u <= 0.5 * d and v == d - u and w == d
        assert (a, h2, z) == (-math.cos(d), h, 0.0)


def test_band_boundary_layer_unreachable_target_raises():
    # a = -1, w = 1: the integral u (a/2 - h) + h w covers [-1, -0.75] only
    for target in (-1.5, -0.5, math.nan):
        with pytest.raises(ConstructionError, match="out of reach"):
            solve_smoothing_band(-1.0, 0.0, 1.0, target)


def test_band_rejects_bad_inputs():
    with pytest.raises(ConstructionError):
        solve_smoothing_band(-1.0, 1.0, 0.0, 0.0)
    with pytest.raises(ConstructionError):
        solve_smoothing_band(0.5, 1.0, 0.1, 0.0)
    with pytest.raises(ConstructionError):
        solve_smoothing_band(-1.0, 1.0, 0.1, 0.3)   # nonzero monotone target


# -- doubling point ---------------------------------------------------------


def test_doubling_point_closed_form():
    assert doubling_point(10, 0.8, 0.02) == pytest.approx(1.933495, abs=5e-7)
    assert doubling_point(4, 1.0, 0.05) == pytest.approx(math.pi / 2 - 0.05)
    expected = math.pi / 2 - 0.01 + 1.5 * (math.pi / 2 - 0.02)
    assert doubling_point(3, 0.4, 0.01) == pytest.approx(expected, abs=1e-12)


def test_doubling_point_is_root_of_fdot(family10):
    L = family10.L
    assert abs(family10.f(L, 1)) <= 1e-12


# -- model construction -----------------------------------------------------


def test_gaussian_model(gaussian3):
    assert gaussian3.topology == "CAP"
    assert gaussian3.phi(3.0) == pytest.approx(3.0)
    assert gaussian3.f(3.0) == pytest.approx(4.5)
    assert gaussian3.f(3.0, 1) == pytest.approx(3.0)


def test_round_sphere_model(sphere3):
    assert sphere3.topology == "DOUBLED_SPHERE"
    assert sphere3.L == pytest.approx(math.pi / 2)
    assert sphere3.phi(1.0) == pytest.approx(math.sin(1.0))
    assert sphere3.phi(math.pi - 1.0) == pytest.approx(math.sin(1.0))


def test_family_model(family10):
    assert family10.topology == "DOUBLED_SPHERE"
    assert family10.L == pytest.approx(1.933495, abs=5e-7)
    assert 0.9998 < family10.meta["A"] < 1.0003


def test_family_rejects_bad_parameters():
    with pytest.raises(ConstructionError):
        build_model("family", 2, 0.8, 0.02)
    with pytest.raises(ConstructionError):
        build_model("family", 10, -0.1, 0.02)
    with pytest.raises(ConstructionError):
        # doubling point falls inside the cap: no cylinder left
        build_model("family", 10, 1.2, 0.02)
    with pytest.raises(ConstructionError, match="eps"):
        build_model("family", 10, math.nan, 0.02)
    with pytest.raises(ConstructionError, match="delta"):
        build_model("family", 10, 0.8, math.inf)
    with pytest.raises(ConstructionError, match="n must"):
        build_model("gaussian", 1)


# -- C2 checks --------------------------------------------------------------


def test_family_profiles_are_c2(family10):
    for prof in (family10.phi, family10.f):
        for rj, *res in check_c2(prof):
            assert max(res) <= 1e-9, (rj, res)


def test_unknown_segment_kind_rejected_at_construction():
    with pytest.raises(ConstructionError, match="FOO"):
        SegmentSpec("FOO", 0.0, 1.0)


def test_check_c2_single_segment_empty():
    prof = RadialProfile((SegmentSpec(SINE, 0.0, math.pi),))
    assert check_c2(prof) == []


def test_check_c2_reports_broken_junction():
    rj = math.pi / 2 - 0.1
    prof = RadialProfile((SegmentSpec(SINE, 0.0, rj),
                          SegmentSpec(CONSTANT, rj, 2.0, {"value": 0.9})))
    res = check_c2(prof)
    assert len(res) == 1
    value_jump = res[0][1]
    assert value_jump == pytest.approx(math.sin(rj) - 0.9, abs=1e-12)
    assert not c2_ok(prof)


# -- family invariants over a delta sweep -----------------------------------


@pytest.mark.parametrize("delta", [0.1, 0.08, 0.04, 0.02, 0.01])
def test_family_sweep_invariants(delta):
    eps = 0.8
    m = build_model("family", 10, eps, delta)
    A = m.meta["A"]
    assert abs(A - 1.0) <= 3.0 * delta**2
    L_delta = 2.0 * m.L
    assert abs(L_delta - math.pi / eps) <= 7.0 * delta
    for prof in (m.phi, m.f):
        assert c2_ok(prof)


def test_doubled_profiles_reflection_symmetric(family10):
    L = family10.L
    s = np.linspace(0.0, L, 257)
    for prof in (family10.phi, family10.f):
        left = prof.eval(L - s, 0)
        right = prof.eval(L + s, 0)
        assert np.max(np.abs(left - right)) <= 1e-12


def test_kinks(sphere3, gaussian3, family10):
    # L is no kink after a sine or a constant: their even reflections about
    # a point of zero slope are smooth
    assert sphere3.phi.kinks() == []
    assert gaussian3.phi.kinks() == []
    ks = family10.phi.kinks()
    L = family10.L
    assert len(ks) == 8 and ks == sorted(ks)
    assert all(0.0 < k < family10.r_max for k in ks)
    assert L not in ks and family10.phi.segments[-1].kind == CONSTANT
    assert set(family10.phi.junctions()) - {L} <= set(ks)
    assert np.allclose([L + (L - k) for k in ks][::-1], ks, rtol=0.0, atol=1e-15)
    band = family10.phi.segments[1]
    assert band.kind == PL2_BAND
    interior = [band.lo + o for o, _ in band.params["nodes"][1:-1]]
    assert len(interior) == 2 and set(interior) <= set(ks)
    # after a band, whose third derivative flips sign there, L is one
    band_last = RadialProfile((SegmentSpec(PL2_BAND, 0.0, 1.0,
                                           {"left_value": 1.0, "left_slope": -1.0,
                                            "nodes": [(0.0, -1.0), (1.0, 1.0)]}),),
                              reflect_at=1.0)
    assert band_last.kinks() == [1.0]


def test_inflections_are_zeros_of_the_second_derivative(gaussian3, family10):
    assert gaussian3.f.inflections() == []
    assert RadialProfile((SegmentSpec(SINE, 0.0, 4.0),)).inflections() == [math.pi]
    # phi'' = -1 + 2 s on the band, doubled about 1
    band = RadialProfile((SegmentSpec(PL2_BAND, 0.0, 1.0,
                                      {"left_value": 1.0, "left_slope": -1.0,
                                       "nodes": [(0.0, -1.0), (1.0, 1.0)]}),),
                         reflect_at=1.0)
    assert band.inflections() == [0.5, 1.5]
    zs = family10.f.inflections()
    L = family10.L
    assert len(zs) == 2 and zs[0] < L < zs[1]
    assert zs[1] == pytest.approx(L + (L - zs[0]), abs=1e-15)
    assert np.max(np.abs(family10.f.eval(zs, 2))) <= 1e-12
    assert not set(zs) & set(family10.f.kinks())


def test_family_cylinder_warning_recorded():
    m = build_model("family", 3, 0.9, 0.02)
    assert "warning" in m.meta


# -- serialization ----------------------------------------------------------


def test_manifold_json_round_trip(family10):
    d = manifold_to_dict(family10)
    text = json.dumps(d, sort_keys=True)
    m2 = manifold_from_dict(json.loads(text))
    assert manifold_to_dict(m2) == d
    rs = np.linspace(0.0, family10.r_max, 101)
    for order in (0, 1, 2):
        np.testing.assert_array_equal(family10.phi.eval(rs, order),
                                      m2.phi.eval(rs, order))
        np.testing.assert_array_equal(family10.f.eval(rs, order),
                                      m2.f.eval(rs, order))


# -- scalar closures --------------------------------------------------------


@pytest.mark.parametrize("kind", ["gaussian", "round_sphere", "family"])
def test_scalar_fn_equals_eval_on_every_segment(kind):
    m = build_model(kind, 10, 0.8, 0.02)
    for prof in (m.phi, m.f):
        rs = [np.linspace(0.0, prof.r_max, 4001)]
        for seg in prof.segments:
            rs.append(np.linspace(seg.lo, seg.hi, 257))
            if seg.kind == PL2_BAND:
                rs.append(np.array([seg.lo + o for o, _ in seg.params["nodes"]]))
        rs = np.concatenate(rs)
        if prof.reflect_at is not None:
            rs = np.concatenate([rs, prof.r_max - rs])
        rs = np.clip(rs, 0.0, prof.r_max)
        for order in (0, 1, 2):
            fn = prof.scalar_fn(order)
            scalar = np.array([fn(r) for r in rs.tolist()])
            np.testing.assert_array_equal(scalar, prof.eval(rs, order))
            # the per-segment path of check_c2 and build_family, on each
            # segment's own interval (the last one closed at its end)
            for seg in prof.segments:
                own = np.linspace(seg.lo, seg.hi, 257)
                if seg is not prof.segments[-1]:
                    own = own[own < seg.hi]
                fn = seg.closed_form(order, math)
                np.testing.assert_array_equal([fn(r) for r in own.tolist()],
                                              prof.eval(own, order))


@pytest.mark.parametrize("kind", ["gaussian", "round_sphere", "family"])
def test_unchecked_eval_equals_eval(kind):
    # _eval skips eval's domain check and clip; on radii already in
    # [0, r_max] the two give the same bits, at the poles, L and every kink
    # and one ulp to either side of each.  A tuple of orders gives each
    # order's bits, as a call for that order alone does.
    m = build_model(kind, 10, 0.8, 0.02)
    bits = lambda arrays: [a.view(np.int64) for a in arrays]
    for prof in (m.phi, m.f):
        R = prof.r_max
        marks = np.array([0.0, R] + prof.kinks()
                         + ([prof.reflect_at] if prof.reflect_at else []))
        rs = np.concatenate([np.linspace(0.0, R, 4001), marks,
                             np.nextafter(marks, -np.inf), np.nextafter(marks, np.inf)])
        rs = np.clip(rs, 0.0, R)
        for order in (0, 1, 2):
            np.testing.assert_array_equal(prof._eval(rs, order).view(np.int64),
                                          prof.eval(rs, order).view(np.int64))
            assert prof.eval(np.array([]), order).shape == (0,)
        single = bits(prof.eval(rs, o) for o in (0, 1, 2))
        for orders in ((0, 1, 2), (2, 0), (1,)):
            joint = prof.eval(rs, orders)
            assert isinstance(joint, tuple) and len(joint) == len(orders)
            np.testing.assert_array_equal(bits(joint), [single[o] for o in orders])
            np.testing.assert_array_equal(bits(prof._eval(rs, orders)),
                                          [single[o] for o in orders])
        for r in (rs[:1], rs[-1:], np.array([])):
            np.testing.assert_array_equal(bits(prof.eval(r, (0, 1, 2))),
                                          bits(prof.eval(r, o) for o in (0, 1, 2)))
        for bad in (-1e-11, R + 1e-11, math.nan):
            for order in (0, 1, (0, 1, 2)):
                with pytest.raises(DomainError):
                    prof.eval(bad, order)

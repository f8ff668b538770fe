import json
import math
import re

import numpy as np
import pytest

from pinchlab import (ConstructionError, DomainError, RadialProfile,
                      SegmentSpec, build_model, check_c2, doubling_point,
                      manifold_from_dict, manifold_to_dict, solve_smoothing_band)
from pinchlab.profiles import (BAND_INTEGRAL_TOL, C2_TOL, CAP, CONSTANT, DOUBLED_SPHERE,
                               LINEAR, PARABOLA, PL2_BAND, SINE, ManifoldWithDensity, c2_ok,
                               _pl_integral, sorted_unique)


def test_eval_sine_segment():
    prof = RadialProfile((SegmentSpec(SINE, 0.0, math.pi),))
    assert prof(math.pi / 6, 0) == pytest.approx(0.5, abs=1e-15)
    assert prof(math.pi / 6, 2) == pytest.approx(-0.5, abs=1e-15)


def test_eval_band_constant_second_derivative():
    seg = SegmentSpec(PL2_BAND, 0.0, 1.0,
                      {"left_value": 1.0, "left_slope": 0.0,
                       "nodes": [(0.0, 2.0), (1.0, 2.0)]})
    prof = RadialProfile((seg,))
    assert prof(1.0, 0) == pytest.approx(2.0, abs=1e-14)
    assert prof(1.0, 1) == pytest.approx(2.0, abs=1e-14)
    assert prof(0.5, 2) == pytest.approx(2.0, abs=1e-14)


def test_a_profile_starts_at_the_pole():
    # a first segment from 0.5 loaded, and phi(0.2) was its closed form
    # extrapolated; a start within the abutting tolerance of 0 is 0
    with pytest.raises(ConstructionError,
                       match=r"do not abut from r = 0: \[\.\.,0\.0\) then \[0\.5,"):
        RadialProfile((SegmentSpec(LINEAR, 0.5, 5.0),))
    assert RadialProfile((SegmentSpec(LINEAR, 1e-14, 5.0),))(0.2) == 0.2


def test_eval_profile_domain_and_order_errors():
    prof = RadialProfile((SegmentSpec(SINE, 0.0, math.pi),))
    from pinchlab import DomainError
    with pytest.raises(DomainError):
        prof(4.0, 0)
    # an order outside {0, 1, 2} raised IndexError, returned NaN or -sin,
    # or gave f'' for order -1
    for order in (3, -1, (0, 3)):
        with pytest.raises(DomainError, match="order"):
            prof(1.0, order)
        with pytest.raises(DomainError, match="order"):
            prof.eval(np.array([1.0]), order)
    with pytest.raises(DomainError, match="order"):
        prof.scalar_fn(-1)


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


def test_family_potential_band_with_its_plateau_on_the_right():
    # family(3, 0.3, 0.02): f'' rises from -(n-1)(1-eps) = -1.4 to
    # (n-1) eps = 0.6, and 1.4 > 0.6 puts the plateau on the right
    m = build_model("family", 3, 0.3, 0.02)
    nodes = m.f.segments[1].params["nodes"]
    assert nodes[0] == (0.0, -1.4) and nodes[-2][1] == nodes[-1][1] == 0.6
    assert nodes == sorted(nodes) and [d for _, d in nodes] == sorted(d for _, d in nodes)
    assert abs(_pl_integral(nodes)) <= BAND_INTEGRAL_TOL
    assert c2_ok(m.phi) and c2_ok(m.f)


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
    with pytest.raises(ConstructionError, match="dimension n must be at least 2, got nan"):
        build_model("round_sphere", math.nan)
    with pytest.raises(ConstructionError, match="family requires n >= 3, got nan"):
        build_model("family", math.nan, 0.8, 0.02)


@pytest.mark.parametrize("phi, f, message", [
    ((LINEAR, {}), (PARABOLA, {"c0": 0.0, "c1": 1e-8, "c2": 0.5}), "f'(0) = 1e-08"),
    ((PARABOLA, {"c0": 0.0, "c1": 2.0, "c2": 0.0}), (CONSTANT, {"value": 0.0}),
     "phi'(0) = 2.0"),
    ((PARABOLA, {"c0": 1e-3, "c1": 1.0, "c2": 0.0}), (CONSTANT, {"value": 0.0}),
     "phi(0) = 0.001"),
], ids=["f_slope", "cone", "no_point"])
def test_the_constructor_checks_a_model_built_in_code(phi, f, message):
    # the contract holds for a model built in code, not only for profile JSON;
    # a phi that is not positive is test_curvature_sample_domain's case
    profiles = [RadialProfile((SegmentSpec(kind, 0.0, 2.0, params),)) for kind, params in (phi, f)]
    with pytest.raises(ConstructionError) as info:
        ManifoldWithDensity(3, *profiles, CAP)
    assert message in str(info.value)


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


def _band_last():
    # a doubled profile whose last segment is a PL2_BAND
    return RadialProfile((SegmentSpec(PL2_BAND, 0.0, 1.0,
                                      {"left_value": 1.0, "left_slope": -1.0,
                                       "nodes": [(0.0, -1.0), (1.0, 1.0)]}),),
                         reflect_at=1.0)


def _seeded_families(seed, count):
    draw = np.random.default_rng(seed)
    return [build_model("family", int(draw.integers(3, 11)), float(draw.uniform(0.55, 0.9)),
                        float(draw.uniform(0.005, 0.08))) for _ in range(count)]


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
    assert {seg.lo for seg in family10.phi.segments[1:]} <= set(ks)
    assert np.allclose([L + (L - k) for k in ks][::-1], ks, rtol=0.0, atol=1e-15)
    band = family10.phi.segments[1]
    assert band.kind == PL2_BAND
    interior = [band.lo + o for o, _ in band.params["nodes"][1:-1]]
    assert len(interior) == 2 and set(interior) <= set(ks)
    # after a band, whose third derivative flips sign there, L is one
    assert _band_last().kinks() == [1.0]


def test_kinks_equal_a_walk_of_the_segments_and_band_nodes():
    # kinks() reads the starts of the pieces; the junctions and the interior
    # band nodes, walked segment by segment, give the same list
    def walk(prof):
        ks = [s.lo for s in prof.segments[1:]]
        for seg in prof.segments:
            if seg.kind == PL2_BAND:
                ks.extend(seg.lo + o for o, _ in seg.params["nodes"][1:-1])
        L = prof.reflect_at
        if L is not None:
            ks.extend([L + (L - k) for k in ks])
            if prof.segments[-1].kind == PL2_BAND:
                ks.append(L)
        return sorted(k for k in set(ks) if 0.0 < k < prof.r_max)

    models = [build_model("round_sphere", 3), build_model("gaussian", 3),
              build_model("family", 10, 0.8, 0.02), *_seeded_families(43, 12)]
    profiles = [p for m in models for p in (m.phi, m.f)] + [_band_last()]
    for prof in profiles:
        assert prof.kinks() == walk(prof)
    assert sum(len(prof.kinks()) for prof in profiles) > 100


def test_pieces_are_the_smooth_pieces_of_the_segments(family10):
    # a PARABOLA and each PL2_BAND piece are cubics with their value and
    # three derivatives at lo; the pieces abut and cover the segments
    for prof in (family10.phi, family10.f):
        pieces = prof.pieces
        assert pieces is prof.pieces
        bands = [s for s in prof.segments if s.kind == PL2_BAND]
        assert len(pieces) == len(prof.segments) + sum(len(s.params["nodes"]) - 2
                                                      for s in bands)
        assert pieces[0][1] == 0.0 and pieces[-1][2] == prof.segments[-1].hi
        assert all(a[2] == b[1] for a, b in zip(pieces, pieces[1:]))
        for kind, lo, hi, k in pieces:
            if kind != PL2_BAND:
                seg = next(s for s in prof.segments if s.lo <= lo and hi <= s.hi)
                assert kind == seg.kind and k == seg.params.get("value")
                continue
            ds = np.linspace(0.0, hi - lo, 7)[:-1]      # hi belongs to the next piece
            taylor = (k[0] + k[1] * ds + k[2] * ds**2 / 2 + k[3] * ds**3 / 6,
                      k[1] + k[2] * ds + k[3] * ds**2 / 2, k[2] + k[3] * ds)
            for order, want in enumerate(taylor):
                got = prof.eval(lo + ds, order)
                assert np.allclose(got, want, rtol=1e-12, atol=1e-9), (kind, lo, order)
    assert family10.f.pieces[0][0] == PL2_BAND
    assert [p[0] for p in family10.phi.pieces] == [SINE] + [PL2_BAND] * 3 + [CONSTANT]


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


def _json_cap_doc(*phi_segments):
    """A profile JSON cap with these phi segments and f = 0."""
    r_max = phi_segments[-1]["domain"][1]
    return {"n": 3, "topology": "CAP", "phi": {"segments": list(phi_segments)},
            "f": {"segments": [{"kind": "CONSTANT", "domain": [0.0, r_max], "value": 0.0}]}}


LINEAR_TO_1 = {"kind": "LINEAR", "domain": [0.0, 1.0]}


@pytest.mark.parametrize("segments, where", [
    # phi turns negative past a zero inside the PARABOLA and ends at -0.618
    (({"kind": "SINE", "domain": [0.0, 1.0]},
      {"kind": "PARABOLA", "domain": [1.0, 2.0], "c0": math.sin(1.0), "c1": math.cos(1.0),
       "c2": -2.0}), r"phi\(2\.0\) = -0\.618"),
    # positive at both ends, -1 at the vertex
    ((LINEAR_TO_1, {"kind": "PARABOLA", "domain": [1.0, 3.0], "c0": 1.0, "c1": -4.0,
                    "c2": 2.0}), r"phi\(2\.0\) = -1\.0"),
    # sin 3 and sin 6.5 are positive, sin(3 pi / 2) = -1
    (({"kind": "LINEAR", "domain": [0.0, 3.0]}, {"kind": "SINE", "domain": [3.0, 6.5]}),
     r"phi\(4\.712388980384\d*\) = -1\.0"),
    # a PL2_BAND piece with a quadratic slope: 0.08 and 0.013 at its ends,
    # -0.014 at the slope's zero, offset sqrt(0.02)
    ((LINEAR_TO_1, {"kind": "PL2_BAND", "domain": [1.0, 1.2], "left_value": 0.08,
                    "left_slope": -1.0, "nodes": [[0.0, 0.0], [0.2, 20.0]]}),
     r"phi\(1\.1414\d*\) = -0\.014"),
    # zero at the end of a cap, and a vanishing CONSTANT
    ((LINEAR_TO_1, {"kind": "PARABOLA", "domain": [1.0, 2.0], "c0": 1.0, "c1": -1.0,
                    "c2": 0.0}), r"phi\(2\.0\) = 0\.0"),
    ((LINEAR_TO_1, {"kind": "CONSTANT", "domain": [1.0, 2.0], "value": 0.0}),
     r"phi\(1\.0\) = 0\.0"),
    # positive, but phi^2, which divides the curvature, underflows to 0: the
    # float curvature kernel raised ZeroDivisionError
    ((LINEAR_TO_1, {"kind": "CONSTANT", "domain": [1.0, 2.0], "value": 1e-170}),
     r"phi\^2 too, but phi\(1\.0\) = 1e-170"),
], ids=["parabola_end", "parabola_vertex", "sine_trough", "band_slope_zero", "cap_end",
        "constant", "square_underflow"])
def test_json_warping_profile_must_be_positive(segments, where):
    # the least value of each segment is at an end or a zero of its slope,
    # in closed form; a grid would miss the band's 0.2-wide dip
    with pytest.raises(ConstructionError, match=where):
        manifold_from_dict(_json_cap_doc(*segments))


@pytest.mark.parametrize("segments, where", [
    # phi = 1e300 and phi' = 2e300 at the far end: both squares overflow
    ((LINEAR_TO_1, {"kind": "PARABOLA", "domain": [1.0, 2.0], "c0": 1.0, "c1": 1.0,
                    "c2": 1e300}), r"phi\(2\.0\) = 1e\+300 and phi'\(2\.0\) = 2e\+300"),
    # phi^2 stays finite, phi'^2 = 4e308 does not
    ((LINEAR_TO_1, {"kind": "PARABOLA", "domain": [1.0, 2.0], "c0": 1.0, "c1": 1.0,
                    "c2": 1e154}), r"phi'\(2\.0\) = 2e\+154"),
    # phi' vanishes at both ends of the band and is extreme at its
    # inflection, offset 0.5, where it is -1.5e154
    ((LINEAR_TO_1, {"kind": "PL2_BAND", "domain": [1.0, 2.0], "left_value": 1.2e154,
                    "left_slope": 0.0, "nodes": [[0.0, -6e154], [1.0, 6e154]]}),
     r"phi'\(1\.5\) = -1\.5e\+154"),
], ids=["both", "slope", "band_inflection"])
def test_json_warping_profile_squares_must_be_finite(segments, where):
    # (1 - phi'^2) / phi^2 overflowed in the curvature kernel, with numpy
    # warnings and NaN rows; the extremes of phi and phi' are in closed form
    with pytest.raises(ConstructionError, match="phi\\^2 and phi'\\^2 must be finite.*" + where):
        manifold_from_dict(_json_cap_doc(*segments))


@pytest.mark.parametrize("segments, where", [
    # phi jumps from 1 to 2: geodesic carried theta' across the jump and
    # exited 0 with residuals up to 1.26, index exited 0 with index 0
    ((LINEAR_TO_1, {"kind": "CONSTANT", "domain": [1.0, 2.0], "value": 2.0}),
     "at r = 1.0 they jump by 1.0 and 1.0"),
    # phi' alone jumps, from 1 to 0
    ((LINEAR_TO_1, {"kind": "CONSTANT", "domain": [1.0, 2.0], "value": 1.0}),
     "at r = 1.0 they jump by 0.0 and 1.0"),
    # a jump of 2e-9 in phi, at the second of two junctions
    ((LINEAR_TO_1, {"kind": "PARABOLA", "domain": [1.0, 2.0], "c0": 1.0, "c1": 1.0, "c2": 0.0},
      {"kind": "PARABOLA", "domain": [2.0, 3.0], "c0": 2.0 + 2e-9, "c1": 1.0, "c2": 0.0}),
     "at r = 2.0 they jump by 2.0"),
], ids=["value", "slope", "second_junction"])
def test_json_warping_profile_must_be_c1_at_its_junctions(segments, where):
    with pytest.raises(ConstructionError,
                       match=r"^phi and phi' must be continuous at each junction, but "
                             + re.escape(where)):
        manifold_from_dict(_json_cap_doc(*segments))


def test_c1_junctions_within_the_tolerance_pass_and_phi_second_derivative_may_jump():
    # jumps of 5e-10 in phi and phi' are within C2_TOL, and phi'' may jump:
    # LINEAR (phi'' = 0) then PARABOLA (phi'' = 1)
    m = manifold_from_dict(_json_cap_doc(
        LINEAR_TO_1, {"kind": "PARABOLA", "domain": [1.0, 2.0], "c0": 1.0 + 5e-10,
                      "c1": 1.0 - 5e-10, "c2": 0.5}))
    assert [res[3] for res in check_c2(m.phi)] == [1.0]
    # a doubled model whose slope at L is 6e-10 passes: the mirror image
    # doubles it past C2_TOL, but the doubling check holds the slope at L
    c1 = math.cos(1.0)
    m = manifold_from_dict({"n": 3, "topology": "DOUBLED_SPHERE", "L": 2.0, "phi": {"segments": [
        {"kind": "SINE", "domain": [0.0, 1.0]},
        {"kind": "PARABOLA", "domain": [1.0, 2.0], "c0": math.sin(1.0), "c1": c1,
         "c2": (6e-10 - c1) / 2.0}]},
        "f": {"segments": [{"kind": "CONSTANT", "domain": [0.0, 2.0], "value": 0.0}]}})
    assert check_c2(m.phi)[-1][2] > C2_TOL
    # every builtin model and every model of the family joins C1 or better
    for m in (build_model("round_sphere", 3), build_model("gaussian", 3),
              build_model("family", 10, 0.8, 0.02), build_model("family", 3, 0.55, 0.08)):
        assert max((max(res[1:3]) for res in check_c2(m.phi)), default=0.0) <= C2_TOL


def test_a_jump_that_breaks_an_earlier_condition_names_that_one():
    # the junction check runs last: phi^2 underflowing on a CONSTANT of
    # 1e-170 after a LINEAR is named, not the jump of 1 at r = 1
    with pytest.raises(ConstructionError, match=r"phi\^2 too, but phi\(1\.0\) = 1e-170"):
        manifold_from_dict(_json_cap_doc(
            LINEAR_TO_1, {"kind": "CONSTANT", "domain": [1.0, 2.0], "value": 1e-170}))


def test_a_doubled_model_needs_reflected_profiles_that_end_together():
    half = math.pi / 2
    sine, zero = SegmentSpec(SINE, 0.0, half), SegmentSpec(CONSTANT, 0.0, half, {"value": 0.0})
    for phi, f in ((RadialProfile((sine,)), RadialProfile((zero,), reflect_at=half)),
                   (RadialProfile((sine,), reflect_at=half), RadialProfile((zero,)))):
        with pytest.raises(ConstructionError, match="^doubled sphere requires reflected"):
            ManifoldWithDensity(3, phi, f, DOUBLED_SPHERE)
    short = RadialProfile((SegmentSpec(CONSTANT, 0.0, 1.5, {"value": 0.0}),), reflect_at=1.5)
    with pytest.raises(ConstructionError, match=r"^phi and f must end at the same radius, but "
                                                r"phi ends at r = 3\.14\d* and f at r = 3\.0$"):
        ManifoldWithDensity(3, RadialProfile((sine,), reflect_at=half), short, DOUBLED_SPHERE)


@pytest.mark.parametrize("f_segments, f_end", [
    # pinch, curvature and klingenberg exited 2 with "radius outside profile
    # domain [0, 1.0]", naming no model; geodesic and index exited 0
    ([{"kind": "PARABOLA", "domain": [0.0, 1.0], "c0": 0.0, "c1": 0.0, "c2": 0.5}], "1.0"),
    # pinch exited 2 with "radius outside profile domain [0, 2.0]": its grid
    # took f's band radii past phi's end
    ([{"kind": "PARABOLA", "domain": [0.0, 2.5], "c0": 0.0, "c1": 0.0, "c2": 0.5},
      {"kind": "PL2_BAND", "domain": [2.5, 3.0], "left_value": 3.125, "left_slope": 2.5,
       "nodes": [[0.0, 1.0], [0.5, 1.0]]}], "3.0"),
], ids=["f_shorter", "f_band_longer"])
def test_a_cap_needs_phi_and_f_to_end_together(f_segments, f_end):
    doc = {"n": 3, "topology": "CAP", "phi": {"segments": [
        {"kind": "LINEAR", "domain": [0.0, 2.0]}]}, "f": {"segments": f_segments}}
    with pytest.raises(ConstructionError, match=r"^phi and f must end at the same radius, but "
                                                rf"phi ends at r = 2\.0 and f at r = {f_end}$"):
        manifold_from_dict(doc)


def test_a_profile_needs_a_segment():
    with pytest.raises(ConstructionError, match="at least one segment, got none"):
        RadialProfile(())
    with pytest.raises(ConstructionError, match="at least one segment, got none"):
        manifold_from_dict({"n": 3, "topology": "CAP", "phi": {"segments": []},
                            "f": {"segments": []}})


@pytest.mark.parametrize("seed", range(6))
def test_sorted_unique_is_np_unique(seed):
    # presorted runs with repeats, as the pinch and distance grids are
    draw = np.random.default_rng(seed)
    runs = [np.sort(draw.choice(np.linspace(-3.0, 3.0, 61), int(draw.integers(1, 200))))
            for _ in range(int(draw.integers(1, 6)))]
    x = np.concatenate(runs + [draw.normal(size=int(draw.integers(0, 50)))])
    got, want = sorted_unique(x), np.unique(x)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_json_warping_profile_may_vanish_at_the_poles(sphere3, family10):
    # phi = 0 at the pole of every model and at the far pole of a doubled one
    for m in (sphere3, family10, build_model("gaussian", 3, eps=0.5)):
        assert manifold_to_dict(manifold_from_dict(manifold_to_dict(m))) == manifold_to_dict(m)
    # and a vertex 1e-9 above zero passes, on a phi joined C1
    manifold_from_dict(_json_cap_doc(
        LINEAR_TO_1, {"kind": "PARABOLA", "domain": [1.0, 2.0], "c0": 1.0, "c1": 1.0, "c2": -1.0},
        {"kind": "PARABOLA", "domain": [2.0, 4.0], "c0": 1.0, "c1": -1.0,
         "c2": (1.0 + 1e-9) / 4.0}))


# -- scalar closures --------------------------------------------------------


@pytest.mark.parametrize("kind", ["gaussian", "round_sphere", "family", "band_last"])
def test_scalar_fn_equals_eval_on_every_segment(kind):
    if kind == "band_last":
        profiles = (_band_last(),)
    else:
        m = build_model(kind, 10, 0.8, 0.02)
        profiles = (m.phi, m.f)

    for prof in profiles:
        rs = [np.linspace(0.0, prof.r_max, 4001)]
        for seg in prof.segments:
            rs.append(np.linspace(seg.lo, seg.hi, 257))
            if seg.kind == PL2_BAND:
                rs.append(np.array([seg.lo + o for o, _ in seg.params["nodes"]]))
        rs = np.concatenate(rs)
        if prof.reflect_at is not None:
            rs = np.concatenate([rs, prof.r_max - rs])
        rs = np.clip(rs, 0.0, prof.r_max)
        hexes = lambda values: [float(v).hex() for v in values]
        for order in (0, 1, 2):
            scalar_fn = prof.scalar_fn(order)
            want = prof.eval(rs, order)
            np.testing.assert_array_equal([scalar_fn(r) for r in rs.tolist()], want)
            # the checked float reader, on every segment and both sides of L
            assert hexes(prof(r, order) for r in rs.tolist()) == hexes(want)
            # each segment's float triple (the reads of check_c2, build_family
            # and _check_positive) and its array form (eval's), on the
            # segment's own interval (the last one closed at its end)
            for seg in prof.segments:
                own = np.linspace(seg.lo, seg.hi, 257)
                if seg is not prof.segments[-1]:
                    own = own[own < seg.hi]
                floats = [seg._triple(r)[order] for r in own.tolist()]
                want = prof.eval(own, order)
                assert hexes(floats) == hexes(want)
                # up to L the segment's triple is scalar_fn's, bit for bit
                assert hexes(floats) == hexes(scalar_fn(r) for r in own.tolist())
                arrays = seg._array_form((order,))(own)[0]
                assert hexes(np.broadcast_to(arrays, own.shape)) == hexes(want)
        # a tuple of orders reads a tuple of floats, each with eval's bits
        joint = [prof(r, (0, 1, 2)) for r in rs.tolist()]
        assert all(type(v) is float for row in joint for v in row)
        assert [hexes(col) for col in zip(*joint)] == [hexes(col)
                                                       for col in prof.eval(rs, (0, 1, 2))]


@pytest.mark.parametrize("kind", ["gaussian", "round_sphere", "family"])
def test_call_on_one_radius_reads_scalar_fn(kind):
    # prof(r, order) on one radius clips it as eval does, then reads
    # scalar_fn: a float for an int order, a tuple of floats for a tuple
    m = build_model(kind, 10, 0.8, 0.02)
    for prof in (m.phi, m.f):
        R = prof.r_max
        got = prof(1.0, (0, 1))
        assert type(got) is tuple and got == prof.scalar_fn((0, 1))(1.0)
        # LINEAR and PARABOLA forms give np.float64 on one np.float64
        assert type(prof(np.float64(1.0), 1)) is float
        assert all(type(v) is float for v in prof(np.float64(1.0), (0, 1, 2)))
        assert prof(-1e-13, (0, 1, 2)) == prof(0.0, (0, 1, 2))
        assert prof(R + 1e-13, (0, 1, 2)) == prof(R, (0, 1, 2))
        for bad in (math.nan, -1e-11, R + 1e-11):
            for order in (0, 1, (0, 1, 2)):
                with pytest.raises(DomainError, match="outside profile domain"):
                    prof(bad, order)


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


def _json_cap():
    # a cap whose phi is LINEAR then PARABOLA and whose f is PARABOLA then
    # LINEAR, as a profile JSON file can give it
    return manifold_from_dict({"n": 3, "topology": "CAP", "phi": {"segments": [
        {"kind": "LINEAR", "domain": [0.0, 1.0]},
        {"kind": "PARABOLA", "domain": [1.0, 6.0], "c0": 1.0, "c1": 1.0, "c2": -0.05}]},
        "f": {"segments": [
            {"kind": "PARABOLA", "domain": [0.0, 2.5], "c0": 0.0, "c1": 0.0, "c2": 0.5},
            {"kind": "LINEAR", "domain": [2.5, 6.0]}]}})


def test_joint_scalar_fn_equals_one_order_at_a_time():
    # a tuple of orders gives each order's bits from one reflection and one
    # segment search: on SINE, LINEAR, CONSTANT, PARABOLA and PL2_BAND
    # segments, at every junction and band node, at L and on both sides of
    # it (also after a PL2_BAND), and one ulp to either side of each of
    # these radii
    models = [build_model("round_sphere", 3), build_model("gaussian", 3),
              *_seeded_families(41, 20), _json_cap()]
    kinds = set()
    for i, prof in enumerate([p for m in models for p in (m.phi, m.f)] + [_band_last()]):
        R, L = prof.r_max, prof.reflect_at
        marks = [0.0, R, *(seg.lo for seg in prof.segments[1:])]
        if L is not None:
            marks.append(L)
        for seg in prof.segments:
            kinds.add(seg.kind)
            if seg.kind == PL2_BAND:
                marks += [seg.lo + o for o, _ in seg.params["nodes"]]
        if L is not None:
            marks += [L + (L - x) for x in marks]
        marks = np.array(marks)
        rs = np.concatenate([np.linspace(0.0, R, 301), marks,
                             np.nextafter(marks, -np.inf), np.nextafter(marks, np.inf)])
        rs = np.clip(rs, 0.0, R).tolist()
        if L is not None:
            assert min(rs) < L < max(rs)
        one = [prof.scalar_fn(o) for o in (0, 1, 2)]
        for orders in ((0, 1), (0, 1, 2), (2, 0), (1,)):
            joint = prof.scalar_fn(orders)
            for r in rs:
                got = joint(r)
                assert isinstance(got, tuple)
                assert [v.hex() for v in got] == [one[o](r).hex() for o in orders], \
                    (i, orders, r)
    assert kinds == {SINE, LINEAR, CONSTANT, PARABOLA, PL2_BAND}
    for bad in ((0, 3), (-1, 1), (1, 2.5)):
        with pytest.raises(DomainError, match="order"):
            models[0].phi.scalar_fn(bad)

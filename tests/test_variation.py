import json
import math

import numpy as np
import pytest

from pinchlab import (DomainError, IntegrationError, berger_test_field,
                      build_model, geodesic_index, jacobi_conjugate_points,
                      line_integral, loop_index_check, second_variation,
                      shoot)
from pinchlab.variation import (RICCI, SEC_PERP, _path_breakpoints,
                                path_curvature, quad_piecewise)

K_ONE = lambda t: np.ones_like(np.asarray(t, dtype=float))
K_ZERO = lambda t: np.zeros_like(np.asarray(t, dtype=float))


# -- Berger test field ------------------------------------------------------


def test_berger_field_minimal_length():
    f = berger_test_field(math.pi)
    assert f.value(0.0) == pytest.approx(0.0)
    assert float(f.value(math.pi / 2)) == pytest.approx(1.0)
    assert float(f.value(math.pi)) == pytest.approx(0.0, abs=1e-15)


def test_berger_field_plateau():
    f = berger_test_field(1.5 * math.pi)
    assert float(f.value(0.75 * math.pi)) == 1.0
    assert float(f.derivative(0.75 * math.pi)) == 0.0


def test_berger_field_square_integral():
    f = berger_test_field(1.5 * math.pi)
    val = quad_piecewise(lambda t: f.value(t) ** 2, 0.0, f.total_length,
                         f.breakpoints)
    assert val == pytest.approx(math.pi, abs=1e-10)


def test_berger_field_rejects_short_length():
    with pytest.raises(DomainError):
        berger_test_field(0.9 * math.pi)


def test_berger_sine_pieces_cancel():
    # int (psi')^2 - psi^2 over each quarter-sine piece is 0
    f = berger_test_field(1.5 * math.pi)
    g = lambda t: f.derivative(t) ** 2 - f.value(t) ** 2
    assert quad_piecewise(g, 0.0, math.pi / 2) == pytest.approx(0.0, abs=1e-10)
    assert quad_piecewise(g, f.total_length - math.pi / 2, f.total_length) \
        == pytest.approx(0.0, abs=1e-10)


def test_quad_piecewise_raises_unless_kink_is_a_node():
    f = lambda t: 1e3 * np.abs(t - 0.3)
    with pytest.raises(IntegrationError, match=r"\[0\.0, 1\.0\].*tol 1e-09") as err:
        quad_piecewise(f, 0.0, 1.0)
    assert err.value.reached == 0.0
    assert quad_piecewise(f, 0.0, 1.0, [0.3]) == pytest.approx(290.0, abs=1e-9)


# -- second variation -------------------------------------------------------


def test_second_variation_jacobi_field_is_null():
    val = second_variation(K_ONE, (np.sin, np.cos), length=math.pi)
    assert val == pytest.approx(0.0, abs=1e-6)


def test_second_variation_berger_on_sphere():
    val = second_variation(K_ONE, berger_test_field(1.5 * math.pi))
    assert val == pytest.approx(-math.pi / 2, abs=1e-6)


def test_second_variation_flat_space_positive():
    # int (psi')^2 dt for psi = sin(pi t / 2) on [0, 2] is pi^2/4
    psi = (lambda t: np.sin(np.pi * t / 2),
           lambda t: np.pi / 2 * np.cos(np.pi * t / 2))
    val = second_variation(K_ZERO, psi, length=2.0)
    assert val == pytest.approx(math.pi**2 / 4, abs=1e-8)
    assert val > 0


def test_second_variation_requires_length_for_user_field():
    with pytest.raises(DomainError):
        second_variation(K_ZERO, (np.sin, np.cos))


# -- line integrals ---------------------------------------------------------


def test_sphere_meridian_ricci_integral(sphere3):
    path = shoot(sphere3, 0.0, 0.0, math.pi)
    assert line_integral(sphere3, path, RICCI) == pytest.approx(2 * math.pi,
                                                                abs=1e-8)


def test_gaussian_radial_ricci_integral(gaussian3):
    path = shoot(gaussian3, 0.0, 0.0, 5.0)
    assert line_integral(gaussian3, path, RICCI) == pytest.approx(0.0,
                                                                  abs=1e-10)


def test_family_meridian_sec_perp(family10):
    path = shoot(family10, 0.0, 0.0, 2 * family10.L)
    val = line_integral(family10, path, SEC_PERP)
    # int -phi''/phi over the doubled profile: pi up to O(delta) band terms
    assert val == pytest.approx(math.pi, abs=0.01)
    # independent oracle: quadrature of -phi''/phi in the radial coordinate
    from pinchlab.variation import quad_piecewise as qp
    f = lambda r: -family10.phi.eval(r, 2) / family10.phi.eval(r, 0)
    # phi vanishes at the poles; -phi''/phi = 1 on the sine caps, so each
    # trimmed end piece of width 1e-9 contributes exactly 1e-9
    oracle = qp(f, 1e-9, 2 * family10.L - 1e-9, family10.phi.kinks()) + 2e-9
    assert val == pytest.approx(oracle, abs=1e-9)


@pytest.mark.parametrize("loops, budget", [(2, 2000), (4, 4000)])
def test_family_meridian_integral_evaluates_few_points(family10, monkeypatch,
                                                       loops, budget):
    # every kink of phi is a forced node, so each subinterval converges
    # after a few doublings
    import pinchlab.variation as variation
    seen = [0]
    inner = variation.path_curvature

    def counting(*args, **kwargs):
        K = inner(*args, **kwargs)

        def counted(t):
            seen[0] += np.size(t)
            return K(t)
        return counted

    monkeypatch.setattr(variation, "path_curvature", counting)
    path = shoot(family10, 0.0, 0.0, loops * family10.L)
    val = line_integral(family10, path, SEC_PERP)
    assert 0 < seen[0] <= budget
    assert val == pytest.approx(loops / 2 * math.pi, abs=1e-8)


def test_equator_ricci_integral(sphere3):
    path = shoot(sphere3, math.pi / 2, math.pi / 2, 1.0)
    assert line_integral(sphere3, path, RICCI) == pytest.approx(2.0, abs=1e-7)


# -- Jacobi conjugate points ------------------------------------------------


def test_jacobi_constant_curvature():
    zeros = jacobi_conjugate_points(K_ONE, 1.5 * math.pi)
    assert len(zeros) == 1
    assert zeros[0] == pytest.approx(math.pi, abs=1e-8)


def test_jacobi_flat():
    assert jacobi_conjugate_points(K_ZERO, 10.0) == []


def test_jacobi_family_meridian_endpoint_zero(family10):
    # the Jacobi field from the pole is proportional to phi: no interior
    # zero before 2L, and the first zero sits at 2L
    L2 = 2 * family10.L
    path = shoot(family10, 0.0, 0.0, L2 + 0.2)
    from pinchlab.variation import path_curvature
    K = path_curvature(family10, path, SEC_PERP, "slice")
    zeros = jacobi_conjugate_points(K, L2 + 0.2)
    assert len(zeros) == 1
    assert zeros[0] == pytest.approx(L2, abs=1e-6)
    interior = jacobi_conjugate_points(K, L2)
    assert interior == []


# -- geodesic index ---------------------------------------------------------


@pytest.mark.parametrize("frac,expected", [(0.9, 0), (1.5, 2), (1.9, 2)])
def test_sphere_arc_index(sphere3, frac, expected):
    path = shoot(sphere3, 0.0, 0.0, frac * math.pi)
    res = geodesic_index(sphere3, path)
    assert res.index == expected
    assert res.cross_check_agree
    if expected:
        assert res.conjugate_points[0] == pytest.approx(math.pi, abs=1e-8)
        assert res.multiplicity == 2


def test_flat_segment_index(gaussian3):
    res = geodesic_index(gaussian3, shoot(gaussian3, 0.0, 0.0, 10.0))
    assert res.index == 0
    assert res.cross_check_agree


def test_family_meridian_index(family10):
    res = geodesic_index(family10, shoot(family10, 0.0, 0.0, 2 * family10.L))
    assert res.index == 0
    assert res.cross_check_agree


def test_non_meridian_index_classes(sphere3):
    path = shoot(sphere3, math.pi / 2, math.pi / 2, 1.5 * math.pi)
    res = geodesic_index(sphere3, path)
    assert set(res.classes) == {"slice", "fiber"}
    assert res.index == 2
    assert res.cross_check_agree


def test_index_json_schema(sphere3):
    path = shoot(sphere3, 0.0, 0.0, 1.5 * math.pi)
    res = geodesic_index(sphere3, path)
    doc = json.loads(res.to_json(length=path.length))
    assert set(doc) == {"length", "multiplicity", "conjugate_points",
                        "index", "method", "cross_check_agree"}
    assert doc["method"] == "JACOBI_ZEROS"
    assert doc["cross_check_agree"] is True


# -- loop index check -------------------------------------------------------


def test_family_loop_check(family10_sec):
    m = family10_sec
    loop = shoot(m, 0.0, 0.0, 4 * m.L)
    rep = loop_index_check(m, loop)
    assert rep["length"] == pytest.approx(4 * m.L)
    assert rep["threshold"] == pytest.approx(math.pi / 0.8)
    for val in rep["sec_integral_per_direction"].values():
        assert val >= 0.8 * 4 * m.L - 1e-6
        assert val > math.pi
    assert rep["index"] >= 9
    assert rep["lemma_satisfied"]
    assert rep["status"] == "SATISFIED"


def test_sphere_loop_check(sphere3):
    loop = shoot(sphere3, 0.0, 0.0, 2 * math.pi)
    rep = loop_index_check(sphere3, loop, eps=0.9)
    assert rep["applicable"]
    assert rep["index"] >= 2
    assert rep["lemma_satisfied"]


def test_short_loop_not_applicable(family10):
    loop = shoot(family10, 0.0, 0.0, 2 * family10.r_max)  # length 4L
    # with a tiny eps the threshold exceeds the loop length
    rep = loop_index_check(family10, loop, eps=0.4)
    assert not rep["applicable"]
    assert rep["status"] == "NOT_APPLICABLE"
    assert rep["lemma_satisfied"]


def test_loop_check_requires_pole_base(family10):
    path = shoot(family10, 1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        loop_index_check(family10, path)


# -- scalar and vector curvature along paths --------------------------------


def _paths(m):
    """Meridians through both poles and L, and two non-meridian launches."""
    if m.topology == "CAP":
        return [shoot(m, 0.0, 0.0, 6.0), shoot(m, 4.0, math.pi, 6.0),
                shoot(m, 1.0, 0.7, 6.0), shoot(m, 2.0, -2.5, 3.0)]
    R = m.r_max
    return [shoot(m, 0.0, 0.0, R + 0.2), shoot(m, 1.0, math.pi, 2.0 * R),
            shoot(m, 1.0, 0.7, 4.0), shoot(m, R - 0.5, -2.5, 3.0)]


@pytest.mark.parametrize("kind", ["gaussian", "round_sphere", "family"])
def test_scalar_K_matches_vector_K(kind):
    m = build_model(kind, 10, 0.8, 0.02)
    for path in _paths(m):
        ts = np.unique(np.concatenate([np.linspace(0.0, path.length, 3001),
                                       _path_breakpoints(m, path)]))
        for integrand, direction in ((RICCI, "fiber"), (SEC_PERP, "slice"),
                                     (SEC_PERP, "fiber")):
            K = path_curvature(m, path, integrand, direction)
            vector = K(ts)
            scalar = np.array([K(t) for t in ts.tolist()])
            assert all(isinstance(K(t), float) for t in ts[:3].tolist())
            ulp = np.spacing(np.maximum(np.abs(vector), np.abs(scalar)))
            assert np.all(np.abs(scalar - vector) <= 4 * ulp), (integrand, direction)


def test_jacobi_rejects_bad_length():
    for length in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(DomainError):
            jacobi_conjugate_points(K_ONE, length)


def test_jacobi_raises_on_non_finite_curvature():
    with pytest.raises(IntegrationError):
        jacobi_conjugate_points(lambda t: math.nan if t > 0.5 else 1.0, 2.0)


def test_jacobi_raises_when_solver_fails(monkeypatch):
    import pinchlab.variation as variation

    class Failed:
        success, message, t = False, "step size too small", np.array([0.0, 0.3])

    monkeypatch.setattr(variation, "solve_ivp", lambda *a, **k: Failed())
    with pytest.raises(IntegrationError):
        jacobi_conjugate_points(K_ONE, 1.0)

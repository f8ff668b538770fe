import math

import numpy as np
import pytest

from pinchlab import (DomainError, SearchError, build_model,
                      criticality_certificate, distance, farthest_from_pole,
                      inj_at_pole, jacobi_conjugate_points, path_kinks, shoot)
from pinchlab.variation import JACOBI_ZERO_TOL, SEC_PERP, path_curvature


def sphere_oracle(p, q):
    r1, t1 = p
    r2, t2 = q
    c = (math.cos(r1) * math.cos(r2)
         + math.sin(r1) * math.sin(r2) * math.cos(t2 - t1))
    return math.acos(max(-1.0, min(1.0, c)))


# -- shooting ---------------------------------------------------------------


def test_equator_geodesic(sphere3):
    path = shoot(sphere3, math.pi / 2, math.pi / 2, 1.0)
    ts = np.linspace(0.0, 1.0, 33)
    r, _, _, _ = path.state(ts)
    assert np.max(np.abs(np.asarray(r) - math.pi / 2)) <= 1e-9
    assert path.clairaut_c == pytest.approx(1.0, abs=1e-12)


def test_flat_straight_line_oracle(gaussian3):
    path = shoot(gaussian3, 1.0, math.pi / 2, 2.0)
    r_end = float(path.state(2.0)[0])
    assert r_end == pytest.approx(math.sqrt(5.0), abs=1e-9)
    ts = np.linspace(0.0, 2.0, 65)
    r, _, _, _ = path.state(ts)
    np.testing.assert_allclose(np.asarray(r), np.sqrt(1.0 + ts**2), atol=1e-9)


def test_meridian_from_pole(family10):
    path = shoot(family10, 0.0, 0.0, 1.0)
    assert path.meridian
    assert path.clairaut_c == 0.0
    r, _, _, _ = path.state(0.7)
    assert float(r) == pytest.approx(0.7, abs=1e-15)


def test_meridian_pole_passage(family10):
    # past the far pole the meridian comes back down the other side
    path = shoot(family10, 0.0, 0.0, 2 * family10.r_max)
    L2 = family10.r_max
    assert float(path.state(L2)[0]) == pytest.approx(L2, abs=1e-12)
    assert float(path.state(L2 + 0.5)[0]) == pytest.approx(L2 - 0.5, abs=1e-12)
    assert float(path.state(2 * L2)[0]) == pytest.approx(0.0, abs=1e-12)


def test_shoot_rejects_bad_launch(sphere3):
    with pytest.raises(DomainError):
        shoot(sphere3, 0.0, 0.5, 1.0)      # non-meridian launch from the pole
    with pytest.raises(DomainError):
        shoot(sphere3, 1.0, 0.5, -1.0)
    for r0, alpha, T in ((1.0, 0.5, math.nan), (1.0, 0.5, math.inf),
                         (0.0, 0.0, math.nan), (math.nan, 0.5, 1.0),
                         (1.0, math.nan, 1.0)):
        with pytest.raises(DomainError):
            shoot(sphere3, r0, alpha, T)
    with pytest.raises(DomainError, match=r"bound 100 r_max = 314\.159"):
        shoot(sphere3, 1.0, 0.5, 1e7)


def test_float_state_equals_dense_output_bits(family10, monkeypatch):
    # a float t is answered in float arithmetic; it must give the bits of
    # scipy's dense output at every t, step boundaries and both ends included
    import pinchlab.geodesics as geodesics
    solved = []
    inner = geodesics.solve_ivp

    def keeping(*args, **kwargs):
        solved.append(inner(*args, **kwargs))
        return solved[-1]

    monkeypatch.setattr(geodesics, "solve_ivp", keeping)
    rng = np.random.default_rng(5)
    R = family10.r_max
    for r0, alpha, T in ((1.0, 0.7, 4.0), (R - 0.5, -2.5, 3.0),
                         (0.5941844090111834, 0.849237945176744, 6.0)):
        path = shoot(family10, r0, alpha, T)
        sol = solved[-1].sol
        ts = np.concatenate([rng.uniform(0.0, T, 1000), sol.ts, [0.0, T]])
        scalar = np.array([path.state(t) for t in ts.tolist()])
        assert all(type(v) is float for v in path.state(float(ts[0])))
        assert np.array_equal(scalar.view(np.int64), sol(ts).T.view(np.int64))


def test_conservation_residuals_random_launches(sphere3, gaussian3, family10):
    rng = np.random.default_rng(42)
    for m in (sphere3, gaussian3, family10):
        for _ in range(25):
            hi = min(m.r_max, 10.0)
            r0 = rng.uniform(0.1 * hi, 0.9 * hi)
            alpha = rng.uniform(0.05, math.pi - 0.05)
            T = rng.uniform(0.5, 2.5)
            path = shoot(m, r0, alpha, T)
            assert path.clairaut_residual <= 1e-8
            assert path.speed_residual <= 1e-8


def test_geodesic_csv_dump(sphere3, tmp_path):
    path = shoot(sphere3, 1.0, 0.7, 1.5)
    out = tmp_path / "geo.csv"
    path.dump_csv(str(out))
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,r,theta,rdot,clairaut_residual,speed_residual"
    assert len(lines) == len(path.samples) + 1
    last = [float(x) for x in lines[-1].split(",")]
    assert last[4] <= 1e-8 and last[5] <= 1e-8


# -- distance ---------------------------------------------------------------


def test_pole_distance_is_meridian(family10):
    d, paths = distance(family10, (0.0, 0.0), (1.2, 0.3))
    assert d == pytest.approx(1.2, abs=1e-12)
    assert len(paths) == 1 and paths[0].meridian


def test_pole_paths_run_from_p_to_q(family10):
    # f' vanishes at both poles, so g(X, gdot) read at a pole q is 0
    R = family10.r_max
    p = (1.0, 0.2)
    for a, b in ((p, (0.0, 0.0)), ((0.0, 0.0), p), (p, (R, 0.0)), ((R, 0.0), p)):
        _, paths = distance(family10, a, b)
        assert len(paths) == 1
        path = paths[0]
        assert path.state(0.0)[0] == pytest.approx(a[0], abs=1e-12)
        assert path.state(path.length)[0] == pytest.approx(b[0], abs=1e-12)
        if b != p:
            cert = criticality_certificate(family10, a, b)
            assert abs(cert.min_inner) <= 1e-12


def test_distance_meridian_candidates(family10, sphere3):
    R = family10.r_max
    cases = ((family10, (1.0, 0.3), (2.5, 0.3), 1.5),
             (family10, (3.0, 0.3), (2.5, 0.3 - math.pi), 2 * R - 5.5),  # south pole
             (sphere3, (1.0, 0.0), (2.0, math.pi), 3.0))                 # north pole
    for m, p, q, want in cases:
        d, paths = distance(m, p, q)
        assert d == pytest.approx(want, abs=1e-12)
        assert len(paths) == 1 and paths[0].meridian
        r_end, _, th_end, _ = paths[0].state(paths[0].length)
        assert r_end == pytest.approx(q[0], abs=1e-12)
        assert math.remainder(th_end - q[1], 2 * math.pi) == pytest.approx(0.0, abs=1e-12)


def test_round_sphere_equator_distance(sphere3):
    d, _ = distance(sphere3, (math.pi / 2, 0.0), (math.pi / 2, 1.0))
    assert d == pytest.approx(1.0, abs=1e-6)


def test_pole_to_pole_family(family10):
    d, _ = distance(family10, (0.0, 0.0), (family10.r_max, 0.0))
    assert d == pytest.approx(3.866991, abs=1e-6)


def test_round_sphere_distance_oracle_random_pairs(sphere3):
    rng = np.random.default_rng(3)
    for _ in range(200):
        p = (rng.uniform(0.05, math.pi - 0.05), rng.uniform(-math.pi, math.pi))
        q = (rng.uniform(0.05, math.pi - 0.05), rng.uniform(-math.pi, math.pi))
        d, _ = distance(sphere3, p, q, return_paths=False)
        assert d == pytest.approx(sphere_oracle(p, q), abs=1e-6)


def test_gaussian_distance_flat_oracle(gaussian3):
    rng = np.random.default_rng(4)
    for _ in range(50):
        p = (rng.uniform(0.2, 5.0), rng.uniform(-math.pi, math.pi))
        q = (rng.uniform(0.2, 5.0), rng.uniform(-math.pi, math.pi))
        oracle = math.sqrt(p[0]**2 + q[0]**2
                           - 2 * p[0] * q[0] * math.cos(q[1] - p[1]))
        d, _ = distance(gaussian3, p, q, return_paths=False)
        assert d == pytest.approx(oracle, abs=1e-6)


def test_distance_symmetry(family10):
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = (rng.uniform(0.1, family10.r_max - 0.1), rng.uniform(-3, 3))
        q = (rng.uniform(0.1, family10.r_max - 0.1), rng.uniform(-3, 3))
        d1, _ = distance(family10, p, q, return_paths=False)
        d2, _ = distance(family10, q, p, return_paths=False)
        assert d1 == pytest.approx(d2, abs=1e-6)


# float.hex of distance(m, p, q) as computed before the search moved onto
# float closures and shared arc integrals; the search must keep every bit.
# Family pairs on family(10, 0.8, 0.02) (index 0) and family(6, 0.75, 0.03)
# (index 1), each in both directions.  The first p -> q value moved by
# +5.9e-11 when the warping band's ramp width became a closed form, because
# the band's nodes moved in their last digits.
PINNED_FAMILY = (
    (0, (2.34, 2.38), (2.83, -1.65), "0x1.0f133b41e4268p+1", "0x1.0f133b41d6f3dp+1"),
    (0, (2.9, -0.19), (1.29, -1.33), "0x1.f44456fd12eefp+0", "0x1.f44456fd13071p+0"),
    (1, (0.42, 0.09), (1.93, 2.5), "0x1.1c597b680b8acp+1", "0x1.1c597b680b8acp+1"),
    (1, (1.59, -2.98), (3.2, -2.07), "0x1.d50e8780be3d2p+0", "0x1.d50e8780be3d2p+0"),
)
# pairs drawn with default_rng(6): sphere radii in (0.05, pi - 0.05),
# Gaussian radii in (0.2, 5), angles in (-pi, pi)
PINNED_SPHERE = (
    ((1.686876737860978, -0.9847581679958686), (1.1725522052422852, -0.788560078461733),
     "0x1.19131b19e6c36p-1"),
    ((3.053405427975202, 0.8341322614811477), (2.101018713162262, -1.0683711188056741),
     "0x1.123e404888588p+0"),
    ((2.1180325632424446, -2.3689344345096206), (0.20733925197769287, 2.200317124970402),
     "0x1.11350402e58f1p+1"),
)
PINNED_GAUSSIAN = (
    ((2.7831888870653274, -0.9847581679958686), (1.9715227510178155, -0.788560078461733),
     "0x1.dd61c631556dep-1"),
    ((4.93973595289504, 0.8341322614811477), (3.4367548664215692, -1.0683711188056741),
     "0x1.b804888bb8e94p+2"),
    ((3.4636047735873072, -2.3689344345096206), (0.448300313522121, 2.200317124970402),
     "0x1.c715c18c818f3p+1"),
)


def test_distance_bits_pinned(family10, sphere3, gaussian3):
    fams = (family10, build_model("family", 6, 0.75, 0.03))
    for k, p, q, pq, qp in PINNED_FAMILY:
        assert distance(fams[k], p, q, return_paths=False)[0].hex() == pq
        assert distance(fams[k], q, p, return_paths=False)[0].hex() == qp
    for m, pinned in ((sphere3, PINNED_SPHERE), (gaussian3, PINNED_GAUSSIAN)):
        for p, q, d in pinned:
            assert distance(m, p, q, return_paths=False)[0].hex() == d


def test_distance_above_broken_path_raises():
    # The search misses the turn_lo minimizer just below the fold
    # c = phi(r1) and finds only a turn_hi geodesic of length 5.014685,
    # twice the path through the north pole (r1 + r2 = 2.579162).  A fold
    # fix that brackets across the join of direct and turn_lo will make
    # this pair return 2.2550119638566 instead of raising.
    m = build_model("family", 4, 0.8388910574360728, 0.027451879604040195)
    p = (0.37070086839835403, -0.29685276869587796)
    q = (2.2084615704061545, 1.5220917279130264)
    for a, b in ((p, q), (q, p)):
        with pytest.raises(SearchError, match=r"5\.0146.*2\.5791624388045"):
            distance(m, a, b, return_paths=False)


def test_realizing_path_hits_target(sphere3):
    p, q = (1.0, 0.0), (2.0, 1.3)
    d, paths = distance(sphere3, p, q)
    assert paths
    path = paths[0]
    r_end, _, th_end, _ = path.state(path.length)
    assert float(r_end) == pytest.approx(q[0], abs=1e-5)
    assert math.cos(float(th_end) - q[1]) == pytest.approx(1.0, abs=1e-5)


# -- injectivity radius / farthest point ------------------------------------


def test_inj_at_pole_round_sphere(sphere3):
    assert inj_at_pole(sphere3) == pytest.approx(math.pi, abs=1e-8)


def test_inj_at_pole_family(family10):
    assert inj_at_pole(family10) == pytest.approx(3.866991, abs=1e-6)


def test_inj_at_pole_is_first_jacobi_zero(sphere3, family10):
    # oracle: the Jacobi solve along the pole meridian, past the far pole
    for m in (sphere3, family10):
        assert inj_at_pole(m) == m.r_max
        path = shoot(m, 0.0, 0.0, m.r_max + 0.2)
        K = path_curvature(m, path, SEC_PERP, "slice")
        zeros = jacobi_conjugate_points(K, path.length, breakpoints=path_kinks(m, path))
        assert abs(zeros[0] - m.r_max) <= JACOBI_ZERO_TOL


def test_inj_at_pole_cap_is_infinite(gaussian3):
    assert inj_at_pole(gaussian3) == math.inf


def test_farthest_from_pole(sphere3, family10):
    q, d = farthest_from_pole(sphere3)
    assert d == math.pi
    assert q == (math.pi, 0.0)
    q, d = farthest_from_pole(family10)
    assert d == 2 * family10.L
    assert q == (2 * family10.L, 0.0)


def test_distance_rejects_nan_radius(family10):
    for p, q in (((math.nan, 0.0), (1.0, 1.0)), ((1.0, 1.0), (math.nan, 0.0))):
        with pytest.raises(DomainError):
            distance(family10, p, q)


def test_farthest_from_pole_cap_errors(gaussian3):
    with pytest.raises(DomainError):
        farthest_from_pole(gaussian3)


def test_inj_equals_farthest_on_builtin_models(sphere3, family10):
    for m in (sphere3, family10):
        assert inj_at_pole(m) == pytest.approx(farthest_from_pole(m)[1],
                                               abs=1e-6)


def test_family_inj_delta_sweep_converges():
    eps = 0.8
    prev_gap = None
    for delta in (0.08, 0.04, 0.02, 0.01):
        m = build_model("family", 10, eps, delta)
        inj = inj_at_pole(m)
        gap = abs(inj - math.pi / eps)
        assert gap <= 7.0 * delta
        if prev_gap is not None:
            assert gap < prev_gap
        prev_gap = gap

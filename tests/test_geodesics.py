import hashlib
import io
import json
import math

import numpy as np
import pytest

from pinchlab import (ConstructionError, DomainError, IntegrationError, SearchError, build_model,
                      criticality_certificate, distance, farthest_from_pole,
                      inj_at_pole, jacobi_conjugate_points, shoot)
from pinchlab.geodesics import _Geometry, kink_crossings
from pinchlab.profiles import (DOUBLED_SPHERE, PL2_BAND, SegmentSpec, load_manifold,
                               manifold_from_dict)
from pinchlab.variation import JACOBI_ZERO_TOL, SEC_PERP, path_curvature


def sphere_oracle(p, q):
    # atan2(|u x v|, u . v) of the unit vectors: float-stable at every angle,
    # where acos of the spherical law of cosines loses half the digits near
    # 0 and pi
    u, v = (np.array([math.sin(r) * math.cos(t), math.sin(r) * math.sin(t), math.cos(r)])
            for r, t in (p, q))
    return math.atan2(float(np.linalg.norm(np.cross(u, v))), float(u @ v))


def flat_oracle(p, q):
    return math.hypot(p[0] * math.cos(p[1]) - q[0] * math.cos(q[1]),
                      p[0] * math.sin(p[1]) - q[0] * math.sin(q[1]))


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


def test_shoot_rejects_a_launch_off_the_meridians_from_the_far_pole(sphere3, family10):
    # theta_dot = sin(alpha) / phi(r0), and phi vanishes at r_max too; this
    # raised ZeroDivisionError.  The domain check admits r_max + 1e-12.
    for m in (sphere3, family10):
        R = m.r_max
        for r0 in (R, R - 0.5e-12, R + 1e-13):
            with pytest.raises(DomainError, match="pole"):
                shoot(m, r0, 0.5, 1.0)
        # the meridians from the far pole, and launches just off it, still run
        assert shoot(m, R, 0.0, 1.0).meridian and shoot(m, R, math.pi, 1.0).meridian
        assert not shoot(m, R - 1e-6, 0.5, 1.0).meridian


def test_float_state_equals_dense_output_bits(family10, monkeypatch):
    # a float t is answered in float arithmetic; it must give the bits of
    # scipy's dense output at every t, step boundaries and both ends included.
    # A launch that crosses kinks is solved in pieces: the reference joins
    # the dense outputs of all of them.
    import pinchlab.geodesics as geodesics
    from pinchlab._solvers import OdeSolution
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
        start = len(solved)
        path = shoot(family10, r0, alpha, T)
        pieces = [run.sol for run in solved[start:]]
        sol = OdeSolution(np.concatenate([pieces[0].ts[:1], *(p.ts[1:] for p in pieces)]),
                          [step for p in pieces for step in p.interpolants])
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


# family(8, ...) and a launch whose single DOP853 solve stepped over the
# band's kinks and ended 1.12e-8 off in Clairaut
BAND_LAUNCH = (build_model("family", 8, 0.7622146997936804, 0.026756901219269054),
         0.5941844090111834, 0.849237945176744)


def _counting_solves(monkeypatch):
    """Patch ``geodesics.solve_ivp`` to record every run; returns the list."""
    import pinchlab.geodesics as geodesics
    runs = []
    inner = geodesics.solve_ivp

    def counting(*args, **kwargs):
        runs.append(inner(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(geodesics, "solve_ivp", counting)
    return runs


def _seeded_family_launches(count, seed):
    """``count`` seeded family launches (model, r0, alpha, T), with r0 drawn
    between 0.3 and 0.3 below the far pole, so that most cross a kink."""
    draw = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        m = build_model("family", int(draw.integers(3, 13)), float(draw.uniform(0.55, 0.9)),
                        float(draw.uniform(0.005, 0.08)))
        out += [(m, float(draw.uniform(0.3, 2.0 * m.L - 0.3)),
                 float(draw.uniform(-math.pi, math.pi)), float(draw.uniform(0.5, 6.0)))
                for _ in range(10)]
    return out[:count]


def _sampled_crossings(m, path, cells=2048):
    """An oracle for a path's kink crossings that knows nothing of the
    Clairaut primitive: sample r on ``cells`` cells, bisect every sign
    change of r - k 60 times, and take a stretch that runs along a kink
    radius (within 1e-12) by its ends, so rounding noise about it counts as
    no crossing.  Returns the crossings in (0, length)."""
    ts = np.linspace(0.0, path.length, cells + 1)
    r = np.asarray(path.state(ts)[0], dtype=float)
    out = set()
    for k in m.phi.kinks():
        d = r - k
        on = np.abs(d) < 1e-12
        inside = np.zeros_like(on)
        inside[1:-1] = on[:-2] & on[2:]
        for i in np.nonzero((d[:-1] * d[1:] < 0) & ~(on[:-1] & on[1:]))[0]:
            lo, hi = ts[i], ts[i + 1]
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if (float(path.state(mid)[0]) - k) * d[i] > 0:
                    lo = mid
                else:
                    hi = mid
            out.add(0.5 * (lo + hi))
        out.update(float(ts[i]) for i in np.nonzero(on & ~inside)[0])
    return sorted(t for t in out if 0.0 < t < path.length)


def _crosses_a_kink(m, path):
    r = path.samples[:, 1]
    return any(r.min() < k < r.max() for k in m.phi.kinks())


def test_band_launch_holds_conservation_to_the_pinned_bound():
    # a restart at each kink crossing keeps every step on one smooth piece
    m, r0, alpha = BAND_LAUNCH
    for T in (1.5, 3.0, 10.0):
        path = shoot(m, r0, alpha, T)
        assert path.clairaut_residual <= 1e-8, T
        assert path.speed_residual <= 1e-8, T


def test_seeded_band_crossing_launches_hold_conservation():
    crossing = 0
    for m, r0, alpha, T in _seeded_family_launches(260, 2024):
        path = shoot(m, r0, alpha, T)
        crossing += _crosses_a_kink(m, path)
        assert path.clairaut_residual <= 1e-8, (m.meta, r0, alpha, T)
        assert path.speed_residual <= 1e-8, (m.meta, r0, alpha, T)
    assert crossing >= 200


def test_kink_crossings_are_where_the_path_crosses_a_kink(family10):
    # the Clairaut primitive's crossings against a sampled bisection of the
    # integrated path, both ways, on seeded launches, the band launch and
    # launches from the lower and the upper turning radius (alpha = pi/2);
    # the path carries the crossings it was solved on
    R = family10.r_max
    launches = [(family10, 1.0, 0.7, 2.0), (family10, R - 0.5, -2.5, 3.0),
                (family10, 1.2, 1.0, 9.0), (family10, 1.0, math.pi / 2, 5.0),
                (family10, R - 1.0, math.pi / 2, 5.0), (*BAND_LAUNCH, 10.0),
                *_seeded_family_launches(16, 7)]
    crossing = 0
    for m, r0, alpha, T in launches:
        path = shoot(m, r0, alpha, T)
        hints = kink_crossings(m, r0, math.cos(alpha), path.clairaut_c, T)
        kinks = np.array(m.phi.kinks())
        crossing += _crosses_a_kink(m, path)
        assert bool(hints) == _crosses_a_kink(m, path), (r0, alpha, T)
        for t in hints:
            assert np.min(np.abs(float(path.state(t)[0]) - kinks)) <= 1e-9, (r0, alpha, t)
        for t in _sampled_crossings(m, path):
            assert min(abs(t - h) for h in hints) <= 1e-9, (r0, alpha, t)
        assert path.crossings == hints
    assert crossing >= 18


def test_kink_crossings_direction_at_a_turning_radius(family10):
    # alpha = pi/2 launches from a turning radius: below L phi' > 0 and the
    # path rises, above L phi' < 0 and it falls; on the cylinder phi' = 0
    # and the launch is a parallel with no crossing
    R = family10.r_max
    for r0, sign in ((1.0, 1.0), (R - 1.0, -1.0)):
        path = shoot(family10, r0, math.pi / 2, 3.0)
        first = kink_crossings(family10, r0, math.cos(math.pi / 2), path.clairaut_c, 3.0)[0]
        assert sign * (float(path.state(first)[0]) - r0) > 0.0
    for r0 in (math.pi / 2, 2.0, family10.L):
        assert kink_crossings(family10, r0, math.cos(math.pi / 2),
                              float(family10.phi(r0)), 10.0) == []


def test_kink_crossings_drop_the_ends(family10):
    # a launch from a kink radius meets it at t = 0, and a length ending at a
    # crossing meets it at T: neither is a cut
    k = family10.phi.kinks()[0]
    c = float(family10.phi(k)) * math.sin(0.8)
    hints = kink_crossings(family10, k, math.cos(0.8), c, 6.0)
    assert hints and hints[0] > 1e-15
    T = hints[2]
    assert kink_crossings(family10, k, math.cos(0.8), c, T) == hints[:2]
    path = shoot(family10, k, 0.8, T)
    assert path.clairaut_residual <= 1e-8


def test_meridian_crossings_are_where_the_meridian_crosses_a_kink(family10, sphere3,
                                                                  gaussian3):
    # the closed form against a sampled bisection: family meridians through
    # both poles, from the pole and from inside, outward and inward
    R = family10.r_max
    k = family10.phi.kinks()[0]
    for r0, alpha, T in ((0.0, 0.0, 2 * R), (1.0, math.pi, 2 * R), (2.5, 0.0, 2 * R + 1.0),
                         (k, 0.0, 3.0), (k, math.pi, 4.0)):
        path = shoot(family10, r0, alpha, T)
        assert path.meridian
        # a meridian from a kink radius meets it at t = 0, which is no crossing
        sampled = _sampled_crossings(family10, path)
        assert len(sampled) >= 4
        assert path.crossings == pytest.approx(sampled, abs=1e-12), (r0, alpha, T)
    # no kink on the round sphere or the Gaussian cap; the parallel r = pi/2
    # runs along the family's junction and crosses nothing
    for m, r0, alpha, T in ((sphere3, 0.0, 0.0, 2 * math.pi), (sphere3, 1.0, math.pi, 5.0),
                            (gaussian3, 1.0, math.pi, 5.0),
                            (family10, math.pi / 2, math.pi / 2, 1.5 * math.pi)):
        path = shoot(m, r0, alpha, T)
        assert path.crossings == [] and _sampled_crossings(m, path) == []


def test_meridian_crossings_are_computed_on_first_read(family10, monkeypatch):
    # shoot does not pay for a meridian's crossings; reading them twice
    # computes them once
    from pinchlab.profiles import RadialProfile
    calls = []
    kinks = RadialProfile.kinks
    monkeypatch.setattr(RadialProfile, "kinks", lambda self: calls.append(1) or kinks(self))
    path = shoot(family10, 0.5, 0.0, 7.0)
    assert calls == []
    assert path.crossings == path.crossings and len(calls) == 1


def test_shoot_restarts_cut_the_right_hand_sides(family10, monkeypatch):
    # family(10, 0.8, 0.02), r0 = 1, alpha = 0.7, T = 2: 1214 right-hand
    # sides in one solve that steps over the kinks, a few hundred in pieces
    runs = _counting_solves(monkeypatch)
    path = shoot(family10, 1.0, 0.7, 2.0)
    assert len(runs) > 1
    assert sum(run.nfev for run in runs) <= 450
    assert path.clairaut_residual <= 1e-8


def test_launches_without_a_crossing_keep_their_single_solve_bits(sphere3, gaussian3,
                                                                  monkeypatch):
    # sha256 of ``samples`` of one solve over [0, T]: the sphere and the
    # Gaussian have no kink, so their launches are still that one solve
    runs = _counting_solves(monkeypatch)
    for m, r0, alpha, T, digest in (
            (sphere3, 1.0, 0.7, 3.0, "fb106acc7ec45c9fc8f85d72022b3493"),
            (sphere3, 2.5, -2.0, 5.0, "631dd989ef4718cfef9a8ee14951d665"),
            (gaussian3, 1.0, 1.2, 4.0, "f164e4e5f4b6955bc216796ee0bb4d25"),
            (gaussian3, 3.0, 2.5, 6.0, "021ee80da7f4fe7d6a6d6f4a25b29554")):
        path = shoot(m, r0, alpha, T)
        assert hashlib.sha256(path.samples.tobytes()).hexdigest()[:32] == digest
    assert len(runs) == 4


def _kinked_cap():
    """A cap whose phi is r up to 1, then a rising parabola: one kink, at 1."""
    from pinchlab.profiles import CAP, LINEAR, PARABOLA, ManifoldWithDensity, RadialProfile
    phi = RadialProfile((SegmentSpec(LINEAR, 0.0, 1.0),
                         SegmentSpec(PARABOLA, 1.0, 50.0, {"c0": 1.0, "c1": 1.0, "c2": 0.05})))
    f = RadialProfile((SegmentSpec(PARABOLA, 0.0, 50.0, {"c0": 0.0, "c1": 0.0, "c2": 0.5}),))
    return ManifoldWithDensity(3, phi, f, CAP)


def test_cap_launch_falls_once_and_rises_once_across_its_kink(monkeypatch):
    # falling from r0 = 2 to the turning radius below the kink and back up:
    # two crossings, then the exit on the last piece, with reached in the
    # arclength of the whole path, not of its piece
    m = _kinked_cap()
    r0, alpha = 2.0, 2.9
    c = float(m.phi(r0)) * math.sin(alpha)
    path = shoot(m, r0, alpha, 5.0)
    hints = kink_crossings(m, r0, math.cos(alpha), c, 5.0)
    assert len(hints) == 2
    for t in hints:
        assert float(path.state(t)[0]) == pytest.approx(1.0, abs=1e-9)
    assert _sampled_crossings(m, path) == pytest.approx(hints, abs=1e-9)
    assert path.clairaut_residual <= 1e-8 and path.speed_residual <= 1e-8
    # the rise from r0 is one piece: up to r_max it crosses nothing
    assert kink_crossings(m, r0, -math.cos(alpha), c, 100.0) == []
    runs = _counting_solves(monkeypatch)
    with pytest.raises(IntegrationError) as info:
        shoot(m, r0, alpha, 100.0)
    assert len(runs) == 3 and runs[-1].sol.ts[-1] == 100.0
    geom = _Geometry(m)
    got = geom.arcs(c, [r0, m.r_max])
    # the primitive holds the exit to the digit (51.919135473948435 at 40
    # digits); the solve's r drifts by 1.1e-12 over the 52 of arclength
    assert info.value.reached == pytest.approx(got[r0][1] + got[m.r_max][1], abs=2e-12)


def test_rim_launches(gaussian3):
    # from r_max = 50, inward stays on the cap and outward leaves at once; a
    # launch 1e-13 past the rim is clipped to it
    path = shoot(gaussian3, 50.0, 2.5, 10.0)
    assert path.clairaut_residual <= 1e-8 and path.speed_residual <= 1e-8
    assert path.samples[:, 1].max() <= 50.0
    for r0 in (50.0 + 1e-13, 50.0):
        with pytest.raises(IntegrationError) as info:
            shoot(gaussian3, r0, 0.3, 5.0)
        assert info.value.reached == 0.0


def test_cap_exit_without_a_primitive_is_read_from_the_solve(tmp_path, monkeypatch):
    # the dip cap has no Clairaut primitive; its one solve runs on to T, and
    # the exit is where its dense output meets r_max
    m = _dip_model(tmp_path)
    runs = _counting_solves(monkeypatch)
    with pytest.raises(IntegrationError) as info:
        shoot(m, 0.5, 0.3, 60.0)
    reached = info.value.reached
    assert len(runs) == 1 and runs[0].sol.ts[-1] == 60.0
    assert runs[0].sol(reached, 1)[0] == pytest.approx(m.r_max, abs=1e-9)
    assert reached == pytest.approx(49.52214000735265, abs=1e-9)


def test_sine_cap_exit_reads_phi_inside_the_cap(monkeypatch):
    # sin r continued past r_max = 1.4 would vanish at pi; the right-hand
    # side never reads phi past the rim, however long the solve runs on
    from pinchlab.profiles import RadialProfile
    m = manifold_from_dict({
        "n": 3, "topology": "CAP",
        "phi": {"segments": [{"kind": "SINE", "domain": [0.0, 1.4]}]},
        "f": {"segments": [{"kind": "PARABOLA", "domain": [0.0, 1.4],
                            "c0": 0.0, "c1": 0.0, "c2": 0.5}]}})
    radii = []
    scalar_fn = RadialProfile.scalar_fn

    def recording(self, order=0):
        fn = scalar_fn(self, order)
        return lambda r: radii.append(r) or fn(r)

    monkeypatch.setattr(RadialProfile, "scalar_fn", recording)
    geom, R = _Geometry(m), m.r_max
    for r0, alpha in ((1.0, 0.3), (0.5, 2.0), (R, 2.5)):
        with pytest.raises(IntegrationError) as info:
            shoot(m, r0, alpha, 100.0 * R)
        u = geom.arcs(math.sin(r0) * math.sin(alpha), [r0, R])
        primitive = u[R][1] - u[r0][1] if math.cos(alpha) > 0 else u[r0][1] + u[R][1]
        assert info.value.reached == pytest.approx(primitive, abs=1e-12)
    assert max(radii) <= R


def test_shoot_checks_the_launch_before_the_crossings(family10):
    # the domain checks come first on a model with kinks too
    for r0, alpha, T in ((math.nan, 0.5, 1.0), (1.0, math.nan, 1.0), (1.0, math.inf, 1.0),
                         (family10.r_max + 1.0, 0.5, 1.0), (-1.0, 0.5, 1.0),
                         (0.0, 0.5, 1.0), (1.0, 0.5, math.nan)):
        with pytest.raises(DomainError):
            shoot(family10, r0, alpha, T)


def test_shoot_on_a_profile_the_geometry_rejects_is_one_solve(tmp_path, monkeypatch):
    m = _dip_model(tmp_path)
    with pytest.raises(SearchError):
        _Geometry(m)
    assert kink_crossings(m, 0.5, math.cos(1.0), float(m.phi(0.5)) * math.sin(1.0), 3.0) is None
    runs = _counting_solves(monkeypatch)
    shoot(m, 0.5, 1.0, 3.0)
    assert len(runs) == 1


def test_a_path_on_a_profile_the_geometry_rejects_reads_its_crossings_from_the_solve(
        tmp_path):
    # no Clairaut primitive predicts the five band crossings, yet without
    # them as nodes Simpson never samples the 0.004-wide band and returns 0
    from pinchlab.variation import RICCI, line_integral, quad_piecewise
    m = _dip_model(tmp_path)
    for r0, alpha, T, crossed in ((0.5, 0.3, 3.0, 5), (0.5, 0.0, 3.0, 5), (2.0, 2.5, 3.0, 0)):
        path = shoot(m, r0, alpha, T)
        sampled = _sampled_crossings(m, path)
        assert len(sampled) == crossed
        assert path.crossings == pytest.approx(sampled, abs=1e-12)
    path = shoot(m, 0.5, 0.3, 3.0)
    K = path_curvature(m, path, RICCI)
    reference = quad_piecewise(K, 0.0, path.length, _sampled_crossings(m, path))
    assert reference > 4e-4
    assert line_integral(m, path) == pytest.approx(reference, abs=1e-9)


def test_geodesic_csv_dump(sphere3, tmp_path):
    path = shoot(sphere3, 1.0, 0.7, 1.5)
    out = tmp_path / "geo.csv"
    path.dump_csv(str(out))
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,r,theta,rdot,clairaut_residual,speed_residual"
    assert len(lines) == len(path.samples) + 1
    last = [float(x) for x in lines[-1].split(",")]
    assert last[4] <= 1e-8 and last[5] <= 1e-8


def _json_cap():
    """The LINEAR + PARABOLA cap of :func:`_kinked_cap`, read from profile JSON."""
    return manifold_from_dict({
        "n": 3, "topology": "CAP",
        "phi": {"segments": [{"kind": "LINEAR", "domain": [0.0, 1.0]},
                             {"kind": "PARABOLA", "domain": [1.0, 50.0],
                              "c0": 1.0, "c1": 1.0, "c2": 0.05}]},
        "f": {"segments": [{"kind": "PARABOLA", "domain": [0.0, 50.0],
                            "c0": 0.0, "c1": 0.0, "c2": 0.5}]}})


def test_residuals_are_the_maxima_of_their_csv_columns(sphere3, gaussian3, family10):
    # the residual attributes are the maxima of the columns the CSV prints,
    # to the bit, on meridians both ways and on launches off them
    draw = np.random.default_rng(26)
    models = [sphere3, gaussian3, family10, _json_cap()]
    models += [build_model("family", int(draw.integers(3, 13)), float(draw.uniform(0.55, 0.95)),
                           float(draw.uniform(0.01, 0.05))) for _ in range(10)]
    for m in models:
        hi = min(m.r_max, 20.0)
        for alpha in (0.0, math.pi, *draw.uniform(-math.pi, math.pi, 6).tolist()):
            r0, T = float(draw.uniform(0.05, 0.95)) * hi, float(draw.uniform(0.5, 2.5))
            path = shoot(m, r0, alpha, T)
            buf = io.StringIO()
            path.dump_csv(buf)
            rows = [line.split(",") for line in buf.getvalue().splitlines()[1:]]
            columns = [max(float(row[j]) for row in rows) for j in (4, 5)]
            assert [path.clairaut_residual, path.speed_residual] == columns, (m.meta, r0, alpha)
            if alpha == 0.0 or alpha == math.pi:
                assert path.meridian and path.clairaut_residual == path.speed_residual == 0.0


def test_meridian_float_and_array_states_agree_at_pole_passages(sphere3, family10, gaussian3):
    # one body folds x = r0 + d0 t at the poles for one float and for an
    # array; at each passage x = k r_max, and one ulp either side, the float
    # state has the bits of the array's entry
    draw = np.random.default_rng(31)
    for m in (sphere3, family10, gaussian3):
        R, doubled = m.r_max, m.topology == DOUBLED_SPHERE
        for r0 in draw.uniform(0.0, min(R, 5.0), 5).tolist():
            # x = r0 + d0 t meets k r_max at t = d0 (k r_max - r0); a cap
            # folds at its pole only
            for d0, ks in ((1.0, (1, 2, 3) if doubled else ()),
                           (-1.0, (0, -1, -2) if doubled else (0,))):
                passages = [d0 * (k * R - r0) for k in ks]
                if not passages:
                    continue
                path = shoot(m, r0, 0.0 if d0 > 0 else math.pi, passages[-1] + 1.0)
                for t in passages:
                    ts = [math.nextafter(t, -math.inf), t, math.nextafter(t, math.inf)]
                    columns = path.state(np.array(ts))
                    for j, tj in enumerate(ts):
                        one = path.state(tj)
                        assert all(type(v) is float for v in one)
                        assert [v.hex() for v in one] == [float(c[j]).hex() for c in columns], \
                            (m.meta, r0, d0, tj)


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
    # the fourth case is the far-pole pair: refining its c -> 0 cell used to
    # divide by phi = 0 on the upper flank, where R - r_-(c) rounds to R
    cases = ((family10, (1.0, 0.3), (2.5, 0.3), 1.5),
             (family10, (3.0, 0.3), (2.5, 0.3 - math.pi), 2 * R - 5.5),  # south pole
             (sphere3, (1.0, 0.0), (2.0, math.pi), 3.0),                 # north pole
             (family10, (1.0, 0.0), (R - 0.02, math.pi), 2 * R - 1 - (R - 0.02)))
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
        assert d == pytest.approx(sphere_oracle(p, q), abs=1e-10)


def test_gaussian_distance_flat_oracle(gaussian3):
    rng = np.random.default_rng(4)
    for _ in range(50):
        p = (rng.uniform(0.2, 5.0), rng.uniform(-math.pi, math.pi))
        q = (rng.uniform(0.2, 5.0), rng.uniform(-math.pi, math.pi))
        d, _ = distance(gaussian3, p, q, return_paths=False)
        assert d == pytest.approx(flat_oracle(p, q), abs=1e-10)


def test_distance_symmetry(family10):
    # one pair on each of 100 seeded families besides 20 on family10; no
    # distance may exceed the broken path through a pole
    draw = np.random.default_rng(17)
    fams = [build_model("family", int(draw.integers(3, 11)), float(draw.uniform(0.55, 0.9)),
                        float(draw.uniform(0.005, 0.08))) for _ in range(100)]
    rng = np.random.default_rng(5)
    for m in [family10] * 20 + fams:
        p = (rng.uniform(0.1, m.r_max - 0.1), rng.uniform(-3, 3))
        q = (rng.uniform(0.1, m.r_max - 0.1), rng.uniform(-3, 3))
        d1, _ = distance(m, p, q, return_paths=False)
        d2, _ = distance(m, q, p, return_paths=False)
        assert d1 == pytest.approx(d2, abs=1e-6), (m.meta, p, q)
        assert d1 <= min(p[0] + q[0], 2 * m.r_max - p[0] - q[0]), (m.meta, p, q)


def test_distance_sweep_of_seeded_family_pairs():
    # one pair on each of 10^3 seeded families: no SearchError, no numpy
    # warning (pyproject makes RuntimeWarning an error), and no distance
    # above the broken path through a pole
    draw = np.random.default_rng(18)
    for _ in range(1000):
        m = build_model("family", int(draw.integers(3, 11)), float(draw.uniform(0.55, 0.9)),
                        float(draw.uniform(0.005, 0.08)))
        p, q = ((float(draw.uniform(0.0, m.r_max)), float(draw.uniform(-math.pi, math.pi)))
                for _ in range(2))
        d, _ = distance(m, p, q, return_paths=False)
        assert d <= min(p[0] + q[0], 2 * m.r_max - p[0] - q[0]), (m.meta, p, q)


def _ends_at(path, q, tol):
    r_end, _, th_end, _ = path.state(path.length)
    return (abs(r_end - q[0]) <= tol
            and abs(math.remainder(th_end - q[1], 2 * math.pi)) <= tol)


def test_distance_returns_both_theta_mirrors(family10):
    # q at theta = pi from p: the minimizer and its theta-mirror image have
    # equal length, and both are returned (one was dropped by a dedupe on
    # rounded length); criticality_certificate counts both
    R = family10.r_max
    p, q = (1.0, 0.0), (R - 1.0, math.pi)
    d, paths = distance(family10, p, q)
    assert sorted(path.clairaut_c for path in paths) == [-0.8075637789190032,
                                                          0.8075637789190032]
    assert all(_ends_at(path, q, 1e-10) for path in paths)
    assert criticality_certificate(family10, p, q).n_geodesics == 2
    # on the cylinder, the parallel both ways round
    p, q = (2.0, 0.3), (2.0, 0.3 + math.pi)
    d, paths = distance(family10, p, q)
    phi = family10.phi(2.0)
    assert sorted(path.clairaut_c for path in paths) == [-phi, phi]
    assert all(_ends_at(path, q, 1e-12) for path in paths)


def test_distance_at_the_sphere_antipode_returns_few_paths(sphere3):
    # every great circle from p reaches its antipode q at length pi; the
    # search keeps one per class and theta sweep, not one per launch angle
    p, q = (1.0, 0.0), (math.pi - 1.0, math.pi)
    d, paths = distance(sphere3, p, q)
    assert d == pytest.approx(math.pi, abs=1e-12)
    assert 1 <= len(paths) <= 8
    for path in paths:
        assert path.length == pytest.approx(d, abs=1e-12)
        assert _ends_at(path, q, 1e-10)


def test_distance_raises_when_a_re_shoot_fails(sphere3, monkeypatch):
    # the length needs no solve; a path whose solve fails is not dropped
    import pinchlab.geodesics as geodesics

    def failing(*args, **kwargs):
        raise IntegrationError("step size too small", reached=0.25)

    monkeypatch.setattr(geodesics, "solve_ivp", failing)
    p, q = (1.0, 0.0), (2.0, 1.0)
    d, _ = distance(sphere3, p, q, return_paths=False)
    assert d == pytest.approx(sphere_oracle(p, q), abs=1e-12)
    with pytest.raises(IntegrationError) as info:
        distance(sphere3, p, q)
    assert info.value.reached == 0.25


def test_a_failed_shoot_names_the_geodesic_stage_and_arclength(sphere3, monkeypatch):
    import pinchlab.geodesics as geodesics

    def failing(*args, **kwargs):
        raise IntegrationError("step size too small", reached=0.25)

    monkeypatch.setattr(geodesics, "solve_ivp", failing)
    with pytest.raises(IntegrationError) as info:
        shoot(sphere3, 1.0, 0.7, 2.0)
    assert str(info.value) == "geodesic integration failed at arclength 0.25: step size too small"
    assert info.value.reached == 0.25


# float.hex of distance(m, p, q) from the exact per-piece arc primitive.  A
# change that moves a bit lists each moved value, old -> new with its
# difference, in CHANGES.md.  Family pairs on family(10, 0.8, 0.02) (index 0)
# and family(6, 0.75, 0.03) (index 1), each in both directions; the two
# directions of the first pair are 2 ulp apart, of the others equal.  The
# sphere and Gaussian values lie within 1 ulp of sphere_oracle and
# flat_oracle.
PINNED_FAMILY = (
    (0, (2.34, 2.38), (2.83, -1.65), "0x1.0f133b41d6614p+1", "0x1.0f133b41d6612p+1"),
    (0, (2.9, -0.19), (1.29, -1.33), "0x1.f44456fd13426p+0", "0x1.f44456fd13426p+0"),
    (1, (0.42, 0.09), (1.93, 2.5), "0x1.1c597b680b99ep+1", "0x1.1c597b680b99ep+1"),
    (1, (1.59, -2.98), (3.2, -2.07), "0x1.d50e8780be7abp+0", "0x1.d50e8780be7abp+0"),
)
# pairs drawn with default_rng(6): sphere radii in (0.05, pi - 0.05),
# Gaussian radii in (0.2, 5), angles in (-pi, pi)
PINNED_SPHERE = (
    ((1.686876737860978, -0.9847581679958686), (1.1725522052422852, -0.788560078461733),
     "0x1.19131b19e759cp-1"),
    ((3.053405427975202, 0.8341322614811477), (2.101018713162262, -1.0683711188056741),
     "0x1.123e4048925c6p+0"),
    ((2.1180325632424446, -2.3689344345096206), (0.20733925197769287, 2.200317124970402),
     "0x1.11350402e5308p+1"),
)
PINNED_GAUSSIAN = (
    ((2.7831888870653274, -0.9847581679958686), (1.9715227510178155, -0.788560078461733),
     "0x1.dd61c631556c6p-1"),
    ((4.93973595289504, 0.8341322614811477), (3.4367548664215692, -1.0683711188056741),
     "0x1.b804888bb8e8cp+2"),
    ((3.4636047735873072, -2.3689344345096206), (0.448300313522121, 2.200317124970402),
     "0x1.c715c18c818f4p+1"),
)


def test_distance_bits_pinned(family10, sphere3, gaussian3):
    fams = (family10, build_model("family", 6, 0.75, 0.03))
    for k, p, q, pq, qp in PINNED_FAMILY:
        assert distance(fams[k], p, q, return_paths=False)[0].hex() == pq
        assert distance(fams[k], q, p, return_paths=False)[0].hex() == qp
    for m, pinned, law in ((sphere3, PINNED_SPHERE, sphere_oracle),
                           (gaussian3, PINNED_GAUSSIAN, flat_oracle)):
        for p, q, d in pinned:
            assert distance(m, p, q, return_paths=False)[0].hex() == d
            assert abs(float.fromhex(d) - law(p, q)) <= 1e-10


FOLD = (build_model("family", 4, 0.8388910574360728, 0.027451879604040195),
        (0.37070086839835403, -0.29685276869587796),
        (2.2084615704061545, 1.5220917279130264))


def test_distance_finds_the_minimizer_at_the_fold():
    # The minimizer is a turn_lo geodesic with c = 0.36226877964682336, 6e-9
    # below the fold c = phi(r1) where direct and turn_lo meet.  A scan whose
    # theta ran 2.16e-4 high past the band never bracketed it, and the search
    # found only a turn_hi geodesic longer than the path through a pole.
    m, p, q = FOLD
    for a, b in ((p, q), (q, p)):
        d, _ = distance(m, a, b, return_paths=False)
        assert d == pytest.approx(2.2550119638566, abs=1e-6)


def test_distance_above_broken_path_raises(monkeypatch):
    # With the turn_lo class withheld, the fold pair's shortest candidate is
    # a turn_hi geodesic of length 5.014685, twice the path through the
    # north pole (r1 + r2 = 2.579162); the guard raises rather than return it.
    import pinchlab.geodesics as geodesics
    inner = geodesics._refine
    monkeypatch.setattr(geodesics, "_refine", lambda geom, cls, *args:
                        None if cls == "turn_lo" else inner(geom, cls, *args))
    m, p, q = FOLD
    for a, b in ((p, q), (q, p)):
        with pytest.raises(SearchError, match=r"5\.0146.*2\.5791624388045"):
            distance(m, a, b, return_paths=False)


def _dip_model(tmp_path):
    """A cap whose phi' dips to -0.2 inside a band 0.004 wide at r = 1 and
    is positive elsewhere."""
    nodes = [[0.0, 0.0], [0.001, -1200.0], [0.002, 0.0], [0.003, 1200.0],
             [0.004, 0.0]]
    band = SegmentSpec(PL2_BAND, 1.0, 1.004, {"left_value": 1.0, "left_slope": 1.0,
                                              "nodes": nodes})
    doc = {"n": 3, "topology": "CAP", "phi": {"segments": [
        {"kind": "LINEAR", "domain": [0.0, 1.0]},
        {"kind": "PL2_BAND", "domain": [1.0, 1.004], "left_value": 1.0,
         "left_slope": 1.0, "nodes": nodes},
        {"kind": "PARABOLA", "domain": [1.004, 50.0],
         "c0": band._triple(1.004)[0], "c1": 1.0, "c2": 0.0}]},
        "f": {"segments": [{"kind": "PARABOLA", "domain": [0.0, 50.0],
                            "c0": 0.0, "c1": 0.0, "c2": 0.5}]}}
    path = tmp_path / "dip.json"
    path.write_text(json.dumps(doc))
    return load_manifold(path)


def test_distance_rejects_a_narrow_dip_in_the_warping_slope(tmp_path):
    # The slope's least value sits at a kink of the band, between the points
    # of the 4097-point grid that used to check unimodality, and distance
    # returned 3.2399307170971916 silently.
    m = _dip_model(tmp_path)
    assert min(m.phi.eval(m.phi.slope_extreme_radii(m.r_max), 1)) < -0.19
    with pytest.raises(SearchError, match="unimodal"):
        distance(m, (0.5, 0.0), (3.0, 2.0))


def test_a_cap_flat_at_the_pole_is_refused_and_a_dip_cap_shoots(tmp_path):
    # phi = r^2 on [0, 2], in two PARABOLA pieces joined at the kink r = 1,
    # has phi'(0) = 0: a cusp at the pole, which no model has
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({"n": 3, "topology": "CAP", "phi": {"segments": [
        {"kind": "PARABOLA", "domain": [0.0, 1.0], "c0": 0.0, "c1": 0.0, "c2": 1.0},
        {"kind": "PARABOLA", "domain": [1.0, 2.0], "c0": 1.0, "c1": 2.0, "c2": 1.0}]},
        "f": {"segments": [{"kind": "CONSTANT", "domain": [0.0, 2.0], "value": 0.0}]}}))
    with pytest.raises(ConstructionError, match=r"phi'\(0\) = 0\.0"):
        load_manifold(path)
    # the dip cap is not unimodal, so there is no Clairaut primitive, and
    # shoot reads its five band crossings from the solve
    m = _dip_model(tmp_path)
    assert kink_crossings(m, 0.5, math.cos(0.3), 0.5 * math.sin(0.3), 1.0) is None
    geo = shoot(m, 0.5, 0.3, 1.0)
    assert len(geo.crossings) == 5
    for t, k in zip(geo.crossings, m.phi.kinks()):
        assert 0.0 < t < 1.0
        assert geo.state(t)[0] == pytest.approx(k, abs=1e-12)


def test_turn_lo_inverts_phi_on_the_flank(sphere3, gaussian3):
    # phi(turn_lo(c)) is c to within one ulp, for c from 1e-9 c_max up to
    # the grazing limit the distance search uses, and turn_lo is monotone.
    # A Newton polish that kept every step cycled between -2 and +2 ulp and
    # ended 2 ulp off on one of these families, with either bracketing.  An
    # array of c gives the float results.
    draw = np.random.default_rng(16)
    fams = [build_model("family", int(draw.integers(3, 11)), float(draw.uniform(0.55, 0.9)),
                        float(draw.uniform(0.005, 0.08))) for _ in range(20)]
    rng = np.random.default_rng(15)
    for m in (sphere3, gaussian3, *fams):
        geom = _Geometry(m)
        top = 1.0 - 1e-13
        fracs = np.concatenate([[1e-9, 0.5, top], 10.0 ** rng.uniform(-9.0, 0.0, 60),
                                rng.uniform(0.0, 1.0, 60),
                                1.0 - 10.0 ** rng.uniform(-13.0, -1.0, 40)])
        cs = np.sort(geom.c_max * np.clip(fracs, 1e-9, top))
        rms = [geom.turn_lo(float(c)) for c in cs]
        for c, rm in zip(cs, rms):
            assert abs(geom.phi_s(rm) - c) <= math.ulp(c), (m.meta, c)
        assert all(b >= a for a, b in zip(rms, rms[1:])), m.meta
        assert np.array_equal(geom.turn_lo(cs), rms)


def test_turn_lo_array_equals_float_bits(sphere3, gaussian3):
    # the array path roots each flank interval in one pass and polishes by
    # masked Newton steps; every entry has the float path's bits, at each
    # flank radius's phi and 1 ulp either side of it, where the interval
    # and the closed form change, and on seeded c up to the grazing limit
    draw = np.random.default_rng(31)
    fams = [build_model("family", int(draw.integers(3, 11)), float(draw.uniform(0.55, 0.9)),
                        float(draw.uniform(0.005, 0.08))) for _ in range(20)]
    for m in (sphere3, gaussian3, *fams):
        geom = _Geometry(m)
        edges = [x for v in geom._flank_phi
                 for x in (math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf))]
        cs = np.array([c for c in edges if 0.0 < c <= geom.c_max]
                      + (geom.c_max * draw.uniform(0.0, 1.0, 200)).tolist()
                      + _c_range(geom).tolist())
        assert [r.hex() for r in geom.turn_lo(cs).tolist()] == \
            [geom.turn_lo(c).hex() for c in cs.tolist()], m.meta


def _c_range(geom):
    """c from 1e-9 c_max up to the grazing limit the distance search uses."""
    fracs = np.concatenate([10.0 ** np.linspace(-9.0, 0.0, 40)[:-1],
                            1.0 - 10.0 ** -np.arange(1.0, 14.0)])
    return geom.c_max * np.minimum(fracs, 1.0 - 1e-13)


def test_arc_primitives_match_their_closed_forms(sphere3, gaussian3, family10):
    # SINE (sphere), LINEAR (Gaussian) and CONSTANT (family10's cylinder):
    # theta and t from r_-(c) against the Clairaut integrals in closed form
    # (do Carmo, Differential Geometry of Curves and Surfaces, 4-4), with
    # their radicands factored as (phi - c)(phi + c)
    for m, rmin, prim in (
            (sphere3, math.asin, lambda c, r: (
                math.atan2(math.sqrt((math.sin(r) - c) * (math.sin(r) + c)), c * math.cos(r)),
                math.atan2(math.sqrt((math.sin(r) - c) * (math.sin(r) + c)), math.cos(r)))),
            (gaussian3, lambda c: c, lambda c, r: (
                math.atan2(math.sqrt((r - c) * (r + c)), c), math.sqrt((r - c) * (r + c))))):
        geom = _Geometry(m)
        for c in _c_range(geom).tolist():
            rm = geom.turn_lo(c)
            assert rm == pytest.approx(rmin(c), abs=1e-13)
            radii = [rm + f * (geom.mid - rm) for f in (1e-6, 0.01, 0.5, 1.0)]
            got = geom.arcs(c, radii)
            for r in radii:
                assert got[r] == pytest.approx(prim(c, r), abs=1e-13), (c, r)
    geom = _Geometry(family10)
    _, lo, hi, A = geom._pieces[-1]
    a, b = lo + 0.1, hi
    for c in _c_range(geom).tolist():
        got = geom.arcs(c, [a, b])
        w = math.sqrt((A - c) * (A + c))
        want = (c * (b - a) / (A * w), A * (b - a) / w)
        for j in (0, 1):
            assert got[b][j] - got[a][j] == pytest.approx(want[j], rel=1e-13, abs=1e-13)


def test_arcs_array_equals_float_bits_across_the_band(sphere3, gaussian3):
    # over a grid of c like the search's scan, the array evaluation gives
    # every entry the bits of the float one, whose cubic pieces all go
    # through one batched pass: on the fold pair's model for arcs that end
    # inside the band, on the cylinder, at L and past it, and on 20 seeded
    # families, the sphere and the Gaussian at every flank kink, between
    # kinks and at mid
    m, p, q = FOLD
    geom = _Geometry(m)
    band = [r for r in geom._flank_r if r > 1.5][:3]
    cases = [(m, [*band, 0.5 * (band[0] + band[1]), 1.6, geom.mid],
              ((p[0], q[0]), (q[0], 2.0 * m.L - 0.3)))]
    draw = np.random.default_rng(44)
    fams = [build_model("family", int(draw.integers(3, 11)), float(draw.uniform(0.55, 0.9)),
                        float(draw.uniform(0.005, 0.08))) for _ in range(20)]
    for m in (sphere3, gaussian3, *fams):
        flank = _Geometry(m)._flank_r
        radii = [*flank[1:], *(0.5 * (a + b) for a, b in zip(flank, flank[1:]))]
        hi = min(m.r_max, 10.0)
        pairs = [tuple(draw.uniform(0.05 * hi, 0.95 * hi, 2).tolist()) for _ in range(2)]
        cases.append((m, radii, pairs))
    for m, radii, pairs in cases:
        geom = _Geometry(m)
        cs = _c_range(geom)
        vec = geom.arcs(cs, radii)
        for i, c in enumerate(cs.tolist()):
            one = geom.arcs(c, radii)
            for r in radii:
                assert [float(v[i]).hex() for v in vec[r]] == [v.hex() for v in one[r]], \
                    (m.meta, c, r)
        for r1, r2 in pairs:
            vec = geom.classes(cs, r1, r2)
            for i, c in enumerate(cs.tolist()):
                one = geom.classes(c, r1, r2)
                assert {k: [float(x[i]).hex() for x in v] for k, v in vec.items()} == \
                    {k: [x.hex() for x in v] for k, v in one.items()}, (m.meta, c, r1, r2)



def test_scan_gives_each_bracket_end_the_float_bits(monkeypatch):
    # _refine takes its cell's ends from the scan instead of evaluating them
    # again, which keeps distance's bits only while each array entry of
    # classes equals the float evaluation at that c.  A _refine that finds
    # nothing makes the search visit every bracket, so every end is compared,
    # on 60 seeded families over the tier-1 sweep's (n, eps, delta) ranges
    import pinchlab.geodesics as geodesics
    ends = []

    def refine(geom, cls, r1, r2, target, cgrid, i, scan):
        for j in (i, i + 1):
            c = float(cgrid[j])
            if c != 0.0:           # the c = 0 end is the meridian limit
                want = geom.classes(c, r1, r2)[cls]
                assert [float(v[j]).hex() for v in scan] == [v.hex() for v in want], \
                    (geom.c_max, cls, c, r1, r2)
                ends.append(c)
        return None

    monkeypatch.setattr(geodesics, "_refine", refine)
    draw = np.random.default_rng(29)
    for _ in range(60):
        m = build_model("family", int(draw.integers(3, 11)), float(draw.uniform(0.55, 0.9)),
                        float(draw.uniform(0.005, 0.08)))
        p, q = ((float(draw.uniform(0.0, m.r_max)), float(draw.uniform(-math.pi, math.pi)))
                for _ in range(2))
        try:
            distance(m, p, q, return_paths=False)
        except SearchError:
            pass
    assert len(ends) >= 120


# float classes evaluations of each _refine on the pinned family pairs (the
# benchmark's FAMILY_PAIRS), each direction, when _refine evaluated its
# cell's ends itself; each distance there refines one bracket
REFINE_EVALS_BEFORE_SEEDING = (6, 5, 5, 6, 6, 6, 5, 5)


def test_refine_takes_its_cell_ends_from_the_scan(monkeypatch, family10):
    import pinchlab.geodesics as geodesics
    count, per_call = [0], []
    classes, refine = _Geometry.classes, geodesics._refine

    def counted_classes(self, c, r1, r2):
        count[0] += isinstance(c, float)
        return classes(self, c, r1, r2)

    def counted_refine(geom, cls, *args):
        before = count[0]
        out = refine(geom, cls, *args)
        per_call.append(count[0] - before)
        return out

    monkeypatch.setattr(_Geometry, "classes", counted_classes)
    monkeypatch.setattr(geodesics, "_refine", counted_refine)
    fams = (family10, build_model("family", 6, 0.75, 0.03))
    for k, p, q, _, _ in PINNED_FAMILY:
        for a, b in ((p, q), (q, p)):
            distance(fams[k], a, b, return_paths=False)
    assert per_call == [n - 2 for n in REFINE_EVALS_BEFORE_SEEDING]


def test_a_target_near_a_meridian_angle_is_refined_in_the_meridian_cell(family10,
                                                                       monkeypatch):
    # 1e-10 off the meridian's angle the meridian is no candidate; the root
    # lies in the scan's first cell, whose c = 0 end holds the meridian limit
    import pinchlab.geodesics as geodesics
    first_cell, refine = [], geodesics._refine

    def recording(geom, cls, r1, r2, target, cgrid, i, scan):
        first_cell.append(cgrid[i] == 0.0)
        return refine(geom, cls, r1, r2, target, cgrid, i, scan)

    monkeypatch.setattr(geodesics, "_refine", recording)
    p, q = (1.0, 0.0), (2.0, 1e-10)
    for a, b in ((p, q), (q, p)):
        assert distance(family10, a, b)[0] == 1.0
    assert any(first_cell)


def test_cubic_arc_row_bits_do_not_depend_on_a_turning_row(family10):
    # _cubic_arc runs its Newton steps for the turning root only when some
    # row turns inside the piece, and they move turning rows only: a row
    # whose turning radius lies below the piece gets the same bits alone as
    # stacked with one that turns.  On the family's three band pieces and
    # on the PARABOLA flank piece of a profile JSON cap, with the piece's
    # coefficients shared by every row (the scan) or one set per row (a
    # float c's batched pass)
    cap = manifold_from_dict({"n": 3, "topology": "CAP", "phi": {"segments": [
        {"kind": "LINEAR", "domain": [0.0, 1.0]},
        {"kind": "PARABOLA", "domain": [1.0, 6.0], "c0": 1.0, "c1": 1.0, "c2": -0.05}]},
        "f": {"segments": [{"kind": "CONSTANT", "domain": [0.0, 6.0], "value": 0.0}]}})
    cases = []
    for m, count in ((family10, 3), (cap, 1)):
        geom = _Geometry(m)
        cubic = [piece for piece in geom._pieces if piece[0] == PL2_BAND]
        assert len(cubic) == count
        cases += [(geom, piece) for piece in cubic]
    bits = lambda arrays, i: [float(v[i]).hex() for v in arrays]
    for geom, (_, a, b, k) in cases:
        phi_a, phi_b = geom.phi_s(a), geom.phi_s(b)
        below = np.array([phi_a * f for f in (1e-6, 0.3, 0.9, 1.0 - 1e-9)])
        turning = 0.5 * (phi_a + phi_b)
        rm_turning = geom.turn_lo(turning)
        assert a <= rm_turning <= b
        for top in (b, 0.5 * (a + b)):
            for c in below.tolist():
                rm = geom.turn_lo(c)
                assert rm < a
                alone = geom._cubic_arc(k, a, top, np.array([c]), np.array([rm]))
                cs, rms = np.array([c, turning]), np.array([rm, rm_turning])
                stacked = geom._cubic_arc(k, a, top, cs, rms)
                per_row = geom._cubic_arc(np.array([k, k]).T, np.full(2, a), np.full(2, top),
                                          cs, rms)
                assert bits(stacked, 0) == bits(alone, 0) == bits(per_row, 0), (k, c, top)
                assert bits(per_row, 1) == bits(stacked, 1), (k, c, top)


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
        zeros = jacobi_conjugate_points(K, path.length, breakpoints=path.crossings)
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

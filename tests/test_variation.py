import math

import numpy as np
import pytest

from pinchlab import (ConstructionError, DomainError, IntegrationError, berger_test_field,
                      build_model, geodesic_index, jacobi_conjugate_points,
                      line_integral, loop_index_check, second_variation, shoot)
from pinchlab.geodesics import kink_crossings
from pinchlab.profiles import (DOUBLED_SPHERE, PARABOLA, PL2_BAND, SINE, ManifoldWithDensity,
                               RadialProfile, SegmentSpec, manifold_from_dict)
from pinchlab.variation import (EIGEN_NODES, JACOBI_ZERO_TOL, QUAD_MAX_DOUBLINGS, QUAD_N0,
                                QUAD_TOL, RICCI, SEC_PERP, eigen_index, path_curvature,
                                quad_piecewise)

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
    # NaN and inf built a field whose quadrature raised IntegrationError
    for r in (0.9 * math.pi, math.nan, math.inf):
        with pytest.raises(DomainError, match="finite total length"):
            berger_test_field(r)


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


def _quad_one_subinterval_at_a_time(f, a, b, breakpoints=()):
    """quad_piecewise as it was before it batched the reads of each doubling
    level: one call of ``f`` per subinterval and level, in order."""
    pts = sorted({float(a), float(b), *(p for p in breakpoints if a < p < b)})
    total = 0.0
    for lo, hi in zip(pts, pts[1:]):
        if hi - lo < 1e-15:
            continue
        n = QUAD_N0
        prev = None
        for _ in range(QUAD_MAX_DOUBLINGS):
            x = np.linspace(lo, hi, n + 1)
            y = f(x)
            h = (hi - lo) / n
            s = h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())
            diff = math.inf if prev is None else abs(s - prev)
            if diff < QUAD_TOL * 0.5:
                break
            prev = s
            n *= 2
        else:
            raise IntegrationError(
                f"quadrature on [{lo}, {hi}] did not converge: last |S2n - Sn| = "
                f"{diff} against tol {QUAD_TOL}", reached=lo)
        total += s
    return total


def _seeded_paths(draw):
    """(model, path) pairs over seven models: the 4L pole loop with 16 kink
    crossings on family(8, 0.8, 0.02) scaled for SEC, and seeded launches on
    the sphere, the Gaussian, family(10, 0.8, 0.02) and three drawn families."""
    loop_model = build_model("family", 8, 0.8, 0.02, potential_scale=1.0 / 7.0)
    loop = shoot(loop_model, 0.0, 0.0, 4 * loop_model.L)
    assert len(loop.crossings) == 16
    models = [build_model("round_sphere", 3), build_model("gaussian", 4, eps=0.5),
              build_model("family", 10, 0.8, 0.02)] + [
        build_model("family", int(draw.integers(3, 11)), float(draw.uniform(0.55, 0.9)),
                    float(draw.uniform(0.005, 0.08))) for _ in range(3)]
    out = [(loop_model, loop)]
    for m in models:
        hi = min(m.r_max, 10.0)
        out.append((m, shoot(m, 0.0, 0.0, float(draw.uniform(2.0, 6.0)))))
        for _ in range(2):
            out.append((m, shoot(m, float(draw.uniform(0.1, 0.9)) * hi,
                                 float(draw.uniform(0.05, math.pi - 0.05)),
                                 float(draw.uniform(3.2, 6.0)))))
    return out


def test_one_read_per_doubling_level_keeps_every_bit(monkeypatch):
    # each subinterval keeps its own nodes, Simpson sums and stopping test,
    # and the K, f and field readers work element by element, so batching
    # the reads of a level changes no bit of a line integral or a second
    # variation
    import pinchlab.variation as variation
    cases = 0
    for m, path in _seeded_paths(np.random.default_rng(3501)):
        integrals = [(RICCI, "fiber"), (SEC_PERP, "slice"), (SEC_PERP, "fiber")]
        field = berger_test_field(path.length) if path.length >= math.pi else None
        values = []
        for quad in (quad_piecewise, _quad_one_subinterval_at_a_time):
            monkeypatch.setattr(variation, "quad_piecewise", quad)
            got = [line_integral(m, path, kind, d) for kind, d in integrals]
            if field is not None:
                K = path_curvature(m, path, SEC_PERP, "fiber")
                got.append(second_variation(K, field, breakpoints=path.crossings))
            values.append([v.hex() for v in got])
        assert values[0] == values[1], (m.n, path.length)
        cases += len(got)
    assert cases >= 60


def test_loop_line_integral_reads_K_once_per_level():
    m = build_model("family", 8, 0.8, 0.02, potential_scale=1.0 / 7.0)
    loop = shoot(m, 0.0, 0.0, 4 * m.L)
    reads = []
    K = path_curvature(m, loop, SEC_PERP, "slice")
    val = quad_piecewise(lambda t: reads.append(t.size) or K(t), 0.0, loop.length,
                         loop.crossings)
    # 17 subintervals converge together after two levels; one at a time
    # they took 34 reads
    assert reads == [17 * (QUAD_N0 + 1), 17 * (2 * QUAD_N0 + 1)]
    assert val == _quad_one_subinterval_at_a_time(K, 0.0, loop.length, loop.crossings)


def test_unconverged_quadrature_names_the_first_unconverged_subinterval():
    # kinks at 0.3 and 1.7, neither forced: [0, 1] and [1, 2] never converge,
    # [2, 3] does; the error is the one the subinterval-at-a-time loop raised
    f = lambda t: 1e3 * np.abs(t - 0.3) + 1e3 * np.abs(t - 1.7)
    errors = []
    for quad in (quad_piecewise, _quad_one_subinterval_at_a_time):
        with pytest.raises(IntegrationError, match=r"^quadrature on \[0\.0, 1\.0\] did not "
                                                   r"converge: last \|S2n - Sn\| = ") as err:
            quad(f, 0.0, 3.0, [1.0, 2.0])
        errors.append((str(err.value), err.value.reached))
    assert errors[0] == errors[1]
    assert errors[0][1] == 0.0


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


def test_second_variation_family_meridian_needs_path_kinks(family10):
    # K = -phi''/phi has kinks where the meridian crosses the profile's
    # junctions and band nodes; only with them as nodes does Simpson converge
    path = shoot(family10, 0.0, 0.0, 2 * family10.L)
    K = path_curvature(family10, path, SEC_PERP, "slice")
    field = berger_test_field(path.length)
    val = second_variation(K, field, breakpoints=path.crossings)
    assert val == pytest.approx(5.2e-12, abs=1e-12)
    with pytest.raises(IntegrationError):
        second_variation(K, field)


def test_second_variation_requires_length_for_user_field():
    # length -1 integrated over [-1, 0] and returned 0.4546
    for length in (None, 0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="finite positive field length"):
            second_variation(K_ONE, (np.sin, np.cos), length=length)


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


def test_path_along_kink_radius_has_kinks_only_at_its_ends(family10):
    # the parallel r = pi/2 runs along the junction where the band meets the
    # constant (phi' = 0 there, so it is a geodesic); it crosses no kink, so
    # it splits neither quadrature nor solve
    assert math.pi / 2 in family10.phi.kinks()
    path = shoot(family10, math.pi / 2, math.pi / 2, 1.5 * math.pi)
    r = path.state(np.linspace(0.0, path.length, 257))[0]
    assert np.max(np.abs(r - math.pi / 2)) <= 2.3e-16
    assert path.crossings == []


def test_equator_ricci_integral(sphere3):
    path = shoot(sphere3, math.pi / 2, math.pi / 2, 1.0)
    assert line_integral(sphere3, path, RICCI) == pytest.approx(2.0, abs=1e-7)


# -- Jacobi conjugate points ------------------------------------------------


def test_jacobi_constant_curvature():
    zeros = jacobi_conjugate_points(K_ONE, 1.5 * math.pi)
    assert len(zeros) == 1
    assert zeros[0] == pytest.approx(math.pi, abs=1e-8)
    # without breakpoints the solve is one piece, with the unsplit bits
    assert zeros[0].hex() == "0x1.921fb5444460cp+1"


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


def test_jacobi_step_curvature_restarts_at_breakpoint():
    # psi = sin t up to a; after a, psi is a multiple of
    # sin(2 (t - a) + arctan(2 tan a)), whose first zero is the one below
    a = 1.0
    K = lambda t: 1.0 if t < a else 4.0
    zeros = jacobi_conjugate_points(K, 3.0, tol=1e-12, breakpoints=[a])
    assert len(zeros) == 1
    assert zeros[0] == pytest.approx(a + (math.pi - math.atan(2 * math.tan(a))) / 2,
                                     abs=1e-10)


def test_jacobi_sphere_meridian_is_one_piece(sphere3):
    # sin reflects smoothly about L = pi/2, so the meridian crosses no kink
    # and its solve is one DOP853 run of 332 evaluations; a restart at L
    # would make it two runs of 364
    path = shoot(sphere3, 0.0, 0.0, 1.5 * math.pi)
    bps = path.crossings
    assert bps == []
    K = path_curvature(sphere3, path, SEC_PERP, "slice")
    calls = []
    zeros = jacobi_conjugate_points(lambda t: calls.append(t) or K(t), path.length,
                                    breakpoints=bps)
    assert len(calls) <= 340
    assert zeros[0].hex() == "0x1.921fb5444460cp+1"


def test_jacobi_family_meridian_restarts_at_kinks(family10, monkeypatch):
    # stepping over the kinks of K costs 3071 evaluations; restarting at
    # each of them, a few hundred
    import pinchlab.variation as variation
    nfev = []
    inner = variation.solve_ivp

    def counting(*args, **kwargs):
        sol = inner(*args, **kwargs)
        nfev.append(sol.nfev)
        return sol

    monkeypatch.setattr(variation, "solve_ivp", counting)
    L2 = 2 * family10.L
    path = shoot(family10, 0.0, 0.0, L2 + 0.2)
    K = path_curvature(family10, path, SEC_PERP, "slice")
    zeros = jacobi_conjugate_points(K, path.length,
                                    breakpoints=path.crossings)
    assert len(nfev) > 1
    assert sum(nfev) <= 800
    assert len(zeros) == 1
    assert zeros[0] == pytest.approx(L2, abs=1e-6)


# -- geodesic index ---------------------------------------------------------


@pytest.mark.parametrize("launch,pinned", [
    ((1.3, 1.0, 3.0), {"slice": ([], 0), "fiber": ([], 0)}),
    ((1.0, 0.7, 6.0), {"slice": (["0x1.d4eb2c6927134p+1"], 1),
                       "fiber": (["0x1.c56c4b9a82586p+1"], 1)}),
    ((1.0, 0.7, 12.0), {"slice": (["0x1.d4eb2c6927134p+1", "0x1.e090fb21d495ep+2",
                                   "0x1.6da04ba661c67p+3"], 3),
                        "fiber": (["0x1.c56c4b9a82586p+1", "0x1.d01130a95a15ap+2",
                                   "0x1.5ff5efcce6ec8p+3"], 3)}),
    ((0.5, 0.0, 7.0), {"all": (["0x1.deb62de130afbp+1"], 1)}),
])
def test_jacobi_zeros_and_eigen_counts_are_pinned(family10, launch, pinned):
    # the bits of every zero of each class and its eigenvalue count on
    # family(10, 0.8, 0.02), as the path's kink crossings, the curvature
    # table, the closed-form pieces on the sine caps and the cylinder and
    # a four-row dense output on the bands gave them
    res = geodesic_index(family10, shoot(family10, *launch))
    got = {name: ([z.hex() for z in d["conjugate_points"]], d["negative_eigenvalues"])
           for name, d in res.classes.items()}
    assert got == pinned


def test_one_solve_for_both_classes_matches_each_class_alone(sphere3, gaussian3, family10):
    # with no constant pieces, jacobi_conjugate_points(..., classes=2) solves
    # the slice and fiber classes as one 4-component DOP853 system, whose
    # steps the error of both classes sets.  Both read each zero off their
    # steps by Brent's method to 1e-15, so the zeros differ by the two
    # solves' errors at JACOBI_RTOL: at most 4.9e-10 over 3,027 zeros drawn
    # as below with seeds 1-25 and 191 (seed 6, where the 2-component solve
    # is the one off a tight reference), 3.4e-11 with seed 191.
    # geodesic_index's eigenvalue counts read each class's own K.
    draw = np.random.default_rng(191)
    models = [sphere3, gaussian3, family10] + [
        build_model("family", int(draw.integers(3, 11)), float(draw.uniform(0.55, 0.9)),
                    float(draw.uniform(0.005, 0.08))) for _ in range(6)]
    launches, zeros = 0, 0
    for m in models:
        hi = min(m.r_max, 10.0)
        for _ in range(12):
            path = shoot(m, float(draw.uniform(0.1, 0.9)) * hi,
                         float(draw.uniform(0.05, math.pi - 0.05)), float(draw.uniform(2.0, 6.0)))
            assert not path.meridian
            both = path_curvature(m, path, SEC_PERP, ["slice", "fiber"])
            shared = jacobi_conjugate_points(both, path.length, breakpoints=path.crossings,
                                             classes=2)
            res = geodesic_index(m, path)
            for got, direction in zip(shared, ("slice", "fiber")):
                K = path_curvature(m, path, SEC_PERP, direction)
                alone = jacobi_conjugate_points(K, path.length, breakpoints=path.crossings)
                assert len(got) == len(alone)
                assert got == pytest.approx(alone, abs=JACOBI_ZERO_TOL / 10)
                zeros += len(alone)
                assert res.classes[direction]["negative_eigenvalues"] == \
                    eigen_index(K, path.length)
            launches += 1
    assert launches >= 100 and zeros >= 100


# -- closed-form Jacobi pieces ----------------------------------------------


def _index_and_runs(monkeypatch, m, path, closed_form):
    """geodesic_index, with every Jacobi piece solved by DOP853 unless
    ``closed_form``, and the number of DOP853 runs it made."""
    import pinchlab.variation as variation
    inner, solve, runs = variation.jacobi_conjugate_points, variation.solve_ivp, []
    with monkeypatch.context() as patch:
        if not closed_form:
            patch.setattr(variation, "jacobi_conjugate_points",
                          lambda *a, constant=None, **k: inner(*a, **k))
        patch.setattr(variation, "solve_ivp", lambda *a, **k: runs.append(1) or solve(*a, **k))
        return geodesic_index(m, path), len(runs)


def test_closed_form_pieces_match_an_all_dop853_index(sphere3, gaussian3, monkeypatch):
    # SINE, LINEAR and CONSTANT pieces carry (psi, psi') in closed form; the
    # index keeps every class's count and cross-check, and every zero lies
    # within a quarter of JACOBI_ZERO_TOL of the DOP853 run's.  On
    # the sphere and the Gaussian every piece is closed-form: no DOP853 run
    draw = np.random.default_rng(3601)
    models = [sphere3, gaussian3] + [
        build_model("family", int(draw.integers(3, 11)), float(draw.uniform(0.55, 0.9)),
                    float(draw.uniform(0.005, 0.08))) for _ in range(4)]
    zeros = closed_form_only = 0
    for m in models:
        hi = min(m.r_max, 10.0)
        launches = [(0.0, 0.0), (float(draw.uniform(0.1, 0.9)) * hi, math.pi)] + [
            (float(draw.uniform(0.1, 0.9)) * hi, float(draw.uniform(0.05, math.pi - 0.05)))
            for _ in range(4)]
        for r0, alpha in launches:
            path = shoot(m, r0, alpha, float(draw.uniform(2.0, 8.0)))
            assert path.exact_crossings
            got, runs = _index_and_runs(monkeypatch, m, path, closed_form=True)
            want, dop_runs = _index_and_runs(monkeypatch, m, path, closed_form=False)
            assert got.cross_check_agree and want.cross_check_agree
            assert got.index == want.index
            for name, d in want.classes.items():
                mine = got.classes[name]
                assert len(mine["conjugate_points"]) == len(d["conjugate_points"])
                assert mine["conjugate_points"] == pytest.approx(d["conjugate_points"],
                                                                 abs=JACOBI_ZERO_TOL / 4)
                assert mine["negative_eigenvalues"] == d["negative_eigenvalues"]
                zeros += len(d["conjugate_points"])
            if m in (sphere3, gaussian3):
                assert runs == 0 and dop_runs > 0
                closed_form_only += 1
            else:
                assert runs < dop_runs
    assert zeros >= 30 and closed_form_only == 12


def test_no_constant_piece_keeps_todays_bits(sphere3, family10):
    # with every entry None the solve is today's shared DOP853 run, zero for
    # zero and bit for bit
    for m, launch, want in (
            (sphere3, (1.0, 0.7, 6.0), [["0x1.921fb5444460bp+1"], ["0x1.921fb5444460bp+1"]]),
            (family10, (1.0, 0.7, 12.0),
             [["0x1.d4eb2c691ef27p+1", "0x1.e090fb21cddacp+2", "0x1.6da04ba65e7aap+3"],
              ["0x1.c56c4b9a7c131p+1", "0x1.d01130a9523dbp+2", "0x1.5ff5efcce1211p+3"]])):
        path = shoot(m, *launch)
        K = path_curvature(m, path, SEC_PERP, ["slice", "fiber"])
        pieces = len(path.crossings) + 1
        for constant in (None, [None] * pieces):
            got = jacobi_conjugate_points(K, path.length, breakpoints=path.crossings,
                                          classes=2, constant=constant)
            assert [[z.hex() for z in zs] for zs in got] == want
        with pytest.raises(DomainError, match="constant entries"):
            jacobi_conjugate_points(K, path.length, breakpoints=path.crossings, classes=2,
                                    constant=[None] * (pieces + 1))


def _dip_sphere():
    """A doubled model whose phi' dips below 0 in a band after a sine cap,
    so it has no Clairaut primitive; a parabola levels it off at L = 2."""
    nodes = [[0.0, 0.0], [0.01, -60.0], [0.02, 0.0], [0.03, 60.0], [0.04, 0.0]]
    band = {"kind": "PL2_BAND", "domain": [1.0, 1.04], "left_value": math.sin(1.0),
            "left_slope": math.cos(1.0), "nodes": nodes}
    v, d, _ = SegmentSpec(PL2_BAND, 1.0, 1.04, band)._triple(1.04)
    return manifold_from_dict({"n": 4, "topology": "DOUBLED_SPHERE", "L": 2.0, "phi": {
        "segments": [{"kind": "SINE", "domain": [0.0, 1.0]}, band,
                     {"kind": "PARABOLA", "domain": [1.04, 2.0], "c0": v, "c1": d,
                      "c2": -d / (2 * 0.96)}]},
        "f": {"segments": [{"kind": "CONSTANT", "domain": [0.0, 2.0], "value": 0.0}]}})


def test_crossings_read_from_the_solve_keep_every_piece_on_dop853():
    # a path whose crossings were read from its solve may have missed one,
    # so none of its pieces is closed-form: its zeros keep today's bits
    m = _dip_sphere()
    for launch, want in (((1.5, 0.7, 6.0), (["0x1.cccbbae332002p+1"], ["0x1.bb7591f2dbe37p+1"])),
                         ((0.5, 1.2, 7.0), (["0x1.038318fe72272p+2"], ["0x1.f59b34596981fp+1"]))):
        path = shoot(m, *launch)
        assert kink_crossings(m, launch[0], math.cos(launch[1]), path.clairaut_c,
                              launch[2]) is None
        assert not path.exact_crossings
        assert len(path.crossings) >= 10
        res = geodesic_index(m, path)
        assert res.cross_check_agree
        assert tuple([z.hex() for z in res.classes[d]["conjugate_points"]]
                     for d in ("slice", "fiber")) == want


def test_a_zero_on_a_cut_is_counted_once():
    # psi = sin t: its zero at pi ends one closed-form piece, and the next
    # piece starts there, closed-form or not
    for constant in ([(1.0,), (1.0,)], [(1.0,), None], [None, (1.0,)]):
        zeros = jacobi_conjugate_points(K_ONE, 1.5 * math.pi, breakpoints=[math.pi],
                                        constant=constant)
        assert zeros == [pytest.approx(math.pi, abs=JACOBI_ZERO_TOL / 4)], constant
    assert jacobi_conjugate_points(K_ONE, 1.5 * math.pi, breakpoints=[math.pi],
                                   constant=[(1.0,), (1.0,)]) == [math.pi]
    # psi = sin t to 3 pi / 4, then a flat piece whose zero, one further on,
    # ends it, then K = 1 again: one zero
    a = 0.75 * math.pi
    for last in ((1.0,), None):
        zeros = jacobi_conjugate_points(lambda t: 0.0 if a < t < a + 1.0 else 1.0, a + 2.0,
                                        breakpoints=[a, a + 1.0],
                                        constant=[(1.0,), (0.0,), last])
        assert zeros == [pytest.approx(a + 1.0, abs=JACOBI_ZERO_TOL / 4)], last


def test_two_zeros_in_one_grid_cell_of_a_closed_form_piece_are_counted():
    # psi = sin(w t) / w with w = 10^4 pi has a zero every 1e-4, more than
    # two in a 4096th of [0, 1]: the phase counts every zero, where a sign
    # read on a fixed grid of 4097 points sees at most one per cell
    w = 1e4 * math.pi
    zeros = jacobi_conjugate_points(lambda t: w * w, 1.0, constant=[(w * w,)])
    assert len(zeros) == 9999
    assert zeros == pytest.approx([j * 1e-4 for j in range(1, 10000)], abs=1e-12)


def test_a_dop853_piece_counts_every_zero_of_its_steps():
    # K = w^2 with w = 2 10^5 pi on a piece 1e-3 long gives psi 200 zeros,
    # 5e-6 apart; a sign read on a fixed grid of 4097 points over [0, 1]
    # saw 4 of them.  Read off the solve's own steps, the DOP853 piece gives
    # the zeros of its closed-form twin
    w = 2e5 * math.pi
    got = jacobi_conjugate_points(lambda t: w * w, 1.0, breakpoints=[0.5, 0.501],
                                  constant=[(1.0,), None, (1.0,)])
    want = jacobi_conjugate_points(lambda t: w * w, 1.0, breakpoints=[0.5, 0.501],
                                   constant=[(1.0,), (w * w,), (1.0,)])
    assert len(want) == 200
    assert got == pytest.approx(want, abs=1e-12)


def test_a_constant_piece_raises_on_non_finite_curvature():
    for k in (math.nan, math.inf):
        with pytest.raises(IntegrationError, match=r"^Jacobi integration failed at arclength "
                                                   r"1\.0: curvature ") as info:
            jacobi_conjugate_points(K_ONE, 2.0, breakpoints=[1.0], classes=2,
                                    constant=[(1.0, 1.0), (1.0, k)])
        assert info.value.reached == 1.0


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
    doc = res.to_dict()
    assert set(doc) == {"multiplicity", "conjugate_points",
                        "index", "method", "cross_check_agree"}
    assert doc["method"] == "JACOBI_ZEROS"
    assert doc["cross_check_agree"] is True


def _lapack_count(K, length):
    """eigen_index's count, from the eigenvalues LAPACK computes."""
    from scipy.linalg import eigvalsh_tridiagonal
    h = length / (EIGEN_NODES + 1)
    Kv = np.asarray(K(np.linspace(h, length - h, EIGEN_NODES)), dtype=float)
    cutoff = -10.0 * h**2 * max(1.0, float(np.max(np.abs(Kv))))
    ev = eigvalsh_tridiagonal(2.0 / h**2 - Kv, np.full(EIGEN_NODES - 1, -1.0 / h**2))
    return int(np.count_nonzero(ev < cutoff))


def test_eigen_index_matches_lapack_count(sphere3, family10):
    cases = []
    for m in (sphere3, family10):
        for T in (0.5 * m.r_max, 1.3 * m.r_max, 2.6 * m.r_max):
            path = shoot(m, 0.0, 0.0, T)
            cases.append((path_curvature(m, path, SEC_PERP, "slice"), T))
        path = shoot(m, 1.0, 0.7, 2.0 * m.r_max)
        cases.extend((path_curvature(m, path, SEC_PERP, d), path.length)
                     for d in ("slice", "fiber"))
    rng = np.random.default_rng(12)
    for _ in range(8):
        a, b, w, p = rng.uniform(-1.0, 4.0), rng.uniform(0.0, 3.0), \
            rng.uniform(0.5, 5.0), rng.uniform(0.0, 2 * math.pi)
        cases.append((lambda t, a=a, b=b, w=w, p=p: a + b * np.cos(w * t + p),
                      rng.uniform(1.0, 12.0)))
    counts = [eigen_index(K, length) for K, length in cases]
    assert counts == [_lapack_count(K, length) for K, length in cases]
    assert max(counts) >= 3


@pytest.mark.parametrize("gap", [1e-7, -1e-7])
def test_eigen_index_at_the_cutoff(gap):
    # for K = c the least eigenvalue is mu - c with mu = 4/h^2 sin^2(pi h/2L),
    # and the cutoff is -10 h^2 c: pick c to put mu - c at the cutoff + gap
    length = 2.0
    h = length / (EIGEN_NODES + 1)
    mu = 4.0 / h**2 * math.sin(math.pi * h / (2.0 * length)) ** 2
    c = (mu - gap) / (1.0 - 10.0 * h**2)
    K = lambda t: np.full_like(np.asarray(t, dtype=float), c)
    assert eigen_index(K, length) == _lapack_count(K, length) == (gap < 0)


def test_one_eigen_read_counts_both_classes():
    # the counts of a two-class read equal each class's own count, and a
    # non-meridian index reads K on the eigenvalue grid once
    import pinchlab.variation as variation
    for m, path in _seeded_paths(np.random.default_rng(3502))[1:]:
        if path.meridian:
            continue
        K = path_curvature(m, path, SEC_PERP, ["slice", "fiber"])
        reads = []
        counts = eigen_index(lambda t: reads.append(np.size(t)) or K(t), path.length,
                             classes=2)
        assert reads == [EIGEN_NODES]
        assert counts == [eigen_index(path_curvature(m, path, SEC_PERP, d), path.length)
                          for d in ("slice", "fiber")]
        res = geodesic_index(m, path)
        assert [res.classes[d]["negative_eigenvalues"] for d in ("slice", "fiber")] == counts


def test_eigen_index_rejects_bad_length():
    # 0 divided by zero, and -1, NaN and inf each counted 0
    for length in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            eigen_index(K_ONE, length)


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


def test_loop_check_requires_a_zero_of_the_field_at_its_base():
    # the round sphere with f = r - r^2/pi doubled at L = pi/2, |X| = 1 at
    # both poles, is no model, so no loop on it reaches the check
    L = math.pi / 2
    f = SegmentSpec(PARABOLA, 0.0, L, {"c0": 0.0, "c1": 1.0, "c2": -1.0 / math.pi})
    with pytest.raises(ConstructionError, match=r"f'\(0\) = 1\.0"):
        ManifoldWithDensity(3, RadialProfile((SegmentSpec(SINE, 0.0, L),), reflect_at=L),
                            RadialProfile((f,), reflect_at=L), DOUBLED_SPHERE)


def test_loop_check_rejects_non_finite_eps(sphere3):
    # NaN gave NOT_APPLICABLE with threshold NaN, inf SATISFIED with threshold 0
    loop = shoot(sphere3, 0.0, 0.0, 2 * math.pi)
    for eps in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(DomainError, match="finite positive eps"):
            loop_index_check(sphere3, loop, eps=eps)


def test_path_curvature_rejects_unknown_kind_and_direction(sphere3):
    path = shoot(sphere3, 1.0, 0.7, 1.0)
    with pytest.raises(DomainError, match="unknown integrand 'BOGUS'"):
        path_curvature(sphere3, path, "BOGUS")
    with pytest.raises(DomainError, match="unknown direction class 'diagonal'"):
        path_curvature(sphere3, path, SEC_PERP, "diagonal")


def test_path_curvature_reads_a_list_of_classes_at_once(family10):
    # one read answers every class listed, each with the bits of its own K,
    # for one float as for an array
    path = shoot(family10, 1.0, 0.7, 4.0)
    both = path_curvature(family10, path, SEC_PERP, ["slice", "fiber"])
    alone = [path_curvature(family10, path, SEC_PERP, d) for d in ("slice", "fiber")]
    ts = np.linspace(0.0, path.length, 101)
    for t in ts.tolist():
        assert [k.hex() for k in both(t)] == [K(t).hex() for K in alone]
    for got, K in zip(both(ts), alone):
        assert np.array_equal(got, K(ts))
    with pytest.raises(DomainError, match="unknown direction class"):
        path_curvature(family10, path, SEC_PERP, ["slice", "diagonal"])


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
                                       path.crossings]))
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


def test_jacobi_raises_on_non_finite_curvature_in_any_class():
    # two classes share one right-hand side: the fiber class's K turning
    # NaN past t = 0.5 stops the solve as a one-class NaN does
    K = lambda t: [1.0, math.nan if t > 0.5 else 1.0]
    with pytest.raises(IntegrationError, match=r"^Jacobi integration failed at arclength "
                                               r"\S+: curvature nan at t = ") as info:
        jacobi_conjugate_points(K, 2.0, classes=2)
    assert 0.5 < info.value.reached < 2.0
    assert jacobi_conjugate_points(lambda t: [1.0, 4.0], 2.0, classes=2) == [
        [], [pytest.approx(math.pi / 2, abs=1e-8)]]


def test_jacobi_raises_when_solver_fails():
    # past t = 0.5 the field oscillates at 1e17 per unit arclength: the
    # step falls below ten ulp at the last step accepted before the jump,
    # and the message names the stage and that arclength
    with pytest.raises(IntegrationError, match=r"^Jacobi integration failed at arclength "
                                               r"0\.4999999999999987: Required step size") as info:
        jacobi_conjugate_points(lambda t: 1e34 if t > 0.5 else 1.0, 2.0)
    assert info.value.reached == 0.4999999999999987

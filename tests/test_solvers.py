"""The in-repo DOP853 and Brent against scipy, bit for bit.

``pinchlab._solvers`` reproduces scipy 1.17.1's arithmetic; these tests run
both on pinchlab's own integrations and root findings and require equal
bits.  scipy is a test dependency only.
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.optimize import brentq as scipy_brentq

import pinchlab.geodesics as geodesics
import pinchlab.variation as variation
from pinchlab import IntegrationError, SearchError, build_model
from pinchlab._solvers import brentq, solve_ivp
from pinchlab.geodesics import _Geometry, distance, shoot
from pinchlab.profiles import PL2_BAND
from pinchlab.variation import SEC_PERP, jacobi_conjugate_points, path_curvature


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def _same(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(_bits(a), _bits(b))


def _cross_checked(module, monkeypatch, seed=0):
    """Patch ``module.solve_ivp`` so every call also runs scipy's DOP853 and
    compares; returns the list of compared results."""
    draw = np.random.default_rng(seed)
    done = []

    def both(fun, t_span, y0, rtol, atol, max_step=math.inf):
        ours = solve_ivp(fun, t_span, y0, rtol=rtol, atol=atol, max_step=max_step)
        ref = scipy_solve_ivp(fun, t_span, y0, method="DOP853", dense_output=True,
                              rtol=rtol, atol=atol, max_step=max_step)
        assert ref.status == 0 and ours.nfev == ref.nfev
        assert _same(ours.sol.ts, ref.t) and _same(ours.y, ref.y[:, -1])
        assert _same(ours.sol.ts, ref.sol.ts)
        ts = np.concatenate([draw.uniform(ref.t[0], ref.t[-1], 200), ref.sol.ts])
        assert _same(ours.sol(ts), ref.sol(ts))
        floats = ts[::7].tolist()
        assert _same([ours.sol(t) for t in floats], ref.sol(floats).T)
        done.append(ours)
        return ours

    monkeypatch.setattr(module, "solve_ivp", both)
    return done


def _seeded_families(count, seed):
    draw = np.random.default_rng(seed)
    return [build_model("family", int(draw.integers(3, 11)), float(draw.uniform(0.55, 0.9)),
                        float(draw.uniform(0.005, 0.08))) for _ in range(count)]


def test_shoot_matches_scipy_bits(sphere3, gaussian3, monkeypatch):
    # non-meridian launches on the sphere, the Gaussian and 24 seeded
    # families, many of them across the band's kinks
    done = _cross_checked(geodesics, monkeypatch)
    draw = np.random.default_rng(181)
    crossing = 0
    for m in [sphere3, gaussian3] + _seeded_families(24, 182):
        hi = min(m.r_max, 10.0)
        for _ in range(3 if "delta" in m.meta else 8):
            r0 = float(draw.uniform(0.1 * hi, 0.9 * hi))
            alpha = float(draw.uniform(0.05, math.pi - 0.05))
            path = shoot(m, r0, alpha, float(draw.uniform(1.0, 5.0)))
            r = path.samples[:, 1]
            crossing += any(r.min() < k < r.max() for k in m.phi.kinks())
    assert len(done) >= 88
    assert crossing >= 20


def test_cap_exit_matches_scipy_bits(gaussian3, monkeypatch):
    # each launch leaves the Gaussian's cap at r = 50; its solve runs on to
    # T with phi read at r_max past the rim, and the exit read from it is
    # the Clairaut primitive's U(r_max) - U(r0) rising, U(r0) + U(r_max)
    # falling
    done = _cross_checked(geodesics, monkeypatch)
    geom = _Geometry(gaussian3)
    R = gaussian3.r_max
    for r0, alpha, T in ((45.0, 0.3, 20.0), (49.0, 1.2, 30.0), (30.0, 2.9, 99.0)):
        with pytest.raises(IntegrationError) as info:
            shoot(gaussian3, r0, alpha, T)
        u = geom.arcs(float(gaussian3.phi(r0)) * math.sin(alpha), [r0, R])
        primitive = u[R][1] - u[r0][1] if math.cos(alpha) > 0 else u[r0][1] + u[R][1]
        assert info.value.reached == pytest.approx(primitive, abs=1e-12)
        assert done[-1].sol.ts[-1] == T
    assert len(done) == 3


def test_jacobi_solves_match_scipy_bits(sphere3, family10, monkeypatch):
    # 2-D Jacobi systems with max_step, restarted at the path's kinks, and
    # the 4-D system of both direction classes, with no closed-form pieces,
    # on the same paths
    done = _cross_checked(variation, monkeypatch)
    draw = np.random.default_rng(183)
    for m in (sphere3, family10, *_seeded_families(4, 184)):
        for _ in range(3):
            r0 = float(draw.uniform(0.1, 0.9)) * m.r_max
            path = shoot(m, r0, float(draw.uniform(0.0, math.pi)), float(draw.uniform(2.0, 6.0)))
            K = path_curvature(m, path, SEC_PERP, "fiber")
            jacobi_conjugate_points(K, path.length, breakpoints=path.crossings)
            both = path_curvature(m, path, SEC_PERP, ["slice", "fiber"])
            jacobi_conjugate_points(both, path.length, breakpoints=path.crossings, classes=2)
    jacobi_conjugate_points(lambda t: 1.0, 3.0 * math.pi)
    # every kink piece is a run: 119 of the 2-D solves, 118 of the 4-D ones
    assert len(done) >= 237
    assert sum(run.y.size == 4 for run in done) >= 118


def test_distance_root_finding_matches_scipy_bits(sphere3, family10, monkeypatch):
    # turn_lo on band pieces (xtol 1e-15) and _refine (xtol 1e-13)
    calls = []

    def both(f, a, b, **kwargs):
        ours = brentq(f, a, b, **kwargs)
        assert ours.hex() == scipy_brentq(f, a, b, **kwargs).hex()
        calls.append(kwargs["xtol"])
        return ours

    monkeypatch.setattr(geodesics, "brentq", both)
    draw = np.random.default_rng(185)
    for m in (sphere3, family10, *_seeded_families(6, 186)):
        for _ in range(4):
            p, q = ((float(draw.uniform(0.0, m.r_max)), float(draw.uniform(-math.pi, math.pi)))
                    for _ in range(2))
            distance(m, p, q, return_paths=False)
        # turning radii on the band's cubic pieces, found by brentq
        geom = _Geometry(m)
        for kind, lo, hi, k in geom._pieces:
            if kind == PL2_BAND and k[3] != 0.0:
                for r in draw.uniform(lo, hi, 4).tolist():
                    geom.turn_lo(geom.phi_s(r))
    assert calls.count(1e-15) >= 40 and calls.count(1e-13) >= 20


def _outcome(find, *args, **kwargs):
    # scipy raises RuntimeError or ValueError where pinchlab raises SearchError
    try:
        return find(*args, **kwargs).hex()
    except (RuntimeError, ValueError):
        return "failed"


def test_brentq_matches_scipy_bits_on_seeded_functions():
    draw = np.random.default_rng(187)
    shapes = (lambda p: (lambda x: math.sin(x) - p),
              lambda p: (lambda x: x ** 3 - p ** 3),
              lambda p: (lambda x: math.atan(1e6 * (x - p))),
              lambda p: (lambda x: 1e-170 * (x - p)),
              lambda p: (lambda x: (x - p) ** 5),
              lambda p: (lambda x: 1.0 if x > p else -1.0))
    for i in range(600):
        f = shapes[i % len(shapes)](float(draw.uniform(0.1, 0.3)))
        a, b = float(draw.uniform(-1.0, 0.0)), float(draw.uniform(0.4, 2.0))
        for xtol, rtol in ((1e-15, 8.9e-16), (1e-13, 8.9e-16), (2e-12, 4 * 2.0 ** -52)):
            assert (_outcome(brentq, f, a, b, xtol=xtol, rtol=rtol)
                    == _outcome(scipy_brentq, f, a, b, xtol=xtol, rtol=rtol))


def test_brentq_failures_raise_search_error():
    with pytest.raises(SearchError, match="different signs"):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(SearchError, match="NaN"):
        brentq(lambda x: math.nan if x > 0.3 else x - 0.5, 0.0, 1.0)
    with pytest.raises(SearchError, match="converge after 3 iterations"):
        brentq(lambda x: 1.0 if x > 1.0 / 3.0 else -1.0, 0.0, 1.0, maxiter=3)


def test_solver_failure_reports_too_small_step():
    # y = 1 / (1 - t) blows up at t = 1, which drives the step below ten ulp
    def blowup(t, y):
        return [y[0] ** 2]

    ref = scipy_solve_ivp(blowup, (0.0, 2.0), [1.0], method="DOP853", rtol=1e-10,
                          atol=1e-12, dense_output=True)
    assert ref.status == -1
    with pytest.raises(IntegrationError) as info:
        solve_ivp(blowup, (0.0, 2.0), [1.0], rtol=1e-10, atol=1e-12)
    assert str(info.value) == ref.message
    assert info.value.reached == ref.t[-1]

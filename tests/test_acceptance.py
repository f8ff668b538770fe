"""Acceptance gate: ten numbered criteria, one pass/fail line each.

Each test prints ``[criterion N] PASS|FAIL  <summary>`` before asserting, so a
``pytest -s tests/test_acceptance.py`` run reads as a checklist.  Tolerances
are fixed here on purpose; loosening them is a behavior change, not a tweak.
"""

import math

import numpy as np
import pytest

from pinchlab import (INFEASIBLE, berger_test_field, build_model,
                      criticality_certificate, critical_radius, curvature_table,
                      diameter_gap, distance, farthest_from_pole,
                      geodesic_index, inj_at_pole, jacobi_conjugate_points,
                      line_integral, loop_index_check, second_variation, shoot,
                      verify_pinch)
from pinchlab.cli import run_cli
from pinchlab.profiles import check_c2
from pinchlab.variation import RICCI, SEC_PERP, eigen_index, path_curvature
from pinchlab.variation import quad_piecewise

DELTAS = (0.08, 0.04, 0.02, 0.01)


def report(num, ok, summary):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}  {summary}")
    assert ok, f"criterion {num}: {summary}"


def test_criterion_01_gaussian_identity(gaussian3):
    rs = np.linspace(0.0, gaussian3.r_max, 10_000)
    t = curvature_table(gaussian3, rs)
    worst = max(np.max(np.abs(t["bakry_rr"] - 1.0)),
                np.max(np.abs(t["bakry_tt"] - 1.0)),
                np.max(np.abs(t["ric_rr"])),
                np.max(np.abs(t["ric_tt"])))
    report(1, worst <= 1e-12,
           f"gaussian bakry=1 / ric=0 on 10^4 grid, worst dev {worst:.3e}")


def test_criterion_02_equality_case_integral(sphere3):
    meridian = shoot(sphere3, 0.0, 0.0, math.pi)
    ric = line_integral(sphere3, meridian, RICCI)
    ok = abs(ric - 2 * math.pi) <= 1e-8

    f = berger_test_field(1.5 * math.pi)
    g = lambda t: f.derivative(t) ** 2 - f.value(t) ** 2
    piece1 = quad_piecewise(g, 0.0, math.pi / 2)
    piece2 = quad_piecewise(g, f.total_length - math.pi / 2, f.total_length)
    ok = ok and abs(piece1) <= 1e-10 and abs(piece2) <= 1e-10

    K = lambda t: np.ones_like(np.asarray(t, dtype=float))
    sv = second_variation(K, f)
    ok = ok and abs(sv - (-math.pi / 2)) <= 1e-6
    report(2, ok, f"meridian Ricci integral {ric:.9f} (target 2pi), "
                  f"sine pieces {piece1:.2e}/{piece2:.2e}, "
                  f"Berger 2nd variation {sv:.8f} (target -pi/2)")


def test_criterion_03_family_delta_sweep():
    ok = True
    gaps, notes = [], []
    for delta in DELTAS:
        m = build_model("family", 10, 0.8, delta)
        rep = verify_pinch(m, grid_size=5000)
        ok = ok and rep.passed and rep.achieved_lower >= 7.2 - 1e-6
        ok = ok and rep.achieved_upper <= 9.0 * (1.0 + 5.0 * delta**2)
        worst_c2 = max(max(res[1:]) for prof in (m.phi, m.f)
                       for res in check_c2(prof))
        ok = ok and worst_c2 <= 1e-9
        gap = abs(2 * m.L - math.pi / 0.8)
        ok = ok and gap <= 7.0 * delta
        gaps.append(gap)
        notes.append(f"d={delta}: gap {gap:.4f}, C2 {worst_c2:.1e}")
    ok = ok and all(b < a for a, b in zip(gaps, gaps[1:]))
    report(3, ok, "; ".join(notes))


def test_criterion_04_injectivity_radius(sphere3, family10):
    ok = True
    parts = []
    for m, name in ((sphere3, "sphere"), (family10, "family")):
        inj = inj_at_pole(m)
        far = farthest_from_pole(m)[1]
        ok = ok and abs(inj - far) <= 1e-6
        parts.append(f"{name}: inj {inj:.7f} vs farthest {far:.7f}")
    ok = ok and abs(inj_at_pole(sphere3) - math.pi) <= 1e-6
    ok = ok and abs(inj_at_pole(family10) - 2 * family10.L) <= 1e-6

    L2 = 2 * family10.L
    path = shoot(family10, 0.0, 0.0, L2 + 0.2)
    K = path_curvature(family10, path, SEC_PERP, "slice")
    zeros = jacobi_conjugate_points(K, L2 + 0.2)
    ok = ok and len(zeros) == 1 and abs(zeros[0] - L2) <= 1e-6
    parts.append(f"Jacobi zero at {zeros[0]:.7f} (target {L2:.7f})")
    report(4, ok, "; ".join(parts))


def test_criterion_05_index_oracle_equivalence(sphere3, gaussian3, family10):
    cases = [(sphere3, shoot(sphere3, 0.0, 0.0, frac * math.pi))
             for frac in (0.9, 1.5, 1.9)]
    cases.append((gaussian3, shoot(gaussian3, 0.0, 0.0, 10.0)))
    cases.append((family10, shoot(family10, 0.0, 0.0, 2 * family10.L)))
    ok = True
    checked_negative = 0
    for m, path in cases:
        res = geodesic_index(m, path)
        ok = ok and res.cross_check_agree
        dirs = ["slice"] if path.meridian else ["slice", "fiber"]
        for direction in dirs:
            # ties within the 1e-6 measurement tolerance are not decidable:
            # the family meridian integral is pi + 1.7e-9 and its second
            # variation, with the path's kinks as nodes, is +5e-12: both
            # effects of the smoothing band
            if line_integral(m, path, SEC_PERP, direction) > math.pi + 1e-6:
                field = berger_test_field(path.length)
                K = path_curvature(m, path, SEC_PERP, direction)
                ok = ok and second_variation(K, field) < 0
                checked_negative += 1
    mid = geodesic_index(sphere3, cases[1][1])
    ok = ok and mid.index == 2 \
        and abs(mid.conjugate_points[0] - math.pi) <= 1e-8
    report(5, ok, f"JACOBI_ZEROS == EIGEN_COUNT on {len(cases)} cases; "
                  f"1.5pi arc index {mid.index} (target 2); "
                  f"{checked_negative} Berger negativity checks")


def test_criterion_06_loop_check(family10_sec):
    m = family10_sec
    loop = shoot(m, 0.0, 0.0, 4 * m.L)
    rep = loop_index_check(m, loop)
    integrals = rep["sec_integral_per_direction"]
    ok = all(v >= 0.8 * 4 * m.L - 1e-6 and v > math.pi
             for v in integrals.values())
    ok = ok and rep["index"] >= 9 and rep["lemma_satisfied"]
    report(6, ok, f"4L loop: index {rep['index']} (>= 9), per-direction "
                  f"integrals >= {min(integrals.values()):.4f} > pi, "
                  f"lemma_satisfied={rep['lemma_satisfied']}")


def test_criterion_07_gap_theorems(sphere3):
    ok = True
    parts = []
    gap = diameter_gap(sphere3, eps=1.0)
    ok = ok and gap.farthest <= gap.bound + 1e-6 and gap.berger_check
    parts.append(f"sphere farthest {gap.farthest:.6f} <= {gap.bound:.6f}")
    ratios = []
    for delta in DELTAS:
        m = build_model("family", 10, 0.8, delta)
        assert verify_pinch(m, grid_size=2000).passed
        gap = diameter_gap(m)
        ok = ok and gap.farthest <= gap.bound + 1e-6 and gap.berger_check
        ratios.append(gap.farthest / gap.zero_bound)
    ok = ok and all(abs(r - 0.5) <= 0.05 for r in ratios)
    parts.append("family ratios " + ", ".join(f"{r:.4f}" for r in ratios))
    report(7, ok, "; ".join(parts))


def test_criterion_08_property_suites(sphere3, gaussian3, family10):
    rng = np.random.default_rng(2718)
    ok = True

    # residual bound along 10^3 sampled minimal geodesics
    worst_resid = math.inf
    for _ in range(1000):
        m, hi = ((gaussian3, 20.0) if rng.random() < 0.5
                 else (family10, family10.r_max - 0.05))
        q = (rng.uniform(0.05, hi), rng.uniform(-math.pi, math.pi))
        cert = criticality_certificate(m, (0.0, 0.0), q, eps=0.5)
        worst_resid = min(worst_resid, cert.min_inner - cert.xnorm_lower)
    ok = ok and worst_resid >= -1e-6

    # soundness: beyond the critical radius the certificate never reports
    # a critical point on a model that passes verification
    sound = True
    R = critical_radius(gaussian3, 0.0, eps=0.5)
    for _ in range(1000):
        q = (rng.uniform(0.05, 45.0), rng.uniform(-math.pi, math.pi))
        cert = criticality_certificate(gaussian3, (0.0, 0.0), q, eps=0.5)
        if cert.dist > R and not cert.noncritical:
            sound = False
    ok = ok and sound

    # conservation residuals over 10^3 random shoots
    worst_cons = 0.0
    models = (sphere3, gaussian3, family10)
    for _ in range(1000):
        m = models[rng.integers(3)]
        hi = min(m.r_max, 10.0)
        path = shoot(m, rng.uniform(0.1 * hi, 0.9 * hi),
                     rng.uniform(0.05, math.pi - 0.05),
                     rng.uniform(0.5, 2.5))
        worst_cons = max(worst_cons, path.clairaut_residual,
                         path.speed_residual)
    ok = ok and worst_cons <= 1e-8

    # distance vs the closed-form sphere oracle over 10^3 pairs
    worst_dist = 0.0
    for _ in range(1000):
        p = (rng.uniform(0.05, math.pi - 0.05), rng.uniform(-math.pi, math.pi))
        q = (rng.uniform(0.05, math.pi - 0.05), rng.uniform(-math.pi, math.pi))
        c = (math.cos(p[0]) * math.cos(q[0])
             + math.sin(p[0]) * math.sin(q[0]) * math.cos(q[1] - p[1]))
        oracle = math.acos(max(-1.0, min(1.0, c)))
        d, _ = distance(sphere3, p, q, return_paths=False)
        worst_dist = max(worst_dist, abs(d - oracle))
    ok = ok and worst_dist <= 1e-6

    report(8, ok, f"residual min {worst_resid:.2e} (>= -1e-6), "
                  f"soundness={'ok' if sound else 'violated'}, "
                  f"conservation worst {worst_cons:.2e} (<= 1e-8), "
                  f"distance worst {worst_dist:.2e} (<= 1e-6), "
                  f"10^3 samples each")


def test_criterion_09_klingenberg_search(family10):
    from pinchlab import klingenberg_delta_search
    res = klingenberg_delta_search(family10, l=3.0)
    feas = res["violations"] == []
    ok = feas and abs(res["delta_max"] - math.pi / 10) <= 1e-6 \
        and res["binding"] == "field_bound"
    infeasible = klingenberg_delta_search(family10, eps=0.5, l=3.0)
    ok = ok and infeasible["status"] == INFEASIBLE
    dmax = res["delta_max"] if feas else float("nan")
    binding = res["binding"] if feas else "-"
    report(9, ok, f"delta_max {dmax:.8f} (target pi/10), binding {binding}; "
                  f"eps=0.5 -> {infeasible['status']}")


def test_criterion_10_range_discrepancy(capsys):
    code = run_cli(["pinch", "--model", "family", "--n", "3", "--eps", "0.9",
                    "--delta", "0.02", "--grid", "2000"])
    out = capsys.readouterr().out
    m = build_model("family", 3, 0.9, 0.02)
    rep = verify_pinch(m, grid_size=2000)
    hits = [v for v in rep.violations if v["quantity"] == "bakry_tt"
            and v["r"] > math.pi / 2 - 1e-9]
    expected = (m.n - 2) / m.meta["A"] ** 2
    ok = (code == 1 and not rep.passed and hits
          and abs(hits[0]["value"] - expected) <= 1e-6
          and '"pass": false' in out)
    report(10, ok, f"family n=3 eps=0.9 fails: exit {code}, cylinder "
                   f"bakry_tt {hits[0]['value']:.6f} ~ (n-2)/A^2 "
                   f"= {expected:.6f}")

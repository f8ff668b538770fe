import io
import math

import numpy as np
import pytest

from pinchlab import (ConstructionError, DomainError, build_model, curvature_sample,
                      curvature_table, sec_plane, x_field_norm)
from pinchlab.curvature import CSV_COLUMNS, dump_csv, sectional_fn
from pinchlab.profiles import (CAP, CONSTANT, PARABOLA, ManifoldWithDensity, RadialProfile,
                               SegmentSpec, manifold_from_dict, manifold_to_dict)


def test_gaussian_point_values(gaussian3):
    s = curvature_sample(gaussian3, 2.5)
    assert s.sec_rad == pytest.approx(0.0, abs=1e-15)
    assert s.sec_tan == pytest.approx(0.0, abs=1e-15)
    assert s.bakry_rr == pytest.approx(1.0, abs=1e-15)
    assert s.bakry_tt == pytest.approx(1.0, abs=1e-15)


def test_gaussian_identity_on_grid(gaussian3):
    rs = np.linspace(0.0, 50.0, 10_001)
    t = curvature_table(gaussian3, rs)
    for k in ("bakry_rr", "bakry_tt"):
        assert np.max(np.abs(t[k] - 1.0)) <= 1e-12
    for k in ("ric_rr", "ric_tt"):
        assert np.max(np.abs(t[k])) <= 1e-12


def test_round_sphere_values(sphere3):
    s = curvature_sample(sphere3, 1.0)
    assert s.sec_rad == pytest.approx(1.0, abs=1e-13)
    assert s.sec_tan == pytest.approx(1.0, abs=1e-13)
    assert s.ric_rr == pytest.approx(2.0, abs=1e-13)
    assert s.ric_tt == pytest.approx(2.0, abs=1e-13)


def test_round_sphere_constant_curvature_planes(sphere3):
    rng = np.random.default_rng(7)
    for _ in range(50):
        r = rng.uniform(0.0, math.pi)
        w = rng.uniform(0.0, 1.0)
        assert sec_plane(sphere3, r, w) == pytest.approx(1.0, abs=1e-12)


def test_gaussian_flat_planes(gaussian3):
    rng = np.random.default_rng(8)
    for _ in range(50):
        assert sec_plane(gaussian3, rng.uniform(0, 50), rng.uniform(0, 1)) \
            == pytest.approx(0.0, abs=1e-12)


def test_sec_plane_rejects_bad_weight(sphere3):
    with pytest.raises(DomainError):
        sec_plane(sphere3, 1.0, 1.5)
    # NaN fails every comparison, so it is caught as out of range too
    for w in (math.nan, [0.5, math.nan], np.array([[0.2], [math.nan]]), [0.5, -0.5],
              [1.0 + 1e-15]):
        with pytest.raises(DomainError, match="weight"):
            sec_plane(sphere3, [1.0, 2.0], w)


def test_family_cap_values(family10):
    s = curvature_sample(family10, 0.5)
    assert s.bakry_rr == pytest.approx(7.2, abs=1e-12)
    # (n-1)(1 - (1-eps) r cot r) on the cap
    expected = 9.0 * (1.0 - 0.2 * 0.5 / math.tan(0.5))
    assert s.bakry_tt == pytest.approx(expected, abs=1e-12)


def test_family_cap_identity_region(family10):
    delta = family10.meta["delta"]
    rs = np.linspace(1e-5, math.pi / 2 - 2 * delta - 1e-9, 2001)
    t = curvature_table(family10, rs)
    assert np.max(np.abs(t["bakry_rr"] - 7.2)) <= 1e-12
    assert np.min(t["bakry_tt"] - 7.2) >= -1e-12


def test_family_cylinder_radial_planes_flat(family10):
    assert sec_plane(family10, 2.0, 1.0) == pytest.approx(0.0, abs=1e-13)


def test_family_curvature_reflection_symmetry(family10):
    L = family10.L
    # away from the poles sec_tan is free of 0/0 cancellation noise
    s = np.linspace(0.0, L - 0.01, 501)
    left = curvature_table(family10, L - s)
    right = curvature_table(family10, L + s)
    for k in CSV_COLUMNS:
        if k in ("r", "dphi", "df"):
            continue
        assert np.max(np.abs(left[k] - right[k])) <= 1e-12, k
    s = np.linspace(L - 0.01, L - 1e-4, 101)
    left = curvature_table(family10, L - s)
    right = curvature_table(family10, L + s)
    for k in CSV_COLUMNS:
        if k in ("r", "dphi", "df"):
            continue
        assert np.max(np.abs(left[k] - right[k])) <= 1e-8, k


def test_family_sec_mode_radial_weighted_curvature(family10_sec):
    delta = family10_sec.meta["delta"]
    rs = np.linspace(1e-5, math.pi / 2 - 2 * delta - 1e-9, 501)
    t = curvature_table(family10_sec, rs)
    assert np.max(np.abs(t["wsec_rT"] - 0.8)) <= 1e-12


def test_x_field_norm_examples(gaussian3, family10):
    assert x_field_norm(gaussian3, 3.0) == pytest.approx(3.0)
    assert x_field_norm(family10, 0.0) == pytest.approx(0.0)
    assert x_field_norm(family10, 0.1) == pytest.approx(0.18, abs=1e-13)
    # the bits of curvature_table's column, which needs phi; x_field_norm
    # reads f' alone, so a non-analytic pole of phi does not stop it
    for m in (gaussian3, family10):
        rs = np.linspace(0.0, min(m.r_max, 6.0), 257)
        assert np.array_equal(x_field_norm(m, rs), curvature_table(m, rs)["xnorm"])
    m = manifold_from_dict({"n": 3, "topology": "CAP", "phi": {"segments": [
        {"kind": "PARABOLA", "domain": [0.0, 5.0], "c0": 0.0, "c1": 1.0, "c2": 0.1}]},
        "f": {"segments": [{"kind": "PARABOLA", "domain": [0.0, 5.0],
                            "c0": 0.0, "c1": 0.0, "c2": 0.5}]}})
    with pytest.raises(DomainError, match="non-analytic"):
        curvature_table(m, 0.0)
    assert x_field_norm(m, 0.0) == 0.0 and x_field_norm(m, 2.0) == 2.0


def test_pole_handling(sphere3, gaussian3):
    s = curvature_sample(sphere3, 0.0)
    assert s.sec_tan == pytest.approx(1.0)
    s = curvature_sample(gaussian3, 0.0)
    assert s.sec_tan == pytest.approx(0.0)
    assert s.bakry_tt == pytest.approx(1.0)   # f' phi'/phi -> f'' at the pole


def test_csv_dump_format(gaussian3, tmp_path):
    buf = io.StringIO()
    dump_csv(gaussian3, np.linspace(0.0, 5.0, 11), buf)
    text = buf.getvalue()
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 12
    row = lines[1].split(",")
    assert len(row) == 17
    # full double precision round trip
    assert float(row[CSV_COLUMNS.index("bakry_rr")]) == 1.0
    # a path gets the stream's bytes
    path = tmp_path / "curv.csv"
    dump_csv(gaussian3, np.linspace(0.0, 5.0, 11), str(path))
    assert path.read_text() == text


@pytest.mark.parametrize("d", [1.01e-6, 1e-5, 1e-4])
def test_near_pole_sectional_values_exact(sphere3, family10, d):
    # (1 - phi'^2)/phi^2 cancels just outside POLE_TOL; on a SINE cap
    # sec_tan is 1 exactly, at both poles
    for m in (sphere3, family10):
        rs = np.array([d, m.r_max - d])
        t = curvature_table(m, rs)
        assert np.all(t["sec_tan"] == 1.0)
        assert np.max(np.abs(t["sec_rad"] - 1.0)) <= 1e-12
        sec = sectional_fn(m)
        for r in rs.tolist():
            assert sec(r)[1] == 1.0
    t = curvature_table(family10, np.array([d, family10.r_max - d]))
    assert np.min(t["bakry_tt"] - 7.2) >= -1e-12


def _json_cap():
    """A cap of LINEAR and PARABOLA pieces, with a junction in phi and in f."""
    return manifold_from_dict({"n": 4, "topology": "CAP", "phi": {"segments": [
        {"kind": "LINEAR", "domain": [0.0, 1.0]},
        {"kind": "PARABOLA", "domain": [1.0, 3.0], "c0": 1.0, "c1": 1.0, "c2": -0.1}]},
        "f": {"segments": [
            {"kind": "PARABOLA", "domain": [0.0, 2.0], "c0": 0.0, "c1": 0.0, "c2": 0.5},
            {"kind": "PARABOLA", "domain": [2.0, 3.0], "c0": 2.0, "c1": 2.0, "c2": 0.25}]}})


def _edge_radii(m):
    """Both ends, every junction of phi and f, L +- 1 ulp and r_max + 1e-13."""
    rs = [0.0, m.r_max, m.r_max + 1e-13,
          *(seg.lo for prof in (m.phi, m.f) for seg in prof.segments[1:])]
    if m.L is not None:
        rs += [m.L, math.nextafter(m.L, 0.0), math.nextafter(m.L, math.inf)]
    return rs


def test_sectional_fn_matches_table(gaussian3, sphere3, family10, family10_sec):
    for m in (gaussian3, sphere3, family10, family10_sec, _json_cap()):
        rs = np.concatenate([np.linspace(0.0, min(m.r_max, 5.0), 2001), _edge_radii(m)])
        t = curvature_table(m, rs)
        sec = sectional_fn(m)
        inside = rs <= m.r_max
        pairs = np.array([sec(r) for r in rs[inside].tolist()])
        np.testing.assert_array_equal(pairs[:, 0], t["sec_rad"][inside])
        np.testing.assert_array_equal(pairs[:, 1], t["sec_tan"][inside])
        # curvature_sample works on one float and gives the table row's bits
        for i, r in enumerate(rs.tolist()):
            s = curvature_sample(m, r)
            for k in CSV_COLUMNS:
                assert getattr(s, k).hex() == float(t[k][i]).hex(), (r, k)


def test_curvature_sample_domain():
    m = _json_cap()
    for r in (math.nan, -1e-11, m.r_max + 1e-11):
        with pytest.raises(DomainError, match="outside profile domain"):
            curvature_sample(m, r)
        with pytest.raises(DomainError, match="outside profile domain"):
            curvature_table(m, [1.0, r])
    assert curvature_sample(m, -1e-13).phi == 0.0
    # f defined on a shorter interval than phi: each profile checks its own domain
    d = manifold_to_dict(m)
    d["f"]["segments"][-1]["domain"][1] = 2.5
    m = manifold_from_dict(d)
    for r in (2.75, 3.0):
        with pytest.raises(DomainError, match="outside profile domain"):
            curvature_sample(m, r)
        with pytest.raises(DomainError, match="outside profile domain"):
            curvature_table(m, [1.0, r])
    # columns of phi alone do not read f
    assert curvature_table(m, [2.75], ("sec_rad",))["sec_rad"][0] == curvature_sample(
        _json_cap(), 2.75).sec_rad
    # phi = 1 - r vanishes at r = 1, away from the pole, and is -1 at r_max:
    # no model, so curvature never divides by it
    line = SegmentSpec(PARABOLA, 0.0, 2.0, {"c0": 1.0, "c1": -1.0, "c2": 0.0})
    zero = SegmentSpec(CONSTANT, 0.0, 2.0, {"value": 0.0})
    with pytest.raises(ConstructionError, match=r"phi must be positive .* phi\(2\.0\) = -1\.0"):
        ManifoldWithDensity(3, RadialProfile((line,)), RadialProfile((zero,)), CAP)


def test_curvature_table_columns(family10_sec):
    m = family10_sec
    rs = np.concatenate([np.linspace(0.0, m.r_max, 3001), _edge_radii(m)])
    full = curvature_table(m, rs)
    assert tuple(full) == CSV_COLUMNS
    assert tuple(curvature_table(m, rs, CSV_COLUMNS)) == CSV_COLUMNS
    picks = [(k,) for k in CSV_COLUMNS] + [
        ("bakry_rr", "bakry_tt", "ric_rr", "ric_tt"),
        ("wsec_rT", "wsec_Tr", "wsec_TT", "sec_rad", "sec_tan"),
        ("xnorm", "phi"), ("sec_tan", "f", "r"), ()]
    for cols in picks:
        t = curvature_table(m, rs, cols)
        # "r" always, then the columns asked for, in CSV_COLUMNS order
        assert tuple(t) == tuple(k for k in CSV_COLUMNS if k == "r" or k in cols)
        for k, v in t.items():
            assert v.tobytes() == full[k].tobytes(), (cols, k)


def test_curvature_table_unknown_column(sphere3):
    with pytest.raises(DomainError, match="ric_rt"):
        curvature_table(sphere3, [1.0], ("sec_rad", "ric_rt"))


def test_sec_plane_matches_table_bits(family10):
    rs = np.linspace(0.0, family10.r_max, 1001)
    w = np.linspace(0.0, 1.0, 1001)
    t = curvature_table(family10, rs)
    want = w * t["sec_rad"] + (1.0 - w) * t["sec_tan"]
    assert sec_plane(family10, rs, w).tobytes() == want.tobytes()
    t = curvature_table(family10, 2.0)
    assert sec_plane(family10, 2.0, 0.25) == float((0.25 * t["sec_rad"] + 0.75 * t["sec_tan"])[0])


def test_non_analytic_pole_raises():
    from pinchlab import ManifoldWithDensity, RadialProfile, SegmentSpec
    from pinchlab.profiles import CAP, PARABOLA
    phi = RadialProfile((SegmentSpec(PARABOLA, 0.0, 2.0,
                                     {"c0": 0.0, "c1": 1.0, "c2": 0.1}),))
    f = RadialProfile((SegmentSpec(PARABOLA, 0.0, 2.0,
                                   {"c0": 0.0, "c1": 0.0, "c2": 0.5}),))
    m = ManifoldWithDensity(3, phi, f, CAP)
    with pytest.raises(DomainError):
        curvature_table(m, np.array([0.0, 1.0]))
    with pytest.raises(DomainError):
        sectional_fn(m)(0.0)
    with pytest.raises(DomainError, match="non-analytic"):
        curvature_sample(m, 0.0)
    s = curvature_sample(m, 1.0)
    assert sectional_fn(m)(1.0) == (s.sec_rad, s.sec_tan)

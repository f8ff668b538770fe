"""Self-tests of the benchmark's oracles: each one accepts pinchlab's real
output and rejects the same output perturbed just past its tolerance, so no
check is vacuous.  Run from the repository root:

    python3 benchmarks/check_oracles.py

Exit code 0 when every oracle behaves, 1 otherwise.  Not collected by
pytest (the file name does not match ``test_*.py``).
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import json
import math
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.abspath("src")]

import numpy as np  # noqa: E402

import pinchlab as P  # noqa: E402
from pinchlab.variation import SEC_PERP, line_integral, loop_index_check  # noqa: E402

import oracles as O  # noqa: E402
import workloads as W  # noqa: E402

FAM = P.build_model("family", 10, 0.8, 0.02)
SPH = P.build_model("round_sphere", 3)
GAU = P.build_model("gaussian", 3)
L = O.doubling_point(0.8, 0.02)
CASES = []


def case(fn):
    CASES.append(fn)
    return fn


def accepts(check, *args):
    check(*args)


def rejects(check, *args):
    try:
        check(*args)
    except O.OracleError:
        return
    raise AssertionError(f"{check.__name__} accepted a perturbed output")


def bumped(tab, key, i, by):
    out = {k: np.array(v, dtype=float, copy=True) for k, v in tab.items()}
    out[key][i] += by
    return out


@case
def family_build():
    meta = dict(FAM.meta)
    accepts(O.check_family_build, meta, FAM.r_max, 10, 0.8, 0.02)
    rejects(O.check_family_build, dict(meta, L=meta["L"] + 1e-11), FAM.r_max, 10, 0.8, 0.02)
    rejects(O.check_family_build, meta, FAM.r_max + 1e-11, 10, 0.8, 0.02)
    rejects(O.check_family_build, dict(meta, A=math.cos(0.02) - 1e-9), FAM.r_max, 10, 0.8,
            0.02)


@case
def pinch_verdict():
    assert O.family_pinch_verdict(10, 0.8, 0.02) is True
    assert O.family_pinch_verdict(3, 0.9, 0.02) is False
    assert O.family_pinch_verdict(10, 8.0 / 9.0, 0.02) is None
    rep = P.verify_pinch(FAM)
    accepts(O.check_pinch, rep.passed, rep.achieved_lower, True, 7.2)
    rejects(O.check_pinch, not rep.passed, rep.achieved_lower, True)
    rejects(O.check_pinch, rep.passed, rep.achieved_lower + 2e-6, True, 7.2)


@case
def family_curvature():
    r = np.concatenate([[0.0], np.linspace(2e-3, FAM.r_max - 2e-3, 4001), [FAM.r_max]])
    tab = P.curvature_table(FAM, r)
    assert O.check_family_curvature(tab, 10, 0.8, 0.02) > 2000
    i_cap = int(np.searchsorted(r, 0.5))
    i_pole = 1                                # r = 2e-3, inside the near-pole band
    i_cyl = int(np.searchsorted(r, 2.0))
    rejects(O.check_family_curvature, bumped(tab, "bakry_tt", i_cap, 2e-12), 10, 0.8, 0.02)
    rejects(O.check_family_curvature, bumped(tab, "bakry_tt", i_pole, 2e-8), 10, 0.8, 0.02)
    rejects(O.check_family_curvature, bumped(tab, "bakry_tt", 0, 2e-12), 10, 0.8, 0.02)
    rejects(O.check_family_curvature, bumped(tab, "bakry_rr", i_cyl, 2e-12), 10, 0.8, 0.02)
    rejects(O.check_family_curvature, bumped(tab, "df", i_cyl, 2e-12), 10, 0.8, 0.02)
    s = W._sample_dict(P.curvature_sample(FAM, 0.5))
    accepts(O.check_family_curvature, s, 10, 0.8, 0.02)
    rejects(O.check_family_curvature, bumped(s, "bakry_rr", 0, 2e-12), 10, 0.8, 0.02)


@case
def sphere_and_gaussian_curvature():
    r = np.concatenate([[0.0], np.linspace(1e-3, math.pi - 1e-3, 999), [math.pi]])
    tab = P.curvature_table(SPH, r)
    accepts(O.check_sphere_curvature, tab)
    rejects(O.check_sphere_curvature, bumped(tab, "sec_tan", 500, 2e-12))
    rejects(O.check_sphere_curvature, bumped(tab, "sec_tan", 3, 2e-8))
    rejects(O.check_sphere_curvature, bumped(tab, "sec_rad", 3, 2e-12))
    tab = P.curvature_table(GAU, np.linspace(0.0, 50.0, 1001))
    accepts(O.check_gaussian_curvature, tab)
    rejects(O.check_gaussian_curvature, bumped(tab, "bakry_tt", 7, 2e-12))
    rejects(O.check_gaussian_curvature, bumped(tab, "ric_rr", 7, 2e-12))


@case
def distances():
    p, q = (1.0, 0.2), (2.0, 1.5)
    d, paths = P.distance(SPH, p, q)
    accepts(O.check_distance, d, O.sphere_distance(p, q))
    rejects(O.check_distance, d + 2e-6, O.sphere_distance(p, q))
    d_flat = P.distance(GAU, p, q, return_paths=False)[0]
    accepts(O.check_distance, d_flat, O.flat_distance(p, q))
    rejects(O.check_distance, d_flat - 2e-6, O.flat_distance(p, q))
    path = paths[0]
    end = W._end(path)
    accepts(O.check_path_end, end, path.length, q, d)
    rejects(O.check_path_end, (end[0] + 2e-5, end[1]), path.length, q, d)
    rejects(O.check_path_end, (end[0], end[1] + 0.01), path.length, q, d)
    rejects(O.check_path_end, end, path.length + 2e-6, q, d)
    p, q = (1.0, 0.3), (2.5, -1.0)
    d1 = P.distance(FAM, p, q, return_paths=False)[0]
    d2 = P.distance(FAM, q, p, return_paths=False)[0]
    accepts(O.check_family_distance, d1, d2, p, q, FAM.r_max)
    rejects(O.check_family_distance, d1, d1 + 2e-6, p, q, FAM.r_max)
    rejects(O.check_family_distance, 1.5 - 2e-6, 1.5 - 2e-6, p, q, FAM.r_max)


@case
def shooting():
    path = P.shoot(SPH, 1.0, 0.7, 3.0)
    accepts(O.check_sphere_shoot, path.samples, 1.0, 0.7)
    bad = path.samples.copy()
    bad[500, 2] += 1e-8
    rejects(O.check_sphere_shoot, bad, 1.0, 0.7)
    path = P.shoot(GAU, 1.0, 0.7, 2.0)
    accepts(O.check_flat_shoot, path.samples, 1.0, 0.7)
    bad = path.samples.copy()
    bad[-1, 1] += 2e-9
    rejects(O.check_flat_shoot, bad, 1.0, 0.7)
    path = P.shoot(FAM, 1.0, 0.7, 2.0)
    phi = FAM.phi.eval(path.samples[:, 1])
    c = math.sin(1.0) * math.sin(0.7)
    accepts(O.check_conservation, path.samples[:, 3], path.thetadot, phi, c)
    rejects(O.check_conservation, path.samples[:, 3], path.thetadot * (1 + 1e-7), phi, c)
    rejects(O.check_conservation, path.samples[:, 3], path.thetadot, phi, c + 2e-8)


@case
def index():
    T = 1.5 * math.pi
    res = P.geodesic_index(SPH, P.shoot(SPH, math.pi / 2, 1.0, T))
    accepts(O.check_cross_check, res.classes)
    accepts(O.check_index, res.index, res.classes, 3, O.sphere_conjugate_points(T),
            O.ZERO_TOL_SPHERE)
    classes = copy.deepcopy(res.classes)
    classes["fiber"]["negative_eigenvalues"] += 1
    rejects(O.check_cross_check, classes)
    rejects(O.check_index, res.index + 1, res.classes, 3, [math.pi], O.ZERO_TOL_SPHERE)
    classes = copy.deepcopy(res.classes)
    classes["slice"]["conjugate_points"] = [math.pi + 2e-8]
    rejects(O.check_index, res.index, classes, 3, [math.pi], O.ZERO_TOL_SPHERE)
    classes["slice"]["conjugate_points"] = []
    rejects(O.check_index, res.index, classes, 3, [math.pi], O.ZERO_TOL_SPHERE)


@case
def loop():
    rep = loop_index_check(SPH, P.shoot(SPH, 0.0, 0.0, 2 * math.pi), eps=0.9)
    args = (3, 0.9, 2 * math.pi, [math.pi], O.ZERO_TOL_SPHERE)
    accepts(O.check_loop, rep, *args)
    rejects(O.check_loop, dict(rep, status="VIOLATED"), *args)
    rejects(O.check_loop, dict(rep, index=rep["index"] - 1), *args)
    rejects(O.check_loop, dict(rep, sec_integral_per_direction={"slice": 0.9 * 2 * math.pi
                                                                - 2e-6}), *args)
    rejects(O.check_loop, rep, 3, 0.9, 2 * math.pi, [math.pi + 2e-8], O.ZERO_TOL_SPHERE)


@case
def klingenberg():
    caps = O.klingenberg_caps(0.8, 3.0, 9 * 0.2, L)
    res = P.klingenberg_delta_search(FAM, l=3.0)
    accepts(O.check_klingenberg, res, caps)
    rejects(O.check_klingenberg, dict(res, delta_max=res["delta_max"] + 2e-6), caps)
    rejects(O.check_klingenberg, dict(res, binding="global"), caps)
    rejects(O.check_klingenberg, dict(res, delta=res["delta_max"]), caps)
    rejects(O.check_klingenberg, P.INFEASIBLE, caps)


@case
def gap_and_line_integral():
    g = dataclasses.asdict(P.diameter_gap(FAM))
    accepts(O.check_gap, g, 0.8, L)
    for key, by in (("farthest", 2e-6), ("inj_p", 2e-6), ("bound", 1e-11),
                    ("zero_bound", 1e-11), ("berger_inner", 1e-11)):
        rejects(O.check_gap, dict(g, **{key: g[key] + by}), 0.8, L)
    lo, hi = O.family_meridian_sec_bracket(0.02)
    v = line_integral(FAM, P.shoot(FAM, 0.0, 0.0, 2 * L), SEC_PERP)
    accepts(O.check_in_bracket, "sec integral", v, lo, hi, O.PINCH_TOL)
    rejects(O.check_in_bracket, "sec integral", hi + 2e-6, lo, hi, O.PINCH_TOL)
    rejects(O.check_in_bracket, "sec integral", lo - 2e-6, lo, hi, O.PINCH_TOL)


def _perturb_file(path):
    """Change one reported number so that its check must fail."""
    if path.endswith(".csv"):
        with open(path) as fh:
            lines = fh.read().splitlines()
        header = lines[0].split(",")
        col = next(header.index(k) for k in ("bakry_tt", "theta", "L_delta")
                   if k in header)
        row = lines[2].split(",")
        row[col] = repr(float(row[col]) + 1e-6)
        lines[2] = ",".join(row)
        text = "\n".join(lines) + "\n"
    else:
        with open(path) as fh:
            doc = json.load(fh)
        if "suite" in doc and doc["suite"] == "pinch":
            doc["pass"] = not doc["pass"]
        elif "margins" in doc:
            key = "delta_max" if "delta_max" in doc["margins"] else "farthest"
            doc["margins"][key] += 1e-5
        elif "index" in doc:
            doc["index"] += 1
        else:
            doc["meta"]["L"] += 1e-9
        text = json.dumps(doc)
    with open(path, "w") as fh:
        fh.write(text)


@case
def readme_commands():
    ops = W.Ops()
    cli = W.Cli(os.getcwd(), in_process=True)
    with tempfile.TemporaryDirectory() as d:
        with contextlib.redirect_stderr(open(os.devnull, "w")):
            for name, args, code, check in W.README_COMMANDS:
                W.run_command(ops, cli, "cli", args, d, name, code, check)
        assert ops.failed == 0, ops.errors
        for name, args, code, check in W.README_COMMANDS:
            target = os.path.join(d, name)
            with open(target, "rb") as fh:
                original = fh.read()
            _perturb_file(target)
            rejects(check, target)
            with open(target, "wb") as fh:
                fh.write(original)
        # the byte comparison between runs
        ref = os.path.join(d, "ref")
        os.makedirs(ref)
        name, args, code, check = W.README_COMMANDS[2]
        with open(os.path.join(ref, name), "w") as fh:
            fh.write("{}\n")
        before = ops.wrong
        W.run_command(ops, cli, "cli", args, d, name, code, check, reference=ref)
        assert ops.wrong == before + 1, "byte comparison accepted differing output"


def main():
    failed = 0
    for fn in CASES:
        try:
            fn()
        except Exception as exc:      # report every case, then fail
            failed += 1
            print(f"FAIL {fn.__name__}: {type(exc).__name__}: {exc}")
        else:
            print(f"ok   {fn.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

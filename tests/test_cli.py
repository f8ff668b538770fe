import io
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import pinchlab
from pinchlab import build_model, load_manifold, save_manifold
from pinchlab.cli import DEFAULTS, run_cli
from test_golden import FAMILY, README_COMMANDS


def run(capsys, *argv):
    code = run_cli(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_build_writes_profile_json(tmp_path, capsys):
    out = tmp_path / "m.json"
    code, _, _ = run(capsys, "build", "--model", "family", "--n", "10",
                     "--eps", "0.8", "--delta", "0.02", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["n"] == 10
    assert doc["topology"] == "DOUBLED_SPHERE"
    assert doc["L"] == pytest.approx(1.933495, abs=5e-7)


def test_build_round_trips_through_from(tmp_path, capsys):
    out = tmp_path / "m.json"
    run(capsys, "build", "--model", "family", "--n", "10", "--eps", "0.8",
        "--delta", "0.02", "--out", str(out))
    code, text, _ = run(capsys, "pinch", "--from", str(out),
                        "--grid", "1000")
    assert code == 0
    assert json.loads(text)["pass"] is True


def test_pinch_pass_exit_zero(capsys):
    code, text, _ = run(capsys, "pinch", "--model", "gaussian", "--n", "3",
                        "--eps", "0.5", "--mode", "ricci", "--grid", "1000")
    assert code == 0
    doc = json.loads(text)
    assert doc["pass"] is True
    assert doc["violations"] == []


def test_pinch_failure_exit_one(capsys):
    code, text, _ = run(capsys, "pinch", "--model", "family", "--n", "3",
                        "--eps", "0.9", "--delta", "0.02", "--grid", "1000")
    assert code == 1
    doc = json.loads(text)
    assert doc["pass"] is False
    assert doc["violations"]


def test_pinch_reports_the_grid_it_was_given(capsys):
    # the resolution block used to copy the default grid over --grid
    code, text, _ = run(capsys, "pinch", "--model", "gaussian", "--n", "3",
                        "--eps", "0.5", "--grid", "500")
    assert code == 0
    assert json.loads(text)["resolution"]["grid"] == 500


def test_curvature_csv(capsys):
    code, text, _ = run(capsys, "curvature", "--model", "gaussian", "--n",
                        "3", "--grid", "10")
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0].startswith("r,phi,dphi,")
    assert len(lines[0].split(",")) == 17
    assert len(lines) == 12


def test_geodesic_csv(capsys):
    code, text, _ = run(capsys, "geodesic", "--model", "round_sphere",
                        "--r0", "1.0", "--dir", "0.7", "--length", "1.0")
    assert code == 0
    assert text.startswith("t,r,theta,rdot,")


def test_index_json(capsys):
    code, text, _ = run(capsys, "index", "--model", "round_sphere", "--n",
                        "3", "--length", str(1.5 * math.pi))
    assert code == 0
    doc = json.loads(text)
    assert doc["index"] == 2
    assert doc["cross_check_agree"] is True


@pytest.mark.parametrize("cmd", ["geodesic", "index"])
@pytest.mark.parametrize("r0, direction, length, code", [
    ("50", "2.5", "10", 0),
    ("50.0000000000001", "0.3", "5", 2),
], ids=["inward_from_rim", "outward_past_rim"])
def test_rim_launches_on_the_gaussian_cap(capsys, cmd, r0, direction, length, code):
    # r_max = 50; a launch within 1e-12 past it starts from the rim
    got, _, err = run(capsys, cmd, "--model", "gaussian", "--r0", r0, "--dir", direction,
                      "--length", length)
    assert got == code, err
    if code:
        assert "left the configured cap domain" in err


def test_gap_report(capsys):
    code, text, _ = run(capsys, "gap", "--model", "family", "--n", "10",
                        "--eps", "0.8", "--delta", "0.02")
    assert code == 0
    doc = json.loads(text)
    assert doc["pass"] is True
    assert doc["margins"]["farthest"] <= doc["margins"]["bound"] + 1e-6


def test_family_limit_table(capsys):
    code, text, _ = run(capsys, "family-limit", "--n", "10", "--eps", "0.8",
                        "--deltas", "0.08,0.04,0.02", "--grid", "500")
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0].startswith("delta,L_delta,pi_over_eps,inj_p")
    assert len(lines) == 4
    L_vals = [float(l.split(",")[1]) for l in lines[1:]]
    target = math.pi / 0.8
    gaps = [abs(L - target) for L in L_vals]
    assert gaps == sorted(gaps, reverse=True)


def test_klingenberg_report(capsys):
    code, text, _ = run(capsys, "klingenberg", "--model", "family", "--n",
                        "10", "--eps", "0.8", "--delta", "0.02",
                        "--loop-length", "3.0")
    assert code == 0
    doc = json.loads(text)
    assert doc["margins"]["delta_max"] == pytest.approx(math.pi / 10,
                                                        abs=1e-6)
    assert doc["margins"]["binding"] == "field_bound"


def test_klingenberg_infeasible(capsys):
    code, text, _ = run(capsys, "klingenberg", "--model", "family", "--n",
                        "10", "--eps", "0.5", "--delta", "0.02",
                        "--loop-length", "3.0")
    assert code == 1
    assert json.loads(text)["margins"]["status"] == "INFEASIBLE"


def test_klingenberg_writes_non_finite_margins_as_null(capsys):
    # on a cap inj_p is infinite, and so is the exp_diffeo margin
    code, text, _ = run(capsys, "klingenberg", "--model", "gaussian", "--eps",
                        "0.9", "--loop-length", "3")
    assert code == 0

    def reject(name):
        raise ValueError(f"{name} is not JSON")
    doc = json.loads(text, parse_constant=reject)
    assert doc["margins"]["exp_diffeo"] is None


@pytest.mark.parametrize("r_max, loop_length, message", [
    (1.0, "3", "meridian leaves the configured cap domain"),
    (0.05, "6", "exceeds the bound 100 r_max"),
], ids=["leaves_cap", "above_100_r_max"])
def test_klingenberg_loop_off_the_model_exits_two(tmp_path, capsys, r_max,
                                                  loop_length, message):
    path = tmp_path / "cap.json"
    save_manifold(build_model("gaussian", 3, 0.9, r_max=r_max), str(path))
    code, _, err = run(capsys, "klingenberg", "--from", str(path),
                       "--loop-length", loop_length)
    assert code == 2
    assert message in err


REPORT_KEYS = {"suite", "model", "params", "pass", "margins", "violations", "resolution",
               "tolerances"}
# a field cap of about 1e-9: 60 halvings leave l - delta at the far pole
NEAR_HALF = ("--model", "family", "--n", "10", "--eps", "0.500000001", "--delta", "0.02")
NEAR_HALF_R_MAX = repr(build_model("family", 10, 0.500000001, 0.02).r_max)


@pytest.mark.parametrize("argv, code", [
    (("pinch", *FAMILY), 0),
    (("pinch", "--model", "family", "--n", "3", "--eps", "0.9", "--delta", "0.02"), 1),
    (("gap", *FAMILY), 0),
    (("klingenberg", *FAMILY, "--loop-length", "3.0"), 0),
    (("klingenberg", "--model", "family", "--n", "10", "--eps", "0.5", "--delta", "0.02",
      "--loop-length", "3.0"), 1),
    (("klingenberg", *FAMILY, "--loop-length", "7.0"), 1),
    (("klingenberg", *FAMILY, "--loop-length", "0.01"), 1),
    (("klingenberg", *NEAR_HALF, "--loop-length", NEAR_HALF_R_MAX), 1),
], ids=["pinch", "pinch_fail", "gap", "klingenberg", "klingenberg_infeasible",
        "klingenberg_loop_length", "klingenberg_loop_minus_delta", "klingenberg_non_conjugate"])
def test_report_schema(capsys, argv, code):
    got, text, _ = run(capsys, *argv)
    assert got == code
    doc = json.loads(text)
    # a feasible klingenberg report adds its assumptions
    assert set(doc) - {"assumptions"} == REPORT_KEYS
    assert doc["suite"] == argv[0]
    assert doc["pass"] is (code == 0)
    assert bool(doc["violations"]) is (code == 1)
    assert doc["model"]["n"] == doc["params"]["n"] == int(argv[argv.index("--n") + 1])
    assert doc["resolution"].items() >= DEFAULTS.items()


@pytest.mark.parametrize("suite, extra", [
    ("pinch", ("--mode", "sec")), ("gap", ()), ("klingenberg", ("--loop-length", "3.0"))])
def test_from_reports_list_only_the_eps_flag(tmp_path, capsys, suite, extra):
    # a model read with --from ignores --model, --n, --delta and --scale, so
    # the report's params used to list argparse's n = 3 and scale = ricci
    # for a family built with n = 10 and scale = sec
    path = str(tmp_path / "sec.json")
    assert run(capsys, "build", *FAMILY, "--scale", "sec", "--out", path)[0] == 0
    for eps in ((), ("--eps", "0.8")):
        code, text, _ = run(capsys, suite, "--from", path, *extra, *eps)
        assert code in (0, 1)
        doc = json.loads(text)
        assert doc["model"]["n"] == 10 and doc["model"]["potential_scale"] == 1 / 9
        assert not {"model", "n", "delta", "scale"} & set(doc["params"])
        if eps:
            assert doc["params"]["eps"] == 0.8


def test_curvature_from_a_doubled_non_analytic_cap(tmp_path, capsys):
    # phi = r - r^2/(2L) is one PARABOLA on [0, L] doubled at L = 1: both
    # poles are non-analytic, and 2 - 1e-6 rounds up, less than 1e-6 from
    # the far pole; the grid used to keep that far pole and exit 2
    path = tmp_path / "parabola.json"
    path.write_text(json.dumps({"n": 3, "topology": "DOUBLED_SPHERE", "L": 1.0,
                                "phi": {"segments": [{"kind": "PARABOLA", "domain": [0.0, 1.0],
                                                      "c0": 0.0, "c1": 1.0, "c2": -0.5}]},
                                "f": {"segments": [{"kind": "CONSTANT", "domain": [0.0, 1.0],
                                                    "value": 0.0}]}}))
    code, text, _ = run(capsys, "curvature", "--from", str(path), "--grid", "100")
    assert code == 0
    rows = text.strip().split("\n")[1:]
    assert len(rows) == 101
    rs = [float(row.split(",")[0]) for row in rows]
    assert rs[0] == 1e-6 and all(min(r, 2.0 - r) >= 1e-6 for r in rs)


def _cap_with_phi(path, phi, f_slope=0.0):
    """A cap on [0, 5] with the one warping segment ``phi`` (kind and
    parameters) and f = f_slope r + r^2/2."""
    path.write_text(json.dumps({"n": 3, "topology": "CAP", "phi": {"segments": [
        {**phi, "domain": [0.0, 5.0]}]}, "f": {"segments": [
            {"kind": "PARABOLA", "domain": [0.0, 5.0], "c0": 0.0, "c1": f_slope, "c2": 0.5}]}}))
    return str(path)


@pytest.mark.parametrize("phi", [
    {"kind": "PARABOLA", "c0": 0.0, "c1": 1.0, "c2": 0.0},
    {"kind": "PL2_BAND", "left_value": 0.0, "left_slope": 1.0, "nodes": [[0.0, 0.0], [5.0, 0.0]]},
], ids=["parabola", "band"])
def test_pinch_on_a_non_analytic_cap(tmp_path, capsys, phi):
    # phi = r written as one PARABOLA or one band: curvature accepted it, but
    # pinch's grid, and its refinement of a band, started at the pole and
    # exited 2 ("curvature at a non-analytic pole"); both now start
    # POLE_TOL in, as curvature's grid does
    code, text, err = run(capsys, "pinch", "--from", _cap_with_phi(tmp_path / "m.json", phi),
                          "--eps", "0.5")
    assert code == 0, err
    doc = json.loads(text)
    _, text, _ = run(capsys, "pinch", "--from",
                     _cap_with_phi(tmp_path / "linear.json", {"kind": "LINEAR"}), "--eps", "0.5")
    assert doc["pass"] and doc["margins"] == json.loads(text)["margins"]


@pytest.mark.parametrize("argv", [
    ("build",), ("curvature", "--grid", "4"), ("pinch", "--eps", "0.5"),
    ("geodesic", "--r0", "1", "--dir", "0.3", "--length", "1"),
    ("index", "--r0", "1", "--dir", "0.3", "--length", "1"), ("gap", "--eps", "0.5"),
    ("klingenberg", "--eps", "0.8", "--loop-length", "1")], ids=lambda argv: argv[0])
@pytest.mark.parametrize("phi, message", [
    ({"kind": "PARABOLA", "c0": 0.0, "c1": 2.0, "c2": 0.0}, "phi'(0) = 2.0"),
    ({"kind": "CONSTANT", "value": 0.5}, "phi(0) = 0.5"),
], ids=["cone", "no_point"])
def test_a_pole_that_is_not_smooth_exits_two(tmp_path, capsys, argv, phi, message):
    # a cone (phi = 2r) and a cylinder end (phi = 0.5) are no models; geodesic
    # and index exited 0 on both
    code, text, err = run(capsys, *argv, "--from", _cap_with_phi(tmp_path / "m.json", phi))
    assert code == 2 and text == ""
    assert message in err


@pytest.mark.parametrize("phi, argv, message", [
    # phi^2 underflows on the CONSTANT: index raised ZeroDivisionError from
    # the float curvature kernel, exit 1
    ([{"kind": "LINEAR", "domain": [0.0, 1.0]},
      {"kind": "CONSTANT", "domain": [1.0, 2.0], "value": 1e-170}],
     ("index", "--r0", "0.5", "--dir", "0", "--length", "1.2"),
     "phi^2 too, but phi(1.0) = 1e-170"),
    # phi from 0.5 on: m.phi(0.2) read the LINEAR segment extrapolated, and
    # pinch exited 0
    ([{"kind": "LINEAR", "domain": [0.5, 5.0]}], ("pinch", "--eps", "0.5"),
     "segments do not abut from r = 0: [..,0.0) then [0.5,..)"),
    # phi^2 and phi'^2 overflow at r = 2: pinch printed numpy's overflow and
    # invalid-value warnings and reported NaN rows
    ([{"kind": "LINEAR", "domain": [0.0, 1.0]},
      {"kind": "PARABOLA", "domain": [1.0, 2.0], "c0": 1.0, "c1": 1.0, "c2": 1e300}],
     ("pinch", "--eps", "0.5"),
     "phi^2 and phi'^2 must be finite, but phi(2.0) = 1e+300 and phi'(2.0) = 2e+300"),
], ids=["square_underflow", "late_start", "square_overflow"])
def test_a_warping_profile_the_kernels_cannot_read_exits_two(tmp_path, capsys, phi, argv,
                                                              message):
    path = tmp_path / "m.json"
    r_max = phi[-1]["domain"][1]
    path.write_text(json.dumps({"n": 3, "topology": "CAP", "phi": {"segments": phi},
                                "f": {"segments": [{"kind": "PARABOLA", "domain": [0.0, r_max],
                                                    "c0": 0.0, "c1": 0.0, "c2": 0.5}]}}))
    code, text, err = run(capsys, *argv, "--from", str(path))
    assert code == 2 and text == ""
    assert message in err and "RuntimeWarning" not in err


@pytest.mark.parametrize("argv", [
    ("geodesic", "--r0", "0.5", "--dir", "1.0", "--length", "1.2"),
    ("index", "--r0", "0.5", "--dir", "1.0", "--length", "1.2"),
    ("pinch", "--eps", "0.5"),
], ids=["geodesic", "index", "pinch"])
def test_a_warping_profile_that_jumps_at_a_junction_exits_two(tmp_path, capsys, argv):
    # phi = r, then 2 from r = 1: geodesic exited 0 with clairaut_residual up
    # to 1.26 and speed_residual up to 0.53, index exited 0 with index 0, and
    # pinch reported the curvature of a metric that is not continuous
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 3, "topology": "CAP", "meta": {"eps": 0.5}, "phi": {
        "segments": [{"kind": "LINEAR", "domain": [0.0, 1.0]},
                     {"kind": "CONSTANT", "domain": [1.0, 2.0], "value": 2.0}]},
        "f": {"segments": [{"kind": "PARABOLA", "domain": [0.0, 2.0], "c0": 0.0, "c1": 0.0,
                           "c2": 0.5}]}}))
    code, text, err = run(capsys, *argv, "--from", str(path))
    assert code == 2 and text == ""
    assert "phi and phi' must be continuous at each junction, but at r = 1.0 they jump by " \
           "1.0 and 1.0" in err and "RuntimeWarning" not in err


def test_a_profile_without_segments_exits_two(tmp_path, capsys):
    # the pole check read phi.segments[0] and died with an IndexError
    # traceback, exit 1
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 3, "topology": "CAP", "phi": {"segments": []},
                                "f": {"segments": []}}))
    code, text, err = run(capsys, "pinch", "--from", str(path), "--eps", "0.5")
    assert code == 2 and text == ""
    assert "a profile needs at least one segment, got none" in err


def test_a_pole_slope_within_the_contract_passes(tmp_path, capsys):
    # the doubled round sphere with f = 5e-10 r - 5e-10 r^2/(2L): |f'(0)| is
    # within C2_TOL, so the model loads.  klingenberg refused it with
    # "the pole must be" a zero of X at 1e-12, and gap gave no zero_bound
    L = math.pi / 2
    path = tmp_path / "sphere.json"
    path.write_text(json.dumps({"n": 3, "topology": "DOUBLED_SPHERE", "L": L,
                                "meta": {"eps": 0.9},
                                "phi": {"segments": [{"kind": "SINE", "domain": [0.0, L]}]},
                                "f": {"segments": [{"kind": "PARABOLA", "domain": [0.0, L],
                                                    "c0": 0.0, "c1": 5e-10,
                                                    "c2": -5e-10 / (2 * L)}]}}))
    code, text, err = run(capsys, "klingenberg", "--from", str(path), "--loop-length", "1.0")
    assert code == 0, err
    assert json.loads(text)["violations"] == []
    code, text, err = run(capsys, "gap", "--from", str(path))
    assert code == 0, err
    assert json.loads(text)["margins"]["zero_bound"] == 2 * math.pi / 0.9


def _json_cap(path):
    """A cap read from profile JSON: phi = sin r, then a rising PARABOLA."""
    path.write_text(json.dumps({"n": 3, "topology": "CAP", "meta": {"eps": 0.5},
                                "phi": {"segments": [
        {"kind": "SINE", "domain": [0.0, 1.0]},
        {"kind": "PARABOLA", "domain": [1.0, 2.0], "c0": math.sin(1.0),
         "c1": math.cos(1.0), "c2": 0.25}]},
        "f": {"segments": [{"kind": "CONSTANT", "domain": [0.0, 2.0], "value": 0.0}]}}))
    return load_manifold(str(path))


@pytest.mark.parametrize("model", ["gaussian", "round_sphere", "family", "json_cap"])
def test_save_manifold_writes_the_bytes_of_build(tmp_path, capsys, model):
    if model == "json_cap":
        m = _json_cap(tmp_path / "cap.json")
        argv = ("build", "--from", str(tmp_path / "cap.json"))
    elif model == "family":
        m = build_model(model, 10, 0.8, 0.02)
        argv = ("build", *FAMILY)
    else:
        m = build_model(model, 3)
        argv = ("build", "--model", model)
    assert run(capsys, *argv, "--out", str(tmp_path / "build.json"))[0] == 0
    save_manifold(m, str(tmp_path / "saved.json"))
    built = (tmp_path / "build.json").read_bytes()
    assert (tmp_path / "saved.json").read_bytes() == built
    buf = io.StringIO()
    save_manifold(m, buf)
    assert buf.getvalue().encode() == built


def test_invalid_inputs_exit_two(capsys):
    assert run(capsys, "build", "--model", "family", "--n", "2", "--eps",
               "0.8", "--delta", "0.02")[0] == 2
    assert run(capsys, "pinch")[0] == 2                  # no model source
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys, "build", "--bogus-flag")[0] == 2
    assert run(capsys, "build", "--model", "family", "--n", "10", "--delta", "0.02")[0] == 2


def test_unknown_segment_kind_exits_two(tmp_path, capsys):
    out = tmp_path / "m.json"
    run(capsys, "build", "--model", "round_sphere", "--n", "3",
        "--out", str(out))
    doc = json.loads(out.read_text())
    doc["phi"]["segments"][0]["kind"] = "FOO"
    out.write_text(json.dumps(doc))
    code, _, err = run(capsys, "pinch", "--from", str(out))
    assert code == 2
    assert "FOO" in err


def test_deterministic_output(capsys):
    args = ("pinch", "--model", "family", "--n", "10", "--eps", "0.8",
            "--delta", "0.02", "--grid", "500")
    _, a, _ = run(capsys, *args)
    _, b, _ = run(capsys, *args)
    assert a == b


def test_malformed_profile_json_exits_two(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"n": 3}))
    code, _, err = run(capsys, "pinch", "--from", str(missing))
    assert code == 2
    assert "'topology'" in err
    garbled = tmp_path / "garbled.json"
    garbled.write_text("not json")
    code, _, err = run(capsys, "pinch", "--from", str(garbled))
    assert code == 2
    assert "garbled.json" in err
    one = tmp_path / "one.json"
    run(capsys, "build", "--model", "round_sphere", "--out", str(one))
    one.write_text(json.dumps({**json.loads(one.read_text()), "n": 1}))
    code, _, err = run(capsys, "pinch", "--from", str(one))
    assert code == 2
    assert "dimension" in err



def test_nonpositive_warping_profile_exits_two(tmp_path, capsys):
    # a cap whose phi = sin r, then a PARABOLA falling through 0 to -0.618
    # at r = 2: curvature wrote that row and exited 0, pinch exited 1
    path = tmp_path / "negative.json"
    path.write_text(json.dumps({"n": 3, "topology": "CAP", "phi": {"segments": [
        {"kind": "SINE", "domain": [0.0, 1.0]},
        {"kind": "PARABOLA", "domain": [1.0, 2.0], "c0": math.sin(1.0), "c1": math.cos(1.0),
         "c2": -2.0}]},
        "f": {"segments": [{"kind": "CONSTANT", "domain": [0.0, 2.0], "value": 0.0}]}}))
    for argv in (("curvature", "--grid", "4"), ("pinch", "--eps", "0.5"),
                 ("geodesic", "--r0", "0.5", "--dir", "0.3", "--length", "1")):
        code, out, err = run(capsys, *argv, "--from", str(path))
        assert code == 2, argv
        assert "phi must be positive" in err and out == "", argv


def _segment(doc, kind):
    """The first segment of ``kind`` in a profile JSON document."""
    return next(s for name in ("phi", "f") for s in doc[name]["segments"]
                if s["kind"] == kind)


@pytest.mark.parametrize("field, edit", [
    ("'n'", lambda doc: doc.update(n="3")),
    ("'domain'", lambda doc: doc["phi"]["segments"][0].update(domain=[0.0])),
    ("'L'", lambda doc: doc.update(L="x")),
    ("'potential_scale'", lambda doc: doc.update(potential_scale="x")),
    ("'value'", lambda doc: _segment(doc, "CONSTANT").update(value="x")),
    ("'c0'", lambda doc: _segment(doc, "PARABOLA").update(c0="x")),
    ("'c2'", lambda doc: _segment(doc, "PARABOLA").update(c2=None)),
    ("'left_value'", lambda doc: _segment(doc, "PL2_BAND").update(left_value="x")),
    ("'left_slope'", lambda doc: _segment(doc, "PL2_BAND").update(left_slope=[1.0])),
    ("'nodes'", lambda doc: _segment(doc, "PL2_BAND").update(nodes="x")),
    ("'nodes'", lambda doc: _segment(doc, "PL2_BAND").update(nodes=[[0.0, "x"]])),
], ids=["n", "domain", "L", "potential_scale", "value", "c0", "c2", "left_value",
        "left_slope", "nodes", "node_value"])
def test_wrongly_typed_profile_field_exits_two(tmp_path, capsys, field, edit):
    out = tmp_path / "m.json"
    run(capsys, "build", "--model", "family", "--n", "10", "--eps", "0.8",
        "--delta", "0.02", "--out", str(out))
    doc = json.loads(out.read_text())
    edit(doc)
    out.write_text(json.dumps(doc))
    code, _, err = run(capsys, "pinch", "--from", str(out))
    assert code == 2
    assert field in err


def _set(container, key, value):
    container[key] = value


@pytest.mark.parametrize("message, edit", [
    ("unknown topology 'TORUS'", lambda doc: doc.update(topology="TORUS")),
    ("segments do not abut", lambda doc: _set(doc["phi"]["segments"][0]["domain"], 1, 1.5)),
    ("reflect_at must coincide", lambda doc: doc.update(L=doc["L"] + 0.01)),
    ("vanishing slopes at L", lambda doc: doc["f"]["segments"][-1].update(c1=1.0)),
    ("PARABOLA segment lacks parameter 'c2'", lambda doc: _segment(doc, "PARABOLA").pop("c2")),
    ("empty segment interval", lambda doc: _segment(doc, "CONSTANT").update(domain=[1.0, 1.0])),
    ("nodes must start at offset 0",
     lambda doc: _set(_segment(doc, "PL2_BAND")["nodes"][0], 0, 1e-3)),
    ("nodes must span the full segment width",
     lambda doc: _segment(doc, "PL2_BAND")["nodes"].pop()),
    ("f'(0) = -0.3", lambda doc: doc["f"]["segments"][0].update(c1=-0.3)),
    ("phi(0) = 0.5", lambda doc: doc["phi"]["segments"][0].update(
        kind="PARABOLA", c0=0.5, c1=1.0, c2=0.0)),
    ("phi'(0) = 2.0", lambda doc: doc["phi"]["segments"][0].update(
        kind="PARABOLA", c0=0.0, c1=2.0, c2=0.0)),
], ids=["topology", "abut", "L", "doubling_slope", "parabola_c2", "empty_domain",
        "nodes_start", "nodes_span", "pole_slope", "pole_value", "cone_angle"])
def test_malformed_profile_structure_exits_two(tmp_path, capsys, message, edit):
    out = tmp_path / "m.json"
    run(capsys, "build", "--model", "family", "--n", "10", "--eps", "0.8",
        "--delta", "0.02", "--out", str(out))
    doc = json.loads(out.read_text())
    edit(doc)
    out.write_text(json.dumps(doc))
    code, text, err = run(capsys, "pinch", "--from", str(out))
    assert code == 2 and text == ""
    assert message in err


@pytest.mark.parametrize("argv, name", [
    (("family-limit", "--n", "10", "--eps", "0.8", "--deltas", "abc"), "--deltas"),
    (("curvature", "--model", "gaussian", "--n", "3", "--grid", "-5"), "--grid"),
    (("pinch", "--model", "gaussian", "--n", "1"), "--n"),
    (("pinch", "--model", "family", "--n", "10", "--eps", "nan", "--delta", "0.02"),
     "--eps"),
    (("pinch", "--model", "gaussian", "--n", "3", "--upper", "nan", "--mode", "sec"),
     "--upper"),
    (("curvature", "--model", "gaussian", "--n", "3", "--grid", "1000000000"), "--grid"),
    (("family-limit", "--n", "10", "--eps", "0.8", "--deltas", "0.02", "--grid",
      "1000001"), "--grid"),
    (("pinch", "--model", "gaussian", "--n", "abc"), "--n"),
    (("family-limit", "--n", "10", "--eps", "0.8", "--deltas", ","), "--deltas"),
])
def test_bad_argument_values_exit_two(capsys, argv, name):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert f"argument {name}:" in err


def _child_env():
    src = str(pathlib.Path(pinchlab.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


SCIPY_PROBE = """
import json, sys
from pinchlab import build_model, distance, geodesic_index, shoot
from pinchlab.cli import run_cli
codes = [run_cli(argv) for argv in json.loads(sys.argv[1])]
m = build_model("family", 10, 0.8, 0.02)
_, paths = distance(m, (1.0, 0.0), (2.5, 2.0))
index = geodesic_index(m, shoot(m, 1.0, 0.7, 3.0)).index
print(json.dumps([codes, len(paths), index,
                  sorted(k for k in sys.modules if k.startswith("scipy")),
                  sorted(k for k in sys.modules if k == "numpy.ma" or k.startswith("numpy.ma."))]))
"""


def test_no_command_imports_scipy(tmp_path):
    # the ODE solver and the root finder are pinchlab's own: the nine README
    # commands, then distance, shoot and geodesic_index called from the
    # library, all in one fresh interpreter, load no scipy module, and no
    # numpy.ma either (np.unique imports it)
    argvs = [[a.format(d=tmp_path) for a in args] for _, args, _ in README_COMMANDS]
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE, json.dumps(argvs)],
                          capture_output=True, text=True, env=_child_env(),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    codes, n_paths, index, loaded, masked = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [code for _, _, code in README_COMMANDS]
    assert n_paths >= 1 and index >= 0
    assert loaded == []
    assert masked == []


@pytest.mark.parametrize("argv", [
    ("geodesic", "--model", "round_sphere", "--r0", "1", "--dir", "0.5",
     "--length", "1e7"),
    ("index", "--model", "family", "--n", "10", "--eps", "0.8", "--delta",
     "0.02", "--r0", "1", "--dir", "0.5", "--length", "1e6"),
], ids=["geodesic", "index"])
def test_huge_lengths_exit_two_promptly(argv):
    # the arclength is bounded by 100 r_max; past it shoot raises at once
    # instead of integrating for hours and keeping dense output of it all
    proc = subprocess.run([sys.executable, "-m", "pinchlab.cli", *argv],
                          capture_output=True, text=True, env=_child_env(), timeout=5)
    assert proc.returncode == 2, proc.stderr
    assert "100 r_max" in proc.stderr


@pytest.mark.parametrize("argv", [
    ("geodesic", "--model", "round_sphere", "--length", "nan"),
    ("index", "--model", "family", "--n", "10", "--eps", "0.8", "--delta",
     "0.02", "--r0", "1", "--dir", "0.5", "--length", "nan"),
    ("klingenberg", "--model", "family", "--n", "10", "--eps", "0.8",
     "--delta", "0.02", "--loop-length", "nan"),
])
def test_nan_lengths_exit_two_promptly(argv):
    # a NaN length can keep the ODE solver stepping forever, so each command
    # runs in a child process that a timeout can stop
    proc = subprocess.run([sys.executable, "-m", "pinchlab.cli", *argv],
                          capture_output=True, text=True, env=_child_env(), timeout=30)
    assert proc.returncode == 2, proc.stderr
    assert "error" in proc.stderr

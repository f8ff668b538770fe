import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import pinchlab
from pinchlab.cli import run_cli


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


def test_invalid_inputs_exit_two(capsys):
    assert run(capsys, "build", "--model", "family", "--n", "2", "--eps",
               "0.8", "--delta", "0.02")[0] == 2
    assert run(capsys, "pinch")[0] == 2                  # no model source
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys, "build", "--bogus-flag")[0] == 2


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
    src = str(pathlib.Path(pinchlab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "pinchlab.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == 2, proc.stderr
    assert "error" in proc.stderr

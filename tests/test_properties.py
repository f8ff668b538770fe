"""Property tests: the profile JSON round trip and the CLI exit-code contract.

The contract is 0 pass, 1 violation, 2 invalid input.  Examples are drawn
deterministically (``derandomize``), so a failure reproduces on every run.
"""

import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from pinchlab import build_model, load_manifold, manifold_from_dict, save_manifold  # noqa: E402
from pinchlab.cli import MAX_GRID, run_cli  # noqa: E402

PROPERTY = settings(max_examples=50, deadline=None, derandomize=True, database=None)

# the ranges the pinch_sweep benchmark draws families from; every such
# family is constructible
FAMILY_N = st.integers(3, 12)
FAMILY_EPS = st.floats(0.55, 0.95)
FAMILY_DELTA = st.floats(0.01, 0.05)

models = st.one_of(
    st.builds(lambda n, e, d, sec: build_model("family", n, e, d,
                                               1.0 / (n - 1) if sec else 1.0),
              FAMILY_N, FAMILY_EPS, FAMILY_DELTA, st.booleans()),
    st.builds(lambda n, e: build_model("round_sphere", n, e),
              st.integers(2, 12), st.floats(0.01, 10.0)),
    st.builds(lambda n, e: build_model("gaussian", n, e),
              st.integers(2, 12), st.floats(0.01, 10.0)))


def _bits(m):
    """Every profile value on a grid through the poles, L and the kinks."""
    out = []
    for prof in (m.phi, m.f):
        rs = np.unique(np.concatenate([np.linspace(0.0, prof.r_max, 257),
                                       prof.kinks()]))
        out.extend(a.view(np.int64) for a in prof.eval(rs, (0, 1, 2)))
    return np.concatenate(out)


def _same(m, m2):
    return (m2.n, m2.topology, m2.L, m2.potential_scale, m2.meta) == \
        (m.n, m.topology, m.L, m.potential_scale, m.meta) \
        and m2.phi == m.phi and m2.f == m.f \
        and np.array_equal(_bits(m2), _bits(m))


@PROPERTY
@given(models)
def test_profile_json_round_trip_is_bit_exact(m):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        save_manifold(m, path)
        m2 = load_manifold(path)
    assert _same(m, m2)


# -- exit codes ---------------------------------------------------------------

BAD_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1e-300, -2.5])
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
LAUNCH = ["n", "eps", "delta", "r0", "dir", "length"]
# each command's flags, drawn in this order; delta is optional off the
# family, and so is --upper
FLAGS = {"build": ["n", "eps", "delta"],
         "pinch": ["n", "eps", "delta", "grid", "upper"],
         "klingenberg": ["n", "eps", "delta", "loop-length"],
         "gap": ["n", "eps", "delta"],
         "family-limit": ["n", "eps", "deltas", "grid"],
         "geodesic": LAUNCH,
         "index": LAUNCH}
DRAW = "draw"


def _arg(value):
    """A flag value as the CLI reads it; a list is comma-separated."""
    return ",".join(map(repr, value)) if isinstance(value, list) else repr(value)


def _values(flag, family):
    """(in-range values, out-of-range values) of one flag."""
    if flag == "n":
        return (FAMILY_N, st.integers(-3, 2)) if family \
            else (st.integers(2, 12), st.integers(-3, 1))
    if flag == "eps":
        return FAMILY_EPS if family else st.floats(0.01, 10.0), BAD_FLOATS
    if flag == "delta":
        return FAMILY_DELTA if family else st.floats(0.01, 1.0), BAD_FLOATS
    if flag == "deltas":
        # one bad delta among good ones; from pi/4 on the band starts below 0
        good = st.lists(FAMILY_DELTA, max_size=2)
        return (st.lists(FAMILY_DELTA, min_size=1, max_size=3),
                st.tuples(good, BAD_FLOATS | st.floats(0.8, 10.0), good)
                .map(lambda t: [*t[0], t[1], *t[2]]))
    if flag == "grid":
        return st.integers(100, 400), st.integers(-5, 99) | st.integers(MAX_GRID + 1, 10**12)
    if flag == "upper":
        return st.floats(-2.0, 20.0), NON_FINITE
    if flag == "loop-length":
        # no loop this short leaves the Gaussian cap (r_max 50); from 2 pi on
        # the search is INFEASIBLE and exits 1
        return st.floats(0.01, 10.0), BAD_FLOATS
    if flag == "r0":
        # inside every model (the sphere's r_max is pi) and off the pole, so
        # that any angle may be drawn
        return st.floats(0.05, 1.5), st.sampled_from(
            [math.nan, math.inf, -math.inf, -1e-300, -2.5, 1e3])
    if flag == "dir":
        return st.floats(-3.0, 3.0), NON_FINITE
    # length: no arc this short leaves the cap; past 100 r_max it is refused
    return st.floats(0.1, 3.0), BAD_FLOATS | st.just(1e7)


@st.composite
def invocations(draw, commands, broken=DRAW):
    """CLI arguments for one of ``commands``, and the flag out of range
    (None when every one is in range).

    The command is drawn first and then which of its own flags to break,
    unless ``broken`` names it.  At most one is out of range, so each one is
    seen to exit 2 on its own.
    """
    cmd = draw(st.sampled_from(commands))
    # gap needs a compact model; family-limit builds families itself
    model = None if cmd == "family-limit" else draw(st.sampled_from(
        ["family", "round_sphere"] + ([] if cmd == "gap" else ["gaussian"])))
    family = model in ("family", None)
    optional = {"upper"} if family else {"upper", "delta"}
    flags = [f for f in FLAGS[cmd]
             if f not in optional or f == broken or draw(st.booleans())]
    if broken == DRAW:
        broken = draw(st.one_of(st.none(), st.sampled_from(flags)))
    # --flag=value, so that argparse reads a negative value as a value
    return ([cmd] + ([f"--model={model}"] if model else [])
            + [f"--{f}={_arg(draw(_values(f, family)[f == broken]))}" for f in flags],
            broken)


def _reject(name):
    raise ValueError(f"{name} is not JSON")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    return code, out.getvalue(), err.getvalue()


def _check_exit_codes(argv, broken):
    code, out, err = _run(argv)
    if broken:
        assert code == 2 and out == "", (argv, code, err)
        return
    assert code in (0, 1), (argv, code, err)
    kw = dict(a.lstrip("-").split("=") for a in argv[1:])
    if argv[0] == "geodesic":
        assert code == 0
        assert out.startswith("t,r,theta,rdot,")
        return
    if argv[0] == "family-limit":
        assert out.splitlines()[0].startswith("delta,") and \
            len(out.splitlines()) == 1 + len(kw["deltas"].split(","))
        return
    doc = json.loads(out, parse_constant=_reject)
    if argv[0] == "index":
        assert doc["cross_check_agree"] is (code == 0)
        assert doc["length"] == float(kw["length"])
        return
    if argv[0] == "build":
        assert code == 0
    else:
        assert doc["pass"] is (code == 0)
        doc = doc["model"]
    # the model the CLI wrote reads back to the model it built
    m = manifold_from_dict(doc)
    assert _same(build_model(kw["model"], int(kw["n"]), float(kw["eps"]),
                             float(kw["delta"]) if "delta" in kw else None), m)


@PROPERTY
@given(invocations(["build", "pinch", "klingenberg", "gap", "family-limit"]))
# the 50 drawn examples break no --grid, so the bound is checked explicitly
@example((["pinch", "--model=gaussian", "--n=3", "--eps=0.5", f"--grid={MAX_GRID + 1}"],
          "grid"))
# no drawn r0 is a far pole: a launch off the meridians from r_max
@example((["geodesic", "--model=round_sphere", "--n=3", "--eps=0.5", f"--r0={math.pi!r}",
           "--dir=0.5", "--length=1.0"], "r0"))
@example((["index", "--model=family", "--n=10", "--eps=0.8", "--delta=0.02",
           "--r0=3.866990816987241", "--dir=0.5", "--length=1.0"], "r0"))
def test_cli_exits_two_exactly_on_out_of_range_arguments(invocation):
    _check_exit_codes(*invocation)


# drawn examples break some flags far more often than others, so every
# command gets a few examples with each of its flags broken, and with none;
# each in-range index example shoots a geodesic and solves for its
# conjugate points
@pytest.mark.parametrize("cmd,broken", [(cmd, flag) for cmd, flags in FLAGS.items()
                                        for flag in (None, *flags)])
@settings(PROPERTY, max_examples=2)
@given(data=st.data())
def test_each_flag_out_of_range_exits_two(cmd, broken, data):
    _check_exit_codes(*data.draw(invocations([cmd], broken)))


def test_failing_property_prints_its_example(tmp_path):
    # the project's pytest config makes every DeprecationWarning an error;
    # a failing property must still end in hypothesis's report
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 10\n")
    config = pathlib.Path(__file__).parents[1] / "pyproject.toml"
    proc = subprocess.run([sys.executable, "-m", "pytest", "-c", str(config),
                           "-p", "no:cacheprovider", "test_fails.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out

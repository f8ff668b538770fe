"""Property tests: the profile JSON round trip and the CLI exit-code contract.

The contract is 0 pass, 1 violation, 2 invalid input.  Examples are drawn
deterministically (``derandomize``), so a failure reproduces on every run.
"""

import contextlib
import io
import json
import math
import os
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


@st.composite
def invocations(draw):
    """CLI arguments for build, pinch or klingenberg, and whether every one
    is in range.

    Either every argument is in range or exactly one is out of range, so
    each one is seen to exit 2 on its own.
    """
    cmd = draw(st.sampled_from(["build", "pinch", "klingenberg"]))
    model = draw(st.sampled_from(["family", "round_sphere", "gaussian"]))
    family = model == "family"
    # flag -> (in-range values, out-of-range values)
    flags = {"n": (FAMILY_N, st.integers(-3, 2)) if family
             else (st.integers(2, 12), st.integers(-3, 1)),
             "eps": (FAMILY_EPS if family else st.floats(0.01, 10.0), BAD_FLOATS)}
    if family or draw(st.booleans()):
        flags["delta"] = (FAMILY_DELTA if family else st.floats(0.01, 1.0), BAD_FLOATS)
    if cmd == "pinch":
        flags["grid"] = (st.integers(100, 400),
                         st.integers(-5, 99) | st.integers(MAX_GRID + 1, 10**12))
        if draw(st.booleans()):
            flags["upper"] = (st.floats(-2.0, 20.0),
                              st.sampled_from([math.nan, math.inf, -math.inf]))
    if cmd == "klingenberg":
        # no loop this short leaves the Gaussian cap (r_max 50); from 2 pi on
        # the search is INFEASIBLE and exits 1
        flags["loop-length"] = (st.floats(0.01, 10.0), BAD_FLOATS)
    broken = draw(st.one_of(st.none(), st.sampled_from(sorted(flags))))
    # --flag=value, so that argparse reads a negative value as a value
    return ([cmd, f"--model={model}"]
            + [f"--{k}={draw(bad if k == broken else ok)!r}"
               for k, (ok, bad) in flags.items()],
            broken is None)


def _reject(name):
    raise ValueError(f"{name} is not JSON")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    return code, out.getvalue(), err.getvalue()


@PROPERTY
@given(invocations())
# the 50 drawn examples break no --grid, so the bound is checked explicitly
@example((["pinch", "--model=gaussian", "--n=3", "--eps=0.5", f"--grid={MAX_GRID + 1}"],
          False))
def test_cli_exits_two_exactly_on_out_of_range_arguments(invocation):
    argv, in_range = invocation
    code, out, err = _run(argv)
    if not in_range:
        assert code == 2 and out == "", (argv, code, err)
        return
    assert code in (0, 1), (argv, code, err)
    doc = json.loads(out, parse_constant=_reject)
    if argv[0] == "build":
        assert code == 0
    else:
        assert doc["pass"] is (code == 0)
        doc = doc["model"]
    # the model the CLI wrote reads back to the model it built
    m = manifold_from_dict(doc)
    kw = dict(a.lstrip("-").split("=") for a in argv[1:])
    assert _same(build_model(kw["model"], int(kw["n"]), float(kw["eps"]),
                             float(kw["delta"]) if "delta" in kw else None), m)

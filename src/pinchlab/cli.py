"""Command-line front end.

Subcommands: build, curvature, pinch, geodesic, index, gap, family-limit,
klingenberg.  Results go to --out (or stdout), diagnostics to stderr.
Exit codes: 0 all checks pass, 1 a verification reported violations,
2 invalid input or construction failure.

Output is deterministic: JSON is emitted with sorted keys and each float as
its shortest round-trip repr, a non-finite float as null; CSV floats are
written at 17 significant digits (``profiles.json_text`` and
``profiles.csv_lines``).  The pinch, gap and klingenberg reports share one
schema, {"suite", "model", "params", "pass", "margins", "violations",
"resolution", "tolerances"} (:func:`_report`), and embed the defaults they
ran with.  A report's ``pass`` is true exactly when ``violations`` is empty.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .errors import PinchlabError
from .profiles import (build_model, csv_lines, json_text, load_manifold, manifold_to_dict,
                       save_manifold, write_text)
from .curvature import dump_csv, grid_ends
from .geodesics import (DEFAULT_DISTANCE_TOL, DEFAULT_SHOOT_TOL, inj_at_pole,
                        shoot)
from .variation import geodesic_index
from .verify import DEFAULT_GRID, diameter_gap, klingenberg_delta_search, verify_pinch

MAX_GRID = 10**6   # --grid above this would ask for gigabytes of arrays

DEFAULTS = {
    "grid": DEFAULT_GRID,
    "integrator_tol": DEFAULT_SHOOT_TOL,
    "distance_tol": DEFAULT_DISTANCE_TOL,
}


def _int_at_least(low, high=None):
    """argparse type: an integer >= ``low``, and <= ``high`` when given."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value
    return parse


def _finite_float(text):
    """argparse type: a finite float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _positive_float(text):
    """argparse type: a finite float > 0."""
    value = _finite_float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _positive_floats(text):
    """argparse type: a comma-separated list of finite floats > 0."""
    values = [_positive_float(x) for x in text.split(",") if x]
    if not values:
        raise argparse.ArgumentTypeError("expected a comma-separated list of values")
    return values


def _add_model_flags(p):
    p.add_argument("--model", choices=["gaussian", "round_sphere", "family"])
    p.add_argument("--from", dest="from_json", metavar="PATH",
                   help="load the model from a profile JSON file")
    p.add_argument("--n", type=_int_at_least(2), default=3)
    p.add_argument("--eps", type=_positive_float)
    p.add_argument("--delta", type=_positive_float)
    p.add_argument("--scale", choices=["ricci", "sec"], default="ricci",
                   help="potential scaling mode (sec divides by n-1)")


def _resolve_model(args):
    if args.from_json:
        return load_manifold(args.from_json)
    if not args.model:
        raise PinchlabError("either --model or --from is required")
    scale = 1.0 if args.scale == "ricci" else 1.0 / (args.n - 1)
    return build_model(args.model, args.n, args.eps, args.delta, scale)


def _model_params(args):
    """The model flags a report ran with.  A model read with --from ignores
    all but ``eps``, which the suites read."""
    flags = [("eps", args.eps)]
    if not args.from_json:
        flags += [("model", args.model), ("n", args.n), ("delta", args.delta),
                  ("scale", args.scale)]
    return {k: v for k, v in flags if v is not None}


def _report(suite, m, args, margins, violations, params=None,
            resolution=None, tolerances=None):
    """The report document of a suite.  The model flags given on the command
    line override ``params``, and ``resolution`` overrides :data:`DEFAULTS`."""
    return {
        "suite": suite,
        "model": manifold_to_dict(m),
        "params": {**(params or {}), **_model_params(args)},
        "pass": not violations,
        "margins": margins,
        "violations": list(violations),
        "resolution": {**DEFAULTS, **(resolution or {})},
        "tolerances": tolerances or {},
    }


def build_parser():
    ap = argparse.ArgumentParser(prog="pinchlab",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("build", help="construct a model and write profile JSON")
    _add_model_flags(p)
    p.add_argument("--out")

    p = sub.add_parser("curvature", help="17-column curvature CSV over a radial grid")
    _add_model_flags(p)
    p.add_argument("--grid", type=_int_at_least(1, MAX_GRID), default=DEFAULTS["grid"])
    p.add_argument("--out")

    p = sub.add_parser("pinch", help="pinching verification report")
    _add_model_flags(p)
    p.add_argument("--mode", choices=["ricci", "sec"], default="ricci")
    p.add_argument("--upper", type=_finite_float)
    p.add_argument("--grid", type=_int_at_least(1, MAX_GRID), default=DEFAULTS["grid"])
    p.add_argument("--out")

    p = sub.add_parser("geodesic", help="shoot a geodesic, dump the path CSV")
    _add_model_flags(p)
    p.add_argument("--r0", type=float, default=0.0, help="launch radius")
    p.add_argument("--dir", type=float, default=0.0,
                   help="launch angle from the radial direction (radians)")
    p.add_argument("--length", type=float, required=True)
    p.add_argument("--out")

    p = sub.add_parser("index", help="geodesic index report JSON")
    _add_model_flags(p)
    p.add_argument("--r0", type=float, default=0.0)
    p.add_argument("--dir", type=float, default=0.0)
    p.add_argument("--length", type=float, required=True)
    p.add_argument("--out")

    p = sub.add_parser("gap", help="diameter / injectivity gap report")
    _add_model_flags(p)
    p.add_argument("--out")

    p = sub.add_parser("family-limit", help="delta-sweep CSV of the example family")
    p.add_argument("--n", type=_int_at_least(2), required=True)
    p.add_argument("--eps", type=_positive_float, required=True)
    p.add_argument("--deltas", type=_positive_floats, required=True,
                   help="comma-separated list of delta values")
    p.add_argument("--grid", type=_int_at_least(1, MAX_GRID), default=2000)
    p.add_argument("--out")

    p = sub.add_parser("klingenberg", help="loop-condition delta search report")
    _add_model_flags(p)
    p.add_argument("--loop-length", type=float, required=True)
    p.add_argument("--out")

    return ap


def run_cli(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 2
    try:
        return _dispatch(args)
    except (PinchlabError, OSError) as e:
        print(f"pinchlab: error: {e}", file=sys.stderr)
        return 2


def _dispatch(args):
    out = args.out or sys.stdout
    if args.cmd == "family-limit":
        rows = []
        ok = True
        for d in args.deltas:
            m = build_model("family", args.n, args.eps, d)
            rep = verify_pinch(m, eps=args.eps, grid_size=args.grid)
            ok = ok and rep.passed
            mg = rep.margins()
            rows.append((d, m.r_max, math.pi / args.eps, inj_at_pole(m),
                         mg["lower_margin"], mg["upper_margin"]))
        header = ("delta", "L_delta", "pi_over_eps", "inj_p", "pinch_lower_margin",
                  "pinch_upper_margin")
        write_text(out, csv_lines(header, zip(*rows)))
        return 0 if ok else 1

    m = _resolve_model(args)
    if args.cmd == "build":
        save_manifold(m, out)
        return 0

    if args.cmd == "curvature":
        dump_csv(m, np.linspace(*grid_ends(m), args.grid + 1), out)
        return 0

    if args.cmd == "geodesic":
        shoot(m, args.r0, args.dir, args.length).dump_csv(out)
        return 0

    if args.cmd == "index":
        path = shoot(m, args.r0, args.dir, args.length)
        res = geodesic_index(m, path)
        write_text(out, [json_text({**res.to_dict(), "length": path.length})])
        return 0 if res.cross_check_agree else 1

    # the suite reports
    if args.cmd == "pinch":
        rep = verify_pinch(m, args.mode.upper(), args.eps, args.upper,
                           grid_size=args.grid)
        doc = _report("pinch", m, args, rep.margins(), rep.violations,
                      {"mode": rep.mode, "eps": rep.eps_target, "upper": rep.upper_target},
                      {"grid_size": rep.grid_size, "grid": args.grid},
                      {"tol_lower": rep.tol_lower, "tol_upper": rep.tol_upper})
    elif args.cmd == "gap":
        gap = diameter_gap(m, eps=args.eps)
        doc = _report("gap", m, args,
                      {"farthest": gap.farthest, "bound": gap.bound,
                       "zero_bound": gap.zero_bound, "inj_p": gap.inj_p,
                       "inj_threshold": gap.bound,
                       "inj_hypothesis_met": gap.inj_hypothesis_met,
                       "berger_inner": gap.berger_inner},
                      gap.violations)
    else:  # klingenberg
        res = klingenberg_delta_search(m, eps=args.eps, l=args.loop_length)
        margins = ({"status": res["status"]} if res["violations"] else
                   {"delta_max": res["delta_max"], "delta": res["delta"],
                    "binding": res["binding"], **res["margins"]})
        doc = _report("klingenberg", m, args, margins, res["violations"],
                      {"l": args.loop_length})
        if "assumptions" in res:
            doc["assumptions"] = res["assumptions"]
    write_text(out, [json_text(doc)])
    return 0 if doc["pass"] else 1


def main():
    sys.exit(run_cli())


if __name__ == "__main__":
    main()

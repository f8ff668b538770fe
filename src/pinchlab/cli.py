"""Command-line front end.

Subcommands: build, curvature, pinch, geodesic, index, gap, family-limit,
klingenberg.  Results go to --out (or stdout), diagnostics to stderr.
Exit codes: 0 all checks pass, 1 a verification reported violations,
2 invalid input or construction failure.

Output is deterministic: JSON is emitted with sorted keys and floats at
17 significant digits; every report embeds the defaults it ran with.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .errors import PinchlabError
from .profiles import (LINEAR, SINE, build_model, load_manifold,
                       manifold_to_dict, check_c2)
from .curvature import dump_csv
from .geodesics import (DEFAULT_DISTANCE_TOL, DEFAULT_SHOOT_TOL, inj_at_pole,
                        shoot)
from .variation import geodesic_index
from .verify import (INFEASIBLE, diameter_gap, inj_gap_hypothesis,
                     klingenberg_delta_search, make_report, pinch_report_doc,
                     verify_pinch)

DEFAULTS = {
    "grid": 10_000,
    "integrator_tol": DEFAULT_SHOOT_TOL,
    "distance_tol": DEFAULT_DISTANCE_TOL,
}


def _fmt(v):
    if isinstance(v, float):
        return float(f"{v:.17g}")
    if isinstance(v, (np.floating,)):
        return float(f"{float(v):.17g}")
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.bool_,)):
        return bool(v)
    if isinstance(v, dict):
        return {k: _fmt(x) for k, x in v.items()}
    if isinstance(v, (list, tuple, np.ndarray)):
        return [_fmt(x) for x in v]
    return v


def _emit_json(doc, out):
    doc = _fmt(doc)
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_text(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_model_flags(p):
    p.add_argument("--model", choices=["gaussian", "round_sphere", "family"])
    p.add_argument("--from", dest="from_json", metavar="PATH",
                   help="load the model from a profile JSON file")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--eps", type=float)
    p.add_argument("--delta", type=float)
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
    return {k: v for k, v in (("model", args.model), ("n", args.n),
                              ("eps", args.eps), ("delta", args.delta),
                              ("scale", args.scale)) if v is not None}


def build_parser():
    ap = argparse.ArgumentParser(prog="pinchlab",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("build", help="construct a model and write profile JSON")
    _add_model_flags(p)
    p.add_argument("--out")

    p = sub.add_parser("curvature", help="17-column curvature CSV over a radial grid")
    _add_model_flags(p)
    p.add_argument("--grid", type=int, default=DEFAULTS["grid"])
    p.add_argument("--out")

    p = sub.add_parser("pinch", help="pinching verification report")
    _add_model_flags(p)
    p.add_argument("--mode", choices=["ricci", "sec"], default="ricci")
    p.add_argument("--upper", type=float)
    p.add_argument("--grid", type=int, default=DEFAULTS["grid"])
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
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--deltas", required=True,
                   help="comma-separated list of delta values")
    p.add_argument("--grid", type=int, default=2000)
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
    except PinchlabError as e:
        print(f"pinchlab: error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"pinchlab: error: {e}", file=sys.stderr)
        return 2


def _dispatch(args):
    if args.cmd == "build":
        m = _resolve_model(args)
        _emit_json(manifold_to_dict(m), args.out)
        return 0

    if args.cmd == "curvature":
        m = _resolve_model(args)
        lo = 0.0 if m.phi.segments[0].kind in (SINE, LINEAR) else 1e-6
        rs = np.linspace(lo, m.r_max, args.grid + 1)
        if args.out:
            dump_csv(m, rs, args.out)
        else:
            dump_csv(m, rs, sys.stdout)
        return 0

    if args.cmd == "pinch":
        m = _resolve_model(args)
        rep = verify_pinch(m, args.mode.upper(), args.eps, args.upper,
                           grid_size=args.grid)
        doc = pinch_report_doc(m, rep, _model_params(args))
        doc["resolution"].update(DEFAULTS)
        _emit_json(doc, args.out)
        return 0 if rep.passed else 1

    if args.cmd == "geodesic":
        m = _resolve_model(args)
        path = shoot(m, args.r0, args.dir, args.length)
        if args.out:
            path.dump_csv(args.out)
        else:
            path.dump_csv(sys.stdout)
        return 0

    if args.cmd == "index":
        m = _resolve_model(args)
        path = shoot(m, args.r0, args.dir, args.length)
        res = geodesic_index(m, path)
        _emit_json(res.to_dict(length=path.length), args.out)
        return 0 if res.cross_check_agree else 1

    if args.cmd == "gap":
        m = _resolve_model(args)
        gap = diameter_gap(m, eps=args.eps)
        hyp = inj_gap_hypothesis(m, eps=args.eps)
        violations = []
        if not gap.diameter_ok:
            violations.append({"r": gap.farthest_point[0],
                               "quantity": "farthest_distance",
                               "value": gap.farthest, "bound": gap.bound})
        doc = make_report(
            "gap", m, _model_params(args),
            gap.diameter_ok and gap.berger_check,
            {"farthest": gap.farthest, "bound": gap.bound,
             "zero_bound": gap.zero_bound, "inj_p": gap.inj_p,
             "inj_threshold": gap.inj_threshold,
             "inj_hypothesis_met": hyp["hypothesis_met"],
             "berger_inner": gap.berger_inner},
            violations, resolution=DEFAULTS)
        _emit_json(doc, args.out)
        return 0 if doc["pass"] else 1

    if args.cmd == "family-limit":
        deltas = [float(x) for x in args.deltas.split(",") if x]
        if not deltas or any(d <= 0 for d in deltas):
            raise PinchlabError("--deltas must be a list of positive values")
        rows = ["delta,L_delta,pi_over_eps,inj_p,pinch_lower_margin,pinch_upper_margin"]
        ok = True
        for d in deltas:
            m = build_model("family", args.n, args.eps, d)
            rep = verify_pinch(m, eps=args.eps, grid_size=args.grid)
            ok = ok and rep.passed
            mg = rep.margins()
            rows.append(",".join(f"{v:.17g}" for v in (
                d, m.r_max, math.pi / args.eps, inj_at_pole(m),
                mg["lower_margin"], mg["upper_margin"])))
        _emit_text("\n".join(rows) + "\n", args.out)
        return 0 if ok else 1

    if args.cmd == "klingenberg":
        m = _resolve_model(args)
        res = klingenberg_delta_search(m, eps=args.eps, l=args.loop_length)
        if res == INFEASIBLE:
            doc = make_report("klingenberg", m,
                              {**_model_params(args), "l": args.loop_length},
                              False, {"status": INFEASIBLE},
                              [{"r": 0.0, "quantity": "feasibility",
                                "value": 0.0, "bound": 0.0}],
                              resolution=DEFAULTS)
            _emit_json(doc, args.out)
            return 1
        doc = make_report("klingenberg", m,
                          {**_model_params(args), "l": args.loop_length},
                          True, {"delta_max": res["delta_max"],
                                 "delta": res["delta"],
                                 "binding": res["binding"], **res["margins"]},
                          resolution=DEFAULTS)
        doc["assumptions"] = res["assumptions"]
        _emit_json(doc, args.out)
        return 0

    raise PinchlabError(f"unknown subcommand {args.cmd!r}")


def main():
    sys.exit(run_cli())


if __name__ == "__main__":
    main()

"""The four workloads, the probes and the operation recorder.

A workload builds its models and inputs from the seed in ``setup`` and then
runs whole rounds; round ``i`` draws its inputs from ``default_rng([seed,
i])``, so a seed fixes every input of a run.  Each operation is one call
into pinchlab's public API, timed alone and then checked by an oracle from
``oracles``; the check is not timed.

A traced run prints a typical call time for every operation kind.  A
workload measures its own kinds on its seeded inputs.  In a traced run the
kinds it does not run are timed by probes: a fixed number of calls on small
fixed inputs, checked by the same oracles and interleaved with the workload.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import statistics
import subprocess
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

import pinchlab as P
from pinchlab.variation import RICCI, SEC_PERP, line_integral, loop_index_check

import oracles as O

CLI_MAIN = "import sys; from pinchlab.cli import main; sys.argv[0] = 'pinchlab'; main()"
CLI_TIMEOUT_S = 120
POLE_GAP = (1e-3, 2e-3)      # grids stay this far from the poles (see README)
SETUP_STREAM = 2**31


class Ops:
    """Runs operations, keeps the times of those that passed their check.

    ``between``, when set, is called after each operation, outside its timing
    (the probes use it to interleave with the workload).  ``key`` names a
    fixed input that the workload calls again in every round.
    """

    def __init__(self):
        self.times = defaultdict(list)
        self.keys = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.errors = []
        self.between = None

    def _fail(self, kind, exc, wrong):
        self.failed += 1
        self.wrong += int(wrong)
        if len(self.errors) < 20:
            self.errors.append(f"{kind}: {type(exc).__name__}: {exc}")

    def run(self, kind, fn, check=None, key=None):
        out = self._run(kind, fn, check, key)
        if self.between is not None:
            between, self.between = self.between, None
            try:
                between()
            finally:
                self.between = between
        return out

    def _run(self, kind, fn, check, key):
        self.attempted += 1
        t0 = perf_counter()
        try:
            out = fn()
        except Exception as exc:        # a failing operation is counted, the run goes on
            self._fail(kind, exc, wrong=False)
            return None
        dt = perf_counter() - t0
        if check is not None:
            try:
                check(out)
            except Exception as exc:    # an oracle mismatch or a malformed output
                self._fail(kind, exc, wrong=True)
                return None
        self.times[kind].append(dt)
        self.keys[kind].append(("call", len(self.keys[kind])) if key is None else key)
        return out

    def typical_time(self, kind):
        """The median over inputs of each input's median time.

        A call without a key is an input of its own, so for seeded inputs this
        is the plain median.  For a fixed set of inputs of different cost it
        is the middle input's median: a plain median over all their calls
        jumps between the inputs as the host's speed drifts.
        """
        groups = defaultdict(list)
        for key, dt in zip(self.keys[kind], self.times[kind]):
            groups[key].append(dt)
        return statistics.median(statistics.median(g) for g in groups.values())


class Cli:
    """Runs one pinchlab command, in a fresh interpreter or in-process."""

    def __init__(self, root, in_process):
        self.in_process = in_process
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))

    def __call__(self, args, stdout_path):
        if self.in_process:
            from pinchlab import cli
            with open(stdout_path, "w") as fh, contextlib.redirect_stdout(fh):
                return cli.run_cli(list(args))
        with open(stdout_path, "w") as fh:
            return subprocess.run([sys.executable, "-c", CLI_MAIN, *args], stdout=fh,
                                  stderr=subprocess.DEVNULL, env=self.env,
                                  timeout=CLI_TIMEOUT_S).returncode


def _grid(r_max, rng, size=10_000):
    """Both poles plus a uniform grid kept POLE_GAP away from them."""
    a = rng.uniform(*POLE_GAP)
    return np.concatenate([[0.0], np.linspace(a, r_max - a, size - 2), [r_max]])


def _sample_dict(s):
    return {k: np.array([v]) for k, v in dataclasses.asdict(s).items()}


def _conservation(m, path, c=None):
    r = np.clip(path.samples[:, 1], 0.0, m.r_max)
    phi = m.phi.eval(r)
    if c is None:                      # constancy along the path
        c = phi[0] ** 2 * path.thetadot[0]
    O.check_conservation(path.samples[:, 3], path.thetadot, phi, c)


def _end(path):
    r, _, th, _ = path.state(path.length)
    return float(r), float(th)


def _family(rng, n_range, eps_range, delta_range):
    return (int(rng.integers(*n_range)), float(rng.uniform(*eps_range)),
            float(rng.uniform(*delta_range)))


def _point(rng, lo, hi):
    return (float(rng.uniform(lo, hi)), float(rng.uniform(-math.pi, math.pi)))


def _check_gap(gap, eps, L):
    O.check_gap(dataclasses.asdict(gap), eps, L)
    O.expect("gap diameter check", gap.diameter_ok and gap.berger_check)


def _check_index_sphere(res, n, length):
    O.check_cross_check(res.classes)
    O.check_index(res.index, res.classes, n, O.sphere_conjugate_points(length),
                  O.ZERO_TOL_SPHERE)


def _check_index_flat(res, n):
    O.check_cross_check(res.classes)
    O.check_index(res.index, res.classes, n, [], O.ZERO_TOL_SPHERE)


class Workload:
    """Operation kinds ending in ``_other`` are checked and counted in
    ops_per_s but kept out of the per-layer call times: in pinch_sweep and
    geodesic_queries the sphere and Gaussian calls are several times cheaper
    than the family's, and mixed in they would put each median in the lower
    tail of the family calls, where host noise moves it most."""

    name = ""
    kinds = {}          # operation kind -> (per-layer metric, scale to its unit)
    min_rounds = 1

    def __init__(self, seed, root, trace, work_dir):
        self.seed = seed
        self.work_dir = work_dir
        self.cli = Cli(root, in_process=trace)
        self.sphere3 = P.build_model("round_sphere", 3)
        self.family10 = P.build_model("family", 10, 0.8, 0.02)

    def rng(self, i):
        """Inputs of round i; the set-up draws from i = SETUP_STREAM."""
        return np.random.default_rng([self.seed, i])

    def setup(self):
        raise NotImplementedError

    def round(self, ops, i):
        raise NotImplementedError


# ---------------------------------------------------------------------------
# pinch_sweep


class PinchSweep(Workload):
    name = "pinch_sweep"
    kinds = {"build": ("profiles.build_model_ms", 1e3),
             "pinch": ("verify.verify_pinch_ms", 1e3),
             "table": ("curvature.curvature_table_ms", 1e3)}

    def setup(self):
        m = self.family10
        P.verify_pinch(m)
        P.verify_pinch(P.build_model("family", 10, 0.8, 0.02, potential_scale=1 / 9), "SEC")
        P.curvature_table(m, np.linspace(0.0, m.r_max, 101))
        P.curvature_sample(m, 0.5)
        P.build_model("gaussian", 3)

    @staticmethod
    def _config(rng):
        while True:
            n, eps, delta = _family(rng, (3, 13), (0.55, 0.95), (0.01, 0.05))
            verdict = O.family_pinch_verdict(n, eps, delta)
            if verdict is not None:
                return n, eps, delta, verdict

    def round(self, ops, i):
        rng = self.rng(i)
        fams = []
        for _ in range(4):
            n, eps, delta, verdict = self._config(rng)
            check = lambda m: O.check_family_build(m.meta, m.r_max, n, eps, delta)
            m = ops.run("build", lambda: P.build_model("family", n, eps, delta), check)
            ms = ops.run("build", lambda: P.build_model("family", n, eps, delta,
                                                        potential_scale=1.0 / (n - 1)), check)
            ops.run("pinch", lambda: P.verify_pinch(m),
                    lambda rep: self._check_family_pinch(rep, n, delta, verdict))
            # the cylinder's weighted sectional curvature wsec_Tr is exactly 0
            ops.run("pinch", lambda: P.verify_pinch(ms, "SEC"),
                    lambda rep: O.check_pinch(rep.passed, rep.achieved_lower, False, 0.0,
                                              O.IDENTITY_TOL))
            grid = _grid(2.0 * O.doubling_point(eps, delta), rng)
            ops.run("table", lambda: P.curvature_table(m, grid),
                    lambda t: O.check_family_curvature(t, n, eps, delta))
            fams.append((m, n, eps, delta))

        ns, ng = int(rng.integers(3, 8)), int(rng.integers(3, 8))
        sph = ops.run("build_other", lambda: P.build_model("round_sphere", ns),
                      lambda m: O.near("sphere r_max", m.r_max, math.pi, O.IDENTITY_TOL))
        e1, e2 = rng.uniform(0.5, 0.99, size=2)
        ops.run("pinch_other", lambda: P.verify_pinch(sph, eps=e1),
                lambda rep: O.check_pinch(rep.passed, rep.achieved_lower, True, ns - 1.0))
        ops.run("pinch_other", lambda: P.verify_pinch(sph, "SEC", eps=e2),
                lambda rep: O.check_pinch(rep.passed, rep.achieved_lower, True, 1.0))
        grid = _grid(math.pi, rng)
        ops.run("table_other", lambda: P.curvature_table(sph, grid), O.check_sphere_curvature)

        gau = ops.run("build_other", lambda: P.build_model("gaussian", ng), None)
        gau_sec = ops.run("build_other", lambda: P.build_model("gaussian", ng,
                                                         potential_scale=1.0 / (ng - 1)), None)
        # Bakry-Emery is 1 and the weighted sectional curvature 1/(n-1), so
        # the verdicts are (n-1) eps <= 1 and eps <= 1/(n-1)
        e1 = self._away(rng, 1.0 / (ng - 1))
        ops.run("pinch_other", lambda: P.verify_pinch(gau, eps=e1),
                lambda rep: O.check_pinch(rep.passed, rep.achieved_lower,
                                          (ng - 1) * e1 <= 1.0, 1.0, O.IDENTITY_TOL))
        e2 = self._away(rng, 1.0 / (ng - 1))
        ops.run("pinch_other", lambda: P.verify_pinch(gau_sec, "SEC", eps=e2),
                lambda rep: O.check_pinch(rep.passed, rep.achieved_lower,
                                          e2 <= 1.0 / (ng - 1), 1.0 / (ng - 1),
                                          O.IDENTITY_TOL))
        grid = np.linspace(0.0, 50.0, 10_000) * rng.uniform(0.9, 1.0)
        ops.run("table_other", lambda: P.curvature_table(gau, grid), O.check_gaussian_curvature)

        m, n, eps, delta = fams[0]
        L = O.doubling_point(eps, delta)
        gap = POLE_GAP[0]
        for r in np.concatenate([rng.uniform(gap, math.pi / 2 - 2 * delta - gap, 4),
                                 rng.uniform(math.pi / 2, 2 * L - math.pi / 2, 4)]):
            ops.run("sample", lambda: P.curvature_sample(m, r),
                    lambda s: O.check_family_curvature(_sample_dict(s), n, eps, delta))
        for r in rng.uniform(gap, math.pi - gap, 8):
            ops.run("sample", lambda: P.curvature_sample(sph, r),
                    lambda s: O.check_sphere_curvature(_sample_dict(s)))
        for r in rng.uniform(0.0, 50.0, 8):
            ops.run("sample", lambda: P.curvature_sample(gau, r),
                    lambda s: O.check_gaussian_curvature(_sample_dict(s)))

    @staticmethod
    def _away(rng, boundary):
        """An eps in [0.3 b, 1.7 b] at least 1% away from the boundary b."""
        while True:
            e = boundary * rng.uniform(0.3, 1.7)
            if abs(e / boundary - 1.0) > 0.01:
                return e

    @staticmethod
    def _check_family_pinch(rep, n, delta, verdict):
        O.check_pinch(rep.passed, rep.achieved_lower, verdict)
        if not verdict:
            # the violation sits on the cylinder, at bakry_tt = (n-2)/A^2
            a_lo, a_hi = O.cylinder_radius_bracket(delta)
            lo, hi = (n - 2) / a_hi**2, (n - 2) / a_lo**2
            O.expect("no cylinder violation of bakry_tt", any(
                v["quantity"] == "bakry_tt" and v["r"] > math.pi / 2 - 1e-9
                and lo - O.PINCH_TOL <= v["value"] <= hi + O.PINCH_TOL
                for v in rep.violations))


# ---------------------------------------------------------------------------
# geodesic_queries


# Family geodesic inputs on family(10, 0.8, 0.02) (index 0) and
# family(6, 0.75, 0.03) (index 1).  They are fixed, not seeded, because two
# faults show on a few seeded family inputs (README, "Known faults"): about
# one band-crossing launch in a few thousand ends with a Clairaut residual
# just above the pinned 1e-8, and about one pair in 160 gets a distance
# longer than the path through a pole.  Each launch crosses the smoothing
# bands five times.
FAMILY_LAUNCHES = ((0, 0.6, 0.5), (0, 1.2, 1.0), (0, 3.3, 2.6), (1, 1.2, 0.5), (1, 2.8, 2.6))
FAMILY_PAIRS = ((0, (2.34, 2.38), (2.83, -1.65)), (0, (2.9, -0.19), (1.29, -1.33)),
                (1, (0.42, 0.09), (1.93, 2.5)), (1, (1.59, -2.98), (3.2, -2.07)))
FAMILY_PATH_PAIRS = ((0, (1.0, -2.04), (2.3, -2.74)), (0, (3.55, 1.76), (2.33, 2.93)),
                     (1, (2.53, 1.45), (0.62, 0.25)))


class GeodesicQueries(Workload):
    name = "geodesic_queries"
    kinds = {"shoot": ("geodesics.shoot_ms", 1e3), "distance": ("geodesics.distance_ms", 1e3),
             "distance_paths": ("geodesics.distance_paths_ms", 1e3)}

    def setup(self):
        rng = self.rng(SETUP_STREAM)
        self.fams = []
        for _ in range(2):
            n, eps, delta = _family(rng, (4, 13), (0.7, 0.9), (0.015, 0.03))
            self.fams.append((P.build_model("family", n, eps, delta), eps, delta))
        self.sph = P.build_model("round_sphere", int(rng.integers(3, 7)))
        self.gau = P.build_model("gaussian", int(rng.integers(3, 7)))
        self.fixed_fams = [self.family10, P.build_model("family", 6, 0.75, 0.03)]
        for m in self.fixed_fams + [self.sph, self.gau]:
            P.distance(m, (1.0, 0.0), (1.5, 1.0), return_paths=False)
            P.shoot(m, 1.0, 0.7, 0.5)
        P.diameter_gap(self.fams[0][0])

    def round(self, ops, i):
        rng = self.rng(i)
        sph, gau = self.sph, self.gau

        for j, (k, r0, a) in enumerate(FAMILY_LAUNCHES):
            m = self.fixed_fams[k]
            ops.run("shoot", lambda: P.shoot(m, r0, a, 2.0),
                    lambda p: _conservation(m, p, float(m.phi(r0)) * math.sin(a)), key=j)
        for m, oracle, lo in ((sph, O.check_sphere_shoot, 0.1), (gau, O.check_flat_shoot, 0.5)):
            for _ in range(2):
                r0, a = rng.uniform(lo, 3.0 - lo), rng.uniform(0.2, math.pi - 0.2)
                ops.run("shoot_other", lambda: P.shoot(m, r0, a, 2.0),
                        lambda p: (oracle(p.samples, r0, a),
                                   _conservation(m, p, float(m.phi(r0)) * math.sin(a))))

        for j, (k, p, q) in enumerate(FAMILY_PAIRS):
            m = self.fixed_fams[k]
            d = ops.run("distance", lambda: P.distance(m, p, q, return_paths=False),
                        key=(j, "pq"))
            ops.run("distance", lambda: P.distance(m, q, p, return_paths=False),
                    lambda out: O.check_family_distance(d[0], out[0], p, q, m.r_max),
                    key=(j, "qp"))
        for m, lo, hi, law in ((sph, 0.05, math.pi - 0.05, O.sphere_distance),
                               (gau, 0.2, 5.0, O.flat_distance)):
            for _ in range(2):
                p, q = _point(rng, lo, hi), _point(rng, lo, hi)
                ops.run("distance_other", lambda: P.distance(m, p, q, return_paths=False),
                        lambda out: O.check_distance(out[0], law(p, q)))

        for j, (k, p, q) in enumerate(FAMILY_PATH_PAIRS):
            m = self.fixed_fams[k]
            ops.run("distance_paths", lambda: P.distance(m, p, q),
                    lambda out: self._check_paths(m, p, q, out, None), key=j)
        for m, lo, hi, law in ((sph, 0.05, math.pi - 0.05, O.sphere_distance),
                               (gau, 0.2, 5.0, O.flat_distance)):
            p, q = _point(rng, lo, hi), _point(rng, lo, hi)
            ops.run("distance_paths_other", lambda: P.distance(m, p, q),
                    lambda out: self._check_paths(m, p, q, out, law))

        m, eps, delta = self.fams[i % 2]
        ops.run("gap", lambda: P.diameter_gap(m),
                lambda g: _check_gap(g, eps, O.doubling_point(eps, delta)))

    @staticmethod
    def _check_paths(m, p, q, out, law):
        d, paths = out
        if law is None:
            O.check_family_distance(d, d, p, q, m.r_max)
        else:
            O.check_distance(d, law(p, q))
        O.expect("no path returned", len(paths) >= 1)
        for path in paths:
            O.check_path_end(_end(path), path.length, q, d)
            if law is not None:        # family paths: see FAMILY_LAUNCHES
                _conservation(m, path)


# ---------------------------------------------------------------------------
# index_oracles


class IndexOracles(Workload):
    name = "index_oracles"
    kinds = {"index": ("variation.geodesic_index_s", 1.0),
             "loop": ("variation.loop_index_check_s", 1.0),
             "klingenberg": ("verify.klingenberg_delta_search_s", 1.0)}
    min_rounds = 2            # a round takes about 13 s; two keep the count fixed

    def setup(self):
        rng = self.rng(SETUP_STREAM)
        self.ns, self.ng = int(rng.integers(3, 7)), int(rng.integers(3, 7))
        self.sph = P.build_model("round_sphere", self.ns)
        self.gau = P.build_model("gaussian", self.ng)
        n, eps, delta = _family(rng, (4, 13), (0.78, 0.82), (0.015, 0.025))
        self.fam = (P.build_model("family", n, eps, delta), n, eps, delta)
        self.fam_sec = P.build_model("family", n, eps, delta, potential_scale=1.0 / (n - 1))
        # one search bound by the field, one by the loop length (README)
        self.kling = [self._kling_config(rng, n, (eps, eps), (2.4, 2.6), "field_bound"),
                      self._kling_config(rng, 3, (0.83, 0.86), (4.7, 4.8), "loop_length")]
        s = self.sphere3
        P.geodesic_index(s, P.shoot(s, 0.0, 0.0, 1.0))
        loop_index_check(s, P.shoot(s, 0.0, 0.0, 2 * math.pi), eps=0.9)
        P.klingenberg_delta_search(s, eps=0.9, l=1.0)
        line_integral(s, P.shoot(s, 0.0, 0.0, 1.0), RICCI)

    @staticmethod
    def _kling_config(rng, n, eps_range, l_range, binding):
        """A family search whose closed-form caps are valid and well separated:
        the field cap keeps 2 delta on the sine cap, the binding cap is at
        least 0.05 below the next one."""
        delta = 0.02
        while True:
            eps, l = float(rng.uniform(*eps_range)), float(rng.uniform(*l_range))
            L = O.doubling_point(eps, delta)
            caps = O.klingenberg_caps(eps, l, (n - 1) * (1.0 - eps), L)
            ranked = sorted(caps.values())
            if (min(caps, key=caps.get) == binding and ranked[1] - ranked[0] > 0.05
                    and 2 * caps["field_bound"] < math.pi / 2 - 2 * delta - 0.02):
                return P.build_model("family", n, eps, delta), l, caps

    def round(self, ops, i):
        rng = self.rng(i)
        sph, gau, (fam, n, eps, delta) = self.sph, self.gau, self.fam
        L = O.doubling_point(eps, delta)
        # lengths vary little with the seed, so the cost of a round does not
        angle = lambda: float(rng.uniform(0.3, math.pi - 0.3))
        Ts = rng.uniform(1.45, 1.55, 5) * math.pi
        Tg = rng.uniform(4.9, 5.1, 3)

        def path(m, T, r0=0.0, a=0.0):
            # family launches are not held to 1e-8 conservation (see FAMILY_LAUNCHES)
            check = None if r0 == 0.0 or m is fam else \
                lambda p: _conservation(m, p, float(m.phi(r0)) * math.sin(a))
            return ops.run("path", lambda: P.shoot(m, r0, a, T), check)

        sphere = lambda T: lambda res: _check_index_sphere(res, self.ns, T)
        flat = lambda res: _check_index_flat(res, self.ng)
        indexes = []
        for j in range(2):
            indexes += [
                (sph, path(sph, Ts[2 * j]), sphere(Ts[2 * j])),
                (sph, path(sph, Ts[2 * j + 1], float(rng.uniform(0.4, math.pi - 0.4)),
                           angle()), sphere(Ts[2 * j + 1])),
                (gau, path(gau, Tg[j]), flat),
                (gau, path(gau, float(rng.uniform(2.9, 3.1)), float(rng.uniform(0.5, 3.0)),
                           angle()), flat),
            ]
        indexes += [
            # the family meridian past the far pole: one zero, at 2L
            (fam, path(fam, 2 * L + 0.2),
             lambda res: (O.check_cross_check(res.classes),
                          O.check_index(res.index, res.classes, n, [2 * L],
                                        O.ZERO_TOL_FAMILY))),
            (fam, path(fam, 1.0, float(rng.uniform(0.3, fam.r_max - 0.3)), angle()),
             lambda res: O.check_cross_check(res.classes)),
        ]
        for m, p, check in indexes:
            ops.run("index", lambda: P.geodesic_index(m, p), check)

        fs = self.fam_sec
        ops.run("loop", lambda: loop_index_check(fs, P.shoot(fs, 0.0, 0.0, 4 * L)),
                lambda rep: O.check_loop(rep, n, eps, 4 * L, [2 * L], O.ZERO_TOL_FAMILY))

        for m, l, caps in self.kling:
            ops.run("klingenberg", lambda: P.klingenberg_delta_search(m, l=l),
                    lambda res: O.check_klingenberg(res, caps))

        lo, hi = O.family_meridian_sec_bracket(delta)
        lines = (
            (sph, path(sph, Ts[4]), RICCI,
             lambda v: O.near("sphere Ricci integral", v, (self.ns - 1) * Ts[4], O.LINE_TOL)),
            (gau, path(gau, Tg[2]), RICCI,
             lambda v: O.near("gaussian Ricci integral", v, 0.0, O.FLAT_LINE_TOL)),
            (fam, path(fam, 2 * L), SEC_PERP,
             lambda v: O.check_in_bracket("family meridian sec integral", v, lo, hi,
                                          O.PINCH_TOL)),
        )
        for m, p, kind, check in lines:
            ops.run("line_integral", lambda: line_integral(m, p, kind), check)


# ---------------------------------------------------------------------------
# cli_reports


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    return {k: rows[:, j] for j, k in enumerate(header)}


def _check_readme_build(path):
    doc = _read_json(path)
    O.expect("build n", doc["n"] == 10 and doc["topology"] == "DOUBLED_SPHERE")
    O.check_family_build(doc["meta"], 2.0 * doc["L"], 10, 0.8, 0.02)


def _check_readme_curvature(path):
    tab = _read_csv(path)
    O.expect("curvature rows", len(tab["r"]) == 1001 and len(tab) == 17)
    O.expect("curvature checked no point", O.check_family_curvature(tab, 10, 0.8, 0.02) > 0)


def _check_readme_pinch(path, n, eps, delta):
    doc = _read_json(path)
    O.check_pinch(doc["pass"], doc["margins"]["achieved_lower"],
                  O.family_pinch_verdict(n, eps, delta))


def _check_readme_geodesic(path):
    tab = _read_csv(path)
    samples = np.column_stack([tab["t"], tab["r"], tab["theta"]])
    O.check_sphere_shoot(samples, 1.0, 0.7)
    O.near("CSV Clairaut residual", float(tab["clairaut_residual"].max()), 0.0,
           O.CONSERVATION_TOL)
    O.near("CSV speed residual", float(tab["speed_residual"].max()), 0.0,
           O.CONSERVATION_TOL)


def _check_readme_index(path):
    doc = _read_json(path)
    O.expect("index cross check", doc["cross_check_agree"] is True)
    O.check_index(doc["index"], {"all": doc}, 3, O.sphere_conjugate_points(doc["length"]),
                  O.ZERO_TOL_SPHERE)


def _check_readme_gap(path):
    doc = _read_json(path)
    O.expect("gap pass", doc["pass"] is True and doc["margins"]["inj_hypothesis_met"] is False)
    O.check_gap(doc["margins"], 0.8, O.doubling_point(0.8, 0.02))


def _check_readme_family_limit(path):
    tab = _read_csv(path)
    deltas = [0.08, 0.04, 0.02, 0.01]
    O.expect("family-limit rows", list(tab["delta"]) == deltas)
    for j, d in enumerate(deltas):
        L = O.doubling_point(0.8, d)
        O.near("family-limit 2L", tab["L_delta"][j], 2 * L, O.IDENTITY_TOL)
        O.near("family-limit pi/eps", tab["pi_over_eps"][j], math.pi / 0.8, O.IDENTITY_TOL)
        O.near("family-limit inj_p", tab["inj_p"][j], 2 * L, O.DIST_TOL)
        O.expect("family-limit pinch margin", (tab["pinch_lower_margin"][j] >= -O.PINCH_TOL)
                == O.family_pinch_verdict(10, 0.8, d))


def _check_readme_klingenberg(path):
    doc = _read_json(path)
    mg = doc["margins"]
    caps = O.klingenberg_caps(0.8, 3.0, 9 * 0.2, O.doubling_point(0.8, 0.02))
    O.expect("klingenberg pass", doc["pass"] is True)
    O.check_klingenberg({"delta_max": mg["delta_max"], "delta": mg["delta"],
                         "binding": mg["binding"],
                         "margins": {k: mg[k] for k in caps}}, caps)


FAMILY_ARGS = ("--model", "family", "--n", "10", "--eps", "0.8", "--delta", "0.02")

# (output file, arguments, expected exit code, check); {d} is the round's
# directory.  These are the README's nine commands, verbatim.
README_COMMANDS = (
    ("family.json", ("build", *FAMILY_ARGS, "--out", "{d}/family.json"), 0,
     _check_readme_build),
    ("curv.csv", ("curvature", "--from", "{d}/family.json", "--grid", "1000", "--out",
                  "{d}/curv.csv"), 0, _check_readme_curvature),
    ("pinch.json", ("pinch", *FAMILY_ARGS), 0,
     lambda p: _check_readme_pinch(p, 10, 0.8, 0.02)),
    ("pinch_fail.json", ("pinch", "--model", "family", "--n", "3", "--eps", "0.9",
                         "--delta", "0.02"), 1,
     lambda p: _check_readme_pinch(p, 3, 0.9, 0.02)),
    ("geodesic.csv", ("geodesic", "--model", "round_sphere", "--r0", "1.0", "--dir", "0.7",
                      "--length", "3.0"), 0, _check_readme_geodesic),
    ("index.json", ("index", "--model", "round_sphere", "--length", "4.71238898038469"), 0,
     _check_readme_index),
    ("gap.json", ("gap", *FAMILY_ARGS), 0, _check_readme_gap),
    ("family_limit.csv", ("family-limit", "--n", "10", "--eps", "0.8", "--deltas",
                          "0.08,0.04,0.02,0.01"), 0, _check_readme_family_limit),
    ("klingenberg.json", ("klingenberg", *FAMILY_ARGS, "--loop-length", "3.0"), 0,
     _check_readme_klingenberg),
)


def run_command(ops, cli, kind, args, out_dir, name, code, check, reference=None):
    """One CLI call; output from --out or stdout lands in out_dir/name."""
    args = [a.format(d=out_dir) for a in args]
    target = os.path.join(out_dir, name)
    stdout = target if "--out" not in args else os.path.join(out_dir, name + ".stdout")

    def verify(exit_code):
        O.expect(f"{args[0]} exit code {exit_code}, expected {code}", exit_code == code)
        check(target)
        if reference is not None:
            ref = os.path.join(reference, name)
            if os.path.exists(ref):
                with open(ref, "rb") as a, open(target, "rb") as b:
                    O.expect(f"{args[0]} output differs between runs", a.read() == b.read())

    return ops.run(kind, lambda: cli(args, stdout), verify)


class CliReports(Workload):
    name = "cli_reports"
    kinds = {"cli": ("cli.dispatch_s", 1.0)}
    min_rounds = 2            # round 0's bytes are the reference for the later rounds

    def setup(self):
        warm = os.path.join(self.work_dir, "warm")
        os.makedirs(warm)
        args = README_COMMANDS[0][1]
        self.cli([a.format(d=warm) for a in args], os.path.join(warm, "stdout"))

    def round(self, ops, i):
        d = os.path.join(self.work_dir, f"round-{i}")
        os.makedirs(d)
        ref = os.path.join(self.work_dir, "round-0") if i else None
        for name, args, code, check in README_COMMANDS:
            run_command(ops, self.cli, "cli", args, d, name, code, check, ref)


WORKLOADS = {w.name: w for w in (PinchSweep, GeodesicQueries, IndexOracles, CliReports)}
# every timed operation kind -> (per-layer metric, scale to its unit)
KIND_METRICS = {k: v for w in WORKLOADS.values() for k, v in w.kinds.items()}


# ---------------------------------------------------------------------------
# probes

# Probe calls per kind, as (bursts, timed calls per burst).  A burst of a
# kind other than cli starts with one warm-up call, checked and counted like
# any other but timed as "<kind>_warmup": a lone call of a few milliseconds
# right after a fresh-interpreter command or a long Jacobi solve runs on cold
# caches and varies far more from run to run than the warm calls do.
PROBE_BURSTS = {"build": (6, 4), "pinch": (6, 4), "table": (6, 4), "shoot": (6, 2),
                "distance": (6, 2), "distance_paths": (6, 2), "index": (6, 1),
                "loop": (6, 1), "klingenberg": (6, 1), "gap": (1, 1), "cli": (5, 1)}


class Probes:
    """Calls of every operation kind the workload does not time itself, on
    fixed small inputs (no seed) with the usual oracles, spread evenly over
    the timed phase so that they see the same machine as the workload."""

    def __init__(self, wl):
        fam, sph = wl.family10, wl.sphere3
        L = O.doubling_point(0.8, 0.02)
        grid = np.concatenate([[0.0], np.linspace(1e-3, fam.r_max - 1e-3, 9998),
                               [fam.r_max]])
        p, q = (1.0, 0.2), (2.0, 1.5)
        T = 1.5 * math.pi
        calls = {
            "build": (lambda: P.build_model("family", 10, 0.8, 0.02),
                      lambda m: O.check_family_build(m.meta, m.r_max, 10, 0.8, 0.02)),
            "pinch": (lambda: P.verify_pinch(fam),
                      lambda rep: O.check_pinch(rep.passed, rep.achieved_lower, True)),
            "table": (lambda: P.curvature_table(fam, grid),
                      lambda t: O.check_family_curvature(t, 10, 0.8, 0.02)),
            "shoot": (lambda: P.shoot(fam, 1.0, 0.7, 1.0),
                      lambda path: _conservation(fam, path, math.sin(1.0) * math.sin(0.7))),
            "distance": (lambda: P.distance(sph, p, q, return_paths=False),
                         lambda out: O.check_distance(out[0], O.sphere_distance(p, q))),
            "distance_paths": (lambda: P.distance(sph, p, q),
                               lambda out: GeodesicQueries._check_paths(
                                   sph, p, q, out, O.sphere_distance)),
            "index": (lambda: P.geodesic_index(sph, P.shoot(sph, 0.0, 0.0, T)),
                      lambda res: _check_index_sphere(res, 3, T)),
            "loop": (lambda: loop_index_check(sph, P.shoot(sph, 0.0, 0.0, 2 * math.pi),
                                              eps=0.9),
                     lambda rep: O.check_loop(rep, 3, 0.9, 2 * math.pi, [math.pi],
                                              O.ZERO_TOL_SPHERE)),
            "klingenberg": (lambda: P.klingenberg_delta_search(sph, eps=0.9, l=1.0),
                            lambda res: O.check_klingenberg(
                                res, O.klingenberg_caps(0.9, 1.0, 0.0, math.pi / 2))),
            "gap": (lambda: P.diameter_gap(fam), lambda g: _check_gap(g, 0.8, L)),
        }
        queues = []
        for kind, (bursts, timed) in PROBE_BURSTS.items():
            if kind in wl.kinds:
                continue
            if kind == "cli":
                queues.append([lambda ops, j=j: self._cli(ops, wl, j) for j in range(bursts)])
            else:
                fn, check = calls[kind]
                queues.append([lambda ops, k=kind, f=fn, c=check, t=timed: self._burst(
                    ops, k, f, c, t)] * bursts)
        # round-robin over kinds, so each kind's bursts spread over the run
        self.calls = [q[i] for i in range(max(map(len, queues))) for q in queues
                      if i < len(q)]
        self.done = 0           # bursts run
        self.ops = 0            # operations those bursts made
        self.busy_s = 0.0

    @staticmethod
    def _burst(ops, kind, fn, check, timed):
        ops.run(kind + "_warmup", fn, check)
        for _ in range(timed):
            ops.run(kind, fn, check)

    @staticmethod
    def _cli(ops, wl, j):
        name, args, code, check = README_COMMANDS[0]
        d = os.path.join(wl.work_dir, f"probe-{j}")
        os.makedirs(d)
        run_command(ops, wl.cli, "cli", args, d, name, code, check,
                    os.path.join(wl.work_dir, "probe-0") if j else None)

    def step(self, ops, fraction):
        """Run the calls due once ``fraction`` of the timed phase has passed."""
        while self.done < min(fraction, 1.0) * len(self.calls):
            t0, n0 = perf_counter(), ops.attempted
            self.calls[self.done](ops)
            self.done += 1
            self.ops += ops.attempted - n0
            self.busy_s += perf_counter() - t0

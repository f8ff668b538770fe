"""DOP853 with dense output, and Brent's bracketed root finder.

Both reproduce scipy 1.17.1 operation for operation, so every step, every
dense-output value and every root has the bits scipy gives.  DOP853 makes
each of scipy's ``np.dot`` products, and the ``x.dot(x)`` inside
``np.linalg.norm``, on the same operands and as an ndarray's ``dot``
method, which is the same numpy routine without ``np.dot``'s Python-level
dispatch.  The elementwise work around those products runs on Python
floats: the stage states y + h (K a), the new state, the error scale, the
norms' sqrt and square, the error norm, the step factor, ``h_abs`` and
``min_step`` (by ``math.nextafter``), and the dense output's first three
rows.  An IEEE double operation, sqrt included, rounds the same in a numpy
ufunc and on a float, and a float's ``**`` calls the C library's pow as a
numpy scalar's does, so the bits are unchanged.  No product is rewritten
as a float sum, because a BLAS dot may sum in an order of its own.
``fun`` receives y as a list of floats.

Only what pinchlab uses is here: forward DOP853 (Hairer, Norsett and
Wanner, *Solving Ordinary Differential Equations I*, II.5 and II.10) with
``rtol``, ``atol`` and ``max_step``, and Brent's method
(Brent, *Algorithms for Minimization without Derivatives*, 1973, ch. 4).

``geodesics`` binds ``solve_ivp`` and ``brentq`` at module level, as
wrappers that import this module on their first call, and ``variation``
binds the same ``solve_ivp``; a caller can replace ``geodesics.solve_ivp``
and the like in one module.
"""

# The arithmetic follows these files of scipy 1.17.1 (BSD-3-Clause,
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers):
#   scipy/integrate/_ivp/rk.py       rk_step, RungeKutta._step_impl, DOP853,
#                                    Dop853DenseOutput
#   scipy/integrate/_ivp/common.py   norm, select_initial_step, OdeSolution
#   scipy/integrate/_ivp/base.py     OdeSolver.step
#   scipy/integrate/_ivp/ivp.py      solve_ivp's step loop
#   scipy/integrate/_ivp/dop853_coefficients.py    the tableau below
#   scipy/optimize/Zeros/brentq.c, scipy/optimize/_zeros_py.py    brentq

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError, SearchError

EPS = 2.220446049250313e-16          # np.finfo(float).eps
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10
ERROR_EXPONENT = -1 / 8              # -1 / (error estimator order 7 + 1)
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


# ---------------------------------------------------------------------------
# Brent's method


def brentq(f, a, b, xtol=2e-12, rtol=4 * EPS, maxiter=100):
    """A root of ``f`` in [a, b], where f(a) and f(b) differ in sign.

    Stops when half the bracket is below (xtol + rtol |x|) / 2 and returns
    the last point evaluated.  Raises :class:`SearchError` when f(a) and
    f(b) have the same sign, when ``f`` returns NaN, and when ``maxiter``
    iterations do not converge.
    """
    def value(x):
        fx = float(f(x))
        if fx != fx:
            raise SearchError(f"root finding: the function value at x={x} is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise SearchError("root finding: f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        # the tolerance is 2 delta
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                stry = math.inf         # C's inf or nan, which bisects below
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry         # good short step
            else:
                spre = scur = sbis              # bisect
        else:
            spre = scur = sbis                  # bisect
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise SearchError(f"root finding failed to converge after {maxiter} iterations")


# ---------------------------------------------------------------------------
# DOP853: the Dormand-Prince 8(5,3) pair, its 7th-degree dense output from
# three extra stages, and the tableau as scipy writes it (nonzero entries)

# rows 1-15 of the 16 x 16 stage matrix A, {column: entry}; row 12 is B
_A = (
    {0: 5.26001519587677318785587544488e-2},
    {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    {0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
     3: 9.24834003261792003115737966543e-1},
    {0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
     4: 1.25467687566822425016691814123e-1},
    {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
     4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    {0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
     4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
     6: 8.27378916381402288758473766002e-3},
    {0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
     4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
     6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1},
    {0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
     4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
     6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
     8: -2.03312017085086261358222928593e-2},
    {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
     4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
     6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
     8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022},
    {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
     4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
     6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
     8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
     10: 6.43392746015763530355970484046e-1},
    {0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
     6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
     8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
     10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2},
    {0: 5.61675022830479523392909219681e-2, 6: 2.53500210216624811088794765333e-1,
     7: -2.46239037470802489917441475441e-1, 8: -1.24191423263816360469010140626e-1,
     9: 1.5329179827876569731206322685e-1, 10: 8.20105229563468988491666602057e-3,
     11: 7.56789766054569976138603589584e-3, 12: -8.298e-3},
    {0: 3.18346481635021405060768473261e-2, 5: 2.83009096723667755288322961402e-2,
     6: 5.35419883074385676223797384372e-2, 7: -5.49237485713909884646569340306e-2,
     10: -1.08347328697249322858509316994e-4, 11: 3.82571090835658412954920192323e-4,
     12: -3.40465008687404560802977114492e-4, 13: 1.41312443674632500278074618366e-1},
    {0: -4.28896301583791923408573538692e-1, 5: -4.69762141536116384314449447206,
     6: 7.68342119606259904184240953878, 7: 4.06898981839711007970213554331,
     8: 3.56727187455281109270669543021e-1, 12: -1.39902416515901462129418009734e-3,
     13: 2.9475147891527723389556272149, 14: -9.15095847217987001081870187138},
)
# the stage times
_C = (0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
      0.118350341907227396726757197510, 0.281649658092772603273242802490,
      0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
      0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0, 1.0,
      0.1, 0.2, 0.777777777777777777777777777778)
# the error weights: E5, and E3 as B less these
_E5 = {0: 0.1312004499419488073250102996e-1, 5: -0.1225156446376204440720569753e+1,
       6: -0.4957589496572501915214079952, 7: 0.1664377182454986536961530415e+1,
       8: -0.3503288487499736816886487290, 9: 0.3341791187130174790297318841,
       10: 0.8192320648511571246570742613e-1, 11: -0.2235530786388629525884427845e-1}
_E3_OFF_B = {0: 0.244094488188976377952755905512, 8: 0.733846688281611857341361741547,
             11: 0.220588235294117647058823529412e-1}
# the 4 x 16 matrix D of the dense output's last four coefficients
_D = (
    {0: -0.84289382761090128651353491142e+1, 5: 0.56671495351937776962531783590,
     6: -0.30689499459498916912797304727e+1, 7: 0.23846676565120698287728149680e+1,
     8: 0.21170345824450282767155149946e+1, 9: -0.87139158377797299206789907490,
     10: 0.22404374302607882758541771650e+1, 11: 0.63157877876946881815570249290,
     12: -0.88990336451333310820698117400e-1, 13: 0.18148505520854727256656404962e+2,
     14: -0.91946323924783554000451984436e+1, 15: -0.44360363875948939664310572000e+1},
    {0: 0.10427508642579134603413151009e+2, 5: 0.24228349177525818288430175319e+3,
     6: 0.16520045171727028198505394887e+3, 7: -0.37454675472269020279518312152e+3,
     8: -0.22113666853125306036270938578e+2, 9: 0.77334326684722638389603898808e+1,
     10: -0.30674084731089398182061213626e+2, 11: -0.93321305264302278729567221706e+1,
     12: 0.15697238121770843886131091075e+2, 13: -0.31139403219565177677282850411e+2,
     14: -0.93529243588444783865713862664e+1, 15: 0.35816841486394083752465898540e+2},
    {0: 0.19985053242002433820987653617e+2, 5: -0.38703730874935176555105901742e+3,
     6: -0.18917813819516756882830838328e+3, 7: 0.52780815920542364900561016686e+3,
     8: -0.11573902539959630126141871134e+2, 9: 0.68812326946963000169666922661e+1,
     10: -0.10006050966910838403183860980e+1, 11: 0.77771377980534432092869265740,
     12: -0.27782057523535084065932004339e+1, 13: -0.60196695231264120758267380846e+2,
     14: 0.84320405506677161018159903784e+2, 15: 0.11992291136182789328035130030e+2},
    {0: -0.25693933462703749003312586129e+2, 5: -0.15418974869023643374053993627e+3,
     6: -0.23152937917604549567536039109e+3, 7: 0.35763911791061412378285349910e+3,
     8: 0.93405324183624310003907691704e+2, 9: -0.37458323136451633156875139351e+2,
     10: 0.10409964950896230045147246184e+3, 11: 0.29840293426660503123344363579e+2,
     12: -0.43533456590011143754432175058e+2, 13: 0.96324553959188282948394950600e+2,
     14: -0.39177261675615439165231486172e+2, 15: -0.14972683625798562581422125276e+3},
)


@functools.cache
def _tableau():
    """The stage rows (s, A[s, :s], C[s]) of the 12 main and 3 extra stages,
    B and the error weights E3 and E5, and D.  Each array has scipy's
    shape, so every ``dot`` below sees scipy's operands."""
    A = np.zeros((16, 16))
    for i, row in enumerate(_A, start=1):
        for j, v in row.items():
            A[i, j] = v
    B = A[12, :12]
    E3 = np.zeros(13)
    E3[:-1] = B
    for j, v in _E3_OFF_B.items():
        E3[j] -= v
    E5 = np.zeros(13)
    for j, v in _E5.items():
        E5[j] = v
    D = np.zeros((4, 16))
    for i, row in enumerate(_D):
        for j, v in row.items():
            D[i, j] = v
    stages = [(s, A[s, :s], _C[s]) for s in range(1, 12)]
    extra = [(s, A[s, :s], _C[s]) for s in range(13, 16)]
    return stages, extra, B, E3, E5, D


def _horner(F, x, y_old):
    """The dense output y_old + F0 x + F1 x (1-x) + F2 x^2 (1-x) + ... in
    scipy's order, for one component's floats or for arrays alike."""
    f0, f1, f2, f3, f4, f5, f6 = F
    x1 = 1.0 - x
    # scipy accumulates from zeros, so F6 enters as 0.0 + F6
    return ((((((((0.0 + f6) * x + f5) * x1 + f4) * x + f3) * x1 + f2) * x + f1) * x1
             + f0) * x + y_old)


class DenseOutput:
    """DOP853's interpolant over one step from the float ``t_old`` to ``t``;
    ``y_old`` is a list of floats and ``F`` a (7, n) array.

    Called with one float t, it gives a list of floats, computed in float
    arithmetic with the bits :class:`OdeSolution` gives an array holding t;
    ``rows`` keeps only the first that many components.
    """

    def __init__(self, t_old, t, y_old, F):
        self.t_old, self.h, self.y_old, self.F = t_old, t - t_old, y_old, F

    @functools.cached_property
    def _coeffs(self):
        # read on the first float call: a path asked for one point does not
        # pay for every step's table
        return self.F.T.tolist()

    def __call__(self, t, rows=None):
        x = (t - self.t_old) / self.h
        return [_horner(f, x, y) for f, y in zip(self._coeffs[:rows], self.y_old)]


class OdeSolution:
    """The piecewise dense output over the step times ``ts``.

    One float t gives a list of floats from the step holding it; a 1-D
    array of times gives an (n, len(t)) array, every point evaluated at
    once.  A time on a step boundary is read from the step that ends there,
    and times outside [ts[0], ts[-1]] from the first or last step.
    ``rows`` keeps only the first that many components, with their bits.
    """

    def __init__(self, ts, interpolants):
        self.ts = np.asarray(ts)
        self.interpolants = interpolants

    @functools.cached_property
    def _times(self):
        return self.ts.tolist()

    @functools.cached_property
    def _table(self):
        steps = self.interpolants
        return (np.array([s.t_old for s in steps]), np.array([s.h for s in steps]),
                np.stack([s.y_old for s in steps], axis=-1),
                np.stack([s.F for s in steps], axis=-1))

    def __call__(self, t, rows=None):
        last = len(self.interpolants) - 1
        if not isinstance(t, float):
            t = np.asarray(t, dtype=float)
            if t.ndim:
                i = np.clip(np.searchsorted(self.ts, t) - 1, 0, last)
                t_old, h, y_old, F = (a.take(i, -1) for a in self._table)   # t innermost
                return _horner(F[:, :rows], (t - t_old) / h, y_old[:rows])
            t = float(t)
        return self.interpolants[min(max(bisect.bisect_left(self._times, t) - 1, 0),
                                     last)](t, rows)


@dataclass
class OdeResult:
    """The dense output ``sol`` of a finished solve, its final state ``y``
    and its count of ``fun`` calls, ``nfev``."""

    sol: OdeSolution
    y: np.ndarray
    nfev: int


def _norm(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, t0, y0, t_bound, max_step, f0, rtol, atol):
    """Hairer, Norsett and Wanner's starting step (II.4), as scipy takes it."""
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _norm(y0 / scale)
    d1 = _norm(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = np.asarray(fun(t0 + h0, (y0 + h0 * f0).tolist()), dtype=float)
    d2 = _norm((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval_length, max_step)


def _norm_2(x):
    """``np.linalg.norm(x)**2`` for a 1-D float array: the same ``x.dot(x)``,
    then sqrt and pow on a float, which round as numpy's scalars do."""
    try:
        return math.sqrt(x.dot(x)) ** 2
    except OverflowError:       # numpy gives inf here
        return math.inf


def solve_ivp(fun, t_span, y0, rtol, atol, max_step=math.inf):
    """Integrate y' = fun(t, y) over t_span = (t0, tf), t0 < tf, by DOP853.

    ``fun`` receives y as a list of floats.  Every accepted step keeps its
    dense output.  Returns an :class:`OdeResult` once the solve reaches tf.
    A step that shrinks below ten ulp of t raises :class:`IntegrationError`
    with scipy's message and ``reached``, the last accepted step's time.
    """
    stages, extra, B, E3, E5, D = _tableau()
    t0, tf, max_step = float(t_span[0]), float(t_span[1]), float(max_step)
    t, y = t0, np.asarray(y0).astype(float, copy=False)
    fy = np.asarray(fun(t, y.tolist()), dtype=float)
    h_abs = float(_initial_step(fun, t, y, tf, max_step, fy, rtol, atol))
    nfev = 2
    n = y.size
    y, fy = y.tolist(), fy.tolist()
    K = np.empty((16, n))
    stages = [(s, K[:s].T, a, c) for s, a, c in stages]
    extra = [(s, K[:s].T, a, c) for s, a, c in extra]
    K12T, K13T = K[:12].T, K[:13].T

    ts, interpolants = [t0], []
    while t < tf:
        # one step, rejected attempts included
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                raise IntegrationError(TOO_SMALL_STEP, reached=t)
            t_new = t + h_abs
            if t_new > tf:
                t_new = tf
            h = t_new - t
            h_abs = abs(h)
            K[0] = fy
            for s, Kt, a, c in stages:
                K[s] = fun(t + c * h, [v + d * h for v, d in zip(y, Kt.dot(a).tolist())])
            y_new = [v + h * d for v, d in zip(y, K12T.dot(B).tolist())]
            K[12] = fun(t + h, y_new)
            f_new = K[12].tolist()
            nfev += 12
            # numpy's maximum: NaN in either argument wins
            scale = np.array([atol + (a if a >= b or a != a else b) * rtol
                              for a, b in zip(map(abs, y), map(abs, y_new))])
            err5_norm_2 = _norm_2(K13T.dot(E5) / scale)
            err3_norm_2 = _norm_2(K13T.dot(E3) / scale)
            if err5_norm_2 == 0 and err3_norm_2 == 0:
                error_norm = 0.0
            else:
                denom = err5_norm_2 + 0.01 * err3_norm_2
                error_norm = abs(h) * err5_norm_2 / math.sqrt(denom * n)
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True
        t_old, y_old, f_old, t, y, fy = t, y, fy, t_new, y_new, f_new

        # the dense output of the step
        for s, Kt, a, c in extra:
            K[s] = fun(t_old + c * h, [v + d * h for v, d in zip(y_old, Kt.dot(a).tolist())])
        nfev += 3
        F = np.empty((7, n))
        delta_y = [v - w for v, w in zip(y, y_old)]
        F[:3] = (delta_y, [h * f - d for f, d in zip(f_old, delta_y)],
                 [2 * d - h * (f + fo) for d, f, fo in zip(delta_y, fy, f_old)])
        F[3:] = h * D.dot(K)
        interpolants.append(DenseOutput(t_old, t, y_old, F))
        ts.append(t)

    return OdeResult(OdeSolution(ts, interpolants), np.array(y), nfev)

"""The scipy entry points pinchlab calls, each importing scipy on first call.

Modules bind these names at module level (``from ._scipy import solve_ivp``),
so a caller can replace ``geodesics.solve_ivp`` and the like in one module.
Commands that need no ODE solve or root finder never load scipy.
"""


# scipy.integrate costs about 0.6 s to import
def solve_ivp(*args, **kwargs):
    from scipy.integrate import solve_ivp
    return solve_ivp(*args, **kwargs)


# scipy.optimize costs about 0.55 s to import
def brentq(*args, **kwargs):
    from scipy.optimize import brentq
    return brentq(*args, **kwargs)


"""The scipy functions the program calls, each imported on its first call.

Importing scipy.optimize or scipy.integrate takes about 0.3 s, more than
most commands take for their own work, and hierarchy and constant call no
scipy at all.  Each name here stands for scipy's function of that name: its
first call imports it, and every call after that is passed straight to it,
with the same arguments, so the results are scipy's own.  Only the first
call runs an import statement.
"""

from __future__ import annotations


def _deferred(load):
    """A stand-in for the function load() imports, loaded on first call."""
    fn = None

    def call(*args, **kwargs):
        nonlocal fn
        if fn is None:
            fn = load()
        return fn(*args, **kwargs)

    call.__name__ = call.__qualname__ = load.__name__
    call.__doc__ = load.__doc__
    return call


@_deferred
def solve_ivp():
    """scipy.integrate.solve_ivp, imported on first call."""
    from scipy.integrate import solve_ivp
    return solve_ivp


@_deferred
def brentq():
    """scipy.optimize.brentq, imported on first call."""
    from scipy.optimize import brentq
    return brentq


@_deferred
def ellipkinc():
    """scipy.special.ellipkinc, imported on first call."""
    from scipy.special import ellipkinc
    return ellipkinc


@_deferred
def ellipeinc():
    """scipy.special.ellipeinc, imported on first call."""
    from scipy.special import ellipeinc
    return ellipeinc

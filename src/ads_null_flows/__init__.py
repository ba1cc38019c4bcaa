"""Null curves in the anti-de Sitter 3-space under the KdV-type flow
hierarchy.

Subpackages:
    specfun   -- elliptic integrals, Jacobi functions, local Heun function
    jetalg    -- exact differential-polynomial algebra of the hierarchy
    lame      -- Floquet spectra and fundamental solutions
    kdvsol    -- stationary and three-parameter KdV solution families
    nullcurve -- frames, curves, classification, export chart
    cli       -- the ads-null-flows command-line tool
"""

from . import jetalg, kdvsol, lame, nullcurve, specfun
from .config import DEFAULT, RunConfig, load_config

__version__ = "0.1.0"

__all__ = ["jetalg", "kdvsol", "lame", "nullcurve", "specfun",
           "DEFAULT", "RunConfig", "load_config", "__version__"]

"""Orbit-type classification of curves with periodic bending.

Over one bending period rho the frames transport by the monodromies
M+- = F+-(s0 + rho) F+-(s0)^{-1}.  The conjugation invariant

    I = (tr M)^2 - 4

separates the three orbit types: elliptic (I < 0, eigenvalues e^{+-i theta}),
hyperbolic (I > 0, real reciprocal eigenvalues), parabolic (I = 0 with
M != +-Id); M = +-Id is fixed by conjugation ("central").

For elliptic factors the phase theta = arccos(tr M / 2) in [0, pi] is
rationalized by continued-fraction convergents (denominator-capped); the
curve closes iff both phases are rational multiples of pi.  Writing
theta/pi = m/n reduced, the factor reaches +-Id first at n periods with sign
(-1)^m; with L = lcm(n+, n-) and the two signs eps+- = (-1)^{(L/n+-) m+-}:

    eps+ = eps- = +1:  curve period L rho, spin 1
    eps+ = eps- = -1:  curve period L rho, spin 1/2 (frames need 2 L rho)
    eps+ != eps-:      curve period 2 L rho, spin 1
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Optional

import numpy as np

from .frames import SpinorFramePath

OrbitType = Literal["Elliptic", "Hyperbolic", "Parabolic", "CentralFixed"]

TOL_CENTRAL = 1e-8       # ||M -+ Id||_max for the central fixed points
ORBIT_TYPE_TOL = 1e-9    # |I| threshold for the parabolic tag
RATIONALIZE_CAP = 64     # continued-fraction denominator cap for theta/pi
RATIONALIZE_TOL = 1e-6


@dataclass
class FactorClassification:
    invariant: float                 # (tr M)^2 - 4
    orbit_type: OrbitType
    q_pi: Optional[Fraction]        # theta/pi rationalized (None if not found)


@dataclass
class OrbitClassification:
    plus: FactorClassification
    minus: FactorClassification
    closed: bool
    least_period: Optional[float]
    spin: Optional[Fraction]

    @property
    def type_pair(self) -> str:
        short = {"Elliptic": "E", "Hyperbolic": "H", "Parabolic": "P",
                 "CentralFixed": "C"}
        return f"({short[self.plus.orbit_type]},{short[self.minus.orbit_type]})"


def rationalize(x: float, cap: int, tol: float) -> Optional[Fraction]:
    """Best continued-fraction convergent p/q of x with q <= cap and
    |x - p/q| <= tol, else None."""
    frac = Fraction(x).limit_denominator(cap)
    if abs(x - float(frac)) <= tol:
        return frac
    return None


def _classify_factor(M: np.ndarray) -> FactorClassification:
    tr = float(np.trace(M))
    inv = tr * tr - 4.0
    if np.abs(M - np.eye(2)).max() <= TOL_CENTRAL:
        return FactorClassification(inv, "CentralFixed", Fraction(0, 1))
    if np.abs(M + np.eye(2)).max() <= TOL_CENTRAL:
        return FactorClassification(inv, "CentralFixed", Fraction(1, 1))
    if inv < -ORBIT_TYPE_TOL:
        theta = math.acos(max(-1.0, min(1.0, 0.5 * tr)))
        q = rationalize(theta / math.pi, RATIONALIZE_CAP, RATIONALIZE_TOL)
        return FactorClassification(inv, "Elliptic", q)
    if inv > ORBIT_TYPE_TOL:
        return FactorClassification(inv, "Hyperbolic", None)
    return FactorClassification(inv, "Parabolic", None)


def classify_orbit(path: SpinorFramePath, rho: float) -> OrbitClassification:
    """Classification from a frame path whose grid contains s0 and s0 + rho."""
    i1 = path.period_index(rho)
    if abs(path.kappa[i1] - path.kappa[0]) > 1e-6 * max(1.0, abs(path.kappa[0])):
        raise ValueError(
            f"kappa(s0 + rho) - kappa(s0) = {path.kappa[i1] - path.kappa[0]:.3e}")
    return classify_monodromies(*path.monodromy(rho), rho)


def classify_monodromies(Mp: np.ndarray, Mm: np.ndarray,
                         rho: float) -> OrbitClassification:
    plus = _classify_factor(Mp)
    minus = _classify_factor(Mm)
    closed = (plus.orbit_type in ("Elliptic", "CentralFixed")
              and minus.orbit_type in ("Elliptic", "CentralFixed")
              and plus.q_pi is not None and minus.q_pi is not None)
    least_period = None
    spin = None
    if closed:
        np_, nm = plus.q_pi.denominator, minus.q_pi.denominator
        mp_, mm = plus.q_pi.numerator, minus.q_pi.numerator
        L = np_ * nm // math.gcd(np_, nm)
        eps_p = -1 if ((L // np_) * mp_) % 2 else 1
        eps_m = -1 if ((L // nm) * mm) % 2 else 1
        if eps_p == eps_m:
            least_period = L * rho
            spin = Fraction(1) if eps_p == 1 else Fraction(1, 2)
        else:
            least_period = 2 * L * rho
            spin = Fraction(1)
    return OrbitClassification(plus, minus, closed, least_period, spin)

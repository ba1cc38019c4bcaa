"""Exact coefficient ring Q[sqrt(2)].

The 4x4 frame matrices carry sqrt(2) factors, so the symbolic layer works over
numbers a + b*sqrt(2) with exact rational a, b.  For everything produced by the
Lenard recursion b stays 0 and the coefficients are plain rationals, so the
arithmetic takes a rational fast path whenever both b parts vanish.  A rational
Q2 hashes like its rational value, so Q2(1), 1 and Fraction(1) are one dict key.
"""

from __future__ import annotations

from fractions import Fraction
from math import sqrt

_SQRT2 = sqrt(2.0)
_F0 = Fraction(0)


class Q2:
    """Exact number a + b*sqrt(2) with Fraction components."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = Fraction(a)
        self.b = Fraction(b)

    @staticmethod
    def _make(a: Fraction, b: Fraction) -> "Q2":
        """A Q2 from two Fractions, without converting them again."""
        q = object.__new__(Q2)
        q.a = a
        q.b = b
        return q

    @staticmethod
    def of(x) -> "Q2":
        if isinstance(x, Q2):
            return x
        return Q2(Fraction(x))

    @staticmethod
    def _try(x):
        if isinstance(x, Q2):
            return x
        if isinstance(x, (int, Fraction)):
            return Q2(x)
        return None

    def __add__(self, other):
        other = Q2._try(other)
        if other is None:
            return NotImplemented
        return Q2._make(self.a + other.a,
                        self.b + other.b if self.b or other.b else _F0)

    __radd__ = __add__

    def __neg__(self):
        return Q2._make(-self.a, -self.b)

    def __sub__(self, other):
        other = Q2._try(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = Q2._try(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, int):
            return Q2._make(self.a * other, self.b * other if self.b else _F0)
        other = Q2._try(other)
        if other is None:
            return NotImplemented
        if self.b or other.b:
            return Q2._make(self.a * other.a + 2 * self.b * other.b,
                            self.a * other.b + self.b * other.a)
        return Q2._make(self.a * other.a, _F0)

    __rmul__ = __mul__

    def inverse(self) -> "Q2":
        # (a + b r)^-1 = (a - b r)/(a^2 - 2 b^2); the norm vanishes only at 0
        n = self.a * self.a - 2 * self.b * self.b
        if n == 0:
            raise ZeroDivisionError("division by zero in Q[sqrt 2]")
        return Q2(self.a / n, -self.b / n)

    def __truediv__(self, other):
        return self * Q2.of(other).inverse()

    def __rtruediv__(self, other):
        return Q2.of(other) * self.inverse()

    def __eq__(self, other):
        other = Q2._try(other)
        if other is None:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        # equal values hash equally: Q2(x) == x for rational x
        return hash(self.a) if self.b == 0 else hash((self.a, self.b))

    def __bool__(self):
        return bool(self.a or self.b)

    def is_rational(self) -> bool:
        return self.b == 0

    def __float__(self):
        return float(self.a) + float(self.b) * _SQRT2

    def __repr__(self):
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*r2"
        return f"{self.a}{'+' if self.b > 0 else '-'}{abs(self.b)}*r2"


ZERO = Q2(0)
ONE = Q2(1)
SQRT2 = Q2(0, 1)
INV_SQRT2 = Q2(0, Fraction(1, 2))  # 1/sqrt(2) = sqrt(2)/2

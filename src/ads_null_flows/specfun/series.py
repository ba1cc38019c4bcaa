"""Truncated power series in one variable, with array coefficients.

Series(c) stands for sum_k c[k] dx^k over k < len(c), where c[k] are arrays
of one shape: one series per element, so a whole set of expansion points
is one object.  The arithmetic is what the closed-form jets of kdvsol use
on floats and arrays: + - *, division by a constant and of a constant, the
reciprocal and d/dx, with a float or an ndarray broadcast against the
coefficient shape as a constant series.  So a formula written for floats
runs unchanged on a Series and yields the Taylor coefficients of its value;
jacobi_sncndn accepts a linear Series argument x0 + w dx.

A product is the Cauchy product truncated at len(c) terms, one einsum over
a Toeplitz view of one factor; the reciprocal takes one coefficient at a
time (cauchy).  The hot path of the KKSH transport keeps the products few:
the waves' series come from the fused sn/cn/dn recurrence of
specfun.elliptic, their derivatives by index shifts, and kappa at order 0
costs four products and one reciprocal per batch of specs.  numpy defers every mixed
operation to the reflected method here (__array_ufunc__ = None).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided


def _lift(c: np.ndarray, ndim: int) -> np.ndarray:
    """c with singleton axes inserted after the series axis, to 1 + ndim."""
    extra = ndim + 1 - c.ndim
    return c.reshape(c.shape[:1] + (1,) * extra + c.shape[1:]) if extra > 0 else c


def _pair(a: np.ndarray, b: np.ndarray):
    """Two coefficient arrays with aligned trailing (per-point) axes."""
    ndim = max(a.ndim, b.ndim) - 1
    return _lift(a, ndim), _lift(b, ndim)


def _toeplitz(b: np.ndarray) -> np.ndarray:
    """The view T[k, i] = b[k - i] (0 for i > k) of coefficients b, so that
    the truncated product with a is one contraction sum_i T[k, i] a[i]."""
    n = len(b)
    pad = np.zeros((2 * n - 1,) + b.shape[1:])
    pad[n - 1:] = b
    step = pad.strides[0]
    return as_strided(pad[n - 1:], shape=(n, n) + b.shape[1:],
                      strides=(step, -step) + pad.strides[1:], writeable=False)


def cauchy(a: np.ndarray, b: np.ndarray, k: int):
    """The k-th coefficient of the product of the coefficient arrays a, b."""
    return np.einsum("i...,i...->...", a[:k + 1], b[k::-1])


def derivative_shift(c: np.ndarray, j: int, n: int, scale) -> np.ndarray:
    """The first n coefficients in dx of a^j f^(j)(y0 + R dx), with
    scale = a/R, from the coefficients c (n + j of them) of f(y0 + R dx):
    by Taylor's theorem, the index shift c[k + j] (k + j)!/k! times
    scale^j."""
    k = np.arange(1.0, n + 1.0)
    fall = np.ones(n)
    for i in range(j):
        fall *= k + i
    fall = fall.reshape((n,) + (1,) * (c.ndim - 1))
    return c[j:j + n] * (fall * scale ** j)


class Series:
    __slots__ = ("c",)
    __array_ufunc__ = None

    def __init__(self, c: np.ndarray):
        self.c = c

    @staticmethod
    def variable(x0, terms: int) -> "Series":
        """x0 + dx, with x0 a float or an array of expansion points."""
        x0 = np.asarray(x0, dtype=float)
        c = np.zeros((terms,) + x0.shape)
        c[0] = x0
        c[1] = 1.0
        return Series(c)

    def _constant(self, x) -> np.ndarray:
        """The coefficient array of a float or an ndarray x."""
        x = np.asarray(x, dtype=float)
        c = np.zeros((len(self.c),) + x.shape)
        c[0] = x
        return c

    def __add__(self, other):
        other = other.c if isinstance(other, Series) else self._constant(other)
        a, b = _pair(self.c, other)
        return Series(a + b)

    __radd__ = __add__

    def __neg__(self):
        return Series(-self.c)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Series):
            a, b = _pair(self.c, other.c)
            return Series(np.einsum("ki...,i...->k...", _toeplitz(b), a))
        a, b = _pair(self.c, np.asarray(other, dtype=float)[None])
        return Series(a * b)

    __rmul__ = __mul__

    def derivative(self) -> "Series":
        """d/dx, one term shorter: the coefficients (k + 1) c[k + 1]."""
        return Series(derivative_shift(self.c, 1, len(self.c) - 1, 1.0))

    def reciprocal(self) -> "Series":
        """1/self, from r * self = 1 term by term."""
        b = self.c
        r = np.empty_like(b)
        r[0] = 1.0 / b[0]
        minus = -r[0]
        for k in range(1, len(b)):
            r[k] = minus * cauchy(b[1:], r, k - 1)
        return Series(r)

    def __truediv__(self, other):
        return self * (1.0 / np.asarray(other, dtype=float))

    def __rtruediv__(self, other):
        return self.reciprocal() * other

"""Differential polynomials on the infinite jet space.

A JetPoly is a finite sum of monomials in the jet variables u, u1, u2, ...
(u = u0 is the dependent variable, uk its k-th virtual s-derivative) with
exact rational coefficients (Fractions).  Rationals suffice for the whole
layer: the Lenard polynomials, densities and LIEN coefficients are rational,
and the 4x4 Lax matrices are written in the frame (gamma, gamma', N,
sqrt(2) B), the paper's frame rescaled by diag(1, sqrt(2), 1, sqrt(2)), in
which their entries are rational too (see matrices).  The module implements
the operators used by the KdV machinery:

    D   total derivative          D(p)  = sum_i dp/du_i * u_{i+1}
    E   variational derivative    E(p)  = sum_i (-D)^i (dp/du_i)
    DD  third-order operator      DD(p) = D^3 p - 4 u D(p) - 2 u1 p
    D^-1  primitive of a total divergence, normalized to vanish at the 0-jet

A monomial u^e0 u1^e1 ... uk^ek is its exponent vector (e0, ..., ek), ek >= 1,
and the constant is ().  A product adds two vectors, and D applies the
monomial rule: each u_i present gives e_i times the vector with one unit
moved from e_i to e_(i+1).
E is evaluated by Horner's scheme, E(p) = q_0 - D(q_1 - D(q_2 - ...)) with
q_i = dp/du_i, so it applies D order(p) times (P. J. Olver, Applications of
Lie Groups to Differential Equations, 4.1 and 5.4).

All arithmetic is exact: no floating point enters.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from typing import Dict, Mapping, Tuple

Monomial = Tuple[int, ...]


class JetPoly:
    """Immutable differential polynomial with exact coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        self.terms: Dict[Monomial, Fraction] = {
            m: c if type(c) is Fraction else Fraction(c)
            for m, c in (terms or {}).items() if c}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "JetPoly":
        return JetPoly()

    @staticmethod
    def const(c) -> "JetPoly":
        return JetPoly({(): c})

    @staticmethod
    def var(i: int, exp: int = 1) -> "JetPoly":
        if i < 0 or exp < 1:
            raise ValueError("jet index must be >= 0 and exponent >= 1")
        return JetPoly({(0,) * i + (exp,): 1})

    # -- ring structure ----------------------------------------------------

    def __add__(self, other) -> "JetPoly":
        other = _coerce(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out[m] + c if m in out else c
        return JetPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "JetPoly":
        return JetPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "JetPoly":
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "JetPoly":
        other = _coerce(other)
        out: Dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip_longest(m1, m2, fillvalue=0))
                c = c1 * c2
                out[m] = out[m] + c if m in out else c
        return JetPoly(out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return self.terms == _coerce(other).terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    # -- structure queries ---------------------------------------------------

    def order(self) -> int:
        """Largest jet index present (-1 for constants and 0)."""
        return max(map(len, self.terms), default=0) - 1

    def partial(self, i: int) -> "JetPoly":
        """Partial derivative with respect to the single jet variable u_i."""
        out: Dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            e = m[i] if i < len(m) else 0
            if e == 0:
                continue
            mm = m[:i] + (e - 1,) + m[i + 1:]
            while mm and mm[-1] == 0:
                mm = mm[:-1]
            out[mm] = c * e
        return JetPoly(out)

    # -- differential operators ---------------------------------------------

    def total_derivative(self) -> "JetPoly":
        """The total derivative D, by the monomial rule."""
        out: Dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            padded = m + (0,)
            for i, e in enumerate(m):
                if e == 0:
                    continue
                mm = m[:i] + (e - 1, padded[i + 1] + 1) + m[i + 2:]
                cc = c * e if e > 1 else c
                out[mm] = out[mm] + cc if mm in out else cc
        return JetPoly(out)

    def euler(self) -> "JetPoly":
        """The variational derivative E, by Horner's scheme in D."""
        k = self.order()
        if k < 0:
            return JetPoly()
        out = self.partial(k)
        for i in range(k - 1, -1, -1):
            out = self.partial(i) - out.total_derivative()
        return out

    def script_D(self) -> "JetPoly":
        d1 = self.total_derivative()
        d3 = d1.total_derivative().total_derivative()
        return d3 - 4 * JetPoly.var(0) * d1 - 2 * JetPoly.var(1) * self

    def primitive(self) -> "JetPoly":
        """The primitive D^-1(p) vanishing at the zero jet.

        Reduction on the leading jet variable: in a total divergence the top
        index k occurs linearly, with x_k-coefficient A free of x_k; then
        q1 = int A dx_{k-1} strips the top order from p - D(q1).  Correctness
        is certified at the end by applying D, so the strategy is free.  A p
        outside the image of D raises ValueError.
        """
        p = self
        acc = JetPoly()
        while True:
            k = p.order()
            if k <= 0:
                if p.is_zero():
                    break
                raise ValueError(f"residue of order <= 0 left: {p}")
            a = p.partial(k)
            if a.partial(k):
                raise ValueError(f"u{k} does not occur linearly")
            q1 = a._antiderivative_in(k - 1)
            acc = acc + q1
            p = p - q1.total_derivative()
        # normalization at the zero jet: drop any constant term
        acc = acc - JetPoly.const(acc.terms.get((), 0))
        if acc.total_derivative() != self:
            raise ValueError("certification D(q) == p failed")
        return acc

    def _antiderivative_in(self, i: int) -> "JetPoly":
        out: Dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            m = m + (0,) * (i + 1 - len(m))
            e = m[i]
            out[m[:i] + (e + 1,) + m[i + 1:]] = c / (e + 1)
        return JetPoly(out)

    def eps_integral_times_u(self) -> "JetPoly":
        """int_0^1 p|_{eps u} u d(eps): each monomial of jet degree d maps to
        monomial*u/(d+1)."""
        out: Dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            mm = (m[0] + 1,) + m[1:] if m else (1,)
            out[mm] = c / (sum(m) + 1)
        return JetPoly(out)

    # -- rendering --------------------------------------------------------

    def _sorted_terms(self):
        """(pairs, coefficient) per term, with the monomial as its sparse
        (index, exponent) pairs, sorted by top index descending, then by
        degree, then by the pairs.  The pairs, not the exponent vectors,
        keep the printed order: u^2*u2 is ((0, 2), (2, 1)) and comes before
        u1^2*u2, ((1, 2), (2, 1)), though (2, 0, 1) > (0, 2, 1)."""
        rows = sorted((-len(m), sum(m), [(i, e) for i, e in enumerate(m) if e], c)
                      for m, c in self.terms.items())
        return [(pairs, c) for _, _, pairs, c in rows]

    def __repr__(self):
        return f"JetPoly({self.text()})"

    def text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for pairs, c in self._sorted_terms():
            factors = []
            for i, e in pairs:
                name = "u" if i == 0 else f"u{i}"
                factors.append(name if e == 1 else f"{name}^{e}")
            body = "*".join(factors)
            if not body:
                term = str(c)
            elif c == 1:
                term = body
            elif c == -1:
                term = f"-{body}"
            else:
                term = f"{c}*{body}"
            parts.append(term)
        out = parts[0]
        for t in parts[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out

    def to_json(self) -> dict:
        return {"terms": [{"coeff": str(c), "monomial": {str(i): e for i, e in pairs}}
                          for pairs, c in self._sorted_terms()]}


def _coerce(x) -> JetPoly:
    if isinstance(x, JetPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return JetPoly.const(x)
    raise TypeError(f"cannot coerce {type(x)!r} to JetPoly")


U = JetPoly.var(0)
U1 = JetPoly.var(1)

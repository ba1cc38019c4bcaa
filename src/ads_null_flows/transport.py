"""Transport of unimodular 2x2 frames, F' = F A(x) with A(x) in sl2 and
analytic, by Taylor panels: a linear ODE with analytic coefficients is
solved by its Taylor series (Jorba & Zou, Exp. Math. 14 (2005) 99).
transport returns the frames at the grid points from F(0) = Id to a
relative accuracy, and Id itself at a grid point 0.

The frame at a point does not depend on the path to it, so the grid may
come in any order and repeat points.  The points left of 0 are one side,
the others (with those at 0, unless no point lies right of 0) the second;
each side is one monotone run from 0 to its farthest point, split into
equal panels wherever the points fall.  The generator is called once per
block of PANEL_BLOCK panels, on a specfun.series.Series x = c + dx over the
panel centres c, and returns the entries (a, b, c) of A = [[a, b], [c, -a]]
as Series (or constants): the first TERMS - 1 Taylor coefficients A_k of
A(c + dx), each broadcastable to (factors, panels).  Several frame systems
integrated over one grid ride along as a leading factor axis: the two
spectral parameters +-1, the s-systems of several t-slices or KKSH specs,
the Lame systems of h+ and h-.  They share the panels of each side, and an
entry that is constant along an axis keeps that axis of length 1.  From
Phi_0 = Id the frame series about c follows by

    (k + 1) Phi_{k+1} = sum_{i <= k} Phi_i A_{k-i}.

When a is the constant 0 and c a constant (the s-systems of nullcurve and
the Lame systems), only b varies, and the columns (X, Y) of Phi follow by
(k + 1) X_{k+1} = c Y_k and (k + 1) Y_{k+1} = sum_{i <= k} X_i b_{k-i}:
the same sums without their zero terms, in the same order, so the same
floats with one einsum an order over b alone.  Any other generator (the
KKSH t-system) takes the einsum over all four entries.

The propagator of a panel of half-width w is adj(Phi(-w)) Phi(w), and a
grid point x inside it reads adj(Phi(-w)) Phi(x - c) off the same series
(dense output); each is divided by the square root of its determinant (1
up to the truncation), so every factor has det 1.  The propagators of a
block are multiplied in order by one prefix scan, one einsum a round on
their entries stacked as (2, 2, ...) matrices, whose entries are the
frames at the panel starts that dense output reads and whose last entry
is the block's product; that product is folded into the running frame
before the next block, so memory stays flat in the panel count.

Accuracy.  Each level is swept twice, from all TERMS terms and without the
last one, along the factor axis of one sweep; the effect of the last term
on the frames, times q / (1 - q) for the largest ratio q of a panel's
half-width to its radius, estimates the tail of the series (relative,
max-norm per sample).  A level is accepted once that estimate is within
rel_tol or within the rounding floor sqrt(panels) times the rounding unit:
a tolerance below the rounding is met at the rounding.  The radius of a
panel comes from a root test, 1 / max |Phi_k|^(1/k) over the last
ROOT_TERMS coefficients.  Each side climbs its own ladder of levels.  Its
first level takes its share of FIRST_PANELS panels, in proportion to its
length; if it misses, the side takes the panel count at which
(w / rho)^TERMS meets the target (rel_tol or the floor) for the smallest
radius rho of its panels, times PANEL_MARGIN (at least a doubling), and
every later miss doubles.  A level whose panels outrun the radius
overflows without a warning and counts as a miss.  A level of more than
MAX_PANELS panels on a side raises NumericFailure before it is swept, and
so does a non-finite generator coefficient or a NaN radius.

Frames of a rho-periodic generator extend by Floquet's rule, F(r + k rho)
= M^k F(r) (floquet_extend, the one-holonomy case of lattice_power's closed
form), and when the generator is also even, M follows from the half-period
frame by parity (parity_monodromy); lame and nullcurve both use each.
"""

from __future__ import annotations

import math

import numpy as np

from .config import NumericFailure
from .specfun.series import Series

EPS = float(np.finfo(float).eps)
TERMS = 24            # Taylor terms per panel (even: the last term is odd)
ROOT_TERMS = 4        # last frame coefficients read by the root test
# panels per generator call: its arrays hold 23 x 256 coefficients per
# factor, so the memory of a sweep does not grow with the panel count
PANEL_BLOCK = 256
FIRST_PANELS = 64     # panels of the first level, whose root test predicts
MAX_PANELS = 1 << 16  # refinement cap
PANEL_MARGIN = 1.25   # on the predicted panel count


def sl2_inverse(F: np.ndarray) -> np.ndarray:
    """The inverse of unimodular frames (..., 2, 2), their adjugate: defined
    however large F grows, where an LU inverse loses det F = 1 to
    cancellation (at |F| ~ 1e10 the float det is 0 and an LU inverse
    raises)."""
    return np.stack([np.stack([F[..., 1, 1], -F[..., 0, 1]], -1),
                     np.stack([-F[..., 1, 0], F[..., 0, 0]], -1)], -2)


def floquet_extend(M: np.ndarray, F: np.ndarray, k) -> np.ndarray:
    """M^k F per sample, Floquet's rule F(r + k rho) = M^k F(r): F
    (..., n, 2, 2) the frames at the remainders, M (..., 2, 2) the
    monodromy, k (n,) the integer period counts (or 0), the one-holonomy
    case of lattice_power.  A hyperbolic M overflows over many periods, as a
    transport of the whole grid would: NumericFailure, not inf or NaN
    frames."""
    k = np.broadcast_to(k, F.shape[-3:-2])
    with np.errstate(over="ignore", invalid="ignore"):
        out = lattice_power(M[..., None, :, :], k[:, None]) @ F
    if not np.isfinite(out).all():
        raise NumericFailure(f"s-frames overflow over {int(np.abs(k).max())} periods")
    return out


def lattice_power(C: np.ndarray, n) -> np.ndarray:
    """C1^n1 ... Cg^ng per sample, the holonomy of n1 l1 + ... + ng lg on a
    period lattice, F(x + sum n_i l_i) = prod C_i^n_i F(x): C (..., g, 2, 2)
    the g commuting unimodular holonomies C_i = F(l_i) on axis -3 (g = 1 is
    a monodromy and Floquet's rule), n (m, g) the integer cell counts;
    returns (..., m, 2, 2).

    Commuting, C_i = c_i I + r_i P share the traceless part P (the largest of
    theirs), with P^2 = D I.  Write C_i = sigma_i (cosh a_i I + sinh a_i N),
    N = P / sqrt(D) and sigma_i the sign of c_i, for a hyperbolic factor (D
    > 0; a_i = asinh(sigma_i r_i sqrt(D))), or with cos and sin, a_i =
    atan2(sigma_i r_i sqrt(-D), |c_i|), for an elliptic one (D < 0).  Then
    prod C_i^n_i = sigma (alpha I + beta P) with sigma = prod sigma_i^n_i,
    x = sum n_i a_i, alpha = cosh x and beta = sinh x / sqrt(D) (cos and
    sin / sqrt(-D)), and at a parabolic factor (D = 0) the limit alpha = 1,
    beta = sum n_i sigma_i r_i.  No power is formed and x stays moderate: it
    is about 21 where |C1^n1 C2^n2| is 2.4e9 with n1 = 305; n = 0 gives I
    exactly.  Past the float range the product is inf, without a warning."""
    n = np.asarray(n, dtype=float)

    def combine(v):                   # sum_i v_i n_i per sample, v (..., g)
        return (v[..., None, :] * n).sum(axis=-1)

    c = 0.5 * np.trace(C, axis1=-2, axis2=-1)                     # (..., g)
    P = C - c[..., None, None] * np.eye(2)
    largest = (P * P).sum(axis=(-2, -1)).argmax(axis=-1)
    base = np.take_along_axis(P, largest[..., None, None, None], axis=-3)[..., 0, :, :]
    norm = (base * base).sum(axis=(-2, -1))[..., None]
    r = np.divide((P * base[..., None, :, :]).sum(axis=(-2, -1)), norm,
                  out=np.zeros_like(c), where=norm > 0.0)
    D = base[..., 0, 0] ** 2 + base[..., 0, 1] * base[..., 1, 0]
    sign = np.where(c < 0.0, -1.0, 1.0)
    g = sign * r
    root = np.sqrt(np.abs(D))[..., None]
    angle = np.where(D[..., None] > 0.0, np.arcsinh(g * root), np.arctan2(g * root, np.abs(c)))
    x = combine(angle)                                               # (..., m)
    D = D[..., None]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        alpha = np.where(D > 0.0, np.cosh(x), np.where(D < 0.0, np.cos(x), 1.0))
        beta = np.where(D > 0.0, np.sinh(x) / root,
                        np.where(D < 0.0, np.sin(x) / root, combine(g)))
        sigma = 1.0 - 2.0 * np.mod(combine(sign < 0.0), 2.0)
        return sigma[..., None, None] * (alpha[..., None, None] * np.eye(2)
                                         + beta[..., None, None] * base[..., None, :, :])


def parity_monodromy(Q: np.ndarray) -> np.ndarray:
    """The monodromy M = F(2p) = Q S Q^{-1} S of frames (..., 2, 2) from
    their half-period frames Q = F(p) = [[a, b], [c, d]], F(0) = Id, for a
    2p-periodic generator [[0, f(x)], [g(x), 0]] with even f and g: then
    F(-x) = S F(x) S (S = diag(1, -1)) and M = F(p) F(-p)^{-1}; with the
    adjugate for Q^{-1}, [[ad + bc, 2ab], [2cd, ad + bc]], of determinant
    (ad - bc)^2 (Magnus & Winkler, Hill's Equation, 1966, section 1.4)."""
    a, b, c, d = Q[..., 0, 0], Q[..., 0, 1], Q[..., 1, 0], Q[..., 1, 1]
    M = np.empty(Q.shape)
    M[..., 0, 0] = M[..., 1, 1] = a * d + b * c
    M[..., 0, 1] = 2.0 * a * b
    M[..., 1, 0] = 2.0 * c * d
    return M


def _prefix(E: np.ndarray) -> np.ndarray:
    """Inclusive prefix products E_0, E_0 E_1, ... along the last axis of
    matrices E (2, 2, ..., n), which it may overwrite: one einsum a round,
    whose sums come in the order p0 p1 + q0 r1 of the entrywise product."""
    out = np.empty_like(E)
    k = 1
    while k < E.shape[-1]:
        out[..., :k] = E[..., :k]
        np.einsum("ab...,bc...->ac...", E[..., :-k], E[..., k:], out=out[..., k:])
        E, out = out, E
        k *= 2
    return E


def _as_matrices(E: np.ndarray) -> np.ndarray:
    """Matrices (2, 2, ...) with the 2x2 axes moved last, contiguous."""
    return np.ascontiguousarray(np.moveaxis(E, (0, 1), (-2, -1)))


def _coefficients(v, n: int) -> np.ndarray:
    """A generator entry (a Series, or a constant) as Taylor coefficients
    (TERMS - 1, factors or 1, n)."""
    if not isinstance(v, Series):
        v = Series(np.zeros((TERMS - 1, 1))) + v
    c = v.c.reshape(v.c.shape[:1] + (1,) * (3 - v.c.ndim) + v.c.shape[1:])
    return np.broadcast_to(c, c.shape[:2] + (n,))


def _frame_series(a, b, c, n: int) -> np.ndarray:
    """Taylor coefficients Phi_k (TERMS, 2, 2, factors, n) of the frame about
    n panel centres, Phi_0 = Id, from the generator's entries (a, b, c)
    (Series or constants): (k + 1) Phi_{k+1} = sum_{i <= k} Phi_i A_{k-i},
    over b alone when a is the constant 0 and c a constant (see the module
    docstring)."""
    only_b = not (isinstance(a, Series) or isinstance(c, Series) or np.any(a))
    a, b, c = (_coefficients(v, n) for v in (a, b, c))
    if not (np.isfinite(a).all() and np.isfinite(b).all() and np.isfinite(c).all()):
        raise NumericFailure("Taylor transport met a non-finite coefficient")
    shape = (max(len(a[0]), len(b[0]), len(c[0])), n)
    Phi = np.zeros((TERMS, 2, 2) + shape)
    Phi[0, 0, 0] = Phi[0, 1, 1] = 1.0
    if only_b:
        X, Y = Phi[:, :, 0], Phi[:, :, 1]
        for k in range(TERMS - 1):
            np.multiply(Y[k], c[0], out=X[k + 1])
            np.einsum("irfn,ifn->rfn", X[:k + 1], b[k::-1], out=Y[k + 1])
            Phi[k + 1] /= k + 1
        return Phi
    A = np.empty((TERMS - 1, 2, 2) + shape)
    A[:, 0, 0], A[:, 0, 1], A[:, 1, 0], A[:, 1, 1] = a, b, c, -a
    for k in range(TERMS - 1):
        np.einsum("iabfn,ibcfn->acfn", Phi[:k + 1], A[k::-1], out=Phi[k + 1])
        Phi[k + 1] /= k + 1
    return Phi


def _unimodular(m, v):
    """adj(m) v, scaled to det 1, as a (2, 2, ...) array; m and v are
    (2, 2, ...) arrays."""
    (p2, q2), (r2, s2) = m
    (p1, q1), (r1, s1) = v
    P = np.array([[s2 * p1 - q2 * r1, s2 * q1 - q2 * s1],
                  [p2 * r1 - r2 * p1, p2 * s1 - r2 * q1]])
    P *= 1.0 / np.sqrt(P[0, 0] * P[1, 1] - P[0, 1] * P[1, 0])
    return P


def _panels(generator, centre: np.ndarray, half: np.ndarray, radii: list):
    """The frame series of the panels centre +- half, scaled to u = dx / half
    (Phi_k half^k), Phi(u = -1) and the panel propagators, the last two
    twice along the factor axis: from all TERMS terms, then without the
    last one.  Appends each panel's root-test radius (in x) to radii."""
    Phi = _frame_series(*generator(Series.variable(centre, TERMS - 1)), len(centre))
    size = np.abs(Phi[-ROOT_TERMS:]).max(axis=(1, 2, 3))
    k = np.arange(TERMS - ROOT_TERMS, TERMS)[:, None]
    radii.append(1.0 / (size ** (1.0 / k)).max(axis=0))
    Phi *= (half ** np.arange(TERMS)[:, None])[:, None, None, None]
    # Phi(+-1) = even +- odd; the last term is odd (TERMS is even)
    even, odd = Phi[0::2].sum(axis=0), Phi[1::2].sum(axis=0)
    even = np.concatenate([even, even], axis=2)
    odd = np.concatenate([odd, odd - Phi[-1]], axis=2)
    minus = even - odd
    return Phi, minus, _unimodular(minus, even + odd)


def _sweep(generator, x: np.ndarray, count: int, radii: list) -> np.ndarray:
    """Frames (2 x factors, len(x), 2, 2) at the points x of one side, from
    Id at 0, with count equal panels from 0 to x[-1]: the first half of the
    factor axis from all TERMS terms, the second without the last one (see
    _panels).  x is ordered by distance from 0, so each block's points are
    one slice."""
    width = x[-1] / count
    local = np.divide(x, width, out=np.zeros_like(x), where=width != 0.0)
    panel = np.clip(np.floor(local), 0, count - 1).astype(np.int64)
    out = frame = None
    for k0 in range(0, count, PANEL_BLOCK):
        k = np.arange(k0, min(k0 + PANEL_BLOCK, count))
        half = np.full(len(k), 0.5 * width)
        centre = k * width + half
        Phi, minus, P = _panels(generator, centre, half, radii)
        if out is None:
            out = np.empty((P.shape[2], len(x), 2, 2))
            frame = np.broadcast_to(np.eye(2), (P.shape[2], 2, 2))
        lo, hi = np.searchsorted(panel, [k0, k0 + len(k)])
        j = panel[lo:hi] - k0
        u = np.divide(x[lo:hi] - centre[j], half[j], out=np.zeros(hi - lo),
                      where=half[j] != 0.0)
        value = np.take(Phi[-1], j, axis=-1)
        for c in Phi[-2::-1]:
            value *= u
            value += np.take(c, j, axis=-1)
        last = np.take(Phi[-1], j, axis=-1) * u ** (TERMS - 1)
        value = np.concatenate([value, value - last], axis=2)
        # the frame at each panel's start: the exclusive prefix products
        start = np.broadcast_to(np.eye(2)[:, :, None, None], P.shape[:3] + (1,))
        pre = _as_matrices(_prefix(np.concatenate([start, P], axis=-1)))
        out[:, lo:hi] = (frame[:, None] @ np.take(pre, j, axis=1)
                         @ _as_matrices(_unimodular(np.take(minus, j, axis=-1), value)))
        frame = frame @ pre[:, -1]
    return out


def _rel_diff(coarse: np.ndarray, fine: np.ndarray) -> float:
    """max over samples of |coarse - fine|_max / |fine|_max."""
    num = np.abs(coarse - fine).max(axis=(-2, -1))
    return float((num / np.abs(fine).max(axis=(-2, -1))).max())


def _ladder(generator, x: np.ndarray, need: int, rel_tol: float) -> np.ndarray:
    """The frames at the points x of one side (see _sweep), up its ladder of
    levels from a first level of need panels (see the module docstring)."""
    span = abs(x[-1])
    predicted = False
    while True:
        if not need <= MAX_PANELS:
            raise NumericFailure(
                f"Taylor transport needs more than {MAX_PANELS} panels for "
                f"relative tolerance {rel_tol:.1e}")
        count = int(need)
        radii = []
        both = _sweep(generator, x, count, radii)
        frames = both[:len(both) // 2]
        radii = np.concatenate(radii)
        q = float((span / (2 * count) / radii).max())
        err = (_rel_diff(both[len(both) // 2:], frames) * q / (1.0 - q)
               if q < 1.0 else math.inf)
        floor = EPS * math.sqrt(count)
        if err <= max(rel_tol, floor):
            return frames
        need = 2.0 * count
        if not predicted:
            reach = max(rel_tol, floor) ** (1.0 / TERMS)
            # np.maximum keeps a NaN radius, which fails the cap test above
            need = np.maximum(need, np.ceil(PANEL_MARGIN * span / (2.0 * reach * radii.min())))
            predicted = True


def transport(generator, grid, rel_tol: float) -> np.ndarray:
    """Frames (factors, len(grid), 2, 2) of F' = F A(x) at the grid points,
    in any order, with F(0) = Id (exactly, at a grid point 0), to the
    relative accuracy rel_tol (see the module docstring).  generator(x) is
    called on a Series x, the panel centres + dx, and returns (a, b, c) of A
    as Series (or constants)."""
    x = np.asarray(grid, dtype=float)
    if not len(x) or not np.isfinite(x).all():
        raise ValueError("transport grid must be non-empty and finite")
    # a point at 0 rides with the right side, if there is one
    left = x < 0.0 if (x > 0.0).any() else x <= 0.0
    # each side's points by distance from 0, the farthest last
    sides = [i[np.argsort(np.abs(x[i]), kind="stable")]
             for i in (np.flatnonzero(left), np.flatnonzero(~left)) if len(i)]
    spans = [abs(x[i[-1]]) for i in sides]
    out = None
    # a level whose panels outrun the radius overflows; it is a miss
    with np.errstate(all="ignore"):
        for i, span in zip(sides, spans):
            need = math.ceil(FIRST_PANELS * span / sum(spans)) if span > 0.0 else 1
            frames = _ladder(generator, x[i], need, rel_tol)
            if out is None:
                out = np.empty((len(frames), len(x), 2, 2))
            out[:, i] = frames
    # a point at 0 reads adj(Phi(-w)) Phi(-w) off its panel, Id to rounding
    out[:, x == 0.0] = np.eye(2)
    return out

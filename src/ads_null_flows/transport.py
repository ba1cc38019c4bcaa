"""Transport of unimodular 2x2 frames, F' = F A(x) with A(x) in sl2, by two
kernels with one interface: transport (order-6 Magnus steps) and
taylor_transport (Taylor panels).  Both return the frames at the grid
points from F(x0) = Id to a relative accuracy, and multiply their step or
panel factors the same way (_sweep).

Magnus.  One step of length h from x uses the order-6 Magnus scheme of Blanes,
Casas, Oteo & Ros (Phys. Rep. 470 (2009) 151; after Iserles & Norsett,
Phil. Trans. R. Soc. A 357 (1999) 983) on the three Gauss-Legendre nodes
x + c_i h, c = 1/2 + (-1, 0, 1) sqrt(15)/10:

    a1 = h A_2,  a2 = (sqrt15 h / 3)(A_3 - A_1),  a3 = (10 h / 3)(A_3 - 2 A_2 + A_1),
    C1 = [a1, a2],  C2 = -[a1, 2 a3 + C1] / 60,
    W  = a1 + a3 / 12 + [-20 a1 - a3 + C1, a2 + C2] / 240,

with the bracket of the right action, [X, Y] = YX - XY (F' = F A is the
transpose of Y' = A^T Y).  W is traceless, W^2 = r^2 Id with r^2 = -det W,
so the step factor exp W = cosh r Id + (sinh r / r) W (cos and sin for
r^2 < 0) has determinant 1 by construction.

The generator is called once per block of BLOCK steps, on the array of all
their nodes, and returns the entries (a, b, c) of A = [[a, b], [c, -a]],
each broadcastable to (factors, nodes): several frame systems that share
the expensive coefficient (the two spectral parameters +-1, or a batch of
KKSH monodromies) ride along as a leading axis.  An entry that is constant
along an axis keeps that axis of length 1 (the s-systems' a = 0 costs no
array).  A block's memory grows with factors x BLOCK, so a caller keeps
its factor count small.  The step factors of a block are multiplied in
order, by a prefix scan where the grid needs samples inside the block and
by pairwise tree reduction otherwise (n - 1 products against the scan's
n log2 n), and folded into the running frame before the next block, so
memory stays flat in the step count.  A step may be negative: the path
runs x0 -> grid[0] -> grid[1] -> ... in any order.

Step count: two levels of n and m > n steps (spread over the grid
intervals in proportion to their lengths) give the Richardson estimate
|F_n - F_m| / ((m/n)^6 - 1) of the error of F_m, relative and in the
max-norm per sample.  F_m is accepted once the estimate is within rel_tol
or within the rounding of m steps, sqrt(m) times the rounding unit: a
tolerance below the rounding is met at the rounding, as DOP853 clamps its
rtol.  The levels double from FIRST_STEPS until two agree to PREDICT_BELOW
(1e-4: on the kksh t-system the rate already holds there, and predicting
saves the last doubling); from there the h^6 rate predicts the step count
that meets the tolerance, times MARGIN, which is computed and checked
against the last level, and a miss doubles again.  More than MAX_STEPS,
or a non-finite frame, raises IntegrationFailure.

Taylor panels (for an analytic A: a linear ODE with analytic coefficients
is solved by its Taylor series; Jorba & Zou, Exp. Math. 14 (2005) 99).
Each grid interval is split into equal panels.  The generator is called
once per block of PANEL_BLOCK panels, on a specfun.series.Series x = c + dx
over the panel centres c, and returns (a, b, c) as Series: the first
TERMS - 1 Taylor coefficients A_k of A(c + dx), of each panel and factor.
From Phi_0 = Id the frame series about c follows by

    (k + 1) Phi_{k+1} = sum_{i <= k} Phi_i A_{k-i},

and the propagator of a panel of half-width w is adj(Phi(-w)) Phi(w),
divided by the square root of its determinant (1 up to the truncation),
so every panel factor has det 1.  Each level is swept twice, from all
TERMS terms and without the last one, along the factor axis of one sweep;
the effect of the last term on the frames, times q / (1 - q) for the
largest ratio q of a panel's half-width to its radius, estimates the
tail of the series (relative, max-norm per sample).  A level is accepted
once that estimate is within rel_tol or within the rounding floor
sqrt(panels) times the rounding unit.  The radius of a panel comes from a
root test, 1 / max |Phi_k|^(1/k) over the last ROOT_TERMS coefficients.
The first level has FIRST_PANELS panels; if it misses, each interval takes
the panel count at which (w / rho)^TERMS meets the target (rel_tol or the
floor) for the smallest radius rho of its panels, times PANEL_MARGIN (at
least a doubling), and every later miss doubles.  A level whose panels
outrun the radius overflows without a warning and counts as a miss.  A
level of more than MAX_PANELS panels raises IntegrationFailure before it
is swept, and so does a non-finite generator coefficient.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .specfun.series import Series

ORDER = 6
NODES = 0.5 + math.sqrt(15.0) / 10.0 * np.array([-1.0, 0.0, 1.0])
BLOCK = 2048          # steps whose nodes are evaluated in one generator call
FIRST_STEPS = 128     # steps of the coarse level of the first pair
MAX_STEPS = 1 << 21   # refinement cap: 6.3M generator nodes per level
MARGIN = 1.1          # on the predicted step count
PREDICT_BELOW = 1e-4  # error estimate below which the h^6 rate is trusted
EPS = float(np.finfo(float).eps)
TERMS = 24            # Taylor terms per panel (even: the last term is odd)
ROOT_TERMS = 4        # last frame coefficients read by the root test
# panels per generator call: 23 x 256 coefficients per array, about the
# 3 x 2048 nodes of a Magnus block, so the block memory stays the same
PANEL_BLOCK = 256
FIRST_PANELS = 128    # panels of the first level, whose root test predicts
MAX_PANELS = 1 << 16  # refinement cap
PANEL_MARGIN = 1.25   # on the predicted panel count


class IntegrationFailure(RuntimeError):
    """An integration missed its tolerance within its work cap, or disagreed
    with the independent integration that confirms it."""


def _bracket(x, y):
    """YX - XY for sl2 triples x = (a, b, c) ~ [[a, b], [c, -a]]."""
    a1, b1, c1 = x
    a2, b2, c2 = y
    return (b2 * c1 - b1 * c2, 2.0 * (a2 * b1 - a1 * b2), 2.0 * (a1 * c2 - a2 * c1))


def _exponent(a, b, c, h):
    """The order-6 Magnus exponent W of each step, as an sl2 triple; a, b, c
    have shape (factors, 3, steps).  A spent intermediate's name is reused,
    so fewer block-sized arrays are alive at once."""
    A1, A2, A3 = ((a[:, i], b[:, i], c[:, i]) for i in range(3))
    a1 = tuple(h * y for y in A2)
    f = math.sqrt(15.0) / 3.0 * h
    a2 = tuple(f * (z - x) for x, z in zip(A1, A3))
    f = 10.0 / 3.0 * h
    a3 = tuple(f * (z - 2.0 * y + x) for x, y, z in zip(A1, A2, A3))
    C1 = _bracket(a1, a2)
    a2 = tuple(x + y / 60.0 for x, y in                    # a2 + C2
               zip(a2, _bracket(tuple(2.0 * x + y for x, y in zip(a3, C1)), a1)))
    C1 = tuple(z - 20.0 * x - y for x, y, z in zip(a1, a3, C1))    # -20 a1 - a3 + C1
    return tuple(x + y / 12.0 + z / 240.0
                 for x, y, z in zip(a1, a3, _bracket(C1, a2)))


def _step_factors(a, b, c, h):
    """exp of the order-6 Magnus exponent of each step, as the entries
    (p, q, r, s) of [[p, q], [r, s]]; a, b, c have shape (factors, 3, steps)."""
    wa, wb, wc = _exponent(a, b, c, h)
    r2 = wa * wa + wb * wc
    r = np.sqrt(np.abs(r2))
    grow = r2 > 0.0
    cosh = np.where(grow, np.cosh(r), np.cos(r))
    small = np.abs(r2) < 1e-3
    safe = np.where(small, 1.0, r)
    sinhc = np.where(small, 1.0 + r2 / 6.0 * (1.0 + r2 / 20.0 * (1.0 + r2 / 42.0)),
                     np.where(grow, np.sinh(safe), np.sin(safe)) / safe)
    return (cosh + sinhc * wa, sinhc * wb, sinhc * wc, cosh - sinhc * wa)


def _mul(x, y):
    p0, q0, r0, s0 = x
    p1, q1, r1, s1 = y
    return (p0 * p1 + q0 * r1, p0 * q1 + q0 * s1, r0 * p1 + s0 * r1, r0 * q1 + s0 * s1)


def _prefix(E):
    """Inclusive prefix products E_0, E_0 E_1, ... along the last axis."""
    n = E[0].shape[-1]
    k = 1
    while k < n:
        head = tuple(e[..., :k] for e in E)
        tail = _mul(tuple(e[..., :-k] for e in E), tuple(e[..., k:] for e in E))
        E = tuple(np.concatenate([h, t], axis=-1) for h, t in zip(head, tail))
        k *= 2
    return E


def _tree(E):
    """The ordered product E_0 E_1 ... by pairwise reduction."""
    while E[0].shape[-1] > 1:
        if E[0].shape[-1] % 2:
            last = _mul(tuple(e[..., -2:-1] for e in E), tuple(e[..., -1:] for e in E))
            E = tuple(np.concatenate([e[..., :-2], t], axis=-1) for e, t in zip(E, last))
        E = _mul(tuple(e[..., 0::2] for e in E), tuple(e[..., 1::2] for e in E))
    return E


def _as_matrices(E, index):
    p, q, r, s = (e[..., index] for e in E)
    return np.stack([np.stack([p, q], -1), np.stack([r, s], -1)], -2)


def _magnus_factors(generator, x: np.ndarray, h: np.ndarray):
    """The step factors of the steps [x, x + h], from one generator call on
    their 3 len(x) nodes."""
    coeffs = generator((x[None, :] + NODES[:, None] * h).ravel())
    # each entry keeps its own factor extent (1 or all), so a constant
    # entry costs no array of the full (factors, 3 steps) size
    a, b, c = (np.broadcast_to(v, np.broadcast_shapes(np.shape(v), (1, 3 * len(x))))
               .reshape(-1, 3, len(x)) for v in coeffs)
    return _step_factors(a, b, c, h)


def _sweep(generator, knots: np.ndarray, counts: np.ndarray,
           factors=_magnus_factors, block: int = BLOCK) -> np.ndarray:
    """Frames (factors, len(knots) - 1, 2, 2) at knots[1:], from Id at
    knots[0], with counts[i] equal steps from knots[i] to knots[i + 1].
    factors(generator, x, h) returns the entries (p, q, r, s), each of shape
    (factors, steps), of the matrices that carry the frame across the steps
    [x, x + h]; it is called on block steps at a time."""
    ends = np.cumsum(counts)
    total = int(ends[-1])
    width = np.diff(knots)
    h_seg = np.divide(width, counts, out=np.zeros_like(width), where=counts > 0)
    out = None
    frame = None
    for k0 in range(0, total, block):
        k = np.arange(k0, min(k0 + block, total))
        seg = np.searchsorted(ends, k, side="right")
        h = h_seg[seg]
        E = factors(generator, knots[seg] + (k - (ends[seg] - counts[seg])) * h, h)
        if out is None:
            out = np.empty((len(E[0]), len(counts), 2, 2))
            frame = np.broadcast_to(np.eye(2), (len(E[0]), 2, 2))
            out[:, ends == 0] = np.eye(2)
        inside = np.nonzero((ends > k0) & (ends < k0 + len(k)))[0]
        if len(inside):
            E = _prefix(E)
            out[:, inside] = frame[:, None] @ _as_matrices(E, ends[inside] - k0 - 1)
        else:
            E = _tree(E)
        frame = frame @ _as_matrices(E, -1)
        out[:, ends == k0 + len(k)] = frame[:, None]
    return out


def _rel_diff(coarse: np.ndarray, fine: np.ndarray) -> float:
    """max over samples of |coarse - fine|_max / |fine|_max."""
    num = np.abs(coarse - fine).max(axis=(-2, -1))
    return float((num / np.abs(fine).max(axis=(-2, -1))).max())


def _knots(x0: float, grid):
    """x0 and the grid as one array, and the length of each interval (all 1
    for a path of length 0)."""
    knots = np.concatenate([[float(x0)], np.asarray(grid, dtype=float)])
    if len(knots) < 2 or not np.all(np.isfinite(knots)):
        raise ValueError("transport grid must be non-empty and finite")
    width = np.abs(np.diff(knots))
    if width.sum() == 0.0:
        width = np.ones_like(width)
    return knots, width


def transport(generator, x0: float, grid, rel_tol: float) -> np.ndarray:
    """Frames (factors, len(grid), 2, 2) of F' = F A(x) at the grid points,
    with F(x0) = Id, to the relative accuracy rel_tol (see the module
    docstring).  generator(x) returns (a, b, c) of A at the array x."""
    knots, width = _knots(x0, grid)
    counts = np.ceil(FIRST_STEPS * width / float(width.sum())).astype(np.int64)
    frames = _sweep(generator, knots, counts)
    ratio = 2.0
    while True:
        finer = np.ceil(ratio * counts).astype(np.int64)
        if finer.sum() > MAX_STEPS:
            raise IntegrationFailure(
                f"Magnus transport needs more than {MAX_STEPS} steps for relative "
                f"tolerance {rel_tol:.1e}")
        fine = _sweep(generator, knots, finer)
        err = _rel_diff(frames, fine) / ((finer.sum() / counts.sum()) ** ORDER - 1.0)
        if not math.isfinite(err):
            raise IntegrationFailure("Magnus transport produced a non-finite frame")
        # the rounding of m steps, which grows like sqrt(m) eps
        floor = EPS * math.sqrt(finer.sum())
        if err <= max(rel_tol, floor):
            return fine
        # once two levels agree to PREDICT_BELOW, step up to where the h^6
        # rate meets rel_tol, or the rounding floor, which grows with the
        # ratio r as sqrt(r); before that, or after a miss, double
        ratio = 2.0
        if err <= PREDICT_BELOW:
            reach = min((err / rel_tol) ** (1.0 / ORDER),
                        (err / floor) ** (1.0 / (ORDER + 0.5)))
            ratio = min(max(ratio, MARGIN * reach), MAX_STEPS)
        counts, frames = finer, fine


# ------------------------------------------------------------ Taylor panels

def _coefficients(v, n: int) -> np.ndarray:
    """A generator entry (a Series, or a constant) as Taylor coefficients
    (TERMS - 1, factors or 1, n)."""
    if not isinstance(v, Series):
        v = Series(np.zeros((TERMS - 1, 1))) + v
    c = v.c.reshape(v.c.shape[:1] + (1,) * (3 - v.c.ndim) + v.c.shape[1:])
    return np.broadcast_to(c, c.shape[:2] + (n,))


def _frame_series(a, b, c) -> np.ndarray:
    """Taylor coefficients Phi_k (TERMS, 2, 2, factors, n) of the frame about
    a panel centre, Phi_0 = Id: (k + 1) Phi_{k+1} = sum_{i <= k} Phi_i A_{k-i}."""
    shape = (max(len(a[0]), len(b[0]), len(c[0])), a.shape[-1])
    A = np.empty((TERMS - 1, 2, 2) + shape)
    A[:, 0, 0], A[:, 0, 1], A[:, 1, 0], A[:, 1, 1] = a, b, c, -a
    Phi = np.zeros((TERMS, 2, 2) + shape)
    Phi[0, 0, 0] = Phi[0, 1, 1] = 1.0
    for k in range(TERMS - 1):
        np.einsum("iabfn,ibcfn->acfn", Phi[:k + 1], A[k::-1], out=Phi[k + 1])
        Phi[k + 1] /= k + 1
    return Phi


def _taylor_factors(generator, x: np.ndarray, h: np.ndarray, radii: list):
    """Propagators of the panels [x, x + h], twice along the factor axis:
    from all TERMS terms, then without the last one.  Appends each panel's
    root-test radius (in x) to radii."""
    half = 0.5 * h
    a, b, c = (_coefficients(v, len(x))
               for v in generator(Series.variable(x + half, TERMS - 1)))
    if not (np.isfinite(a).all() and np.isfinite(b).all() and np.isfinite(c).all()):
        raise IntegrationFailure("Taylor transport met a non-finite coefficient")
    Phi = _frame_series(a, b, c)
    size = np.abs(Phi[-ROOT_TERMS:]).max(axis=(1, 2, 3))
    k = np.arange(TERMS - ROOT_TERMS, TERMS)[:, None]
    radii.append(1.0 / (size ** (1.0 / k)).max(axis=0))
    Phi *= (half ** np.arange(TERMS)[:, None])[:, None, None, None]
    # Phi(+-half) = even +- odd; the last term is odd (TERMS is even)
    even, odd = Phi[0::2].sum(axis=0), Phi[1::2].sum(axis=0)
    out = []
    for o in (odd, odd - Phi[-1]):
        (p1, q1), (r1, s1) = even + o
        (p2, q2), (r2, s2) = even - o
        # adj(Phi(-half)) Phi(half), scaled to det 1
        P = (s2 * p1 - q2 * r1, s2 * q1 - q2 * s1, p2 * r1 - r2 * p1, p2 * s1 - r2 * q1)
        scale = 1.0 / np.sqrt(P[0] * P[3] - P[1] * P[2])
        out.append(tuple(e * scale for e in P))
    return tuple(np.concatenate(pair) for pair in zip(*out))


def taylor_transport(generator, x0: float, grid, rel_tol: float) -> np.ndarray:
    """The frames of transport, (factors, len(grid), 2, 2) with F(x0) = Id,
    by Taylor panels (see the module docstring).  generator(x) is called on
    a Series x, the panel centres + dx, and returns (a, b, c) of A as
    Series (or constants)."""
    knots, width = _knots(x0, grid)
    span = np.abs(np.diff(knots))
    need = np.ceil(FIRST_PANELS * width / float(width.sum()))
    predicted = False
    while True:
        if not need.sum() <= MAX_PANELS:
            raise IntegrationFailure(
                f"Taylor transport needs more than {MAX_PANELS} panels for relative "
                f"tolerance {rel_tol:.1e}")
        counts = need.astype(np.int64)
        radii = []
        # a level whose panels outrun the radius overflows; it is a miss
        with np.errstate(all="ignore"):
            both = _sweep(generator, knots, counts,
                          functools.partial(_taylor_factors, radii=radii), PANEL_BLOCK)
            frames = both[:len(both) // 2]
            half = np.divide(span, 2 * counts, out=np.zeros_like(span), where=counts > 0)
            q = float((np.repeat(half, counts) / np.concatenate(radii)).max())
            err = (_rel_diff(both[len(both) // 2:], frames) * q / (1.0 - q)
                   if q < 1.0 else math.inf)
        floor = EPS * math.sqrt(counts.sum())
        if err <= max(rel_tol, floor):
            return frames
        need = 2.0 * counts
        if not predicted:
            used = counts > 0
            starts = (np.cumsum(counts) - counts)[used]
            rho = np.minimum.reduceat(np.concatenate(radii), starts)
            reach = max(rel_tol, floor) ** (1.0 / TERMS)
            need[used] = np.maximum(need[used], np.ceil(
                PANEL_MARGIN * span[used] / (2.0 * reach * rho)))
            predicted = True

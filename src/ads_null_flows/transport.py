"""Magnus transport of unimodular 2x2 frames, F' = F A(x) with A(x) in sl2.

One step of length h from x uses the order-6 Magnus scheme of Blanes,
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
the expensive coefficient (the two spectral parameters +-1) ride along as
a leading axis.  The step factors of a block are multiplied in order, by a
prefix scan where the grid needs samples inside the block and by pairwise
tree reduction otherwise (n - 1 products against the scan's n log2 n; on
the kksh recipe, whose t-system and monodromies sample no block inside,
it saves 9% of the wall time), and folded into the running frame before
the next block, so memory stays flat in the step count.  A step may be negative:
the path runs x0 -> grid[0] -> grid[1] -> ... in any order.

Step count: two levels of n and m > n steps (spread over the grid
intervals in proportion to their lengths) give the Richardson estimate
|F_n - F_m| / ((m/n)^6 - 1) of the error of F_m, relative and in the
max-norm per sample.  F_m is accepted once the estimate is within rel_tol
or within the rounding of m steps, sqrt(m) times the rounding unit: a
tolerance below the rounding is met at the rounding, as DOP853 clamps its
rtol.  The levels double from FIRST_STEPS until two agree to PREDICT_BELOW;
from there the h^6 rate predicts the step count that meets the tolerance,
which is computed and checked against the last level, and a miss doubles
again.  More than MAX_STEPS, or a non-finite frame, raises
IntegrationFailure.
"""

from __future__ import annotations

import math

import numpy as np

ORDER = 6
NODES = 0.5 + math.sqrt(15.0) / 10.0 * np.array([-1.0, 0.0, 1.0])
BLOCK = 1024          # steps whose nodes are evaluated in one generator call
FIRST_STEPS = 128     # steps of the coarse level of the first pair
MAX_STEPS = 1 << 21   # refinement cap: 6.3M generator nodes per level
MARGIN = 1.25         # on the predicted step count
PREDICT_BELOW = 1e-6  # error estimate below which the h^6 rate is trusted
EPS = float(np.finfo(float).eps)


class IntegrationFailure(RuntimeError):
    """An integration missed its tolerance within its work cap, or disagreed
    with the independent integration that confirms it."""


def _bracket(x, y):
    """YX - XY for sl2 triples x = (a, b, c) ~ [[a, b], [c, -a]]."""
    a1, b1, c1 = x
    a2, b2, c2 = y
    return (b2 * c1 - b1 * c2, 2.0 * (a2 * b1 - a1 * b2), 2.0 * (a1 * c2 - a2 * c1))


def _lin(*terms):
    """sum of coefficient * triple."""
    return tuple(sum(w * t[k] for w, t in terms) for k in range(3))


def _step_factors(a, b, c, h):
    """exp of the order-6 Magnus exponent of each step, as the entries
    (p, q, r, s) of [[p, q], [r, s]]; a, b, c have shape (factors, 3, steps)."""
    A1, A2, A3 = ((a[:, i], b[:, i], c[:, i]) for i in range(3))
    s15 = math.sqrt(15.0) / 3.0
    a1 = _lin((h, A2))
    a2 = _lin((s15 * h, A3), (-s15 * h, A1))
    a3 = _lin((10.0 / 3.0 * h, A3), (-20.0 / 3.0 * h, A2), (10.0 / 3.0 * h, A1))
    C1 = _bracket(a1, a2)
    C2 = _lin((-1.0 / 60.0, _bracket(a1, _lin((2.0, a3), (1.0, C1)))))
    outer = _bracket(_lin((-20.0, a1), (-1.0, a3), (1.0, C1)), _lin((1.0, a2), (1.0, C2)))
    wa, wb, wc = _lin((1.0, a1), (1.0 / 12.0, a3), (1.0 / 240.0, outer))
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


def _sweep(generator, knots: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Frames (factors, len(knots) - 1, 2, 2) at knots[1:], from Id at
    knots[0], with counts[i] equal steps from knots[i] to knots[i + 1]."""
    ends = np.cumsum(counts)
    total = int(ends[-1])
    width = np.diff(knots)
    h_seg = np.divide(width, counts, out=np.zeros_like(width), where=counts > 0)
    out = None
    frame = None
    for k0 in range(0, total, BLOCK):
        k = np.arange(k0, min(k0 + BLOCK, total))
        seg = np.searchsorted(ends, k, side="right")
        h = h_seg[seg]
        x = knots[seg] + (k - (ends[seg] - counts[seg])) * h
        coeffs = generator((x[None, :] + NODES[:, None] * h).ravel())
        shape = np.broadcast_shapes((1, 3 * len(k)), *(np.shape(v) for v in coeffs))
        a, b, c = (np.broadcast_to(v, shape).reshape(shape[0], 3, len(k))
                   for v in coeffs)
        if out is None:
            out = np.empty((shape[0], len(counts), 2, 2))
            frame = np.broadcast_to(np.eye(2), (shape[0], 2, 2))
            out[:, ends == 0] = np.eye(2)
        E = _step_factors(a, b, c, h)
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


def transport(generator, x0: float, grid, rel_tol: float) -> np.ndarray:
    """Frames (factors, len(grid), 2, 2) of F' = F A(x) at the grid points,
    with F(x0) = Id, to the relative accuracy rel_tol (see the module
    docstring).  generator(x) returns (a, b, c) of A at the array x."""
    knots = np.concatenate([[float(x0)], np.asarray(grid, dtype=float)])
    if len(knots) < 2 or not np.all(np.isfinite(knots)):
        raise ValueError("transport grid must be non-empty and finite")
    width = np.abs(np.diff(knots))
    length = float(width.sum())
    if length == 0.0:
        width = np.ones_like(width)
        length = float(width.sum())

    counts = np.ceil(FIRST_STEPS * width / length).astype(np.int64)
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

"""Transport of unimodular 2x2 frames, F' = F A(x) with A(x) in sl2 and
analytic, by Taylor panels: a linear ODE with analytic coefficients is
solved by its Taylor series (Jorba & Zou, Exp. Math. 14 (2005) 99).
transport returns the frames at the grid points from F(x0) = Id to a
relative accuracy.

The path x0 -> grid[0] -> grid[1] -> ... may run in any order.  Each of its
monotone runs is split into equal panels, wherever the grid points fall.
The generator is called once per block of PANEL_BLOCK panels, on a
specfun.series.Series x = c + dx over the panel centres c, and returns the
entries (a, b, c) of A = [[a, b], [c, -a]] as Series (or constants): the
first TERMS - 1 Taylor coefficients A_k of A(c + dx), each broadcastable
to (factors, panels).  Several frame systems integrated over one grid
ride along as a leading factor axis: the two spectral parameters +-1, the
s-systems of several t-slices or KKSH specs, the Lame systems of h+ and
h-.  They share one panel ladder, and an entry that is constant along an
axis keeps that axis of length 1.  From Phi_0 = Id the frame series about
c follows by

    (k + 1) Phi_{k+1} = sum_{i <= k} Phi_i A_{k-i}.

The propagator of a panel of half-width w is adj(Phi(-w)) Phi(w), and a
grid point x inside it reads adj(Phi(-w)) Phi(x - c) off the same series
(dense output); each is divided by the square root of its determinant (1
up to the truncation), so every factor has det 1.  The propagators of a
block are multiplied in order by one prefix scan, whose entries are the
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
ROOT_TERMS coefficients.  The first level has FIRST_PANELS panels, shared
among the runs in proportion to their lengths; if it misses, each run
takes the panel count at which (w / rho)^TERMS meets the target (rel_tol
or the floor) for the smallest radius rho of its panels, times
PANEL_MARGIN (at least a doubling), and every later miss doubles.  A level
whose panels outrun the radius overflows without a warning and counts as
a miss.  A level of more than MAX_PANELS panels raises NumericFailure
before it is swept, and so does a non-finite generator coefficient.
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


def _as_matrices(E):
    """The entries (p, q, r, s) as 2x2 matrices on two new last axes."""
    p, q, r, s = E
    return np.stack([np.stack([p, q], -1), np.stack([r, s], -1)], -2)


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


def _unimodular(m, v):
    """adj(m) v, scaled to det 1, as the entries (p, q, r, s); m and v are
    (2, 2, ...) arrays."""
    (p2, q2), (r2, s2) = m
    (p1, q1), (r1, s1) = v
    P = (s2 * p1 - q2 * r1, s2 * q1 - q2 * s1, p2 * r1 - r2 * p1, p2 * s1 - r2 * q1)
    scale = 1.0 / np.sqrt(P[0] * P[3] - P[1] * P[2])
    return tuple(e * scale for e in P)


def _panels(generator, centre: np.ndarray, half: np.ndarray, radii: list):
    """The frame series of the panels centre +- half, scaled to u = dx / half
    (Phi_k half^k), Phi(u = -1) and the panel propagators, the last two
    twice along the factor axis: from all TERMS terms, then without the
    last one.  Appends each panel's root-test radius (in x) to radii."""
    a, b, c = (_coefficients(v, len(centre))
               for v in generator(Series.variable(centre, TERMS - 1)))
    if not (np.isfinite(a).all() and np.isfinite(b).all() and np.isfinite(c).all()):
        raise NumericFailure("Taylor transport met a non-finite coefficient")
    Phi = _frame_series(a, b, c)
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


def _sweep(generator, knots: np.ndarray, bounds: np.ndarray, counts: np.ndarray,
           radii: list) -> np.ndarray:
    """Frames (2 x factors, len(knots) - 1, 2, 2) at knots[1:], from Id at
    knots[0], with counts[r] equal panels on the run from knots[bounds[r]]
    to knots[bounds[r + 1]]: the first half of the factor axis from all
    TERMS terms, the second without the last one (see _panels)."""
    ends = np.cumsum(counts)
    first = ends - counts                  # the first panel of each run
    total = int(ends[-1])
    start = knots[bounds[:-1]]
    width = (knots[bounds[1:]] - start) / counts
    # the run and the panel of each grid point; the panels follow the path
    # in order, so each block's grid points are one slice
    x = knots[1:]
    run = np.searchsorted(bounds, np.arange(1, len(knots))) - 1
    local = np.divide(x - start[run], width[run], out=np.zeros_like(x),
                      where=width[run] != 0.0)
    panel = first[run] + np.clip(np.floor(local), 0, counts[run] - 1).astype(np.int64)
    out = frame = None
    for k0 in range(0, total, PANEL_BLOCK):
        k = np.arange(k0, min(k0 + PANEL_BLOCK, total))
        r = np.searchsorted(ends, k, side="right")
        half = 0.5 * width[r]
        centre = start[r] + (k - first[r]) * width[r] + half
        Phi, minus, P = _panels(generator, centre, half, radii)
        if out is None:
            out = np.empty((len(P[0]), len(x), 2, 2))
            frame = np.broadcast_to(np.eye(2), (len(P[0]), 2, 2))
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
        one, zero = np.ones((len(P[0]), 1)), np.zeros((len(P[0]), 1))
        pre = _prefix(tuple(np.concatenate([i, e], axis=-1)
                            for i, e in zip((one, zero, zero, one), P)))
        pre = _as_matrices(pre)
        out[:, lo:hi] = (frame[:, None] @ np.take(pre, j, axis=1)
                         @ _as_matrices(_unimodular(np.take(minus, j, axis=-1), value)))
        frame = frame @ pre[:, -1]
    return out


def _rel_diff(coarse: np.ndarray, fine: np.ndarray) -> float:
    """max over samples of |coarse - fine|_max / |fine|_max."""
    num = np.abs(coarse - fine).max(axis=(-2, -1))
    return float((num / np.abs(fine).max(axis=(-2, -1))).max())


def _runs(x0: float, grid):
    """x0 and the grid as one array of knots, and the knot indices that
    bound the monotone runs of the path through them (a step of length 0
    stays in the run it falls in)."""
    knots = np.concatenate([[float(x0)], np.asarray(grid, dtype=float)])
    if len(knots) < 2 or not np.all(np.isfinite(knots)):
        raise ValueError("transport grid must be non-empty and finite")
    sign = np.sign(np.diff(knots))
    moving = np.nonzero(sign)[0]
    turns = moving[1:][sign[moving[1:]] != sign[moving[:-1]]]
    return knots, np.concatenate([[0], turns, [len(knots) - 1]])


def transport(generator, x0: float, grid, rel_tol: float) -> np.ndarray:
    """Frames (factors, len(grid), 2, 2) of F' = F A(x) at the grid points,
    with F(x0) = Id, to the relative accuracy rel_tol (see the module
    docstring).  generator(x) is called on a Series x, the panel centres
    + dx, and returns (a, b, c) of A as Series (or constants)."""
    knots, bounds = _runs(x0, grid)
    span = np.abs(np.diff(knots[bounds]))
    need = np.ceil(FIRST_PANELS * span / span.sum()) if span.sum() > 0.0 else np.ones(1)
    predicted = False
    # a level whose panels outrun the radius overflows; it is a miss
    with np.errstate(all="ignore"):
        while True:
            if not need.sum() <= MAX_PANELS:
                raise NumericFailure(
                    f"Taylor transport needs more than {MAX_PANELS} panels for "
                    f"relative tolerance {rel_tol:.1e}")
            counts = need.astype(np.int64)
            radii = []
            both = _sweep(generator, knots, bounds, counts, radii)
            frames = both[:len(both) // 2]
            radii = np.concatenate(radii)
            q = float((np.repeat(span / (2 * counts), counts) / radii).max())
            err = (_rel_diff(both[len(both) // 2:], frames) * q / (1.0 - q)
                   if q < 1.0 else math.inf)
            floor = EPS * math.sqrt(counts.sum())
            if err <= max(rel_tol, floor):
                return frames
            need = 2.0 * counts
            if not predicted:
                rho = np.minimum.reduceat(radii, np.cumsum(counts) - counts)
                reach = max(rel_tol, floor) ** (1.0 / TERMS)
                need = np.maximum(need, np.ceil(PANEL_MARGIN * span / (2.0 * reach * rho)))
                predicted = True

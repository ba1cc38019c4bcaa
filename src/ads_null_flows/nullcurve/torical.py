"""Solid-torus visualization chart.

A unimodular matrix p = [[a, b], [c, d]] has split coordinates

    (x1, x2, x3, x4) = ((a+d)/2, (b-c)/2, (b+c)/2, (a-d)/2),

with -x1^2 - x2^2 + x3^2 + x4^2 = -det p = -1, so (x1, x2) never vanishes.
The chart compresses the unbounded disc radius r = sqrt(x3^2 + x4^2) to
rho = r / sqrt(1 + r^2) < 1 and embeds

    ((2 + rho cos phi) cos theta, (2 + rho cos phi) sin theta, rho sin phi),

theta = atan2(x2, x1), phi = atan2(x4, x3): the open solid torus of radii
(2, 1) around the z-axis.  Any smooth chart would do; this one is fixed for
reproducibility.  The identity maps to (2, 0, 0).
"""

from __future__ import annotations

import numpy as np

# the chart radius r, relative to the largest matrix entry, at or below
# which a curve meets the core axis to the rounding of its entries
AXIS_ROUNDING = 64.0 * np.finfo(float).eps


def split_coordinates(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    a, b = p[..., 0, 0], p[..., 0, 1]
    c, d = p[..., 1, 0], p[..., 1, 1]
    return np.stack([(a + d) / 2.0, (b - c) / 2.0,
                     (b + c) / 2.0, (a - d) / 2.0], axis=-1)


def torical_embed(p: np.ndarray) -> np.ndarray:
    """(..., 3) embedded points; accepts a single matrix or a stack."""
    x = split_coordinates(p)
    theta = np.arctan2(x[..., 1], x[..., 0])
    r = np.hypot(x[..., 2], x[..., 3])
    rho = r / np.hypot(1.0, r)
    phi = np.arctan2(x[..., 3], x[..., 2])
    ring = 2.0 + rho * np.cos(phi)
    return np.stack([ring * np.cos(theta), ring * np.sin(theta),
                     rho * np.sin(phi)], axis=-1)


def winding_numbers(p_stack: np.ndarray) -> tuple:
    """(theta turns, phi turns) of a closed sampled curve: unwrapped angle
    increments over the closed polyline, rounded to integers.  phi is
    undefined on the chart's core axis r = 0, so the phi turns are None
    when the curve meets it: when its least r is within AXIS_ROUNDING of
    its largest entry (every curve through gamma = Id does)."""
    p_stack = np.asarray(p_stack, dtype=float)
    x = split_coordinates(p_stack)
    theta = np.unwrap(np.arctan2(x[:, 1], x[:, 0]))
    w_theta = int(np.rint((theta[-1] - theta[0]) / (2.0 * np.pi)))
    if np.hypot(x[:, 2], x[:, 3]).min() <= AXIS_ROUNDING * np.abs(p_stack).max():
        return w_theta, None
    phi = np.unwrap(np.arctan2(x[:, 3], x[:, 2]))
    return w_theta, int(np.rint((phi[-1] - phi[0]) / (2.0 * np.pi)))

"""Planar geometry shared by the plan and mollified-energy modules.

All routines are vectorized over numpy arrays and allocate nothing global,
so they are safe to call from parallel read-only evaluations.
"""

from __future__ import annotations

import numpy as np


def pair_projection(points: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Closest-point parameters and distances of paired points and segments.

    Point k pairs with segment (a[k], b[k]); the arrays broadcast against
    each other over every axis but the trailing coordinate axis, which the
    results drop. Each pair's arithmetic is the same whatever the shape.
    """
    x = np.asarray(points, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = b - a
    den = np.einsum("...k,...k->...", d, d)
    w = x - a
    num = np.einsum("...k,...k->...", w, d)
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.where(den > 0.0, num / den, 0.0)
    np.clip(t, 0.0, 1.0, out=t)
    diff = w - t[..., None] * d
    dist = np.hypot(diff[..., 0], diff[..., 1])
    return t, dist


def bounding_box_diameter(points: np.ndarray) -> float:
    """Diagonal of the axis-aligned bounding box of a point set."""
    p = np.asarray(points, dtype=float).reshape(-1, 2)
    if p.size == 0:
        return 0.0
    span = p.max(axis=0) - p.min(axis=0)
    return float(np.hypot(span[0], span[1]))

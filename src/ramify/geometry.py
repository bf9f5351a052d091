"""Planar polyline geometry shared by the plan, cost, and optimizer modules.

All routines are vectorized over numpy arrays and allocate nothing global,
so they are safe to call from parallel read-only evaluations.
"""

from __future__ import annotations

import numpy as np


def segment_lengths(vertices: np.ndarray) -> np.ndarray:
    """Euclidean lengths of the consecutive segments of a polyline.

    Parameters
    ----------
    vertices : (K+1, 2) array
    Returns
    -------
    (K,) array of segment lengths.
    """
    v = np.asarray(vertices, dtype=float)
    d = np.diff(v, axis=0)
    return np.hypot(d[:, 0], d[:, 1])


def cumulative_arclength(vertices: np.ndarray) -> np.ndarray:
    """Cumulative arc length at each vertex, starting at 0."""
    lengths = segment_lengths(vertices)
    out = np.empty(len(lengths) + 1)
    out[0] = 0.0
    np.cumsum(lengths, out=out[1:])
    return out


def resample_polyline(vertices: np.ndarray, num_vertices: int):
    """Redistribute a polyline's vertices at equal arc-length spacing.

    The resampled polyline traces the same curve; the first and last
    vertices are preserved bit-exactly. Returns ``(new_vertices, knot_arcs)``
    where ``knot_arcs`` are the arc-length positions of the new vertices
    along the original curve.
    """
    v = np.asarray(vertices, dtype=float)
    if num_vertices < 2:
        raise ValueError("a polyline needs at least two vertices")
    cum = cumulative_arclength(v)
    total = cum[-1]
    knot_arcs = np.linspace(0.0, total, num_vertices)
    if total <= 0.0:
        return np.repeat(v[:1], num_vertices, axis=0), knot_arcs
    new = np.column_stack([
        np.interp(knot_arcs, cum, v[:, 0]),
        np.interp(knot_arcs, cum, v[:, 1]),
    ])
    new[0] = v[0]
    new[-1] = v[-1]
    return new, knot_arcs


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

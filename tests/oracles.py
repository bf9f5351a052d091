"""Reference computations that only the tests use.

Each is a plain, direct form of a quantity the package computes another
way, or an exact answer to check a result against: the polyline lengths,
arc lengths and equal-arc-length resampling that the optimizer's grouped
re-discretization reproduces, the unsmoothed multiplicity that bounds the
mollified ones, and a grid search for the best single-bifurcation tree.
"""

from __future__ import annotations

import numpy as np

from ramify.geometry import pair_projection
from ramify.plan_model import PathPlan


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



def exact_multiplicity(plan: PathPlan, x, tol: float = 1e-12) -> float:
    """Total mass of the paths passing within ``tol`` of a point.

    This is the unsmoothed multiplicity of the plan at x: paths count
    with their full mass when their polyline touches the point, and not
    at all otherwise.
    """
    point = np.asarray(x, dtype=float).reshape(1, 2)
    total = 0.0
    for path in plan.paths:
        a = path.vertices[:-1]
        b = path.vertices[1:]
        _, dist = pair_projection(point, a, b)
        if float(dist.min()) <= tol:
            total += path.mass
    return total


def _bifurcation_cost(points: np.ndarray, p1, p2, m1: float, m2: float, alpha: float):
    trunk = np.hypot(points[:, 0], points[:, 1])
    arm1 = np.hypot(points[:, 0] - p1[0], points[:, 1] - p1[1])
    arm2 = np.hypot(points[:, 0] - p2[0], points[:, 1] - p2[1])
    return (m1 + m2) ** alpha * trunk + m1 ** alpha * arm1 + m2 ** alpha * arm2


def brute_force_bifurcation(p1, p2, m1: float, m2: float, alpha: float, grid: int = 200):
    """Best single-bifurcation tree for two atoms fed from the origin.

    Scans a grid over the bounding box of the origin and the two atoms,
    then refines twice in a 10x smaller window around the incumbent.
    The no-bifurcation star (both atoms fed directly) competes as well;
    returns ``(point, cost)`` of the better structure, with the origin as
    the point when the star wins.
    """
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    if m1 <= 0.0 or m2 <= 0.0:
        raise ValueError("atom masses must be positive")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if grid < 2:
        raise ValueError("grid must be at least 2")
    corners = np.array([[0.0, 0.0], p1, p2])
    low = corners.min(axis=0)
    high = corners.max(axis=0)
    span = np.maximum(high - low, 1e-12)

    best_point = np.zeros(2)
    best_cost = np.inf
    center = 0.5 * (low + high)
    half = 0.5 * span
    for _ in range(3):
        xs = np.linspace(center[0] - half[0], center[0] + half[0], grid)
        ys = np.linspace(center[1] - half[1], center[1] + half[1], grid)
        gx, gy = np.meshgrid(xs, ys)
        points = np.column_stack([gx.ravel(), gy.ravel()])
        costs = _bifurcation_cost(points, p1, p2, m1, m2, alpha)
        idx = int(np.argmin(costs))
        if costs[idx] < best_cost:
            best_cost = float(costs[idx])
            best_point = points[idx]
        center = best_point
        half = half / 10.0

    star_cost = m1 ** alpha * float(np.hypot(*p1)) + m2 ** alpha * float(np.hypot(*p2))
    if star_cost <= best_cost:
        return np.zeros(2), star_cost
    return best_point, best_cost

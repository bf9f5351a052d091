"""Exact branched-transport costs on merged tree structures.

These serve as ground truth for the mollified functionals: the cost of a
finite tree is the sum over edges of length times flux to the
concavity exponent alpha, and a two-atom configuration admits a cheap
global search over single-bifurcation trees.
"""

from __future__ import annotations

import numpy as np

from .geometry import pair_projection
from .plan_model import PathPlan, TreeTopology, extract_topology


def _flux_power(flux: float, alpha: float) -> float:
    # 0^alpha is 0 for every alpha >= 0, and flux^0 is 1 for positive flux.
    if flux < 0.0:
        raise ValueError("flux must be nonnegative")
    if flux == 0.0:
        return 0.0
    if alpha == 0.0:
        return 1.0
    return flux ** alpha


def gilbert_energy(topology: TreeTopology, alpha: float) -> float:
    """Sum over edges of length * flux^alpha."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    return float(sum(length * _flux_power(flux, alpha) for _, _, length, flux in topology.edges))


def exact_plan_cost(plan: PathPlan, alpha: float, merge_tol: float = 0.0) -> float:
    """Exact cost of a path plan after merging shared prefixes."""
    return gilbert_energy(extract_topology(plan, merge_tol), alpha)


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
    return (
        _flux_power(m1 + m2, alpha) * trunk
        + _flux_power(m1, alpha) * arm1
        + _flux_power(m2, alpha) * arm2
    )


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

    star_cost = _flux_power(m1, alpha) * float(np.hypot(*p1)) + _flux_power(m2, alpha) * float(np.hypot(*p2))
    if star_cost <= best_cost:
        return np.zeros(2), star_cost
    return best_point, best_cost

"""Flat packing of plans for the optimizer, and flat gradients.

The flat layout, whose slot map ``plan_model.Layout`` builds, is
owner-major: for each path or branch in order, first all x coordinates,
then all y coordinates, then (branch plans only) all interval densities.
Pinned coordinates keep their slots so the layout is independent of
which entries are free; gradients are plain vectors in this layout with
exact zeros there, and steps never move them. This module and
``Layout`` are the only code that knows the order.
"""

from __future__ import annotations

import numpy as np

from .plan_model import Branch, BranchPlan, Layout, Path, PathPlan


def plan_to_vector(plan) -> np.ndarray:
    """A plan's (or its table's) coordinates and densities in the flat layout."""
    return Layout.of(plan).base


def owner_slices(vector: np.ndarray, layout: Layout) -> list:
    """Each owner's x, y and density slots of a flat vector, as views into
    it (writable when the vector is); a path's density slice is empty."""
    return [(vector[lo:lo + count], vector[lo + count:lo + 2 * count], vector[lo + 2 * count:hi])
            for lo, hi, count in zip(layout.offsets, layout.offsets[1:], layout.counts)]


def vector_to_plan(vector: np.ndarray, layout: Layout):
    """The plan at a flat vector, validated like every plan."""
    pieces = owner_slices(np.asarray(vector, dtype=float), layout)
    if layout.masses is None:
        return BranchPlan(tuple(Branch(x=xs, y=ys, m=ms) for xs, ys, ms in pieces))
    return PathPlan(tuple(Path(np.column_stack([xs, ys]), float(mass), bool(pin))
                          for (xs, ys, _), mass, pin in zip(pieces, layout.masses,
                                                            layout.terminal_fixed)))


def scatter_segment_gradients(table, ga, gb, gx, g_len, g_density=None) -> np.ndarray:
    """Flat gradient of a plan from per-segment sensitivities.

    ``table`` is the plan's segment table; its layout gives the slots.
    ga, gb pull on the segment endpoints, gx on the segment midpoint, and
    g_len scales the unit tangent for direct length sensitivities;
    g_density (branch plans) is the sensitivity to each segment's density.
    Pinned slots are exactly zero.
    """
    start_slots, m_slots, free = table.layout.start_slots, table.layout.m_slots, table.layout.free
    d = table.b - table.a
    # A collapsed interval has no tangent; zero is a valid subgradient of
    # the length there, so its direct length pull is dropped. Descent can
    # then pass through states where consecutive knots coincide.
    with np.errstate(invalid="ignore", divide="ignore"):
        unit = np.where(table.length[:, None] > 0.0, d / table.length[:, None], 0.0)
    grad = np.zeros(len(free))
    # Each vertex starts at most one segment and ends at most one, so
    # the slots of each scatter are distinct.
    grad[start_slots] += ga + 0.5 * gx - unit * g_len[:, None]
    grad[start_slots + 1] += gb + 0.5 * gx + unit * g_len[:, None]
    if g_density is not None:
        grad[m_slots] = g_density
    grad[~free] = 0.0
    return grad


def central_difference(func, plan, step: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar functional of a plan or its table.

    Differentiates only free coordinates; pinned entries stay zero. The
    step is scaled per component by max(1, |value|). Each probe is the
    layout's table at the probed vector. A backward probe that would
    leave the feasible set (a negative density or branch height) is
    replaced by a one-sided difference on the feasible side.
    """
    layout = Layout.of(plan)
    base = layout.base
    grad = np.zeros_like(base)
    base_value = None
    for i in np.flatnonzero(layout.free):
        h = step * max(1.0, abs(base[i]))
        forward = base.copy()
        forward[i] += h
        backward = base.copy()
        backward[i] -= h
        f_plus = func(layout.table(forward))
        if backward[i] < 0.0 and i in layout.clamp:
            if base_value is None:
                base_value = func(plan)
            grad[i] = (f_plus - base_value) / h
            continue
        grad[i] = (f_plus - func(layout.table(backward))) / (2.0 * h)
    return grad

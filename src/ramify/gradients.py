"""Flat packing of plans for the optimizer, and flat gradients.

The flat layout is owner-major: for each path or branch in order, first
all x coordinates, then all y coordinates, then (branch plans only) all
interval densities. Pinned coordinates keep their slots so the layout is
independent of which entries are free; gradients are plain vectors in
this layout with exact zeros there, and steps never move them. This
module is the only one that knows the order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .plan_model import _owners


def _int_slots(blocks: list) -> np.ndarray:
    return np.concatenate(blocks) if blocks else np.zeros(0, dtype=int)


@dataclass(frozen=True, eq=False)
class Layout:
    """Slot map of one plan shape, built once per descent stage.

    ``template`` supplies what the flat vector does not hold: the plan
    type, path masses and terminal flags. ``base`` is the template's own
    vector; the feasibility projection restores its pinned slots.
    """

    template: object
    offsets: tuple           # first slot of each owner's block, then the total size
    counts: tuple            # vertex count of each owner
    free: np.ndarray         # (N,) False on pinned slots
    base: np.ndarray         # (N,)
    clamp: np.ndarray        # slots kept nonnegative: branch heights and densities
    start_slots: np.ndarray  # (S, 2) x and y slots of each segment's start vertex
    end_slots: np.ndarray    # (S, 2) x and y slots of each segment's end vertex
    m_slots: np.ndarray      # (S,) density slot of each segment; empty for path plans

    @classmethod
    def of(cls, plan) -> "Layout":
        """Layout of a plan's shape, with the plan as template.

        The origin vertex of every path and branch is pinned. Path
        terminals are pinned when the path's ``terminal_fixed`` flag is
        set. Densities are always free; the projection clamps them.
        """
        base = plan_to_vector(plan)
        free = np.ones(len(base), dtype=bool)
        offsets, counts, clamp, starts, m_slots = [], [], [], [], []
        offset = 0
        for owner in _owners(plan):
            count, densities = len(owner.vertices), len(owner.densities)
            x0, y0, m0 = offset, offset + count, offset + 2 * count
            free[[x0, y0]] = False
            if owner.terminal_fixed:
                free[[y0 - 1, m0 - 1]] = False
            starts.append(np.column_stack([np.arange(x0, y0 - 1), np.arange(y0, m0 - 1)]))
            if densities:
                clamp.append(np.arange(y0, m0 + densities))
                m_slots.append(np.arange(m0, m0 + densities))
            offsets.append(offset)
            counts.append(count)
            offset = m0 + densities
        offsets.append(offset)
        start_slots = np.concatenate(starts) if starts else np.zeros((0, 2), dtype=int)
        return cls(template=plan, offsets=tuple(offsets), counts=tuple(counts), free=free,
                   base=base, clamp=_int_slots(clamp), start_slots=start_slots,
                   end_slots=start_slots + 1, m_slots=_int_slots(m_slots))


def plan_to_vector(plan) -> np.ndarray:
    """Flatten a plan's coordinates (and densities) into the fixed layout."""
    blocks = []
    for owner in _owners(plan):
        vertices = owner.vertices
        blocks.extend([vertices[:, 0], vertices[:, 1], owner.densities])
    return np.concatenate(blocks) if blocks else np.zeros(0)


def vector_to_plan(vector: np.ndarray, layout: Layout):
    """Rebuild a plan from the flat layout, carrying template metadata."""
    vector = np.asarray(vector, dtype=float)
    pieces = [(vector[lo:lo + count], vector[lo + count:lo + 2 * count], vector[lo + 2 * count:hi])
              for lo, hi, count in zip(layout.offsets, layout.offsets[1:], layout.counts)]
    template = layout.template
    return type(template)(tuple(owner.rebuilt(*piece)
                                for owner, piece in zip(_owners(template), pieces)))


def scatter_segment_gradients(plan, table, ga, gb, gx, g_len, g_density=None) -> np.ndarray:
    """Flat gradient of a plan from per-segment sensitivities.

    ``table`` is the plan's segment table. ga, gb pull on the segment
    endpoints, gx on the segment midpoint, and g_len scales the unit
    tangent for direct length sensitivities; g_density (branch plans)
    is the sensitivity to each segment's density. Pinned slots are
    exactly zero.
    """
    layout = Layout.of(plan)
    d = table.b - table.a
    # A collapsed interval has no tangent; zero is a valid subgradient of
    # the length there, so its direct length pull is dropped. Descent can
    # then pass through states where consecutive knots coincide.
    with np.errstate(invalid="ignore", divide="ignore"):
        unit = np.where(table.length[:, None] > 0.0, d / table.length[:, None], 0.0)
    grad = np.zeros(len(layout.base))
    # Each vertex starts at most one segment and ends at most one, so
    # the slots of each scatter are distinct.
    grad[layout.start_slots] += ga + 0.5 * gx - unit * g_len[:, None]
    grad[layout.end_slots] += gb + 0.5 * gx + unit * g_len[:, None]
    if g_density is not None:
        grad[layout.m_slots] = g_density
    grad[~layout.free] = 0.0
    return grad


def central_difference(func, plan, step: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar plan functional.

    Differentiates only free coordinates; pinned entries stay zero. The
    step is scaled per component by max(1, |value|). Probes that would
    leave the feasible set (negative density or branch height) fall back
    to a one-sided difference on the feasible side.
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
        f_plus = func(vector_to_plan(forward, layout))
        try:
            f_minus = func(vector_to_plan(backward, layout))
        except ValueError:
            if base_value is None:
                base_value = func(plan)
            grad[i] = (f_plus - base_value) / h
            continue
        grad[i] = (f_plus - f_minus) / (2.0 * h)
    return grad

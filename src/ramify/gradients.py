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

from .plan_model import SegmentTable, _owners, segment_table


def _slots(table: SegmentTable) -> tuple:
    """The flat layout of the plan behind a segment table.

    An owner of K segments holds K + 1 x slots, K + 1 y slots and, when
    the table has densities, K density slots. Returns each owner's first
    slot followed by the total size, each owner's vertex count, the x and
    y slots of each segment's start vertex (its end vertex's are one
    further on), each segment's density slot and the free mask.
    """
    counts = table.segments + 1
    shed = len(table.density) > 0
    offsets = np.concatenate([[0], np.cumsum((2 + shed) * counts - shed)])
    first, count = offsets[:-1], counts[table.owner]
    x = first[table.owner] + table.interval
    free = np.ones(offsets[-1], dtype=bool)
    free[first] = free[first + counts] = False
    fixed = table.terminal_fixed
    free[(first + counts - 1)[fixed]] = free[(first + 2 * counts - 1)[fixed]] = False
    # A path table has no densities, so the slice leaves no density slots.
    m_slots = (x + 2 * count)[:len(table.density)]
    return offsets, counts, np.column_stack([x, x + count]), m_slots, free


def _vector(table: SegmentTable, slots: tuple) -> np.ndarray:
    """The flat vector of the plan behind a segment table."""
    offsets, _, start_slots, m_slots, _ = slots
    vector = np.zeros(offsets[-1])
    vector[start_slots] = table.a
    vector[start_slots + 1] = table.b
    vector[m_slots] = table.density
    return vector


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
    m_slots: np.ndarray      # (S,) density slot of each segment; empty for path plans

    @classmethod
    def of(cls, plan) -> "Layout":
        """Layout of a plan's shape, with the plan as template.

        The origin vertex of every path and branch is pinned. Path
        terminals are pinned when the path's ``terminal_fixed`` flag is
        set. Densities are always free; the projection clamps them.
        """
        table = segment_table(plan)
        slots = offsets, counts, start_slots, m_slots, free = _slots(table)
        clamp = np.zeros(len(free), dtype=bool)
        if len(m_slots):  # branch heights and densities
            clamp[start_slots[:, 1]] = clamp[start_slots[:, 1] + 1] = clamp[m_slots] = True
        return cls(template=plan, offsets=tuple(offsets.tolist()), counts=tuple(counts.tolist()),
                   free=free, base=_vector(table, slots), clamp=np.flatnonzero(clamp),
                   m_slots=m_slots)


def plan_to_vector(plan) -> np.ndarray:
    """Flatten a plan's coordinates (and densities) into the fixed layout."""
    table = segment_table(plan)
    return _vector(table, _slots(table))


def vector_to_plan(vector: np.ndarray, layout: Layout):
    """Rebuild a plan from the flat layout, carrying template metadata."""
    vector = np.asarray(vector, dtype=float)
    pieces = [(vector[lo:lo + count], vector[lo + count:lo + 2 * count], vector[lo + 2 * count:hi])
              for lo, hi, count in zip(layout.offsets, layout.offsets[1:], layout.counts)]
    template = layout.template
    return type(template)(tuple(owner.rebuilt(*piece)
                                for owner, piece in zip(_owners(template), pieces)))


def scatter_segment_gradients(table, ga, gb, gx, g_len, g_density=None) -> np.ndarray:
    """Flat gradient of a plan from per-segment sensitivities.

    ``table`` is the plan's segment table. ga, gb pull on the segment
    endpoints, gx on the segment midpoint, and g_len scales the unit
    tangent for direct length sensitivities; g_density (branch plans)
    is the sensitivity to each segment's density. Pinned slots are
    exactly zero.
    """
    _, _, start_slots, m_slots, free = _slots(table)
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

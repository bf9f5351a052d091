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

from .plan_model import Branch, BranchPlan, Path, PathPlan, SegmentTable, _table, segment_table


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


@dataclass(frozen=True, eq=False)
class Layout:
    """Slot map of one plan shape, built once per descent stage, with the
    static columns of its segment table, from which :meth:`table` builds the
    table at any vector. ``base`` is the vector of the plan the layout was
    built from; the feasibility projection restores its pinned slots.
    """

    offsets: tuple           # first slot of each owner's block, then the total size
    counts: tuple            # vertex count of each owner
    free: np.ndarray         # (N,) False on pinned slots
    base: np.ndarray         # (N,)
    clamp: np.ndarray        # slots kept nonnegative: branch heights and densities
    start_slots: np.ndarray  # (S, 2) x and y slots of each segment's start vertex
    m_slots: np.ndarray      # (S,) density slot of each segment; empty for path plans
    columns: tuple           # static segment-table columns, as plan_model._table takes them

    @classmethod
    def of(cls, plan) -> "Layout":
        """Layout of a plan's shape (or of its segment table's).

        The origin vertex of every path and branch is pinned. Path
        terminals are pinned when the path's ``terminal_fixed`` flag is
        set. Densities are always free; the projection clamps them.
        """
        table = segment_table(plan)
        offsets, counts, start_slots, m_slots, free = _slots(table)
        base = np.zeros(len(free))
        base[start_slots] = table.a
        base[start_slots + 1] = table.b
        base[m_slots] = table.density
        clamp = np.zeros(len(free), dtype=bool)
        if len(m_slots):  # branch heights and densities
            clamp[start_slots[:, 1]] = clamp[start_slots[:, 1] + 1] = clamp[m_slots] = True
        return cls(offsets=tuple(offsets.tolist()), counts=tuple(counts.tolist()), free=free,
                   base=base, clamp=np.flatnonzero(clamp),
                   start_slots=start_slots, m_slots=m_slots,
                   columns=(table.owner, table.interval, table.group_starts, table.terminal_fixed,
                            None if len(m_slots) else table.flux[table.group_starts]))

    def table(self, vector: np.ndarray) -> SegmentTable:
        """The segment table of the plan at ``vector``, built without the plan."""
        return _table(self.columns, vector[self.start_slots], vector[self.start_slots + 1],
                      vector[self.m_slots])


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
    _, _, _, pinned, masses = layout.columns
    if masses is None:
        return BranchPlan(tuple(Branch(x=xs, y=ys, m=ms) for xs, ys, ms in pieces))
    return PathPlan(tuple(Path(np.column_stack([xs, ys]), float(mass), bool(pin))
                          for (xs, ys, _), mass, pin in zip(pieces, masses, pinned)))


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

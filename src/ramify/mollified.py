"""Mollified multiplicities and irrigation energies.

Two smoothed multiplicity estimates drive everything here. The max form
evaluates the kernel at the minimum distance from a point to each path
and is a certified upper bound for the exact multiplicity, so the
associated energy never exceeds the exact cost of the same plan. The
integral-average form integrates the scaled kernel along each path and
caps the per-path contribution at 1 before mass weighting; it is the
form minimized by the irrigation experiments and is not lower
semicontinuous, which the saturated two-path closed forms below witness.

Branch plans use a mollified downstream flux built from the same segment
integrals; its concave power discounts crowded regions of the tree. Every
kernel consumer pairs points with segments only through one pair list,
:func:`_pair_list`, which comes in the blocks it is built in: each block
holds the pairs of one range of points, cut where the range's candidates
fill ``_BLOCK``. The value pass :func:`_value_pass` evaluates the kernel
integrals of each block and the gradient pass :func:`_pair_pulls`
chain-rules their derivatives. For a compact kernel the list holds only
the pairs a cell list finds near each other, so no (T, S) array is
formed; a stage filters one list kept with a skin (:class:`_KeptPairs`)
into the same pairs on each call. A non-compact kernel's list keeps only
its blocks' point ranges (:class:`_AllPairs`) and makes each block's
pairs as a pass reaches it. Every per-point, per-path or
per-segment sum over the pairs adds each block into its accumulator with
``np.add.at``, in list order as one ``np.bincount`` over the joined list
would, so the block size changes no bit and only block-sized temporaries
exist beside the list. A bump-kernel value keeps each block's support
moments, so its gradient skips the support solve; each value also keeps
the multiplicities its gradient reads.

Energies discretize the outer arc-length integral with the midpoint rule
on the plan's own intervals. Inner segment integrals are exact for the
bump kernel and Gauss-Legendre quadrature otherwise, and the gradients
differentiate exactly what the energies compute.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .geometry import pair_projection
from .gradients import scatter_segment_gradients
from .kernels import (
    KernelSpec,
    _check_eps,
    kernel_derivative,
    kernel_eval,
    kernel_segment_integral,
    kernel_segment_integral_grad,
)
from .plan_model import BranchPlan, PathPlan, SegmentTable, _sums_before, segment_table


class _Evaluation(NamedTuple):
    """The settings and data (segment table first, then pair data) of one
    evaluation of the ``form`` objective: all that its gradient reads."""

    form: str
    settings: tuple
    data: tuple


def _record(value, form: str) -> _Evaluation:
    """The evaluation record of ``value``, a result of the ``form`` objective."""
    record = getattr(value, "_evaluation", None)
    if record is None or record.form != form:
        raise TypeError(f"the gradient of {form} takes a result of {form}")
    return record


class DegenerateEvaluation(ValueError):
    """An infinite objective: zero multiplicity or flux under mass, or coincident midpoints."""


@dataclass(frozen=True)
class ObjectiveValue:
    """Objective total together with its three components.

    An energy or branch cost is its own irrigation, with its per-segment
    ``terms`` in segment-table order (None for the tree objective).
    ``_evaluation`` holds the settings and data of the evaluation, for its
    gradient. Neither takes part in comparisons.
    """

    total: float
    irrigation: float
    penalty: float = 0.0
    payoff: float = 0.0
    terms: Optional[np.ndarray] = field(default=None, compare=False, repr=False)
    _evaluation: Optional[_Evaluation] = field(default=None, compare=False, repr=False)


def _check_alpha(alpha: float):
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")


def _path_table(plan):
    """A path plan's segment table (or the table itself) and its path masses."""
    table = segment_table(plan) if isinstance(plan, PathPlan) else plan
    if not isinstance(table, SegmentTable) or len(table.density):
        raise TypeError("mollified multiplicities and energies are defined on path plans")
    return table, table.layout.masses


def _query(field, x, plan: PathPlan, eps: float, *args):
    """A table-level multiplicity ``field`` at one point (as a float) or
    at an (N, 2) array of points."""
    _check_eps(eps)
    pts = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(pts)):
        raise ValueError("query points must be finite")
    values = field(np.atleast_2d(pts), *_path_table(plan), eps, *args)
    return float(values[0]) if pts.ndim == 1 else values


# Candidate pairs per block of a pair list. A list is built and walked in
# blocks, each the pairs of a range of points with at most this many
# candidates (more only when one point has more; a kept list is cut before
# its filter), so temporaries stay this size however long the list is.
# Blocks of 2^14 and 2^15 ran the bump value and gradient fastest at
# S = 1,600; larger ones were slower, and 2^15 keeps fig5's lists in one block.
_BLOCK = 2 ** 15


def _runs(ends: np.ndarray):
    """Consecutive ranges [lo, hi) of units whose counts, given by their
    running totals ``ends``, add up to at most ``_BLOCK``; a unit with more
    is a range alone. With no units, one empty range."""
    lo, units = 0, len(ends)
    while True:
        base = ends[lo - 1] if lo else 0
        hi = min(max(int(np.searchsorted(ends, base + _BLOCK, "right")), lo + 1), units)
        yield lo, hi
        lo = hi
        if lo >= units:
            return


def _pair_list(table: SegmentTable, points: np.ndarray, eps: float, spec: KernelSpec,
               skin: float = 0.0, pack=None):
    """Point and segment indices (i, j) of every pair the kernel can reach,
    in blocks: each holds the pairs of one range of points, sorted by point
    and then by segment, and the ranges follow each other.

    A point within eps of a segment lies within eps plus half the segment's
    length of its midpoint. For a compact kernel a uniform grid of cells
    that wide (a cell list) yields the midpoints in the 3 x 3 square of cells
    around each point, and the bounding-circle test keeps a superset of the
    pairs closer than eps without forming all T x S of them; on a grid of
    at most 2 x 2 cells, which each square covers, the candidates are all
    T * S pairs. A range holds at most ``_BLOCK`` candidates (more only
    when one point has more), formed and tested together, and the blocks
    come as a list. A ``skin`` adds to every reach; ``pack(i, j)`` stores a
    block as it is made. A non-compact kernel reaches every pair, so it
    gets an :class:`_AllPairs` of the ranges instead.
    """
    count, size = len(points), table.size
    ranges = _runs(np.cumsum(np.full(count, size)))
    if not (spec.compact_support and count and size):
        return _AllPairs(list(ranges), size)
    reach = (eps + 0.5 * table.length) * (1.0 + 1e-9) + skin  # slack for rounding
    reach2 = reach * reach
    mids = table.midpoint
    origin = mids.min(axis=0)
    span = mids.max(axis=0) - origin
    width = max(reach.max(), span.max() / 2.0 ** 20)  # at most 2^20 cells a side
    shape = (span // width).astype(int) + 1
    cells = not np.all(shape <= 2)
    if cells:
        cell = ((mids - origin) // width).astype(int)
        keys = cell[:, 0] * shape[1] + cell[:, 1]
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        # A column of three cells is one run of keys, so each point reads three runs.
        home = np.clip((points - origin) // width, -2, shape + 1).astype(int)
        column = home[:, :1] + np.arange(-1, 2)
        low = np.maximum(home[:, 1:] - 1, 0)
        high = np.minimum(home[:, 1:] + 1, shape[1] - 1)
        first = np.searchsorted(keys, column * shape[1] + low, "left")
        last = np.searchsorted(keys, column * shape[1] + high, "right")
        hits = np.where((column >= 0) & (column < shape[0]) & (low <= high), last - first, 0)
        per_point = hits.sum(axis=1)
        ranges = _runs(np.cumsum(per_point))
    blocks = []
    for lo, hi in ranges:
        if cells:
            runs = hits[lo:hi].ravel()
            ends = np.cumsum(runs)
            i = np.repeat(np.arange(lo, hi), per_point[lo:hi])
            j = order[np.repeat(first[lo:hi].ravel() - ends + runs, runs) + np.arange(ends[-1])]
        else:
            i, j = _range_pairs(lo, hi, size)
        near = _within(points, mids, i, j, reach2)
        i, j = i[near], j[near]
        if cells:
            pair = np.sort(i * size + j)
            i, j = pair // size, pair % size
        blocks.append((i, j) if pack is None else pack(i, j))
    return blocks


def _range_pairs(lo: int, hi: int, size: int):
    """(i, j) of every pair of the points ``lo:hi`` with ``size`` segments."""
    return np.repeat(np.arange(lo, hi), size), np.tile(np.arange(size), hi - lo)


class _AllPairs:
    """Every pair of a non-compact kernel, in :func:`_pair_list`'s blocks,
    kept as the blocks' point ranges: each walk over it makes each block's
    (i, j) in turn, so a list of all T x S pairs never exists."""

    def __init__(self, ranges: list, size: int):
        self.ranges, self.size = ranges, size

    def __len__(self):
        return len(self.ranges)

    def __iter__(self):
        return (_range_pairs(lo, hi, self.size) for lo, hi in self.ranges)


def _within(points: np.ndarray, mids: np.ndarray, i, j, reach2: np.ndarray) -> np.ndarray:
    """Which pairs (i, j) lie within the squared reach of their segment's midpoint."""
    gap = _rows(points, i)
    gap -= _rows(mids, j)
    gap *= gap
    return gap[:, 0] + gap[:, 1] <= np.take(reach2, j)


def _rows(array: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``array[index]`` for an (N, 2) array; ``np.take`` gathers rows several
    times faster than fancy indexing."""
    return np.take(array, index, axis=0)


# Skin of a kept pair list, in units of eps (see _KeptPairs). Skins of 0.5 to
# 2 ran the benchmark's solves about equally fast; 0.5 keeps the fewest pairs.
_SKIN = 0.5


class _KeptPairs:
    """One stage's midpoint pair list for one eps and kernel (a Verlet list,
    Phys. Rev. 159, 1967): built with a skin of ``_SKIN * eps``, kept in its
    blocks as first point, int32 counts per point and int32 segments, and
    filtered by :meth:`blocks` with the list's own test into a fresh list's
    pairs. It is rebuilt, the old list dropped first, on a new segment count
    or once twice the largest midpoint move plus the largest half-length
    growth since its table passes the skin. Non-compact kernels get a fresh list."""

    def __init__(self, eps: float, spec: KernelSpec):
        self.eps, self.spec, self.built = eps, spec, None  # built: (table, blocks)

    def blocks(self, table: SegmentTable):
        """The pair blocks of ``table``'s midpoints, in :func:`_pair_list`'s format."""
        mids, skin = table.midpoint, _SKIN * self.eps
        if not (self.spec.compact_support and table.size):
            return _pair_list(table, mids, self.eps, self.spec)
        ref = self.built[0] if self.built else None
        if (ref is None or ref.size != table.size
                or 2.0 * np.hypot(*(mids - ref.midpoint).T).max()  # less 1e-6, for rounding
                + max(0.5 * (table.length - ref.length).max(), 0.0) >= skin * (1 - 1e-6)):
            self.built = None  # Each block holds its first midpoint's own pair.
            self.built = (table, _pair_list(table, mids, self.eps, self.spec, skin, lambda i, j: (
                i[0], np.bincount(i - i[0]).astype(np.int32), j.astype(np.int32))))
        reach2 = ((self.eps + 0.5 * table.length) * (1.0 + 1e-9)) ** 2
        out = []
        for first, counts, segs in self.built[1]:
            i = np.repeat(np.arange(first, first + len(counts)), counts)
            near = _within(mids, mids, i, segs, reach2)
            out.append((i[near], segs[near].astype(np.intp)))
        return out


def _midpoint_pairs(table: SegmentTable, eps: float, spec=KernelSpec(), kept=None):
    """Pair blocks of the table's midpoints: fresh, or from ``kept``, a kept list."""
    if kept is None:
        return _pair_list(table, table.midpoint, eps, spec)
    if (kept.eps, kept.spec) != (eps, spec):
        raise ValueError("a kept pair list serves only its own eps and kernel")
    return kept.blocks(table)


def _nearest(points: np.ndarray, table: SegmentTable, pairs: list):
    """Each point's minimum distance to each path, as a (T, n) array, and
    the nearest pair of every (point, path) with pairs on the list.

    The nearest pairs come as one tuple per block of ``pairs``, the pair
    blocks of ``points``: their points, segments, projection parameters
    and distances. Ties go to the lowest segment index, as ``argmin``
    takes them. A path with no pair on the list is at infinite distance,
    where the compact kernel that left it off is 0. Blocks are cut between
    points, so none splits a (point, path) run.
    """
    paths = len(table.group_starts)
    min_dist = np.full((len(points), paths), np.inf)
    found = []
    for i, j in pairs:
        t_par, dist = pair_projection(_rows(points, i), _rows(table.a, j), _rows(table.b, j))
        run = i * paths + table.owner[j]
        starts = np.flatnonzero(np.diff(run, prepend=-1))
        low = np.minimum.reduceat(dist, starts)
        at_low = dist == np.repeat(low, np.diff(starts, append=len(dist)))
        rows = np.minimum.reduceat(np.where(at_low, np.arange(len(dist)), len(dist)), starts)
        min_dist.flat[run[starts]] = low
        found.append((i[rows], j[rows], t_par[rows], low))
    return min_dist, found


def _multiplicity_max(points: np.ndarray, table: SegmentTable, masses: np.ndarray,
                      eps: float, spec: KernelSpec) -> np.ndarray:
    min_dist = _nearest(points, table, _pair_list(table, points, eps, spec))[0]
    return kernel_eval(spec, min_dist / eps) @ masses


def multiplicity_max(x, plan: PathPlan, eps: float, spec: KernelSpec = KernelSpec()):
    """Max-form mollified multiplicity at the query points.

    Sums mass times the scaled kernel of the exact point-to-polyline
    distance over all paths. Never falls below the exact multiplicity of
    the plan at the point, and never exceeds the total transported mass.
    """
    return _query(_multiplicity_max, x, plan, eps, spec)


def _pairs(table: SegmentTable, points: np.ndarray, i: np.ndarray, j: np.ndarray,
           eps: float, spec: KernelSpec, quad_points: int, grad: bool = False, moments=None):
    """Kernel segment integrals of the pairs (i, j) of ``points`` and
    segments, and their bump support moments (None for other kernels);
    with ``grad``, the integrals and their (N, 2) derivatives in segment
    start, end and point, reusing the value call's bump ``moments``."""
    args = (spec, _rows(table.a, j), _rows(table.b, j), _rows(points, i), eps, quad_points)
    if grad:
        return kernel_segment_integral_grad(*args, moments=moments)
    return kernel_segment_integral(*args, with_moments=True)


def _value_pass(table: SegmentTable, points: np.ndarray, pairs: list, eps: float, add,
                spec: KernelSpec = KernelSpec(), quad_points: int = 32) -> list:
    """Kernel segment integrals of ``pairs``, the blocks :func:`_pair_list`
    gave for ``points``, block by block: ``add(i, j, value)`` takes each
    block's points, segments and integrals, in list order. Returns each
    block's bump support moments (None for other kernels)."""
    moments = []
    for i, j in pairs:
        value, part = _pairs(table, points, i, j, eps, spec, quad_points)
        moments.append(part)
        add(i, j, value)
    return moments


def _pair_pulls(table: SegmentTable, pairs: list, eps: float, moments: list, weigh,
                spec: KernelSpec = KernelSpec(), quad_points: int = 32):
    """Chain rule through the integrals of the midpoint ``pairs``, block by
    block, reusing each block's bump ``moments`` from the value pass:
    ``weigh(i, j, value)`` gives the weight on each value of a block, and
    the weighted derivatives add up to (S, 2) segment start and end pulls
    and (S, 2) midpoint pulls. No derivative array outlives its block, and
    each coordinate column is weighted and added on its own."""
    ga, gb, gx = np.zeros((3, table.size, 2))
    for (i, j), part in zip(pairs, moments):
        value, d_a, d_b, d_x = _pairs(table, table.midpoint, i, j, eps, spec, quad_points,
                                      grad=True, moments=part)
        weight = weigh(i, j, value)
        for k in range(2):
            np.add.at(ga[:, k], j, weight * d_a[:, k])
            np.add.at(gb[:, k], j, weight * d_b[:, k])
            np.add.at(gx[:, k], i, weight * d_x[:, k])
    return ga, gb, gx


def _capped(table: SegmentTable, points: np.ndarray, pairs: list, masses: np.ndarray,
            eps: float, spec: KernelSpec, quad_points: int):
    """Value pass of the average form: the mass-weighted sum of per-path arc
    integrals at the points, each capped at 1, the (T, n) mask of (point,
    path) integrals below the cap, and each block's bump support moments."""
    paths = len(masses)
    inner = np.zeros(len(points) * paths)

    def add(i, j, value):
        np.add.at(inner, i * paths + table.owner[j], value)

    moments = _value_pass(table, points, pairs, eps, add, spec, quad_points)
    inner = inner.reshape(len(points), paths)
    return np.minimum(inner, 1.0) @ masses, inner < 1.0, moments


def _multiplicity_avg(points: np.ndarray, table: SegmentTable, masses: np.ndarray,
                      eps: float, spec: KernelSpec, quad_points: int) -> np.ndarray:
    pairs = _pair_list(table, points, eps, spec)
    return _capped(table, points, pairs, masses, eps, spec, quad_points)[0]


def multiplicity_avg(x, plan: PathPlan, eps: float, spec: KernelSpec = KernelSpec(),
                     quad_points: int = 32):
    """Integral-average mollified multiplicity at the query points.

    Each path contributes its mass times min{1, arc integral of the
    scaled kernel along the path}; the cap applies per path before mass
    weighting.
    """
    return _query(_multiplicity_avg, x, plan, eps, spec, quad_points)


def _powers(table: SegmentTable, w: np.ndarray, alpha: float, what: str):
    """Mask of segments carrying mass and w^(alpha-1) on them.

    A zero multiplicity at the midpoint of a segment that carries mass
    is an error.
    """
    active = (table.flux * table.length) > 0.0
    if np.any(active & (w <= 0.0)):
        bad = int(np.flatnonzero(active & (w <= 0.0))[0])
        raise DegenerateEvaluation(
            f"{what}: zero multiplicity at midpoint of segment "
            f"(owner {table.owner[bad]}, interval {table.interval[bad]}) carrying mass"
        )
    powers = np.zeros_like(w)
    np.power(w, alpha - 1.0, out=powers, where=active)
    return active, powers


def _midpoint_energy(table: SegmentTable, w: np.ndarray, alpha: float, what: str,
                     evaluation: Optional[_Evaluation] = None) -> ObjectiveValue:
    active, powers = _powers(table, w, alpha, what)
    terms = np.where(active, powers * table.flux * table.length, 0.0)
    total = float(terms.sum())
    return ObjectiveValue(total=total, irrigation=total, terms=terms, _evaluation=evaluation)


def _gradient_weights(table: SegmentTable, w: np.ndarray, alpha: float, what: str):
    """d(energy)/dw at each midpoint and d(energy)/d(length) of each segment."""
    active, powers = _powers(table, w, alpha, what)
    gw = np.zeros_like(w)
    np.power(w, alpha - 2.0, out=gw, where=active)
    gw *= (alpha - 1.0) * table.flux * table.length
    return gw, powers * table.flux


def energy_max(plan, alpha: float, eps: float, spec: KernelSpec = KernelSpec(),
               kept=None) -> ObjectiveValue:
    """Midpoint-rule energy of a path plan or its segment table, built on
    the max-form multiplicity.

    Sum over segments of w(mid)^(alpha-1) * mass * length, where w is
    :func:`multiplicity_max`. Bounded above by the exact plan cost. The
    result carries its settings, segment table, nearest pairs and
    multiplicities for :func:`energy_max_gradient`. ``kept``, a stage's
    kept pair list for this eps and kernel, saves building the pair list.
    """
    _check_alpha(alpha)
    _check_eps(eps)
    table, masses = _path_table(plan)
    min_dist, nearest = _nearest(table.midpoint, table, _midpoint_pairs(table, eps, spec, kept))
    w = kernel_eval(spec, min_dist / eps) @ masses
    return _midpoint_energy(table, w, alpha, "energy_max", _Evaluation(
        "energy_max", (alpha, eps, spec), (table, masses, nearest, w)))


def energy_avg(plan, alpha: float, eps: float, spec: KernelSpec = KernelSpec(),
               quad_points: int = 32, kept=None) -> ObjectiveValue:
    """Midpoint-rule energy of a path plan or its segment table, built on
    the integral-average multiplicity.

    The result carries its settings, segment table, pair blocks, their
    support moments, the multiplicities and their below-the-cap mask for
    :func:`energy_avg_gradient`. ``kept`` is as in :func:`energy_max`.
    """
    _check_alpha(alpha)
    _check_eps(eps)
    table, masses = _path_table(plan)
    pairs = _midpoint_pairs(table, eps, spec, kept)
    w, uncapped, moments = _capped(table, table.midpoint, pairs, masses, eps, spec, quad_points)
    return _midpoint_energy(table, w, alpha, "energy_avg", _Evaluation(
        "energy_avg", (alpha, eps, spec, quad_points),
        (table, masses, pairs, moments, w, uncapped)))


def energy_avg_gradient(value) -> np.ndarray:
    """Exact gradient of :func:`energy_avg` in the free vertex coordinates,
    at the plan and settings of ``value``, a result of :func:`energy_avg`.

    Chain rules through segment lengths, midpoints, and the segment
    integrals; capped paths contribute no multiplicity derivative. Taken
    one-sidedly at cap and support boundaries.
    """
    record = _record(value, "energy_avg")
    alpha, eps, spec, quad_points = record.settings
    table, masses, pairs, moments, w, uncapped = record.data
    gw, g_len = _gradient_weights(table, w, alpha, "energy_avg_gradient")

    def weigh(i, j, _):
        # Weight of each (midpoint, source segment) pairing in the chain rule.
        owner = table.owner[j]
        return gw[i] * (masses[owner] * uncapped[i, owner])

    ga, gb, gx = _pair_pulls(table, pairs, eps, moments, weigh, spec, quad_points)
    return scatter_segment_gradients(table, ga, gb, gx, g_len)


def energy_max_gradient(value) -> np.ndarray:
    """Gradient of :func:`energy_max` in the free vertex coordinates, at
    the plan and settings of ``value``, a result of :func:`energy_max`.

    The minimum distance to each path is differentiated through its
    nearest segment; points lying on a path contribute no distance
    derivative there, which matches the flat own-path direction.
    """
    record = _record(value, "energy_max")
    (alpha, eps, spec), (table, masses, nearest, w) = record.settings, record.data
    gw, g_len = _gradient_weights(table, w, alpha, "energy_max_gradient")
    ga, gb, gx = np.zeros((3, table.size, 2))
    # One pull per (point, path) run, through the nearest segment of the path.
    for point, seg, tp, dval in nearest:
        coeff = gw[point] * masses[table.owner[seg]] * kernel_derivative(spec, dval / eps) / eps
        positive = dval > 0.0
        proj = table.a[seg] + tp[:, None] * (table.b[seg] - table.a[seg])
        normal = np.zeros((len(seg), 2))
        normal[positive] = (table.midpoint[point] - proj)[positive] / dval[positive, None]
        pull = coeff[:, None] * normal
        for k in range(2):  # a column at a time runs several times faster than rows
            np.add.at(ga[:, k], seg, -(1.0 - tp) * pull[:, k])
            np.add.at(gb[:, k], seg, -tp * pull[:, k])
            np.add.at(gx[:, k], point, pull[:, k])
    return scatter_segment_gradients(table, ga, gb, gx, g_len)


def mollified_flux(plan: BranchPlan, eps: float) -> np.ndarray:
    """Smoothed downstream flux at every segment midpoint of a branch plan.

    Convolves the downstream flux field of all branches with the scaled
    bump kernel: F(mid) = sum over segments of flux * segment integral.
    Returns one value per segment table row.
    """
    _check_eps(eps)
    table = segment_table(plan)
    return _mollified_flux(table, eps, _midpoint_pairs(table, eps))[0]


def _mollified_flux(table: SegmentTable, eps: float, pairs: list):
    """Mollified flux at the midpoints and each block's support moments."""
    flux_mol = np.zeros(table.size)

    def add(i, j, value):
        np.add.at(flux_mol, i, value * table.flux[j])

    return flux_mol, _value_pass(table, table.midpoint, pairs, eps, add)


def floored_power(multiplicity: np.ndarray, transported: np.ndarray,
                  alpha: float, f_min: float) -> np.ndarray:
    """(alpha-1) power of the multiplicity, floored and guarded.

    Entries with no transported mass yield 0. A zero multiplicity under
    transported mass is an error unless a positive floor is configured,
    in which case the floor value is raised to the power instead.
    """
    active = transported > 0.0
    floored = np.maximum(multiplicity, f_min) if f_min > 0.0 else multiplicity
    if np.any(active & (floored <= 0.0)):
        raise DegenerateEvaluation("zero mollified flux under transported mass; "
                                   "set a positive flux floor or fix the plan")
    out = np.zeros_like(multiplicity)
    np.power(floored, alpha - 1.0, out=out, where=active)
    return out


def branch_irrigation_cost(plan: BranchPlan, alpha: float, eps: float,
                           f_min: float = 0.0) -> ObjectiveValue:
    """Midpoint-rule irrigation cost of a branch plan.

    Sum over segments of F(mid)^(alpha-1) * flux * length with F the
    mollified downstream flux. ``f_min`` optionally floors F away from
    zero for optimizer robustness; without it a zero F under transported
    mass raises.
    """
    _check_alpha(alpha)
    _check_eps(eps)
    if f_min < 0.0:
        raise ValueError("f_min must be nonnegative")
    table = segment_table(plan)
    terms = _branch_cost_terms(table, alpha, eps, f_min, _midpoint_pairs(table, eps))[0]
    total = float(terms.sum())
    return ObjectiveValue(total=total, irrigation=total, terms=terms)


def _branch_cost_terms(table: SegmentTable, alpha: float, eps: float, f_min: float,
                       pairs: list):
    """Per-segment irrigation cost terms, the support moments of each block
    of ``pairs`` and the mollified flux."""
    flux_mol, moments = _mollified_flux(table, eps, pairs)
    transported = table.flux * table.length
    return floored_power(flux_mol, transported, alpha, f_min) * transported, moments, flux_mol


def _branch_cost_gradient(table: SegmentTable, alpha: float, eps: float, f_min: float,
                          pairs: list, moments: list, flux_mol: np.ndarray):
    """Gradient of the branch irrigation cost (F = sum of value * flux over
    the bump-kernel pairs of the midpoints, with the moments and mollified flux
    the cost returned): pulls ga, gb, gx, direct length sensitivity g_len,
    and g_cell, the sensitivity to each segment's own mass through the
    downstream flux."""
    transported = table.flux * table.length
    active = transported > 0.0
    powers = floored_power(flux_mol, transported, alpha, f_min)
    if f_min > 0.0 and not np.all(active):
        # Zero-flux cells still pay the floored rate the instant density
        # rises, so the one-sided derivative there needs the power term;
        # leaving it at zero lets descent step into the density cusp.
        idle = ~active
        powers[idle] = np.power(np.maximum(flux_mol[idle], f_min), alpha - 1.0)
    slope = np.zeros(table.size)
    unfloored = active & (flux_mol > f_min)
    np.power(np.maximum(flux_mol, f_min), alpha - 2.0, out=slope, where=unfloored)
    slope *= (alpha - 1.0)

    g_flux_mol = slope * transported
    g_flux = np.zeros(table.size)

    def weigh(i, j, value):
        # Each block also adds its pairs' share of the flux adjoint, by segment.
        pull = g_flux_mol[i]
        np.add.at(g_flux, j, value * pull)
        return pull * table.flux[j]

    ga, gb, gx = _pair_pulls(table, pairs, eps, moments, weigh)
    g_flux += powers * table.length
    return ga, gb, gx, powers * table.flux, _downstream_flux_adjoint(table, g_flux)


def _downstream_flux_adjoint(table: SegmentTable, g_flux: np.ndarray) -> np.ndarray:
    """Adjoint of the per-segment downstream flux in each segment's mass.

    Downstream flux is half the local mass plus everything beyond it on
    the same branch, so the adjoint is half the local pull plus the
    pulls of every earlier segment of the branch.
    """
    return 0.5 * g_flux + _sums_before(g_flux, table.owner, table.interval,
                                       len(table.group_starts))


def _check_saturated(m1: float, m2: float, l1: float, l2: float, alpha: float):
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if m1 <= 0.0 or m2 <= 0.0:
        raise ValueError("masses must be positive")
    if not 0.0 < l2 < 1.0 < l1:
        raise ValueError("need 0 < l2 < 1 < l1 for the saturated regime")


def saturated_two_path_cost(m1: float, m2: float, l1: float, l2: float, alpha: float) -> float:
    """Average-form cost of two bundled paths in the saturated-kernel regime.

    With the kernel flat across the whole configuration and l1 long
    enough to cap, the multiplicity is m1 + m2*l2 everywhere, giving
    (m1 + m2*l2)^(alpha-1) * (m1*l1 + m2*l2). Lengthening the short path
    can lower this value, the failure of lower semicontinuity that rules
    out naive minimization of the average form. At alpha = 1 the value is
    plain weighted length and lengthening always costs more.
    """
    _check_saturated(m1, m2, l1, l2, alpha)
    return (m1 + m2 * l2) ** (alpha - 1.0) * (m1 * l1 + m2 * l2)


def saturated_two_path_cost_dl2(m1: float, m2: float, l1: float, l2: float, alpha: float) -> float:
    """Derivative of :func:`saturated_two_path_cost` in the short length l2."""
    _check_saturated(m1, m2, l1, l2, alpha)
    bundle = m1 + m2 * l2
    total = m1 * l1 + m2 * l2
    return bundle ** (alpha - 1.0) * m2 * (1.0 - (1.0 - alpha) * total / bundle)

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
:func:`_pair_list`, evaluates kernels on it only through :func:`_pairs`
and chain-rules the pair derivatives only through :func:`_pair_pulls`.
For a compact kernel the list holds only the pairs a cell list finds
near each other, so no (T, S) array is formed; every per-point, per-path
or per-segment sum is a ``np.bincount`` over the pairs.

Energies discretize the outer arc-length integral with the midpoint rule
on the plan's own intervals. Inner segment integrals are exact for the
bump kernel and Gauss-Legendre quadrature otherwise, and the gradients
differentiate exactly what the energies compute.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .geometry import pair_projection
from .gradients import scatter_segment_gradients
from .kernels import (
    KernelSpec,
    kernel_derivative,
    kernel_eval,
    kernel_segment_integral,
    kernel_segment_integral_grad,
)
from .plan_model import BranchPlan, PathPlan, SegmentTable, _sums_before, segment_table


@dataclass(frozen=True, eq=False)
class _Evaluation:
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


@dataclass(frozen=True)
class MollifiedEval:
    """Energy value with its per-segment midpoint-rule terms."""

    value: float
    terms: np.ndarray  # (S,) contribution of each segment table row
    _evaluation: Optional[_Evaluation] = field(default=None, compare=False, repr=False)


def _check_alpha(alpha: float):
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")


def _check_eps(eps: float):
    if not eps > 0.0:
        raise ValueError("eps must be positive")


def _path_table(plan):
    """A path plan's segment table (or the table itself) and its path masses."""
    table = segment_table(plan) if isinstance(plan, PathPlan) else plan
    if not isinstance(table, SegmentTable) or len(table.density):
        raise TypeError("mollified multiplicities and energies are defined on path plans")
    return table, table.flux[table.group_starts]


def _query(field, x, plan: PathPlan, eps: float, *args):
    """A table-level multiplicity ``field`` at one point (as a float) or
    at an (N, 2) array of points."""
    _check_eps(eps)
    pts = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(pts)):
        raise ValueError("query points must be finite")
    values = field(np.atleast_2d(pts), *_path_table(plan), eps, *args)
    return float(values[0]) if pts.ndim == 1 else values


def _pair_list(table: SegmentTable, points: np.ndarray, eps: float,
               spec: KernelSpec):
    """Point and segment indices (i, j) of every pair the kernel can reach,
    sorted by point and then by segment.

    A point within eps of a segment lies within eps plus half the segment's
    length of its midpoint. For a compact kernel a uniform grid of cells
    that wide (a cell list) yields the midpoints in the 3 x 3 block of cells
    around each point, and the bounding-circle test keeps a superset of the
    pairs closer than eps without forming all T x S of them. Non-compact
    kernels reach every segment, so their list holds all T * S pairs.
    """
    count, size = len(points), table.size
    if not spec.compact_support or count == 0 or size == 0:
        return np.repeat(np.arange(count), size), np.tile(np.arange(size), count)
    reach = (eps + 0.5 * table.length) * (1.0 + 1e-9)  # slack for rounding
    mids = table.midpoint
    origin = mids.min(axis=0)
    span = mids.max(axis=0) - origin
    width = max(reach.max(), span.max() / 2.0 ** 20)  # at most 2^20 cells a side
    shape = (span // width).astype(int) + 1
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
    hits = np.where((column >= 0) & (column < shape[0]) & (low <= high),
                    last - first, 0).ravel()
    ends = np.cumsum(hits)
    i = np.repeat(np.arange(count), hits.reshape(count, 3).sum(axis=1))
    j = order[np.repeat(first.ravel() - ends + hits, hits) + np.arange(ends[-1])]
    gap = _rows(points, i)
    gap -= _rows(mids, j)
    gap *= gap
    near = gap[:, 0] + gap[:, 1] <= np.take(reach * reach, j)
    pair = np.sort(i[near] * size + j[near])
    return pair // size, pair % size


def _rows(array: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``array[index]`` for an (N, 2) array; ``np.take`` gathers rows several
    times faster than fancy indexing."""
    return np.take(array, index, axis=0)


def _sum_by(index: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """Sums of the (P,) or (P, 2) pair ``values`` in ``size`` bins of ``index``,
    each bin adding its pairs in list order (as floats even with no pairs,
    where ``np.bincount`` returns integer zeros)."""
    if values.ndim == 2:
        return np.stack([_sum_by(index, v, size) for v in values.T], axis=1)
    return np.bincount(index, values, minlength=size).astype(float, copy=False)


def _nearest(points: np.ndarray, table: SegmentTable, eps: float, spec: KernelSpec):
    """Each point's minimum distance to each path, as a (T, n) array, and
    the nearest pair of every (point, path) with pairs on the list.

    The nearest pair is given as its point, segment, projection parameter
    and distance; ties go to the lowest segment index, as ``argmin`` takes
    them. A path with no pair on the list is at infinite distance, where
    the compact kernel that left it off is 0.
    """
    i, j = _pair_list(table, points, eps, spec)
    t_par, dist = pair_projection(_rows(points, i), _rows(table.a, j), _rows(table.b, j))
    paths = len(table.group_starts)
    run = i * paths + table.owner[j]
    starts = np.flatnonzero(np.diff(run, prepend=-1))
    low = np.minimum.reduceat(dist, starts)
    at_low = dist == np.repeat(low, np.diff(starts, append=len(dist)))
    rows = np.minimum.reduceat(np.where(at_low, np.arange(len(dist)), len(dist)), starts)
    min_dist = np.full((len(points), paths), np.inf)
    min_dist.flat[run[starts]] = low
    return min_dist, (i[rows], j[rows], t_par[rows], low)


def _multiplicity_max(points: np.ndarray, table: SegmentTable, masses: np.ndarray,
                      eps: float, spec: KernelSpec) -> np.ndarray:
    return kernel_eval(spec, _nearest(points, table, eps, spec)[0] / eps) @ masses


def multiplicity_max(x, plan: PathPlan, eps: float, spec: KernelSpec = KernelSpec()) :
    """Max-form mollified multiplicity at the query points.

    Sums mass times the scaled kernel of the exact point-to-polyline
    distance over all paths. Never falls below the exact multiplicity of
    the plan at the point, and never exceeds the total transported mass.
    """
    return _query(_multiplicity_max, x, plan, eps, spec)


def _capped(i: np.ndarray, j: np.ndarray, value: np.ndarray, table: SegmentTable,
            masses: np.ndarray, count: int):
    """Mass-weighted sum of per-path arc integrals at ``count`` points, each
    capped at 1, and the (T, n) mask of (point, path) integrals below the cap."""
    paths = len(masses)
    inner = _sum_by(i * paths + table.owner[j], value, count * paths).reshape(count, paths)
    return np.minimum(inner, 1.0) @ masses, inner < 1.0


def _pairs(table: SegmentTable, points: np.ndarray, pairs: tuple, eps: float,
           spec: KernelSpec = KernelSpec(), quad_points: int = 32, grad: bool = False):
    """Indices i and j of ``pairs``, the :func:`_pair_list` of ``points``,
    and the kernel segment integrals of its pairs; with ``grad`` also their
    (P, 2) derivatives in segment start, end and point."""
    i, j = pairs
    integral = kernel_segment_integral_grad if grad else kernel_segment_integral
    out = integral(spec, _rows(table.a, j), _rows(table.b, j), _rows(points, i), eps,
                   quad_points)
    return (i, j) + (out if grad else (out,))


def _pair_pulls(table: SegmentTable, i: np.ndarray, j: np.ndarray, weight: np.ndarray,
                d_a: np.ndarray, d_b: np.ndarray, d_x: np.ndarray):
    """Chain rule through the pair integrals at the segment midpoints: a
    weight on each pair's value gives (S, 2) segment start and end pulls
    and (S, 2) midpoint pulls."""
    return (_sum_by(j, weight[:, None] * d_a, table.size),
            _sum_by(j, weight[:, None] * d_b, table.size),
            _sum_by(i, weight[:, None] * d_x, table.size))


def _multiplicity_avg(points: np.ndarray, table: SegmentTable, masses: np.ndarray,
                      eps: float, spec: KernelSpec, quad_points: int) -> np.ndarray:
    pairs = _pair_list(table, points, eps, spec)
    return _capped(*_pairs(table, points, pairs, eps, spec, quad_points), table, masses,
                   len(points))[0]


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
        raise ValueError(
            f"{what}: zero multiplicity at midpoint of segment "
            f"(owner {table.owner[bad]}, interval {table.interval[bad]}) carrying mass"
        )
    powers = np.zeros_like(w)
    np.power(w, alpha - 1.0, out=powers, where=active)
    return active, powers


def _midpoint_energy(table: SegmentTable, w: np.ndarray, alpha: float, what: str,
                     evaluation: Optional[_Evaluation] = None) -> MollifiedEval:
    active, powers = _powers(table, w, alpha, what)
    terms = np.where(active, powers * table.flux * table.length, 0.0)
    return MollifiedEval(value=float(terms.sum()), terms=terms, _evaluation=evaluation)


def _gradient_weights(table: SegmentTable, w: np.ndarray, alpha: float, what: str):
    """d(energy)/dw at each midpoint and d(energy)/d(length) of each segment."""
    active, powers = _powers(table, w, alpha, what)
    gw = np.zeros_like(w)
    np.power(w, alpha - 2.0, out=gw, where=active)
    gw *= (alpha - 1.0) * table.flux * table.length
    return gw, powers * table.flux


def energy_max(plan, alpha: float, eps: float,
               spec: KernelSpec = KernelSpec()) -> MollifiedEval:
    """Midpoint-rule energy of a path plan or its segment table, built on
    the max-form multiplicity.

    Sum over segments of w(mid)^(alpha-1) * mass * length, where w is
    :func:`multiplicity_max`. Bounded above by the exact plan cost. The
    result carries its settings, segment table and nearest pairs for
    :func:`energy_max_gradient`.
    """
    _check_alpha(alpha)
    _check_eps(eps)
    table, masses = _path_table(plan)
    nearest = _nearest(table.midpoint, table, eps, spec)
    w = kernel_eval(spec, nearest[0] / eps) @ masses
    return _midpoint_energy(table, w, alpha, "energy_max", _Evaluation(
        "energy_max", (alpha, eps, spec), (table, masses, nearest)))


def energy_avg(plan, alpha: float, eps: float,
               spec: KernelSpec = KernelSpec(), quad_points: int = 32) -> MollifiedEval:
    """Midpoint-rule energy of a path plan or its segment table, built on
    the integral-average multiplicity.

    The result carries its settings, segment table and pair list for
    :func:`energy_avg_gradient`.
    """
    _check_alpha(alpha)
    _check_eps(eps)
    table, masses = _path_table(plan)
    pairs = _pair_list(table, table.midpoint, eps, spec)
    w = _capped(*_pairs(table, table.midpoint, pairs, eps, spec, quad_points), table, masses,
                table.size)[0]
    return _midpoint_energy(table, w, alpha, "energy_avg", _Evaluation(
        "energy_avg", (alpha, eps, spec, quad_points), (table, masses, pairs)))


def energy_avg_gradient(value) -> np.ndarray:
    """Exact gradient of :func:`energy_avg` in the free vertex coordinates,
    at the plan and settings of ``value``, a result of :func:`energy_avg`.

    Chain rules through segment lengths, midpoints, and the segment
    integrals; capped paths contribute no multiplicity derivative. Taken
    one-sidedly at cap and support boundaries.
    """
    record = _record(value, "energy_avg")
    (alpha, eps, spec, quad_points), (table, masses, pairs) = record.settings, record.data
    i, j, integral, *pair_grads = _pairs(table, table.midpoint, pairs, eps, spec,
                                         quad_points, grad=True)
    w, uncapped = _capped(i, j, integral, table, masses, table.size)
    gw, g_len = _gradient_weights(table, w, alpha, "energy_avg_gradient")

    # Weight of each (midpoint, source segment) pairing in the chain rule.
    owner = table.owner[j]
    weight = gw[i] * (masses[owner] * uncapped[i, owner])
    ga, gb, gx = _pair_pulls(table, i, j, weight, *pair_grads)
    return scatter_segment_gradients(table, ga, gb, gx, g_len)


def energy_max_gradient(value) -> np.ndarray:
    """Gradient of :func:`energy_max` in the free vertex coordinates, at
    the plan and settings of ``value``, a result of :func:`energy_max`.

    The minimum distance to each path is differentiated through its
    nearest segment; points lying on a path contribute no distance
    derivative there, which matches the flat own-path direction.
    """
    record = _record(value, "energy_max")
    (alpha, eps, spec), (table, masses, nearest) = record.settings, record.data
    min_dist, (point, seg, tp, dval) = nearest
    points = table.midpoint
    w = kernel_eval(spec, min_dist / eps) @ masses
    gw, g_len = _gradient_weights(table, w, alpha, "energy_max_gradient")

    # One pull per (point, path) run, through the nearest segment of the path.
    coeff = gw[point] * masses[table.owner[seg]] * kernel_derivative(spec, dval / eps) / eps
    positive = dval > 0.0
    proj = table.a[seg] + tp[:, None] * (table.b[seg] - table.a[seg])
    normal = np.zeros((len(seg), 2))
    normal[positive] = (points[point[positive]] - proj[positive]) / dval[positive, None]
    pull = coeff[:, None] * normal
    ga = _sum_by(seg, -(1.0 - tp[:, None]) * pull, table.size)
    gb = _sum_by(seg, -tp[:, None] * pull, table.size)
    return scatter_segment_gradients(table, ga, gb, _sum_by(point, pull, table.size),
                                     g_len)


def mollified_flux(plan: BranchPlan, eps: float) -> np.ndarray:
    """Smoothed downstream flux at every segment midpoint of a branch plan.

    Convolves the downstream flux field of all branches with the scaled
    bump kernel: F(mid) = sum over segments of flux * segment integral.
    Returns one value per segment table row.
    """
    _check_eps(eps)
    table = segment_table(plan)
    return _mollified_flux(table, eps, _branch_pairs(table, eps))


def _branch_pairs(table: SegmentTable, eps: float) -> tuple:
    """Pair list of the mollified flux: midpoints against segments under
    the bump kernel."""
    return _pair_list(table, table.midpoint, eps, KernelSpec())


def _mollified_flux(table: SegmentTable, eps: float, pairs: tuple) -> np.ndarray:
    i, j, value = _pairs(table, table.midpoint, pairs, eps)
    return _sum_by(i, value * table.flux[j], table.size)


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
        raise ValueError("zero mollified flux under transported mass; "
                         "set a positive flux floor or fix the plan")
    out = np.zeros_like(multiplicity)
    np.power(floored, alpha - 1.0, out=out, where=active)
    return out


def branch_irrigation_cost(plan: BranchPlan, alpha: float, eps: float,
                           f_min: float = 0.0) -> MollifiedEval:
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
    terms = _branch_cost_terms(table, alpha, eps, f_min, _branch_pairs(table, eps))
    return MollifiedEval(value=float(terms.sum()), terms=terms)


def _branch_cost_terms(table: SegmentTable, alpha: float, eps: float, f_min: float,
                       pairs: tuple) -> np.ndarray:
    transported = table.flux * table.length
    return floored_power(_mollified_flux(table, eps, pairs), transported, alpha,
                         f_min) * transported


def _branch_cost_gradient(table: SegmentTable, alpha: float, eps: float, f_min: float,
                          pairs: tuple):
    """Gradient of the branch irrigation cost (F = sum of value * flux over
    the pairs of :func:`_branch_pairs`): pulls ga, gb, gx, direct length
    sensitivity g_len, and g_cell, the sensitivity to each segment's own
    mass through the downstream flux."""
    i, j, value, *pair_grads = _pairs(table, table.midpoint, pairs, eps, grad=True)
    flux_mol = _sum_by(i, value * table.flux[j], table.size)
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
    if f_min > 0.0:
        unfloored = active & (flux_mol > f_min)
    else:
        unfloored = active
    np.power(np.maximum(flux_mol, f_min), alpha - 2.0, out=slope, where=unfloored)
    slope *= (alpha - 1.0)

    g_flux_mol = slope * transported
    g_flux = _sum_by(j, value * g_flux_mol[i], table.size) + powers * table.length
    ga, gb, gx = _pair_pulls(table, i, j, g_flux_mol[i] * table.flux[j], *pair_grads)
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

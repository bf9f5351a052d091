"""Tests for mollified multiplicities, energies, and their gradients."""

import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

import ramify.mollified as mollified_module
import ramify.objective as objective_module
from oracles import exact_multiplicity
from ramify.exact_cost import exact_plan_cost
from ramify.geometry import pair_projection
from ramify.gradients import (
    central_difference,
    plan_to_vector,
    scatter_segment_gradients,
    vector_to_plan,
)
from ramify.kernels import (
    KERNEL_KINDS,
    KernelSpec,
    kernel_derivative,
    kernel_eval,
    kernel_segment_integral,
    kernel_segment_integral_grad,
)
from ramify.mollified import (
    _SKIN,
    _downstream_flux_adjoint,
    _gradient_weights,
    _midpoint_energy,
    _midpoint_pairs,
    _pair_list,
    _pair_pulls,
    _pairs,
    _value_pass,
    branch_irrigation_cost,
    energy_avg,
    energy_avg_gradient,
    energy_max,
    energy_max_gradient,
    floored_power,
    mollified_flux,
    multiplicity_avg,
    multiplicity_max,
    saturated_two_path_cost,
    saturated_two_path_cost_dl2,
)
from ramify.objective import (
    ObjectiveConfig,
    ObjectiveValue,
    tree_objective,
    tree_objective_gradient,
)
from ramify.optimizer import path_evaluator
from ramify.plan_model import (
    Branch,
    BranchPlan,
    Layout,
    Path,
    PathPlan,
    build_fan_branches,
    build_star_plan,
    half_circle_targets,
    random_branch_plan,
    segment_table,
)


def _single_path_plan(mass=0.5):
    return PathPlan(paths=(Path(vertices=np.array([[0.0, 0.0], [1.0, 0.0]]), mass=mass),))


def _y_plan():
    trunk = np.array([[0.0, 0.0], [0.0, 0.25], [0.0, 0.5]])
    a = Path(vertices=np.vstack([trunk, [[-0.25, 0.5], [-0.5, 0.5]]]), mass=0.5)
    b = Path(vertices=np.vstack([trunk, [[0.25, 0.5], [0.5, 0.5]]]), mass=0.5)
    return PathPlan(paths=(a, b))


def _refine(plan):
    paths = []
    for p in plan.paths:
        v = p.vertices
        new = [v[0]]
        for i in range(len(v) - 1):
            new.append(0.5 * (v[i] + v[i + 1]))
            new.append(v[i + 1])
        paths.append(Path(vertices=np.array(new), mass=p.mass, terminal_fixed=p.terminal_fixed))
    return PathPlan(paths=tuple(paths))


def test_multiplicity_max_hand_values():
    plan = _single_path_plan(0.5)
    probes = np.array([[0.5, 0.0], [0.5, 0.05], [0.5, 0.2]])
    w = multiplicity_max(probes, plan, 0.1)
    # on the path the minimum distance is zero; at offset 0.05 the bump
    # profile gives 1 - (1/2)^2; outside the support it vanishes
    np.testing.assert_allclose(w, [0.5, 0.5 * 0.75, 0.0], atol=1e-15)


def test_multiplicity_avg_caps_per_path():
    plan = _single_path_plan(0.5)
    mid = multiplicity_avg(np.array([[0.5, 0.0]]), plan, 0.1)
    start = multiplicity_avg(np.array([[0.0, 0.0]]), plan, 0.1)
    # the inner integral saturates at the midpoint and is halved at the
    # endpoint where only half the bump support lies along the path
    assert mid[0] == pytest.approx(0.5, abs=1e-14)
    assert start[0] == pytest.approx(0.5 * 2.0 / 3.0, abs=1e-12)


def test_multiplicity_avg_never_exceeds_total_mass():
    rng = np.random.default_rng(0)
    plan = build_star_plan(half_circle_targets(7), segments_per_path=6)
    probes = rng.uniform(-1.2, 1.2, (300, 2))
    for kind in KERNEL_KINDS:
        w = multiplicity_avg(probes, plan, 0.4, spec=KernelSpec(kind))
        assert np.all(w <= plan.total_mass + 1e-12)
        assert np.all(w >= 0.0)


def test_multiplicities_reject_non_finite_query_points():
    plan = _single_path_plan()
    for mult in (multiplicity_max, multiplicity_avg):
        for bad in ([np.nan, 0.0], [[0.5, 0.0], [np.inf, 0.1]]):
            with pytest.raises(ValueError, match="query points must be finite"):
                mult(bad, plan, 0.1)


def test_multiplicity_max_dominates_exact_multiplicity():
    rng = np.random.default_rng(1)
    plan = build_star_plan(half_circle_targets(9), segments_per_path=5)
    probes = rng.uniform(-1.2, 1.2, (500, 2))
    for kind in KERNEL_KINDS:
        w = multiplicity_max(probes, plan, 0.15, spec=KernelSpec(kind))
        exact = np.array([exact_multiplicity(plan, p) for p in probes])
        assert np.all(w >= exact - 1e-12)


def test_multiplicity_field_invariant_under_collinear_insertion():
    plan = _y_plan()
    refined = _refine(_refine(plan))
    probes = np.array([[0.1, 0.2], [0.0, 0.4], [-0.3, 0.5], [0.6, 0.1]])
    for kind in ("bump", "exponential"):
        spec = KernelSpec(kind)
        for eps in (0.3, 0.08):
            w0 = multiplicity_max(probes, plan, eps, spec=spec)
            w1 = multiplicity_max(probes, refined, eps, spec=spec)
            np.testing.assert_allclose(w0, w1, atol=1e-12)
            v0 = multiplicity_avg(probes, plan, eps, spec=spec)
            v1 = multiplicity_avg(probes, refined, eps, spec=spec)
            np.testing.assert_allclose(v0, v1, atol=1e-12)


def test_energy_quadrature_refines_consistently():
    # the outer midpoint rule changes when intervals split, but the
    # refinement differences must shrink as the rule converges
    plan = build_star_plan(half_circle_targets(5), segments_per_path=4)
    r1 = _refine(plan)
    r2 = _refine(r1)
    for fn in (energy_max, energy_avg):
        e0 = fn(plan, 0.5, 0.3).total
        e1 = fn(r1, 0.5, 0.3).total
        e2 = fn(r2, 0.5, 0.3).total
        assert abs(e2 - e1) < abs(e1 - e0)


def test_single_straight_path_energy_equals_exact_cost():
    # the capped average multiplicity equals the path mass at every
    # interior midpoint, so the energy collapses to mass^alpha * length
    plan = _single_path_plan(0.5)
    for alpha in (0.3, 0.5, 0.8):
        ev = energy_avg(plan, alpha, 0.1)
        assert ev.total == pytest.approx(0.5 ** alpha, abs=1e-12)
        em = energy_max(plan, alpha, 0.1)
        assert em.total == pytest.approx(0.5 ** alpha, abs=1e-12)


def test_energy_max_monotone_as_eps_shrinks():
    plan = build_star_plan(half_circle_targets(6), segments_per_path=8)
    eps_values = [0.4, 0.2, 0.1, 0.05]
    for kind in KERNEL_KINDS:
        spec = KernelSpec(kind)
        vals = [energy_max(plan, 0.4, e, spec=spec).total for e in eps_values]
        assert np.all(np.diff(vals) >= -1e-12)


def test_energy_max_bounded_by_exact_cost():
    plan = build_star_plan(half_circle_targets(8), segments_per_path=10)
    exact = exact_plan_cost(plan, 0.4, merge_tol=1e-9)
    for eps in (0.3, 0.1, 0.02):
        assert energy_max(plan, 0.4, eps).total <= exact * (1.0 + 1e-12)


def test_alpha_one_degeneracy():
    # at alpha = 1 both mollified energies equal mass times length summed
    # over segments, independent of eps and kernel
    for plan in (_y_plan(), build_star_plan(half_circle_targets(5), segments_per_path=3)):
        expected = sum(
            p.mass * np.hypot(*np.diff(p.vertices, axis=0).T).sum() for p in plan.paths
        )
        for kind in KERNEL_KINDS:
            spec = KernelSpec(kind)
            for eps in (0.5, 0.07):
                assert energy_max(plan, 1.0, eps, spec=spec).total == pytest.approx(
                    expected, abs=1e-9
                )
                assert energy_avg(plan, 1.0, eps, spec=spec).total == pytest.approx(
                    expected, abs=1e-9
                )


def test_alpha_one_energy_invariant_under_collinear_insertion():
    plan = _y_plan()
    refined = _refine(plan)
    for fn in (energy_max, energy_avg):
        assert fn(plan, 1.0, 0.2).total == pytest.approx(fn(refined, 1.0, 0.2).total, abs=1e-12)


def test_per_segment_breakdown_sums_to_value():
    plan = _y_plan()
    table = segment_table(plan)
    rows = list(zip(table.owner.tolist(), table.interval.tolist()))
    for fn in (energy_max, energy_avg):
        ev = fn(plan, 0.6, 0.15)
        assert sum(ev.terms) == pytest.approx(ev.total, abs=1e-12)
        assert len(ev.terms) == len(rows) == len(set(rows))
        assert set(rows) == {
            (k, i) for k, p in enumerate(plan.paths) for i in range(p.segments)
        }


def test_energy_rejects_bad_arguments():
    plan = _single_path_plan()
    with pytest.raises(ValueError):
        energy_avg(plan, 0.0, 0.1)
    with pytest.raises(ValueError):
        energy_avg(plan, 1.2, 0.1)
    with pytest.raises(ValueError):
        energy_avg(plan, 0.5, 0.0)
    with pytest.raises(ValueError):
        energy_max(plan, 0.5, -1.0)


def test_branch_plans_are_rejected_with_type_error():
    plan = build_fan_branches(3)
    for entry in (lambda p: energy_avg(p, 0.5, 0.1), lambda p: energy_max(p, 0.5, 0.1),
                  lambda p: energy_avg_gradient(energy_avg(p, 0.5, 0.1)),
                  lambda p: energy_max_gradient(energy_max(p, 0.5, 0.1)),
                  lambda p: multiplicity_avg([0.0, 0.5], p, 0.1),
                  lambda p: multiplicity_max([0.0, 0.5], p, 0.1)):
        with pytest.raises(TypeError, match="path plans"):
            entry(plan)


def test_empty_path_plan_has_zero_energy_gradient_and_multiplicity():
    plan = PathPlan(paths=())
    probes = np.array([[0.0, 0.0], [0.3, 0.4]])
    for kind in ("bump", "exponential"):
        spec = KernelSpec(kind)
        for fn, gfn in ((energy_avg, energy_avg_gradient), (energy_max, energy_max_gradient)):
            ev = fn(plan, 0.5, 0.1, spec=spec)
            assert ev.total == 0.0
            assert ev.terms.shape == (0,)
            assert gfn(ev).shape == (0,)
        for mult in (multiplicity_avg, multiplicity_max):
            assert mult([0.3, 0.4], plan, 0.1, spec=spec) == 0.0
            assert np.array_equal(mult(probes, plan, 0.1, spec=spec), np.zeros(2))


def _relative_gradient_gap(analytic, numeric):
    scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-12)
    return np.abs(analytic - numeric).max() / scale


def test_energy_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    for trial in range(5):
        n = int(rng.integers(2, 5))
        targets = half_circle_targets(n)
        plan = build_star_plan(targets, segments_per_path=3)
        # wiggle the free vertices so no segment is axis-aligned
        layout = Layout.of(plan)
        vec = plan_to_vector(plan)
        vec = np.where(layout.free, vec + rng.normal(0.0, 0.02, vec.shape), vec)
        plan = vector_to_plan(vec, layout)
        alpha = float(rng.uniform(0.3, 0.9))
        eps = float(rng.uniform(0.15, 0.4))
        for kind in ("bump", "exponential"):
            spec = KernelSpec(kind)
            for fn, gfn in (
                (energy_avg, energy_avg_gradient),
                (energy_max, energy_max_gradient),
            ):
                grad = gfn(fn(plan, alpha, eps, spec=spec))
                fd = central_difference(
                    lambda q: fn(q, alpha, eps, spec=spec).total, plan, step=1e-6
                )
                assert _relative_gradient_gap(grad, fd) < 1e-5


def test_mollified_flux_positive_on_branches():
    b = Branch(x=np.array([0.0, 0.3, 0.6]), y=np.array([0.0, 0.4, 0.9]), m=np.array([0.5, 0.5]))
    plan = BranchPlan(branches=(b,))
    flux = mollified_flux(plan, 0.2)
    assert flux.shape == (2,)
    assert np.all(flux > 0.0)


def test_branch_cost_alpha_one_counts_flux_length():
    b = Branch(x=np.array([0.0, 0.0, 0.0]), y=np.array([0.0, 1.0, 2.0]), m=np.array([1.0, 1.0]))
    plan = BranchPlan(branches=(b,))
    # midpoint fluxes 1.5 and 0.5 on unit intervals
    cost = branch_irrigation_cost(plan, 1.0, 0.3)
    assert cost.total == pytest.approx(2.0, abs=1e-12)
    assert sum(cost.terms) == pytest.approx(2.0, abs=1e-12)
    table = segment_table(plan)
    assert len(cost.terms) == len(set(zip(table.owner.tolist(), table.interval.tolist())))


def test_floored_power_guards_zero_multiplicity():
    with pytest.raises(ValueError, match="zero mollified flux"):
        floored_power(np.array([0.0]), np.array([1.0]), 0.5, 0.0)
    out = floored_power(np.array([0.0]), np.array([1.0]), 0.5, 1e-4)
    assert out[0] == pytest.approx(1e-4 ** (-0.5))
    # zero transported mass contributes nothing regardless of multiplicity
    out = floored_power(np.array([0.0]), np.array([0.0]), 0.5, 0.0)
    assert out[0] == 0.0


def test_saturated_two_path_cost_closed_form():
    # one straight unit-mass path of length l1 plus a shorter unit-mass
    # path of length l2 between the same endpoints, in the saturated
    # regime: cost = (m1 + m2 l2)^(alpha-1) (m1 l1 + m2 l2)
    val = saturated_two_path_cost(1.0, 1.0, 4.0, 0.1, 0.5)
    assert val == pytest.approx(4.1 / np.sqrt(1.1), abs=1e-12)
    assert val == pytest.approx(3.909196615906928, abs=1e-12)
    # lengthening the short detour lowers the cost here
    val2 = saturated_two_path_cost(1.0, 1.0, 4.0, 0.2, 0.5)
    assert val2 == pytest.approx(4.2 / np.sqrt(1.2), abs=1e-12)
    assert val2 < val


def test_saturated_two_path_derivative_matches_finite_differences():
    h = 1e-7
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
        up = saturated_two_path_cost(1.0, 1.0, 4.0, 0.1 + h, alpha)
        dn = saturated_two_path_cost(1.0, 1.0, 4.0, 0.1 - h, alpha)
        fd = (up - dn) / (2.0 * h)
        an = saturated_two_path_cost_dl2(1.0, 1.0, 4.0, 0.1, alpha)
        assert an == pytest.approx(fd, abs=1e-6)


def test_saturated_two_path_cost_validates_geometry():
    with pytest.raises(ValueError):
        saturated_two_path_cost(1.0, 1.0, 0.5, 0.1, 0.5)  # l1 must exceed 1
    with pytest.raises(ValueError):
        saturated_two_path_cost(1.0, 1.0, 4.0, 1.5, 0.5)  # l2 must stay below 1
    with pytest.raises(ValueError):
        saturated_two_path_cost(-1.0, 1.0, 4.0, 0.1, 0.5)
    with pytest.raises(ValueError):
        saturated_two_path_cost(1.0, 1.0, 4.0, 0.1, 1.5)


# Dense oracle: every (point, segment) pair on a (T, S) grid, as the pair
# list's consumers computed it before the list replaced the grid.

def _dense_pairs(table, points, eps, spec=KernelSpec(), grad=False):
    integral = kernel_segment_integral_grad if grad else kernel_segment_integral
    return integral(spec, table.a[None, :, :], table.b[None, :, :], points[:, None, :], eps)


def _dense_pulls(weight, d_a, d_b, d_x):
    return (np.einsum("ts,tsk->sk", weight, d_a), np.einsum("ts,tsk->sk", weight, d_b),
            np.einsum("ts,tsk->tk", weight, d_x))


def _dense_capped(mat, table, masses):
    inner = np.add.reduceat(mat, table.group_starts, axis=1)
    return np.minimum(inner, 1.0) @ masses, inner < 1.0


def _dense_nearest(points, table):
    t_par, dist = pair_projection(points[:, None, :], table.a[None, :, :], table.b[None, :, :])
    return t_par, dist, np.minimum.reduceat(dist, table.group_starts, axis=1)


def _dense_multiplicity_max(points, table, masses, eps, spec):
    return kernel_eval(spec, _dense_nearest(points, table)[2] / eps) @ masses


def _dense_energy_avg_gradient(plan, alpha, eps, spec):
    table = segment_table(plan)
    masses = np.array([p.mass for p in plan.paths])
    mat, *pair_grads = _dense_pairs(table, table.midpoint, eps, spec, grad=True)
    w, uncapped = _dense_capped(mat, table, masses)
    gw, g_len = _gradient_weights(table, w, alpha, "oracle")
    weight = gw[:, None] * (masses[table.owner][None, :] * uncapped[:, table.owner])
    return scatter_segment_gradients(table, *_dense_pulls(weight, *pair_grads), g_len)


def _dense_energy_max_gradient(plan, alpha, eps, spec):
    table = segment_table(plan)
    masses = np.array([p.mass for p in plan.paths])
    points = table.midpoint
    t_par, dist, min_dist = _dense_nearest(points, table)
    gw, g_len = _gradient_weights(table, kernel_eval(spec, min_dist / eps) @ masses, alpha,
                                  "oracle")
    size = table.size
    ga, gb, gx = np.zeros((size, 2)), np.zeros((size, 2)), np.zeros((size, 2))
    rows = np.arange(size)
    for j, start in enumerate(table.group_starts):
        stop = table.group_starts[j + 1] if j + 1 < len(table.group_starts) else size
        seg = start + np.argmin(dist[:, start:stop], axis=1)
        dval = min_dist[:, j]
        coeff = gw * masses[j] * kernel_derivative(spec, dval / eps) / eps
        positive = dval > 0.0
        tp = t_par[rows, seg]
        proj = table.a[seg] + tp[:, None] * (table.b[seg] - table.a[seg])
        normal = np.zeros((size, 2))
        normal[positive] = (points[positive] - proj[positive]) / dval[positive, None]
        pull = coeff[:, None] * normal
        gx += pull
        np.add.at(ga, seg[positive], -(1.0 - tp[positive, None]) * pull[positive])
        np.add.at(gb, seg[positive], -tp[positive, None] * pull[positive])
    return scatter_segment_gradients(table, ga, gb, gx, g_len)


def _dense_branch_cost_gradient(table, alpha, eps, f_min, pairs, moments, flux_mol):
    mat, *pair_grads = _dense_pairs(table, table.midpoint, eps, grad=True)
    flux_mol = mat @ table.flux
    transported = table.flux * table.length
    active = transported > 0.0
    powers = floored_power(flux_mol, transported, alpha, f_min)
    if f_min > 0.0 and not np.all(active):
        idle = ~active
        powers[idle] = np.power(np.maximum(flux_mol[idle], f_min), alpha - 1.0)
    slope = np.zeros(table.size)
    unfloored = active & (flux_mol > f_min) if f_min > 0.0 else active
    np.power(np.maximum(flux_mol, f_min), alpha - 2.0, out=slope, where=unfloored)
    slope *= (alpha - 1.0)
    g_flux_mol = slope * transported
    g_flux = mat.T @ g_flux_mol + powers * table.length
    ga, gb, gx = _dense_pulls(g_flux_mol[:, None] * table.flux[None, :], *pair_grads)
    return ga, gb, gx, powers * table.flux, _downstream_flux_adjoint(table, g_flux)


def _jittered_star(rng, atoms):
    """Star plan with every free vertex moved off its straight path.

    On a straight path the triangular kernel's own-path integral is exactly
    1, so whether it sits under the cap depends on summation order; the
    jitter keeps these agreement checks off that tie instead of leaving
    pairs out.
    """
    plan = build_star_plan(half_circle_targets(atoms), segments_per_path=int(rng.integers(4, 17)))
    layout = Layout.of(plan)
    vec = plan_to_vector(plan)
    return vector_to_plan(np.where(layout.free, vec + rng.normal(0.0, 0.01, vec.shape), vec),
                          layout)


def _assert_close(value, reference):
    scale = max(np.abs(reference).max(initial=0.0), 1e-300)
    assert np.abs(np.asarray(value) - reference).max(initial=0.0) <= 1e-12 * scale


# 3.0 always, and 0.8 on about half of these plans, give a pair-list grid of
# at most 2 x 2 cells, where the list skips the cell sort.
PAIR_EPS = (3.0, 0.8, 0.25, 0.1, 0.05, 0.01)


def _bounding_circle_pairs(table, points, eps):
    """Every (point, segment) pair, of all T * S, that passes the pair
    list's test: the point lies within eps plus half the segment's length
    of its midpoint, with the list's slack for rounding."""
    reach = (eps + 0.5 * table.length) * (1.0 + 1e-9)
    gap = points[:, None, :] - table.midpoint[None, :, :]
    gap *= gap
    t_in, s_in = np.nonzero(gap[..., 0] + gap[..., 1] <= reach * reach)
    return t_in * table.size + s_in


def _joined_pairs(table, points, eps, spec):
    """The blocks of the pair list joined into one pair of (i, j) arrays."""
    blocks = _pair_list(table, points, eps, spec)
    return tuple(np.concatenate(part) for part in zip(*blocks))


def test_pair_list_holds_every_pair_within_eps():
    rng = np.random.default_rng(11)
    for trial in range(12):
        plan = _jittered_star(rng, int(rng.integers(2, 14))) if trial % 2 else \
            random_branch_plan(rng, max_branches=6, max_segments=12)
        table = segment_table(plan)
        probes = rng.uniform(-1.3, 1.3, (200, 2))
        far = rng.uniform(-6.0, 6.0, (100, 2))  # many outside the span of the midpoints
        for points in (table.midpoint, probes, far):
            dist = pair_projection(points[:, None, :], table.a[None, :, :],
                                   table.b[None, :, :])[1]
            for eps in PAIR_EPS:
                for kind in ("bump", "triangular"):
                    i, j = _joined_pairs(table, points, eps, KernelSpec(kind))
                    listed = i * table.size + j
                    assert np.all(np.diff(listed) > 0)  # sorted by point, then segment
                    t_near, s_near = np.nonzero(dist < eps)
                    assert np.all(np.isin(t_near * table.size + s_near, listed))
                    assert np.array_equal(listed, _bounding_circle_pairs(table, points, eps))
                i, j = _joined_pairs(table, points, eps, KernelSpec("exponential"))
                assert np.array_equal(i * table.size + j, np.arange(dist.size))


@pytest.mark.parametrize("block", [1, 50, mollified_module._BLOCK])
def test_pair_list_blocks_are_whole_point_ranges(monkeypatch, block):
    # _nearest reads each (point, path) run from one block, and the memory
    # budget counts on no block passing _BLOCK pairs but one point's.
    monkeypatch.setattr(mollified_module, "_BLOCK", block)
    rng = np.random.default_rng(19)
    table = segment_table(_jittered_star(rng, 8))
    points = table.midpoint
    # eps 3.0 gives a grid of at most 2 x 2 cells, 0.1 a cell list.
    for kind, eps in [("bump", 3.0), ("bump", 0.1), ("triangular", 3.0), ("triangular", 0.1),
                      ("exponential", 0.1)]:
        blocks = _pair_list(table, points, eps, KernelSpec(kind))
        if block < mollified_module._BLOCK:
            assert len(blocks) > 1
        ranges = []
        for i, j in blocks:
            # Every midpoint pairs with its own segment, so each appears.
            ranges.append(np.arange(i[0], i[-1] + 1))
            assert np.array_equal(np.unique(i), ranges[-1])
            assert len(i) <= block or i[0] == i[-1]
        assert np.array_equal(np.concatenate(ranges), np.arange(len(points)))
        i, j = _joined_pairs(table, points, eps, KernelSpec(kind))
        expected = np.arange(len(points) * table.size) if kind == "exponential" else \
            _bounding_circle_pairs(table, points, eps)
        assert np.array_equal(i * table.size + j, expected)


def test_pair_list_consumers_match_the_dense_grid():
    rng = np.random.default_rng(12)
    for trial in range(4):
        plan = _jittered_star(rng, int(rng.integers(2, 14)))
        table = segment_table(plan)
        masses = np.array([p.mass for p in plan.paths])
        probes = np.vstack([rng.uniform(-1.3, 1.3, (60, 2)), table.a[::3] + 0.003])
        alpha = float(rng.uniform(0.3, 0.9))
        probes = np.vstack([probes, rng.uniform(-6.0, 6.0, (20, 2))])  # outside the span too
        for kind in ("bump", "triangular", "exponential"):
            spec = KernelSpec(kind)
            for eps in PAIR_EPS:
                w_max = _dense_multiplicity_max(probes, table, masses, eps, spec)
                assert np.array_equal(multiplicity_max(probes, plan, eps, spec), w_max)
                w_mid = _dense_multiplicity_max(table.midpoint, table, masses, eps, spec)
                e_max = _midpoint_energy(table, w_mid, alpha, "oracle").terms
                assert np.array_equal(energy_max(plan, alpha, eps, spec).terms, e_max)
                _assert_close(energy_max_gradient(energy_max(plan, alpha, eps, spec)),
                              _dense_energy_max_gradient(plan, alpha, eps, spec))

                w_avg = _dense_capped(_dense_pairs(table, probes, eps, spec), table, masses)[0]
                _assert_close(multiplicity_avg(probes, plan, eps, spec), w_avg)
                mat = _dense_pairs(table, table.midpoint, eps, spec)
                w_mid = _dense_capped(mat, table, masses)[0]
                _assert_close(energy_avg(plan, alpha, eps, spec).terms,
                              _midpoint_energy(table, w_mid, alpha, "oracle").terms)
                _assert_close(energy_avg_gradient(energy_avg(plan, alpha, eps, spec)),
                              _dense_energy_avg_gradient(plan, alpha, eps, spec))


def test_pair_list_branch_consumers_match_the_dense_grid(monkeypatch):
    rng = np.random.default_rng(13)
    plans = [random_branch_plan(rng, max_branches=6, max_segments=12) for _ in range(4)]
    plans.append(build_fan_branches(15))
    for plan in plans:
        table = segment_table(plan)
        transported = table.flux * table.length
        for eps in PAIR_EPS:
            flux_mol = _dense_pairs(table, table.midpoint, eps) @ table.flux
            _assert_close(mollified_flux(plan, eps), flux_mol)
            terms = floored_power(flux_mol, transported, 0.5, 1e-12) * transported
            _assert_close(branch_irrigation_cost(plan, 0.5, eps, 1e-12).terms, terms)
            # The default flux floor and none: both sides of the unfloored mask.
            for f_min in (1e-12, 0.0):
                cfg = ObjectiveConfig(alpha=0.5, eps=eps, c1=0.2, c2=1.0, f_min=f_min)
                sparse = tree_objective_gradient(tree_objective(plan, cfg))
                with monkeypatch.context() as patch:
                    patch.setattr(objective_module, "_branch_cost_gradient",
                                  _dense_branch_cost_gradient)
                    _assert_close(sparse, tree_objective_gradient(tree_objective(plan, cfg)))


def _sliced_outputs(rng_seed):
    """Bytes of every pair-list consumer's result on random path and branch
    plans, under the bump, triangular and exponential kernels."""
    rng = np.random.default_rng(rng_seed)
    out = []
    for _ in range(2):
        plan = _jittered_star(rng, int(rng.integers(3, 9)))
        table = segment_table(plan)
        probes = np.vstack([rng.uniform(-1.3, 1.3, (40, 2)), table.a[::2] + 0.002])
        for kind in ("bump", "triangular", "exponential"):
            spec = KernelSpec(kind)
            for eps in (0.8, 0.1):
                avg, top = energy_avg(plan, 0.45, eps, spec), energy_max(plan, 0.45, eps, spec)
                out += [avg.terms, energy_avg_gradient(avg), top.terms, energy_max_gradient(top),
                        multiplicity_avg(probes, plan, eps, spec),
                        multiplicity_max(probes, plan, eps, spec),
                        *_joined_pairs(table, table.midpoint, eps, spec)]
    for _ in range(2):
        plan = random_branch_plan(rng, max_branches=6, max_segments=12)
        for eps in (0.8, 0.1):
            value = tree_objective(plan, ObjectiveConfig(alpha=0.5, eps=eps, c1=0.2, c2=1.0))
            out += [np.array([value.total]), tree_objective_gradient(value),
                    mollified_flux(plan, eps), branch_irrigation_cost(plan, 0.5, eps).terms]
    return [np.asarray(item).tobytes() for item in out]


def test_slicing_the_pair_list_changes_no_bit(monkeypatch):
    # Sums over slices add in list order, as one pass over the whole list
    # does; a sum per slice added to a running total would not.
    monkeypatch.setattr(mollified_module, "_BLOCK", 2 ** 40)
    whole = _sliced_outputs(17)
    for block in (1, 50):
        monkeypatch.setattr(mollified_module, "_BLOCK", block)
        assert _sliced_outputs(17) == whole


def _broadcast_pulls(table, pairs, eps, moments, weigh):
    """The pulls as one broadcast product per derivative and block, each
    product then added a coordinate column at a time, for comparison."""
    ga, gb, gx = np.zeros((3, table.size, 2))
    for (i, j), part in zip(pairs, moments):
        value, d_a, d_b, d_x = _pairs(table, table.midpoint, i, j, eps, KernelSpec(), 32,
                                      grad=True, moments=part)
        weight = weigh(i, j, value)[:, None]
        for total, index, products in ((ga, j, weight * d_a), (gb, j, weight * d_b),
                                       (gx, i, weight * d_x)):
            for k in range(2):
                np.add.at(total[:, k], index, products[:, k])
    return ga, gb, gx


@pytest.mark.parametrize("case", ["fan", "star"])
def test_pair_pulls_match_the_broadcast_products_bit_for_bit(monkeypatch, case):
    # A fan at eps 0.8 is one block; a 100-atom star cut into blocks of 2^12
    # candidates is many.
    if case == "fan":
        plan, eps = build_fan_branches(15), 0.8
    else:
        monkeypatch.setattr(mollified_module, "_BLOCK", 2 ** 12)
        plan, eps = build_star_plan(half_circle_targets(100), segments_per_path=16), 0.1
    table = segment_table(plan)
    pairs = _midpoint_pairs(table, eps)
    assert (len(pairs) == 1) == (case == "fan")
    moments = _value_pass(table, table.midpoint, pairs, eps, lambda i, j, value: None)

    def weigh(i, j, value):
        return np.sin(i + 0.37 * j) * table.flux[j] + value

    got = _pair_pulls(table, pairs, eps, moments, weigh)
    want = _broadcast_pulls(table, pairs, eps, moments, weigh)
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


def test_energy_avg_and_its_gradient_stay_within_a_slice_budget():
    # The value record keeps the pair list and the bump moments, 40 bytes a
    # pair, and the (T, n) path sums come with a mask; every other array
    # lives for one block of at most _BLOCK pairs. Whole-list temporaries
    # took about 250 bytes a pair.
    plan = build_star_plan(half_circle_targets(100), segments_per_path=16)
    tracemalloc.start()
    try:
        value = energy_avg(plan, 0.5, 0.1)
        energy_avg_gradient(value)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    pairs = sum(len(i) for i, _ in value._evaluation.data[2])
    assert pairs > 4 * mollified_module._BLOCK
    path_sums = 9 * value.terms.size * len(plan.paths)  # float sums and their bool mask
    slice_arrays = 48 * 8 * mollified_module._BLOCK  # 48 float arrays of one block
    assert peak < 40 * pairs + path_sums + slice_arrays


def test_a_noncompact_kernels_value_and_gradient_hold_no_whole_list_array():
    # A non-compact kernel pairs all T x S points and segments; its list
    # keeps point ranges only, so the budget above holds with no term per
    # pair. The whole list as intp pairs took 16 bytes a pair (10 MB here).
    plan = build_star_plan(half_circle_targets(50), segments_per_path=16)
    spec = KernelSpec("exponential")
    tracemalloc.start()
    try:
        value = energy_avg(plan, 0.5, 0.1, spec)
        energy_avg_gradient(value)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    blocks = value._evaluation.data[2]
    assert sum(len(i) for i, _ in blocks) == value.terms.size ** 2
    assert len(blocks) > 4
    path_sums = 9 * value.terms.size * len(plan.paths)
    slice_arrays = 48 * 8 * mollified_module._BLOCK
    assert peak < path_sums + slice_arrays


def _star_and_moved_tables():
    """Tables of the 100-atom star and of the star with every free vertex
    moved by 0.03 in x and y, past the skin of a kept list at eps 0.1."""
    plan = build_star_plan(half_circle_targets(100), segments_per_path=16)
    layout = Layout.of(plan)
    moved = np.where(layout.free, layout.base + 0.03, layout.base)
    return plan, layout.table(layout.base), layout.table(moved)


def test_a_stage_evaluator_stays_within_the_slice_budget_plus_its_kept_list():
    # The budget above, plus what a stage evaluator keeps between calls: an
    # int32 segment index per pair of its skin-wide list and an int32 count
    # per point. Its reference table is the value's own, so costs nothing.
    # The second call moves past the skin, so it rebuilds the list.
    plan, *tables = _star_and_moved_tables()
    replica, kept_pairs = {}, []
    for table in tables:
        assert _kept_blocks(replica, table, 0.1, KernelSpec())[1]
        kept_pairs.append(sum(len(segments) for _, _, segments in replica["blocks"]))
    evaluator = path_evaluator(0.5, 0.1)
    stage_list = {}
    tracemalloc.start()
    try:
        for table, kept in zip(tables, kept_pairs):
            tracemalloc.reset_peak()
            value = evaluator.objective(table, stage_list)
            evaluator.gradient(value)
            peak = tracemalloc.get_traced_memory()[1]
            pairs = sum(len(i) for i, _ in value._evaluation.data[2])
            del value
            assert kept > pairs > 4 * mollified_module._BLOCK
            path_sums = 9 * table.size * len(plan.paths)
            slice_arrays = 48 * 8 * mollified_module._BLOCK
            assert peak < 40 * pairs + path_sums + slice_arrays + 4 * kept + 4 * table.size
    finally:
        tracemalloc.stop()


def test_a_kept_list_rebuild_holds_its_new_list_and_one_block(monkeypatch):
    # A rebuild drops the old list before it builds the new one, and packs
    # each block as it is made. So at its peak it holds the new list (4
    # bytes a kept pair and a point), the intp pairs it returns (16 bytes a
    # pair), the cell list (16 int64 arrays a point and a segment), one
    # block's temporaries (16 int64 arrays of _BLOCK candidates) and the
    # blocks' objects (1 kB a block). The whole new list as intp pairs
    # would add 16 bytes a kept pair, and the old list 4.
    monkeypatch.setattr(mollified_module, "_BLOCK", 2 ** 12)
    _, start, moved = _star_and_moved_tables()
    kept = {}
    tracemalloc.start()
    try:
        _midpoint_pairs(start, 0.1, KernelSpec(), kept)
        tracemalloc.reset_peak()
        blocks = _midpoint_pairs(moved, 0.1, KernelSpec(), kept)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kept["table"] is moved
    pairs = sum(len(i) for i, _ in blocks)
    kept_pairs = sum(len(segments) for _, _, segments in kept["blocks"])
    assert kept_pairs > pairs > 4 * mollified_module._BLOCK
    lists = 4 * kept_pairs + 4 * moved.size + 16 * pairs
    cells = 16 * 8 * 2 * moved.size
    block = 16 * 8 * mollified_module._BLOCK + 1024 * 2 * len(blocks)
    assert peak < lists + cells + block
    # No array of the old list is alive when the new one starts.
    old = weakref.ref(kept["blocks"][0][2])
    build = mollified_module._pair_list

    def checked(*args):
        assert old() is None
        return build(*args)

    monkeypatch.setattr(mollified_module, "_pair_list", checked)
    _midpoint_pairs(start, 0.1, KernelSpec(), kept)
    assert kept["table"] is start


def _kept_blocks(kept, table, eps, spec):
    """The joined blocks the stage dict ``kept`` gives for ``table``, and
    whether its list was rebuilt for them."""
    before = kept.get("blocks")
    blocks = _midpoint_pairs(table, eps, spec, kept)
    return tuple(np.concatenate(part) for part in zip(*blocks)), kept.get("blocks") is not before


def _assert_same_pairs(got, table, eps, spec):
    fresh = _joined_pairs(table, table.midpoint, eps, spec)
    assert all(part.dtype == np.intp for part in got)
    assert np.array_equal(got[0], fresh[0]) and np.array_equal(got[1], fresh[1])


def test_kept_pair_list_gives_a_fresh_lists_pairs_at_every_step():
    rng = np.random.default_rng(23)
    for trial in range(4):
        plan = _jittered_star(rng, int(rng.integers(5, 14))) if trial % 2 else \
            random_branch_plan(rng, max_branches=6, max_segments=12)
        layout = Layout.of(plan)
        for kind in ("bump", "triangular"):
            for eps in (0.25, 0.1):
                spec, x = KernelSpec(kind), layout.base.copy()
                kept, rebuilds = {}, []
                for _ in range(40):
                    # Steps of a tenth of the skin, in every free coordinate.
                    step = rng.normal(0.0, 0.1 * _SKIN * eps, x.shape)
                    x = np.where(layout.free, x + step, x)
                    x[layout.clamp] = np.maximum(x[layout.clamp], 0.0)
                    table = layout.table(x)
                    got, rebuilt = _kept_blocks(kept, table, eps, spec)
                    rebuilds.append(rebuilt)
                    _assert_same_pairs(got, table, eps, spec)
                assert rebuilds[0] and 1 < sum(rebuilds) < len(rebuilds) - 10
                # A new segment count rebuilds the list, and so does a new eps.
                other = segment_table(_jittered_star(rng, 3))
                got, rebuilt = _kept_blocks(kept, other, eps, spec)
                assert rebuilt
                _assert_same_pairs(got, other, eps, spec)
                got, rebuilt = _kept_blocks(kept, other, 0.5 * eps, spec)
                assert rebuilt
                _assert_same_pairs(got, other, 0.5 * eps, spec)
        table = layout.table(layout.base)
        kept = {}
        got, _ = _kept_blocks(kept, table, 0.1, KernelSpec("exponential"))
        assert not kept
        assert np.array_equal(got[0] * table.size + got[1], np.arange(table.size ** 2))


def _segments(table, mids, lengths):
    """``table`` with horizontal segments at these midpoints and lengths."""
    half = np.column_stack([0.5 * lengths, np.zeros(len(lengths))])
    return replace(table, a=mids - half, b=mids + half, length=lengths, midpoint=mids)


@pytest.mark.parametrize("kind", ["bump", "triangular"])
def test_kept_pair_list_is_rebuilt_just_past_its_skin(kind):
    # Two segments of length 0.2 on a line, their midpoints just beyond the
    # reach of the list's build (eps + 0.1, plus the skin) apart: a pair
    # appears once they close in by the skin, or once one grows by it.
    eps, spec = 0.1, KernelSpec(kind)
    skin = _SKIN * eps
    base = segment_table(_jittered_star(np.random.default_rng(29), 2))
    gap = eps + 0.1 + 1.0005 * skin
    start = _segments(base, np.array([[0.0, 0.0], [gap, 0.0]]), np.full(2, 0.2))
    for factor, rebuild in ((0.999, False), (1.001, True)):
        # Both midpoints move toward each other, each by half the skin.
        move = 0.5 * factor * skin
        closer = _segments(base, np.array([[move, 0.0], [gap - move, 0.0]]), np.full(2, 0.2))
        # One segment's half length grows by the skin; midpoints stay.
        longer = _segments(base, start.midpoint, np.array([0.2 + 2.0 * factor * skin, 0.2]))
        for moved in (closer, longer):
            kept = {}
            got, _ = _kept_blocks(kept, start, eps, spec)
            _assert_same_pairs(got, start, eps, spec)
            got, rebuilt = _kept_blocks(kept, moved, eps, spec)
            assert rebuilt == rebuild
            _assert_same_pairs(got, moved, eps, spec)
            assert len(got[0]) == (4 if rebuild else 2) - (moved is longer and rebuild)


def test_energies_rebuild_a_kept_list_of_another_eps_or_kernel():
    # A stage dict whose list was built for another eps (a smaller one, whose
    # list misses pairs) or kernel gives each energy exactly a fresh list's
    # pairs at its own eps and kernel, and keeps the list of that key.
    plan = segment_table(_jittered_star(np.random.default_rng(31), 4))
    branches = segment_table(build_fan_branches(4, segments=3, m_init=0.1))
    calls = ((plan, lambda kept: energy_avg(plan, 0.5, 0.1, kept=kept), 2),
             (plan, lambda kept: energy_max(plan, 0.5, 0.1, kept=kept), None),
             (branches, lambda kept: tree_objective(branches, ObjectiveConfig(eps=0.1),
                                                    kept=kept), 1))
    for table, call, at in calls:
        for eps, spec in ((0.05, KernelSpec()), (0.1, KernelSpec("triangular"))):
            kept = {}
            _midpoint_pairs(table, eps, spec, kept)
            before = kept["blocks"]
            got, want = call(kept), call(None)
            assert kept["key"] == (0.1, KernelSpec()) and kept["blocks"] is not before
            assert np.float64(got.total).tobytes() == np.float64(want.total).tobytes()
            assert got.terms is None or got.terms.tobytes() == want.terms.tobytes()
            if at is not None:
                _assert_same_pairs(tuple(np.concatenate(part) for part in
                                         zip(*got._evaluation.data[at])), table, 0.1, KernelSpec())


def _energy_forms(alpha, eps, spec):
    """(energy, gradient, dense gradient oracle) of the two path energies."""
    return [(lambda p: energy_avg(p, alpha, eps, spec), energy_avg_gradient,
             lambda p: _dense_energy_avg_gradient(p, alpha, eps, spec)),
            (lambda p: energy_max(p, alpha, eps, spec), energy_max_gradient,
             lambda p: _dense_energy_max_gradient(p, alpha, eps, spec))]


def test_energy_gradients_use_their_values_own_plan_eps_kernel_or_alpha():
    rng = np.random.default_rng(15)
    plans = [_jittered_star(rng, int(rng.integers(3, 10))) for _ in range(3)]
    spec = KernelSpec("bump")
    for plan in plans:
        twin = PathPlan(paths=plan.paths)  # equal, but another object
        for settings in ((0.45, 0.25, spec), (0.45, 0.05, spec),
                         (0.45, 0.25, KernelSpec("triangular")), (0.6, 0.25, spec)):
            for energy, gradient, oracle in _energy_forms(*settings):
                _assert_close(gradient(energy(plan)), oracle(plan))
                assert np.array_equal(gradient(energy(twin)), gradient(energy(plan)))


def test_energies_costs_and_the_tree_objective_return_one_value_type():
    paths = _jittered_star(np.random.default_rng(16), 4)
    branches = build_fan_branches(4, segments=3, m_init=0.1)
    for value in (energy_avg(paths, 0.5, 0.1), energy_max(paths, 0.5, 0.1),
                  branch_irrigation_cost(branches, 0.5, 0.1)):
        assert type(value) is ObjectiveValue
        assert value.total == value.irrigation == float(value.terms.sum())
        assert value.penalty == value.payoff == 0.0
    value = tree_objective(branches, ObjectiveConfig(c1=0.5, c2=1.0))
    assert type(value) is ObjectiveValue and value.terms is None
    assert ObjectiveValue is mollified_module.ObjectiveValue


def test_gradients_reject_a_value_that_is_not_their_own_objectives():
    paths = _jittered_star(np.random.default_rng(16), 4)
    branches = build_fan_branches(4, segments=3, m_init=0.1)
    values = {"energy_avg": energy_avg(paths, 0.5, 0.1), "energy_max": energy_max(paths, 0.5, 0.1),
              "tree_objective": tree_objective(branches, ObjectiveConfig(c1=0.5, c2=1.0)),
              "branch_irrigation_cost": branch_irrigation_cost(branches, 0.5, 0.1),
              "hand-made": ObjectiveValue(total=1.0, irrigation=1.0, penalty=0.0, payoff=0.0)}
    for form, gradient in (("energy_avg", energy_avg_gradient),
                           ("energy_max", energy_max_gradient),
                           ("tree_objective", tree_objective_gradient)):
        assert np.all(np.isfinite(gradient(values[form])))
        for name, value in values.items():
            if name != form:
                with pytest.raises(TypeError, match=form):
                    gradient(value)


def test_central_difference_is_one_sided_exactly_below_a_bound():
    # Densities and branch heights are bounded below by zero. A backward
    # probe below the bound gives way to a forward difference; every other
    # probe is central, and no probe leaves the feasible set.
    plan = BranchPlan(branches=(Branch(x=np.array([0.0, 0.4, 0.6]), y=np.array([0.0, 0.0, 1.0]),
                                       m=np.array([0.0, 1.0])),))
    probes = []

    def func(plan_or_table):
        table = segment_table(plan_or_table)
        probes.append(table)
        return float((table.density ** 2).sum() + (table.b[:, 1] ** 2).sum())

    fd = central_difference(func, plan, step=1e-6)
    layout = Layout.of(plan)
    assert all(t.density.min() >= 0.0 and t.b[:, 1].min() >= 0.0 for t in probes)
    assert len(probes) == 6 + 4 + 1  # forward probes, central partners, the base
    low_density, density = layout.m_slots
    low_height = layout.counts[0] + 1  # y of vertex 1
    assert fd[low_density] == pytest.approx(1e-6, rel=1e-3)  # (h^2 - 0) / h
    assert fd[low_height] == pytest.approx(1e-6, rel=1e-3)
    assert fd[density] == pytest.approx(2.0)
    assert fd[low_height + 1] == pytest.approx(2.0)

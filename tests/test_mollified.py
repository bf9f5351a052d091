"""Tests for mollified multiplicities, energies, and their gradients."""

import numpy as np
import pytest

import ramify.objective as objective_module
from ramify.exact_cost import exact_multiplicity, exact_plan_cost
from ramify.geometry import pair_projection
from ramify.gradients import (
    Layout,
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
    _downstream_flux_adjoint,
    _gradient_weights,
    _midpoint_energy,
    _pair_list,
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
from ramify.plan_model import (
    Branch,
    BranchPlan,
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
        e0 = fn(plan, 0.5, 0.3).value
        e1 = fn(r1, 0.5, 0.3).value
        e2 = fn(r2, 0.5, 0.3).value
        assert abs(e2 - e1) < abs(e1 - e0)


def test_single_straight_path_energy_equals_exact_cost():
    # the capped average multiplicity equals the path mass at every
    # interior midpoint, so the energy collapses to mass^alpha * length
    plan = _single_path_plan(0.5)
    for alpha in (0.3, 0.5, 0.8):
        ev = energy_avg(plan, alpha, 0.1)
        assert ev.value == pytest.approx(0.5 ** alpha, abs=1e-12)
        em = energy_max(plan, alpha, 0.1)
        assert em.value == pytest.approx(0.5 ** alpha, abs=1e-12)


def test_energy_max_monotone_as_eps_shrinks():
    plan = build_star_plan(half_circle_targets(6), segments_per_path=8)
    eps_values = [0.4, 0.2, 0.1, 0.05]
    for kind in KERNEL_KINDS:
        spec = KernelSpec(kind)
        vals = [energy_max(plan, 0.4, e, spec=spec).value for e in eps_values]
        assert np.all(np.diff(vals) >= -1e-12)


def test_energy_max_bounded_by_exact_cost():
    plan = build_star_plan(half_circle_targets(8), segments_per_path=10)
    exact = exact_plan_cost(plan, 0.4, merge_tol=1e-9)
    for eps in (0.3, 0.1, 0.02):
        assert energy_max(plan, 0.4, eps).value <= exact * (1.0 + 1e-12)


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
                assert energy_max(plan, 1.0, eps, spec=spec).value == pytest.approx(
                    expected, abs=1e-9
                )
                assert energy_avg(plan, 1.0, eps, spec=spec).value == pytest.approx(
                    expected, abs=1e-9
                )


def test_alpha_one_energy_invariant_under_collinear_insertion():
    plan = _y_plan()
    refined = _refine(plan)
    for fn in (energy_max, energy_avg):
        assert fn(plan, 1.0, 0.2).value == pytest.approx(fn(refined, 1.0, 0.2).value, abs=1e-12)


def test_per_segment_breakdown_sums_to_value():
    plan = _y_plan()
    table = segment_table(plan)
    rows = list(zip(table.owner.tolist(), table.interval.tolist()))
    for fn in (energy_max, energy_avg):
        ev = fn(plan, 0.6, 0.15)
        assert sum(ev.terms) == pytest.approx(ev.value, abs=1e-12)
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
            assert ev.value == 0.0
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
                    lambda q: fn(q, alpha, eps, spec=spec).value, plan, step=1e-6
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
    assert cost.value == pytest.approx(2.0, abs=1e-12)
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


def _dense_branch_cost_gradient(table, alpha, eps, f_min, pairs):
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


PAIR_EPS = (0.25, 0.1, 0.05, 0.01)


def test_pair_list_holds_every_pair_within_eps():
    rng = np.random.default_rng(11)
    for trial in range(12):
        plan = _jittered_star(rng, int(rng.integers(2, 14))) if trial % 2 else \
            random_branch_plan(rng, max_branches=6, max_segments=12)
        table = segment_table(plan)
        probes = rng.uniform(-1.3, 1.3, (200, 2))
        for points in (table.midpoint, probes):
            dist = pair_projection(points[:, None, :], table.a[None, :, :],
                                   table.b[None, :, :])[1]
            for eps in PAIR_EPS:
                for kind in ("bump", "triangular"):
                    i, j = _pair_list(table, points, eps, KernelSpec(kind))
                    listed = i * table.size + j
                    assert np.all(np.diff(listed) > 0)  # sorted by point, then segment
                    t_near, s_near = np.nonzero(dist < eps)
                    assert np.all(np.isin(t_near * table.size + s_near, listed))
                i, j = _pair_list(table, points, eps, KernelSpec("exponential"))
                assert np.array_equal(i * table.size + j, np.arange(dist.size))


def test_pair_list_consumers_match_the_dense_grid():
    rng = np.random.default_rng(12)
    for trial in range(4):
        plan = _jittered_star(rng, int(rng.integers(2, 14)))
        table = segment_table(plan)
        masses = np.array([p.mass for p in plan.paths])
        probes = np.vstack([rng.uniform(-1.3, 1.3, (60, 2)), table.a[::3] + 0.003])
        alpha = float(rng.uniform(0.3, 0.9))
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
            cfg = ObjectiveConfig(alpha=0.5, eps=eps, c1=0.2, c2=1.0)
            sparse = tree_objective_gradient(tree_objective(plan, cfg))
            with monkeypatch.context() as patch:
                patch.setattr(objective_module, "_branch_cost_gradient",
                              _dense_branch_cost_gradient)
                _assert_close(sparse, tree_objective_gradient(tree_objective(plan, cfg)))


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

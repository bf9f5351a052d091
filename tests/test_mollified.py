"""Tests for mollified multiplicities, energies, and their gradients."""

import numpy as np
import pytest

from ramify.exact_cost import exact_multiplicity, exact_plan_cost
from ramify.gradients import Layout, central_difference, plan_to_vector, vector_to_plan
from ramify.kernels import KERNEL_KINDS, KernelSpec
from ramify.mollified import (
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
from ramify.plan_model import (
    Branch,
    BranchPlan,
    Path,
    PathPlan,
    build_fan_branches,
    build_star_plan,
    half_circle_targets,
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
                  lambda p: energy_avg_gradient(p, 0.5, 0.1),
                  lambda p: energy_max_gradient(p, 0.5, 0.1),
                  lambda p: multiplicity_avg([0.0, 0.5], p, 0.1),
                  lambda p: multiplicity_max([0.0, 0.5], p, 0.1)):
        with pytest.raises(TypeError, match="path plans"):
            entry(plan)


def test_empty_path_plan_has_zero_energy_gradient_and_multiplicity():
    plan = PathPlan(paths=())
    probes = np.array([[0.0, 0.0], [0.3, 0.4]])
    for kind in ("bump", "exponential"):
        spec = KernelSpec(kind)
        for fn in (energy_avg, energy_max):
            ev = fn(plan, 0.5, 0.1, spec=spec)
            assert ev.value == 0.0
            assert ev.terms.shape == (0,)
        for gfn in (energy_avg_gradient, energy_max_gradient):
            assert gfn(plan, 0.5, 0.1, spec=spec).shape == (0,)
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
                grad = gfn(plan, alpha, eps, spec=spec)
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

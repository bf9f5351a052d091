"""End-to-end acceptance checks, one test per advertised guarantee.

Run with -v to get a single pass/fail line per guarantee. Every test
carries its stated tolerance and wall-clock budget; nothing here tunes
tolerances to the implementation.
"""

import json
import os
import time

import numpy as np
import pytest

from ramify import cli
from ramify.config import PRESETS, merge_config, validate_config
from oracles import brute_force_bifurcation, exact_multiplicity
from ramify.exact_cost import exact_plan_cost
from ramify.gradients import plan_to_vector, vector_to_plan
from ramify.mollified import (
    energy_avg,
    energy_max,
    multiplicity_max,
    saturated_two_path_cost,
    saturated_two_path_cost_dl2,
)
from ramify.kernels import KernelSpec
from ramify.objective import ObjectiveConfig, tree_objective
from ramify.optimizer import (
    DescentConfig,
    branch_evaluator,
    eps_continuation,
    path_evaluator,
    rediscretize_plan,
)
from ramify.plan_model import (
    Layout,
    Path,
    PathPlan,
    TargetMeasure,
    build_fan_branches,
    build_star_plan,
    half_circle_targets,
    random_branch_plan,
    saturated_pair_plans,
)


def _random_path_plan(rng: np.random.Generator) -> PathPlan:
    """Star over random atoms with jittered interior knots."""
    n = int(rng.integers(2, 9))
    angles = np.sort(rng.uniform(0.0, np.pi, n))
    radii = rng.uniform(0.5, 1.5, n)
    positions = radii[:, None] * np.column_stack([np.cos(angles), np.sin(angles)])
    masses = rng.uniform(0.1, 1.0, n)
    targets = TargetMeasure(positions=positions, masses=masses)
    star = build_star_plan(targets, int(rng.integers(2, 7)))
    paths = []
    for path in star.paths:
        vertices = path.vertices.copy()
        vertices[1:-1] += rng.normal(0.0, 0.15, vertices[1:-1].shape)
        paths.append(Path(vertices=vertices, mass=path.mass,
                          terminal_fixed=path.terminal_fixed))
    return PathPlan(paths=tuple(paths))


def _run_preset(args, tmp_path, name):
    out = str(tmp_path / name)
    start = time.monotonic()
    code = cli.main(args + ["--out", out])
    elapsed = time.monotonic() - start
    assert code == 0, f"{name} exited with {code}"
    with open(os.path.join(out, "summary.json"), encoding="utf-8") as handle:
        summary = json.load(handle)
    return summary, out, elapsed


def test_smoothed_energy_table_approaches_exact_cost_from_below():
    start = time.monotonic()
    alpha = 0.4
    plan = build_star_plan(half_circle_targets(25), 16)
    exact = exact_plan_cost(plan, alpha)
    assert exact == pytest.approx(25.0 ** 0.6, rel=1e-12)

    eps_grid = (0.2, 0.1, 0.05, 0.02)
    energies = [energy_max(plan, alpha, eps).total for eps in eps_grid]
    for eps, value in zip(eps_grid, energies):
        assert value <= exact * (1.0 + 1e-3), (
            f"upper bound violated at eps={eps}: {value} > {exact}")
    for prev, cur in zip(energies, energies[1:]):
        assert cur >= prev - 1e-12, (
            f"energy decreased as eps shrank: {prev} -> {cur}")
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"table took {elapsed:.1f}s, budget 10s"

    # Lower bracket: the same midpoint-rule energy with the indicator
    # kernel 1{d < eps} in place of the bump J. Since J(d/eps) <= 1{d < eps},
    # the indicator multiplicity w_ind is at least w_max at every midpoint,
    # and alpha - 1 < 0 turns that into w_ind^(alpha-1) <= w_max^(alpha-1),
    # so E_ind <= E_max. On the star the distance from radius r on ray i
    # to ray j is r*sin|dtheta| for |dtheta| <= pi/2 and r otherwise, so
    # with n rays within eps of a midpoint the term is m^alpha*h*n^(alpha-1).
    # No fixed gap is promised at eps = 0.02: neighbouring rays lie
    # closer than eps out to radius eps/sin(theta), theta = pi/24, and
    # there w counts several paths. The gap is about 0.4 to 0.46 times
    # eps/theta on this plan (6.5% at eps = 0.02) and does not shrink
    # with finer segments. E_ind tends to E_exact linearly in eps, so the
    # bracket E_ind <= E_max <= E_exact shows the approach from below.
    angles = np.linspace(0.0, np.pi, 25)
    mass, h = 1.0 / 25, 1.0 / 16
    radii = (np.arange(16) + 0.5) * h
    dtheta = np.abs(angles[:, None] - angles[None, :])
    dist = np.where(dtheta[:, :, None] <= np.pi / 2,
                    radii * np.sin(dtheta)[:, :, None], radii)
    for eps, value in zip(eps_grid, energies):
        near = np.sum(dist < eps, axis=1)
        lower = float(np.sum(mass ** alpha * h * near ** (alpha - 1.0)))
        assert lower <= value * (1.0 + 1e-12), (
            f"E_max={value:.6f} below the indicator bound {lower:.6f} "
            f"at eps={eps} (E_exact={exact:.6f})")


def test_max_multiplicity_never_undershoots_exact_multiplicity():
    rng = np.random.default_rng(0)
    violations = 0
    worst = 0.0
    for _ in range(20):
        plan = _random_path_plan(rng)
        eps = float(rng.uniform(0.05, 0.5))
        probes = rng.uniform(-1.6, 1.6, (1000, 2))
        smoothed = multiplicity_max(probes, plan, eps)
        for point, upper in zip(probes, smoothed):
            exact = exact_multiplicity(plan, point)
            gap = exact - upper
            worst = max(worst, gap)
            if gap > 1e-12:
                violations += 1
    assert violations == 0, (
        f"{violations} probes exceeded the smoothed multiplicity "
        f"(worst undershoot {worst:.3e})")


def test_lengthening_a_path_can_lower_the_averaged_energy():
    start = time.monotonic()
    m1 = m2 = 1.0
    l1, l2, delta, alpha = 4.0, 0.1, 0.1, 0.5

    before = saturated_two_path_cost(m1, m2, l1, l2, alpha)
    after = saturated_two_path_cost(m1, m2, l1, l2 + delta, alpha)
    assert before == pytest.approx(4.1 / np.sqrt(1.1), rel=1e-12)
    assert after == pytest.approx(4.2 / np.sqrt(1.2), rel=1e-12)
    assert before == pytest.approx(3.90930, rel=5e-5)
    assert after == pytest.approx(3.83405, rel=5e-5)
    assert after < before
    assert saturated_two_path_cost_dl2(m1, m2, l1, l2, alpha) < 0.0

    plan_short, plan_long, eps = saturated_pair_plans(l1, l2, delta, m1, m2)
    spec = KernelSpec(kind="rational")
    energy_short = energy_avg(plan_short, alpha, eps, spec).total
    energy_long = energy_avg(plan_long, alpha, eps, spec).total
    assert energy_long < energy_short, (
        f"lengthened plan not cheaper: {energy_long} >= {energy_short}")

    # At unit exponent lengthening must cost extra again.
    assert saturated_two_path_cost(m1, m2, l1, l2 + delta, 1.0) > \
        saturated_two_path_cost(m1, m2, l1, l2, 1.0)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"counterexample took {elapsed:.2f}s, budget 1s"


def test_analytic_gradients_match_central_differences():
    start = time.monotonic()
    run_cfg = validate_config({"experiment": "gradcheck"})
    report = cli.run_gradient_check(run_cfg)
    assert report["plans"] == 50
    assert report["max_branches"] == 4
    assert report["max_segments"] == 6
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"gradient check took {elapsed:.1f}s, budget 30s"
    assert report["worst_rel_error"] <= 1e-5, (
        f"worst relative gradient error {report['worst_rel_error']:.3e} "
        f"on plan {report['worst_plan_index']}")


def test_descent_recovers_the_optimal_bifurcation():
    start = time.monotonic()
    alpha = 0.5
    arm = np.sqrt(0.5)
    targets = TargetMeasure(positions=[[-arm, arm], [arm, arm]],
                            masses=[0.5, 0.5])
    plan = build_star_plan(targets, 8)
    cfg = DescentConfig(eps_schedule=(0.3, 0.1, 0.03, 0.01), j_max=500)
    _, _, stages = eps_continuation(
        plan, lambda eps: path_evaluator(alpha, eps), cfg)
    achieved = exact_plan_cost(stages[-1].plan, alpha, merge_tol=0.02)
    _, optimal = brute_force_bifurcation([-arm, arm], [arm, arm],
                                         0.5, 0.5, alpha)
    rel = abs(achieved - optimal) / optimal
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"descent took {elapsed:.1f}s, budget 60s"
    assert rel <= 0.03, (
        f"final cost {achieved:.6f} is {rel:.2%} from optimal {optimal:.6f}")


def test_descent_contracts_hold_exactly():
    # Strict decrease on accepted steps and feasibility of every iterate,
    # on both plan families.
    obj = ObjectiveConfig(alpha=0.4, c1=0.4, c2=1.4)
    fan = build_fan_branches(7, np.pi / 2, 1.0, 6, 0.1)
    cfg = DescentConfig(eps_schedule=(0.3, 0.1), j_max=60)
    rows_seen = []

    def check_branch(row, plan):
        rows_seen.append((row.eps, row.total))
        for branch in plan.branches:
            assert branch.x[0] == 0.0 and branch.y[0] == 0.0
            assert np.all(branch.y >= 0.0)
            assert np.all(branch.m >= 0.0)

    eps_continuation(fan, lambda eps: branch_evaluator(obj, eps), cfg,
                     on_iteration=check_branch)
    assert rows_seen
    # Values compare only within a stage; the smoothing switch changes
    # the objective itself.
    prev_eps = cfg.eps_schedule[0]
    prev_total = tree_objective(fan, obj.with_eps(prev_eps)).total
    for eps, total in rows_seen:
        if eps == prev_eps:
            assert total < prev_total, "accepted step failed to decrease"
        prev_eps, prev_total = eps, total

    star = build_star_plan(half_circle_targets(9), 6)
    terminals = [path.vertices[-1].copy() for path in star.paths]

    def check_path(row, plan):
        for path, terminal in zip(plan.paths, terminals):
            assert path.vertices[0, 0] == 0.0 and path.vertices[0, 1] == 0.0
            assert np.array_equal(path.vertices[-1], terminal)

    path_cfg = DescentConfig(eps_schedule=(0.3, 0.1), j_max=40)
    eps_continuation(star, lambda eps: path_evaluator(0.6, eps), path_cfg,
                     on_iteration=check_path)

    # Re-discretization conserves per-branch mass and endpoints.
    rng = np.random.default_rng(7)
    for _ in range(10):
        plan = random_branch_plan(rng)
        layout = Layout.of(plan)
        fresh = vector_to_plan(rediscretize_plan(plan_to_vector(plan), layout), layout)
        for old, new in zip(plan.branches, fresh.branches):
            seg_old = np.diff(np.column_stack([old.x, old.y]), axis=0)
            seg_new = np.diff(np.column_stack([new.x, new.y]), axis=0)
            mass_old = float(old.m @ np.hypot(seg_old[:, 0], seg_old[:, 1]))
            mass_new = float(new.m @ np.hypot(seg_new[:, 0], seg_new[:, 1]))
            assert mass_new == pytest.approx(mass_old, rel=1e-9, abs=1e-12)
            assert new.x[0] == old.x[0] and new.y[0] == old.y[0]
            assert new.x[-1] == old.x[-1] and new.y[-1] == old.y[-1]


@pytest.mark.slow
def test_irrigation_presets_merge_branches_into_fewer_trunks(tmp_path):
    for preset in ("fig2", "fig3"):
        summary, _, elapsed = _run_preset(
            ["irrigate", "--preset", preset], tmp_path, preset)
        counts = summary["cluster_counts"]
        assert elapsed < 600.0, f"{preset} took {elapsed:.0f}s, budget 600s"
        for prev, cur in zip(counts, counts[1:]):
            assert cur <= prev, f"{preset} cluster counts grew: {counts}"
        assert counts[-1] < counts[0], (
            f"{preset} never merged: clusters {counts}")


@pytest.mark.slow
def test_growth_presets_keep_leaf_mass_and_reduce_objective(tmp_path):
    for preset in ("fig4", "fig5"):
        summary, out, elapsed = _run_preset(
            ["treeopt", "--preset", preset], tmp_path, preset)
        assert elapsed < 600.0, f"{preset} took {elapsed:.0f}s, budget 600s"
        assert summary["final"]["payoff"] > 0.0

        run_cfg = validate_config(PRESETS[preset])
        initial = build_fan_branches(
            run_cfg.fan.n, run_cfg.fan.spread_angle, run_cfg.fan.length0,
            run_cfg.fan.segments, run_cfg.descent.m_init)
        initial_total = tree_objective(
            initial,
            run_cfg.objective.with_eps(run_cfg.descent.eps_schedule[0])).total
        assert summary["final"]["total"] < initial_total

        # Without the leaf-mass reward the optimal tree is empty.
        drained = merge_config(PRESETS[preset], {"objective": {"c2": 0.0}})
        cfg_path = tmp_path / f"{preset}_c2zero.json"
        cfg_path.write_text(json.dumps(drained), encoding="utf-8")
        zero_summary, _, zero_elapsed = _run_preset(
            ["treeopt", "--config", str(cfg_path)], tmp_path,
            f"{preset}_c2zero")
        assert zero_elapsed < 600.0
        assert zero_summary["final"]["payoff"] < 1e-6, (
            f"{preset} with c2=0 kept leaf mass "
            f"{zero_summary['final']['payoff']:.3e}")


def test_unit_exponent_makes_all_three_energies_agree():
    rng = np.random.default_rng(3)
    for _ in range(8):
        plan = _random_path_plan(rng)
        exact = exact_plan_cost(plan, 1.0)
        for eps in (0.07, 1.3):
            e_max = energy_max(plan, 1.0, eps).total
            e_avg = energy_avg(plan, 1.0, eps).total
            assert e_max == pytest.approx(exact, abs=1e-9)
            assert e_avg == pytest.approx(exact, abs=1e-9)

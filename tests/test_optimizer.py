"""Tests for projected descent, line search, projection, and resampling."""

import warnings

import numpy as np
import pytest

import ramify.optimizer as optimizer_module
from oracles import cumulative_arclength, resample_polyline, segment_lengths
from ramify.gradients import plan_to_vector, vector_to_plan
from ramify.mollified import (
    _Evaluation,
    _KeptPairs,
    energy_avg,
    energy_avg_gradient,
    energy_max,
    energy_max_gradient,
)
from ramify.objective import (
    ObjectiveConfig,
    ObjectiveValue,
    tree_objective,
    tree_objective_gradient,
)
from ramify.optimizer import (
    TRACE_HEADER,
    DescentConfig,
    Evaluator,
    StageCounts,
    TraceRow,
    backtracking_step,
    branch_evaluator,
    eps_continuation,
    feasibility_project,
    path_evaluator,
    rediscretize_plan,
    resolve_tau0,
    run_descent,
)
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


def _quadratic_evaluator(target, offset=0.0):
    """Objective (v - target)^2 summed over the flat plan vector; each
    value carries its plan's vector for the gradient."""
    target = np.asarray(target, dtype=float)

    def objective(plan, kept=None):
        v = plan_to_vector(plan)
        total = offset + ((v - target) ** 2).sum()
        return ObjectiveValue(total=total, irrigation=total, penalty=0.0, payoff=0.0,
                              _evaluation=_Evaluation("quadratic", (), (v,)))

    def gradient(value):
        return 2.0 * (value._evaluation.data[0] - target)

    return Evaluator(objective=objective, gradient=gradient)


def _single_branch_plan(x1=1.0, y1=1.0, m0=1.0):
    return BranchPlan(
        branches=(Branch(x=np.array([0.0, x1]), y=np.array([0.0, y1]), m=np.array([m0])),)
    )


def test_descent_config_validation():
    with pytest.raises(ValueError):
        DescentConfig(eps_schedule=(0.1, 0.2))
    with pytest.raises(ValueError):
        DescentConfig(eps_schedule=(0.1, 0.0))
    with pytest.raises(ValueError):
        DescentConfig(j_max=-1)
    with pytest.raises(ValueError):
        DescentConfig(backtrack_factor=1.0)
    with pytest.raises(ValueError):
        DescentConfig(backtrack_limit=0)
    with pytest.raises(ValueError):
        DescentConfig(stop_tol=0.0)
    with pytest.raises(ValueError):
        DescentConfig(stop_patience=0)
    with pytest.raises(ValueError):
        DescentConfig(rediscretize_every=-1)
    cfg = DescentConfig(eps_schedule=[0.5, 0.25])
    assert cfg.eps_schedule == (0.5, 0.25)
    assert DescentConfig(j_max=0).j_max == 0


def test_trace_header_and_row_format():
    assert TRACE_HEADER == "iter,eps,J,I,P,H,tau,gnorm,backtracks"
    row = TraceRow(
        iteration=3,
        eps=0.1,
        total=1.0 / 3.0,
        irrigation=0.25,
        penalty=0.0,
        payoff=1e-17,
        tau=0.5,
        grad_norm=2.0,
        backtracks=4,
    )
    fields = row.as_csv().split(",")
    assert len(fields) == 9
    assert fields[0] == "3"
    assert fields[8] == "4"
    # floats survive a text round trip exactly
    assert float(fields[2]) == 1.0 / 3.0
    assert float(fields[5]) == 1e-17


def test_feasibility_projection_restores_pinned_slots():
    plan = build_star_plan(half_circle_targets(3), segments_per_path=2)
    layout = Layout.of(plan)
    v = plan_to_vector(plan)
    moved = v + 10.0
    out = feasibility_project(moved, layout)
    back = vector_to_plan(out, layout)
    for orig, proj in zip(plan.paths, back.paths):
        np.testing.assert_allclose(proj.vertices[0], [0.0, 0.0], atol=0.0)
        np.testing.assert_allclose(proj.vertices[-1], orig.vertices[-1], atol=0.0)
        # interior vertices moved freely
        assert np.all(np.abs(proj.vertices[1:-1] - orig.vertices[1:-1] - 10.0) < 1e-12)


def test_feasibility_projection_clamps_branch_bounds():
    plan = _single_branch_plan()
    v = plan_to_vector(plan)
    # layout per branch: x block, y block, m block
    v[3] = -0.2  # tip height
    v[4] = -0.5  # density
    layout = Layout.of(plan)
    out = feasibility_project(v, layout)
    assert out[3] == 0.0
    assert out[4] == 0.0
    # idempotent
    np.testing.assert_array_equal(feasibility_project(out, layout), out)


def _random_star_plan(rng, terminal_fixed):
    star = build_star_plan(half_circle_targets(int(rng.integers(1, 5))),
                           segments_per_path=int(rng.integers(1, 5)))
    paths = []
    for p in star.paths:
        vertices = p.vertices.copy()
        vertices[1:] += rng.normal(0.0, 0.05, vertices[1:].shape)
        paths.append(Path(vertices=vertices, mass=p.mass, terminal_fixed=terminal_fixed))
    return PathPlan(paths=tuple(paths))


def _plan_fields(plan):
    if isinstance(plan, PathPlan):
        return [(p.vertices, p.mass, p.terminal_fixed) for p in plan.paths]
    return [(b.x, b.y, b.m) for b in plan.branches]


def test_layout_round_trip_projection_and_pinned_gradients():
    rng = np.random.default_rng(21)
    obj = ObjectiveConfig(alpha=0.5, eps=0.3, c1=0.5, c2=1.0)
    for trial in range(18):
        if trial % 3 == 2:
            plan = random_branch_plan(rng, max_branches=3, max_segments=4)
            pinned_per_owner = 2
            clamped = sum(len(b.y) + len(b.m) for b in plan.branches)
            grads = [tree_objective_gradient(tree_objective(plan, obj))]
        else:
            fixed = trial % 3 == 0
            plan = _random_star_plan(rng, terminal_fixed=fixed)
            pinned_per_owner = 4 if fixed else 2
            clamped = 0
            grads = [energy_avg_gradient(energy_avg(plan, 0.5, 0.3)),
                     energy_max_gradient(energy_max(plan, 0.5, 0.3))]
        layout = Layout.of(plan)
        v = plan_to_vector(plan)

        fields = _plan_fields(plan)
        again = _plan_fields(vector_to_plan(v, layout))
        assert len(again) == len(fields)
        for old, new in zip(fields, again):
            for a, b in zip(old, new):
                np.testing.assert_array_equal(a, b)

        pinned = ~layout.free
        assert pinned.sum() == pinned_per_owner * len(fields)
        assert len(layout.clamp) == clamped
        moved = v + rng.normal(0.0, 1.0, v.shape)
        out = feasibility_project(moved, layout)
        expected = moved.copy()
        expected[layout.clamp] = np.maximum(moved[layout.clamp], 0.0)
        expected[pinned] = v[pinned]
        np.testing.assert_array_equal(out, expected)
        np.testing.assert_array_equal(feasibility_project(out, layout), out)
        vector_to_plan(out, layout)  # the projected vector is a valid plan

        for grad in grads:
            assert grad.shape == v.shape
            assert np.all(grad[pinned] == 0.0)


def test_feasibility_projection_is_identity_on_a_feasible_plan():
    # The projection eps_continuation applies to its starting plan.
    plan = build_fan_branches(3, segments=2)
    layout = Layout.of(plan)
    again = vector_to_plan(feasibility_project(layout.base, layout), layout)
    for b, c in zip(plan.branches, again.branches):
        np.testing.assert_array_equal(b.x, c.x)
        np.testing.assert_array_equal(b.y, c.y)
        np.testing.assert_array_equal(b.m, c.m)


def test_backtracking_accepts_plain_step():
    # objective (m - 0)^2 from m = 1 with tau0 = 0.4 lands at 0.2
    plan = _single_branch_plan()
    target = plan_to_vector(plan).copy()
    target[-1] = 0.0
    ev = _quadratic_evaluator(target)
    value = ev.objective(plan)
    grad = ev.gradient(value)
    cfg = DescentConfig()
    layout = Layout.of(plan)
    trial, cand_value, tau, trials = backtracking_step(
        layout.base, layout, value.total, grad, 0.4, lambda v: ev.objective(layout.table(v)), cfg)
    assert trials == 0
    assert tau == 0.4
    assert vector_to_plan(trial, layout).branches[0].m[0] == pytest.approx(0.2, abs=1e-15)
    assert cand_value.total == pytest.approx(0.04, abs=1e-15)


def test_backtracking_shrinks_overshooting_step():
    # objective (x1 - 1/2)^2 from x1 = 1 with tau0 = 8: steps land at
    # -7, -3, -1, 0, 1/2; only the last strictly decreases
    plan = _single_branch_plan()
    target = plan_to_vector(plan).copy()
    target[1] = 0.5
    ev = _quadratic_evaluator(target)
    value = ev.objective(plan)
    grad = ev.gradient(value)
    layout = Layout.of(plan)
    trial, cand_value, tau, trials = backtracking_step(
        layout.base, layout, value.total, grad, 8.0, lambda v: ev.objective(layout.table(v)),
        DescentConfig())
    assert trials == 4
    assert tau == pytest.approx(0.5)
    assert vector_to_plan(trial, layout).branches[0].x[1] == pytest.approx(0.5, abs=1e-15)
    assert cand_value.total == pytest.approx(0.0, abs=1e-15)


def test_backtracking_reports_exhaustion_on_ascent_direction():
    plan = _single_branch_plan()
    target = plan_to_vector(plan).copy()
    target[-1] = 0.0
    ev = _quadratic_evaluator(target)
    value = ev.objective(plan)
    ascent = -ev.gradient(value)
    cfg = DescentConfig(backtrack_limit=5)
    layout = Layout.of(plan)
    trial, cand_value, tau, trials = backtracking_step(
        layout.base, layout, value.total, ascent, 0.4, lambda v: ev.objective(layout.table(v)), cfg)
    assert trial is None
    assert cand_value is None
    assert tau == 0.0
    assert trials == 5


def test_run_descent_zero_iteration_cap_returns_initial_plan():
    plan = _single_branch_plan()
    ev = _quadratic_evaluator(plan_to_vector(plan) * 0.0)
    cfg = DescentConfig(j_max=0)
    out, value, rows, reason, _ = run_descent(plan, ev, cfg, eps=0.1, tau0=0.25)
    assert rows == []
    assert reason == "iteration_cap"
    np.testing.assert_array_equal(plan_to_vector(out), plan_to_vector(plan))


def test_run_descent_converges_on_offset_quadratic():
    plan = _single_branch_plan()
    target = plan_to_vector(plan).copy()
    target[1] = 0.5
    target[3] = 0.8
    target[4] = 0.4
    ev = _quadratic_evaluator(target, offset=1.0)
    cfg = DescentConfig(j_max=500, stop_tol=1e-7, stop_patience=3, rediscretize_every=0)
    out, value, rows, reason, _ = run_descent(plan, ev, cfg, eps=0.1, tau0=0.25)
    assert reason == "converged"
    assert value.total == pytest.approx(1.0, abs=1e-8)
    np.testing.assert_allclose(plan_to_vector(out)[[1, 3, 4]], [0.5, 0.8, 0.4], atol=1e-4)
    totals = [r.total for r in rows]
    assert np.all(np.diff(totals) < 0.0)


def test_run_descent_iterates_stay_feasible():
    plan = build_fan_branches(4, segments=3, m_init=0.05)
    ev = branch_evaluator(ObjectiveConfig(alpha=0.5, eps=0.5, c1=0.5, c2=1.5), eps=0.5)
    seen = []

    def watch(row, current):
        for b in current.branches:
            assert b.x[0] == 0.0 and b.y[0] == 0.0
            assert np.all(b.y >= 0.0)
            assert np.all(b.m >= 0.0)
        seen.append(row.iteration)

    cfg = DescentConfig(j_max=25, rediscretize_every=5)
    _, _, rows, _, _ = run_descent(plan, ev, cfg, eps=0.5, tau0=0.05, on_iteration=watch)
    assert seen == [r.iteration for r in rows]
    assert len(rows) > 0


def test_resolve_tau0_defaults_to_diameter_fraction():
    plan = build_star_plan(half_circle_targets(3), segments_per_path=2)
    assert resolve_tau0(plan, DescentConfig(tau0=0.7)) == 0.7
    expected = 0.1 * plan.diameter()
    assert resolve_tau0(plan, DescentConfig(tau0=None)) == pytest.approx(expected)


def _resampled(plan):
    """The plan at the re-discretized flat vector of ``plan``."""
    layout = Layout.of(plan)
    return vector_to_plan(rediscretize_plan(plan_to_vector(plan), layout), layout)


def _owner_arrays(vector, layout) -> list:
    """Each owner's x, y and densities in the plan at ``vector``, read
    through ``vector_to_plan``; a path's densities are empty."""
    return [(o.vertices[:, 0], o.vertices[:, 1], o.densities)
            for o in vector_to_plan(vector, layout).owners]


def _leaf_mass(plan) -> float:
    """Total leaf mass of a branch plan: density times segment length, summed."""
    table = segment_table(plan)
    return float((table.density * table.length).sum())


def test_rediscretize_path_plan_equalizes_arcs():
    p = Path(vertices=np.array([[0.0, 0.0], [0.2, 0.0], [1.0, 0.0], [1.0, 1.0]]), mass=1.0)
    out = _resampled(PathPlan(paths=(p,)))
    q = out.paths[0]
    np.testing.assert_allclose(q.vertices[0], [0.0, 0.0])
    np.testing.assert_allclose(q.vertices[-1], [1.0, 1.0])
    assert q.segments == p.segments
    # equal-arc positions on the original polyline: 0, 2/3, 4/3, 2
    np.testing.assert_allclose(q.vertices[1], [2.0 / 3.0, 0.0], atol=1e-12)


def test_rediscretize_is_fixed_point_on_equal_arcs():
    p = Path(vertices=np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]), mass=1.0)
    out = _resampled(PathPlan(paths=(p,)))
    np.testing.assert_allclose(out.paths[0].vertices, p.vertices, atol=1e-12)


def test_rediscretize_branch_conserves_leaf_mass():
    rng = np.random.default_rng(6)
    for _ in range(25):
        k = int(rng.integers(2, 6))
        x = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 0.5, k))])
        y = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 0.5, k))])
        m = rng.uniform(0.0, 2.0, k)
        plan = BranchPlan(branches=(Branch(x=x, y=y, m=m),))
        out = _resampled(plan)
        assert _leaf_mass(out) == pytest.approx(_leaf_mass(plan), abs=1e-9)
        b = out.branches[0]
        assert b.x[-1] == pytest.approx(x[-1], abs=1e-12)
        assert b.y[-1] == pytest.approx(y[-1], abs=1e-12)


def _reference_branch_remap(branch):
    """The remap as a double loop over new and old intervals, for comparison."""
    vertices = branch.vertices
    arcs = cumulative_arclength(vertices)
    if float(arcs[-1]) == 0.0:
        return branch
    count = len(branch.m)
    new_vertices, new_arcs = resample_polyline(vertices, count + 1)
    new_lengths = segment_lengths(new_vertices)
    new_m = np.zeros(count)
    for p in range(count):
        lo, hi = new_arcs[p], new_arcs[p + 1]
        acc = 0.0
        for q in range(count):
            overlap = min(hi, arcs[q + 1]) - max(lo, arcs[q])
            if overlap > 0.0:
                acc += branch.m[q] * overlap
        new_m[p] = acc / new_lengths[p] if new_lengths[p] > 0.0 else 0.0
    old_mass = float((branch.m * segment_lengths(vertices)).sum())
    new_mass = float((new_m * new_lengths).sum())
    if abs(new_mass - old_mass) > 1e-9 * max(1.0, old_mass):
        return branch
    return Branch(x=new_vertices[:, 0], y=new_vertices[:, 1], m=new_m)


def test_rediscretize_branch_matches_the_interval_loop_bit_for_bit():
    # Up to 30 intervals: below 8 terms numpy's pairwise sum is sequential,
    # so only longer branches tell an ordered sum from a pairwise one.
    rng = np.random.default_rng(11)
    plans = [random_branch_plan(rng, max_segments=30) for _ in range(150)]
    collapsed = Branch(x=[0.0, 0.3, 0.3, 0.8, 1.1], y=[0.0, 0.4, 0.4, 0.5, 0.9],
                       m=[0.5, 0.7, 0.2, 0.9])
    zero_length = Branch(x=np.zeros(4), y=np.zeros(4), m=[0.3, 0.6, 0.1])
    plans.append(BranchPlan(branches=(collapsed, zero_length)))
    for plan in plans:
        out = _resampled(plan)
        for old, new in zip(plan.branches, out.branches):
            expected = _reference_branch_remap(old)
            np.testing.assert_array_equal(new.x, expected.x)
            np.testing.assert_array_equal(new.y, expected.y)
            np.testing.assert_array_equal(new.m, expected.m)
        assert abs(_leaf_mass(out) - _leaf_mass(plan)) <= 1e-12
    layout = Layout.of(plans[-1])
    x = plan_to_vector(plans[-1])
    kept = _owner_arrays(rediscretize_plan(x, layout), layout)[1]
    slots = _owner_arrays(x, layout)[1]
    assert [s.tobytes() for s in kept] == [s.tobytes() for s in slots]  # the zero-length branch


def test_rediscretize_resamples_every_owner_in_the_flat_vector():
    rng = np.random.default_rng(23)
    # Enough long branches that a sum in any other order changes some bit.
    random_branches = sum((random_branch_plan(rng, max_segments=30).branches
                           for _ in range(12)), ())
    assert any(b.segments > 8 for b in random_branches)  # past numpy's sequential sum
    collapsed = Branch(x=[0.0, 0.3, 0.3, 0.8, 1.1], y=[0.0, 0.4, 0.4, 0.5, 0.9],
                       m=[0.5, 0.7, 0.2, 0.9])
    zero_length = Branch(x=np.zeros(4), y=np.zeros(4), m=[0.3, 0.6, 0.1])
    # Out 1.5 and back: the middle new interval runs from arc 1 to arc 2,
    # both at (0, 1), so the remap drops its mass and the branch is kept.
    rigged = Branch(x=np.zeros(4), y=[0.0, 1.0, 1.5, 0.0], m=[0.4, 0.5, 0.6])
    assert _reference_branch_remap(rigged) is rigged
    branches = BranchPlan(branches=random_branches + (collapsed, zero_length, rigged))
    paths = PathPlan(paths=tuple(
        Path(vertices=np.vstack([np.zeros((1, 2)), rng.uniform(-1.0, 1.0, (k, 2))]),
             mass=0.25, terminal_fixed=bool(k % 2)) for k in (1, 3, 6, 11)))
    for plan in (branches, paths):
        layout = Layout.of(plan)
        x = plan_to_vector(plan).copy()
        before = x.tobytes()
        out = rediscretize_plan(x, layout)
        assert x.tobytes() == before
        assert out[~layout.free].tobytes() == x[~layout.free].tobytes()
        for owner, slots in zip(plan.owners, _owner_arrays(out, layout)):
            if isinstance(owner, Branch):
                expected = _reference_branch_remap(owner)
                expected = (expected.x, expected.y, expected.m)
            else:
                vertices, _ = resample_polyline(owner.vertices, len(owner.vertices))
                expected = (vertices[:, 0], vertices[:, 1], np.zeros(0))
            assert [s.tobytes() for s in slots] == [np.ascontiguousarray(e).tobytes()
                                                    for e in expected]


def test_rediscretize_resamples_owners_of_one_vertex_count_as_each_alone():
    # Paths with one vertex count are resampled together. The group holds a
    # repeated vertex, knots landing on vertices, a zero-length path ending
    # at -0.0 and one of a single subnormal step, whose np.linspace step
    # underflows to zero.
    rng = np.random.default_rng(29)
    vertices = [np.vstack([np.zeros((1, 2)), rng.uniform(-1.0, 1.0, (6, 2))]) for _ in range(4)]
    vertices[1][3] = vertices[1][2]
    vertices += [np.column_stack([np.arange(7.0), np.zeros(7)]),
                 np.vstack([np.zeros((1, 2)), np.full((6, 2), -0.0)]),
                 np.vstack([np.zeros((1, 2)), np.full((6, 2), [5e-324, 0.0])])]
    plan = PathPlan(paths=tuple(Path(vertices=v, mass=0.25) for v in vertices))
    layout = Layout.of(plan)
    out = rediscretize_plan(plan_to_vector(plan), layout)
    for v, (xs, ys, _) in zip(vertices, _owner_arrays(out, layout)):
        expected, _ = resample_polyline(v, len(v))
        assert (xs.tobytes(), ys.tobytes()) == (np.ascontiguousarray(expected[:, 0]).tobytes(),
                                                np.ascontiguousarray(expected[:, 1]).tobytes())


def test_eps_continuation_stages_and_numbering():
    plan = build_star_plan(half_circle_targets(4), segments_per_path=4)
    cfg = DescentConfig(eps_schedule=(0.3, 0.15), j_max=20, rediscretize_every=4)
    final, trace = eps_continuation(
        plan, lambda e: path_evaluator(0.5, e, functional="avg"), cfg
    )
    assert len(trace.stage_plans) == 3
    assert len(trace.stage_reasons) == 2
    assert [r.iteration for r in trace.rows] == list(range(1, len(trace.rows) + 1))
    assert set(r.eps for r in trace.rows) <= {0.3, 0.15}
    # strict decrease within each stage
    for eps in (0.3, 0.15):
        totals = [r.total for r in trace.rows if r.eps == eps]
        assert np.all(np.diff(totals) < 0.0)
    assert trace.metadata["tau0"] > 0.0
    assert set(trace.metadata["final"]) == {"total", "irrigation", "penalty", "payoff"}
    header, *lines = [TRACE_HEADER] + [row.as_csv() for row in trace.rows]
    assert header == TRACE_HEADER
    assert len(lines) == len(trace.rows)


def test_eps_continuation_improves_fan_objective():
    plan = build_fan_branches(5, segments=4, m_init=0.1)
    obj = ObjectiveConfig(alpha=0.4, eps=0.5, c1=0.4, c2=1.4)
    cfg = DescentConfig(eps_schedule=(0.5, 0.1), j_max=40)
    final, trace = eps_continuation(plan, lambda e: branch_evaluator(obj, e), cfg)
    first_stage = [r.total for r in trace.rows if r.eps == 0.5]
    assert first_stage[-1] < first_stage[0]
    assert trace.rows[-1].total < trace.rows[0].total


@pytest.mark.parametrize("make", [
    lambda: (build_star_plan(half_circle_targets(4), segments_per_path=5),
             path_evaluator(0.5, 0.3)),
    lambda: (build_star_plan(half_circle_targets(4), segments_per_path=5),
             path_evaluator(0.5, 0.3, functional="max")),
    lambda: (build_fan_branches(4, segments=4, m_init=0.1),
             branch_evaluator(ObjectiveConfig(alpha=0.5, eps=0.5, c1=0.5, c2=1.5), eps=0.5)),
], ids=["avg", "max", "tree"])
def test_run_descent_hands_each_gradient_the_value_of_its_plan(monkeypatch, make):
    plan, inner = make()
    evaluated, handed, accepted, resamples = [], [], [], []

    def objective(current, kept=None):
        value = inner.objective(current, kept)
        evaluated.append((current, value))
        return value

    def gradient(value):
        handed.append(value)
        return inner.gradient(value)

    def resample(x, layout):
        # Alternately an equal copy, whose objective ties and is accepted,
        # and the starting plan, whose objective is higher and is rejected.
        out = x.copy() if len(resamples) % 2 == 0 else plan_to_vector(plan)
        resamples.append(out)
        return out

    def value_of(current):
        # A trial is evaluated on its segment table, not on the plan built
        # once it is accepted, so the plan is matched by its coordinates.
        vector = plan_to_vector(current)
        return next(value for at, value in reversed(evaluated)
                    if np.array_equal(plan_to_vector(at), vector))

    monkeypatch.setattr(optimizer_module, "rediscretize_plan", resample)
    cfg = DescentConfig(j_max=8, rediscretize_every=2)
    _, _, rows, _, _ = run_descent(plan, Evaluator(objective, gradient, inner.pairs), cfg, eps=0.3,
                                   tau0=0.02,
                                   on_iteration=lambda row, current: accepted.append(current))
    assert len(rows) == 8 and len(resamples) == 4
    assert len(handed) == 8
    # The first gradient takes the starting value, each later one the very
    # value of the plan the iteration before accepted.
    assert handed[0] is evaluated[0][1]
    assert all(value is value_of(current) for value, current in zip(handed[1:], accepted))
    # The accepted copies are the plans of iterations 2 and 6; the value of
    # the rejected start plan is never differentiated. The callback gets a
    # plan built from the iterate, so a copy is matched by its coordinates.
    assert [[k for k, at in enumerate(accepted) if np.array_equal(plan_to_vector(at), copy)]
            for copy in resamples[::2]] == [[1], [5]]
    # Every evaluation is of a table; the rejected resamples are those at
    # the starting plan's coordinates, after the stage start.
    start = plan_to_vector(plan)
    rejected = [value for at, value in evaluated[1:] if np.array_equal(plan_to_vector(at), start)]
    assert len(rejected) == 2
    assert not any(value is taken for value in rejected for taken in handed)


def _poisoned(evaluator, total=None, finite_calls=1, nan_gradient=False):
    """The evaluator with every objective after the first ``finite_calls``
    replaced by ``total``, and with NaN gradients if asked."""
    calls = []

    def objective(plan, kept=None):
        calls.append(plan)
        value = evaluator.objective(plan, kept)
        if total is None or len(calls) <= finite_calls:
            return value
        return ObjectiveValue(total=total, irrigation=total, penalty=0.0, payoff=0.0)

    def gradient(value):
        grad = evaluator.gradient(value)
        return np.full_like(grad, np.nan) if nan_gradient else grad

    return Evaluator(objective=objective, gradient=gradient)


@pytest.mark.parametrize("poison, every, accepted", [
    (dict(total=np.nan), 0, 0),
    (dict(total=-np.inf), 0, 0),
    (dict(nan_gradient=True), 0, 0),
    (dict(total=np.nan, finite_calls=2), 1, 1),  # the first resample
    (dict(total=np.nan, finite_calls=0), 0, 0),  # the starting plan
], ids=["nan-trial", "minus-inf-trial", "nan-gradient", "nan-resample", "nan-start"])
def test_run_descent_stops_on_a_nonfinite_value(poison, every, accepted):
    plan = build_star_plan(half_circle_targets(3), segments_per_path=3)
    start = plan_to_vector(plan)
    ev = _poisoned(_quadratic_evaluator(start + 1.0), **poison)
    cfg = DescentConfig(j_max=10, rediscretize_every=every)
    out, value, rows, reason, _ = run_descent(plan, ev, cfg, eps=0.1, tau0=0.4)
    assert reason == "nonfinite"
    assert len(rows) == accepted
    assert all(np.isfinite(row.total) for row in rows)
    if poison.get("finite_calls") == 0:
        assert np.isnan(value.total)
    else:
        assert np.isfinite(value.total)
        assert value == _quadratic_evaluator(start + 1.0).objective(out)
    if not accepted:
        np.testing.assert_array_equal(plan_to_vector(out), start)


def test_eps_continuation_runs_no_stage_after_a_nonfinite_one():
    plan = build_star_plan(half_circle_targets(3), segments_per_path=3)
    ev = _poisoned(_quadratic_evaluator(plan_to_vector(plan) + 1.0), nan_gradient=True)
    cfg = DescentConfig(eps_schedule=(0.3, 0.2, 0.1), j_max=10)
    _, trace = eps_continuation(plan, lambda eps: ev, cfg)
    assert trace.stage_reasons == ["nonfinite"]
    assert len(trace.stage_plans) == 2
    assert trace.rows == []
    assert np.isfinite(trace.metadata["final"]["total"])


def test_eps_continuation_keeps_the_last_finite_value_past_a_nonfinite_start():
    plan = build_star_plan(half_circle_targets(3), segments_per_path=3)
    quadratic = _quadratic_evaluator(plan_to_vector(plan) + 1.0)
    cfg = DescentConfig(eps_schedule=(0.3, 0.2, 0.1), j_max=4, rediscretize_every=0)
    # Every objective of the second stage is NaN, its starting one first.
    _, trace = eps_continuation(
        plan, lambda eps: quadratic if eps == 0.3 else _poisoned(quadratic, np.nan, 0), cfg)
    assert trace.stage_reasons == ["iteration_cap", "nonfinite"]
    assert len(trace.stage_plans) == 3
    assert len(trace.rows) == 4
    np.testing.assert_array_equal(plan_to_vector(trace.stage_plans[2]),
                                  plan_to_vector(trace.stage_plans[1]))
    assert trace.metadata["final"]["total"] == trace.rows[-1].total
    # A first stage that cannot start leaves no final value at all.
    _, trace = eps_continuation(plan, lambda eps: _poisoned(quadratic, np.nan, 0), cfg)
    assert trace.stage_reasons == ["nonfinite"]
    assert trace.rows == []
    assert trace.metadata["final"] is None


def test_run_descent_stops_on_a_nonfinite_trial_vector():
    # tau0 times the gradient overflows to inf in every free slot, so the
    # first trial vector is not finite; it is never evaluated.
    plan = build_star_plan(half_circle_targets(3), segments_per_path=3)
    start = plan_to_vector(plan)
    quadratic = _quadratic_evaluator(start + 1.0)
    evaluated = []

    def objective(current, kept=None):
        evaluated.append(current)
        return quadratic.objective(current)

    ev = Evaluator(objective=objective, gradient=lambda value: np.full_like(start, 1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # the overflow must stay silent
        out, value, rows, reason, _ = run_descent(plan, ev, DescentConfig(j_max=10), eps=0.1,
                                               tau0=10.0)
    assert reason == "nonfinite"
    assert rows == []
    assert len(evaluated) == 1  # the starting plan only
    np.testing.assert_array_equal(plan_to_vector(out), start)
    assert value == quadratic.objective(out)


def _ladder_evaluator(plan, thresholds):
    """Stub whose k-th line search accepts a step tau iff tau <= thresholds[k].

    Every search moves along the same direction, so each trial's step is
    read back from its vector. An accepted trial lowers the total by one;
    a rejected one ties it, which the strict-decrease rule must refuse.
    Resamples alternately tie the accepted trial (kept) and exceed it
    (dropped); an evaluation after a search's accepted trial and before the
    next gradient is a resample. Returns the evaluator and the steps of
    every search.
    """
    direction = Layout.of(plan).free.astype(float)
    searches, resamples, state = [], [], {}

    def objective(current, kept=None):
        vector = plan_to_vector(current)
        if state.get("accepted"):  # a resample
            total = state["last"] + len(resamples) % 2
            resamples.append(total)
        elif searches:
            tau = float((state["origin"] - vector) @ direction / (direction @ direction))
            searches[-1].append(tau)
            state["accepted"] = tau <= thresholds[len(searches) - 1]
            total = state["total"] - float(state["accepted"])
            state["last"] = total
        else:  # the stage start
            total = 0.0
        return ObjectiveValue(total=total, irrigation=total, penalty=0.0, payoff=0.0,
                              _evaluation=_Evaluation("ladder", (), (vector,)))

    def gradient(value):
        state["origin"], state["total"] = value._evaluation.data[0], value.total
        state["accepted"] = False
        searches.append([])
        return direction

    return Evaluator(objective=objective, gradient=gradient), searches, resamples


def test_each_line_search_starts_one_rung_above_the_last_accepted_step():
    plan = build_star_plan(half_circle_targets(3), segments_per_path=3)
    thresholds = [0.1, 0.3, 0.01, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 0.05, 0.0]
    ev, searches, resamples = _ladder_evaluator(plan, thresholds)
    cfg = DescentConfig(j_max=20, backtrack_limit=12, rediscretize_every=2)
    _, _, rows, reason, counts = run_descent(plan, ev, cfg, eps=0.1, tau0=1.0)
    factor = cfg.backtrack_factor
    assert reason == "line_search_exhausted"
    assert len(searches) == len(thresholds) and len(rows) == len(thresholds) - 1
    accepted = [steps[-1] for steps in searches[:-1]]
    # The first search starts at tau0, each later one a rung above the step
    # accepted before it (whether its resample was kept or not), capped at tau0.
    starts = [steps[0] for steps in searches]
    assert starts == pytest.approx([1.0] + [min(1.0, tau / factor) for tau in accepted],
                                   rel=1e-12)
    assert starts[1:4] == pytest.approx([0.125, 0.25, 0.015625], rel=1e-12)
    assert starts[10] == 1.0  # the cap: a rung above tau0 is not tried
    for steps, limit in zip(searches, thresholds):
        assert steps[1:] == pytest.approx([tau * factor for tau in steps[:-1]], rel=1e-12)
        assert all(tau > limit for tau in steps[:-1])  # ties were rejected
    for steps, limit, row in zip(searches, thresholds, rows):
        assert steps[-1] <= limit
        assert row.tau == pytest.approx(steps[-1], rel=1e-12)
        assert row.backtracks == len(steps) - 1
    assert np.all(np.diff([row.total for row in rows]) < 0.0)
    # The exhausted search spends exactly backtrack_limit trials from its start.
    assert len(searches[-1]) == cfg.backtrack_limit
    assert resamples == [-2.0, -3.0, -6.0, -7.0, -10.0]
    trials = sum(len(steps) for steps in searches)
    assert counts == StageCounts(objective_evals=1 + trials + len(resamples),
                                 rejected_trials=trials - len(rows))


def test_every_stage_starts_its_line_search_at_tau0():
    plan = build_star_plan(half_circle_targets(3), segments_per_path=3)
    stages = {eps: _ladder_evaluator(plan, [0.1, 0.3, 0.0]) for eps in (0.3, 0.1)}
    cfg = DescentConfig(eps_schedule=(0.3, 0.1), tau0=1.0, backtrack_limit=5,
                        rediscretize_every=0)
    _, trace = eps_continuation(plan, lambda eps: stages[eps][0], cfg)
    assert trace.stage_reasons == ["line_search_exhausted"] * 2
    for eps in (0.3, 0.1):
        searches = stages[eps][1]
        assert [steps[0] for steps in searches] == pytest.approx([1.0, 0.125, 0.25],
                                                                 rel=1e-12)
        assert [len(steps) for steps in searches] == [5, 1, 5]
    assert trace.stage_counts == [StageCounts(objective_evals=12, rejected_trials=9)] * 2


def _counted(monkeypatch, name):
    """Wrap ``optimizer.<name>`` and return the list each call appends to."""
    real, calls = getattr(optimizer_module, name), []

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(optimizer_module, name, wrapper)
    return calls


@pytest.mark.parametrize("watch", [False, True], ids=["no-callback", "callback"])
def test_run_descent_builds_a_plan_only_where_one_is_read(monkeypatch, watch):
    plan = build_fan_branches(4, segments=4, m_init=0.1)
    ev = branch_evaluator(ObjectiveConfig(alpha=0.5, eps=0.5, c1=0.5, c2=1.5), eps=0.5)
    builds = _counted(monkeypatch, "vector_to_plan")
    resamples = _counted(monkeypatch, "rediscretize_plan")
    seen = []
    cfg = DescentConfig(j_max=12, rediscretize_every=3)
    out, _, rows, _, _ = run_descent(
        plan, ev, cfg, eps=0.5, tau0=0.02,
        on_iteration=(lambda row, current: seen.append(current)) if watch else None)
    assert len(rows) == 12 and len(resamples) == 4
    # One plan for the return; a resample builds none, and a callback adds
    # one per row.
    assert len(builds) == 1 + len(seen)
    assert len(seen) == (len(rows) if watch else 0)
    np.testing.assert_array_equal(plan_to_vector(out), builds[-1][0])


@pytest.mark.parametrize("form", ["avg", "max", "tree"])
def test_descent_with_a_kept_pair_list_is_bit_identical(monkeypatch, form):
    # Each stage evaluator keeps one pair list; an evaluator that calls the
    # same objective with no kept list must give the same bits throughout.
    if form == "tree":
        plan, eps = build_fan_branches(5, segments=6, m_init=0.1), 0.2
        obj_cfg = ObjectiveConfig(alpha=0.5, c1=0.2, c2=1.0).with_eps(eps)
        kept = branch_evaluator(obj_cfg, eps)
        fresh = Evaluator(lambda table, kept=None: tree_objective(table, obj_cfg),
                          tree_objective_gradient)
    else:
        plan, eps = build_star_plan(half_circle_targets(6), segments_per_path=8), 0.1
        energy, gradient = {"avg": (energy_avg, energy_avg_gradient),
                            "max": (energy_max, energy_max_gradient)}[form]
        kept = path_evaluator(0.5, eps, functional=form)
        fresh = Evaluator(lambda table, kept=None: energy(table, 0.5, eps), gradient)
    builds = []
    blocks = _KeptPairs.blocks

    def counted(self, table):
        before = self.built
        out = blocks(self, table)
        builds.append(self.built is not before)
        return out

    monkeypatch.setattr(_KeptPairs, "blocks", counted)
    cfg = DescentConfig(j_max=25, rediscretize_every=5)
    runs = [run_descent(plan, evaluator, cfg, eps, tau0=0.5) for evaluator in (kept, fresh)]
    (ends, values, rows, reasons, counts) = zip(*runs)
    # The tau0 is large enough that the skin is passed on some evaluations.
    # A resample is evaluated on a fresh list, not the kept one.
    resamples = len(rows[0]) // cfg.rediscretize_every
    assert len(builds) == counts[0].objective_evals - resamples and 2 < sum(builds) < len(builds)
    assert len(rows[1]) > 5 and reasons[0] == reasons[1] and counts[0] == counts[1]
    assert [np.array([tuple(row) for row in side]).tobytes() for side in rows] == \
        [np.array([tuple(row) for row in rows[1]]).tobytes()] * 2
    assert plan_to_vector(ends[0]).tobytes() == plan_to_vector(ends[1]).tobytes()
    assert np.float64(values[0].total).tobytes() == np.float64(values[1].total).tobytes()


@pytest.mark.parametrize("form", ["avg", "tree"])
def test_a_rejected_resample_leaves_the_kept_pair_list_as_it_was(monkeypatch, form):
    # Every resample returns the stage's starting vector, whose objective is
    # above the iterate's, so each is rejected and the stage follows the path
    # it follows with no resampling. Neither may it rebuild its list more.
    if form == "tree":
        plan, eps = build_fan_branches(5, segments=6, m_init=0.1), 0.2
        ev = branch_evaluator(ObjectiveConfig(alpha=0.5, c1=0.2, c2=1.0), eps)
    else:
        plan, eps = build_star_plan(half_circle_targets(6), segments_per_path=8), 0.1
        ev = path_evaluator(0.5, eps)
    builds, resamples = [], []
    blocks = _KeptPairs.blocks

    def counted(self, table):
        before = self.built
        out = blocks(self, table)
        builds[-1] += self.built is not before
        return out

    def restart(x, layout):
        resamples.append(x)
        return layout.base.copy()

    monkeypatch.setattr(_KeptPairs, "blocks", counted)
    monkeypatch.setattr(optimizer_module, "rediscretize_plan", restart)
    rows = []
    for every in (2, 0):
        builds.append(0)
        cfg = DescentConfig(j_max=20, rediscretize_every=every)
        rows.append(run_descent(plan, ev, cfg, eps, tau0=0.5)[2])
    assert len(resamples) == len(rows[0]) // 2 > 2
    assert rows[0] == rows[1]  # every resample was rejected
    assert 2 < builds[0] <= builds[1]

"""Tests for plan data structures, constructors, segment tables and plan files."""

import json

import numpy as np
import pytest

from ramify.objective import ObjectiveConfig, tree_objective
from ramify.plan_model import (
    Branch,
    BranchPlan,
    Layout,
    Path,
    PathPlan,
    TargetMeasure,
    build_fan_branches,
    build_star_plan,
    crossing_cluster_count,
    half_circle_targets,
    load_plan,
    plan_from_dict,
    plan_to_dict,
    random_branch_plan,
    saturated_pair_plans,
    save_plan,
    segment_table,
)


def test_target_measure_validation():
    with pytest.raises(ValueError):
        TargetMeasure(positions=np.zeros((0, 2)), masses=np.zeros(0))
    with pytest.raises(ValueError):
        TargetMeasure(positions=np.ones((2, 2)), masses=np.ones(3))
    with pytest.raises(ValueError):
        TargetMeasure(positions=np.array([[1.0, 0.0]]), masses=np.array([0.0]))
    with pytest.raises(ValueError, match="share a position"):
        TargetMeasure(positions=np.array([[1.0, 0.0], [1.0, 0.0]]), masses=np.array([1.0, 1.0]))


def test_path_must_start_at_origin():
    with pytest.raises(ValueError, match="origin"):
        Path(vertices=np.array([[0.1, 0.0], [1.0, 0.0]]), mass=1.0)
    with pytest.raises(ValueError):
        Path(vertices=np.array([[0.0, 0.0], [1.0, 0.0]]), mass=-1.0)
    with pytest.raises(ValueError):
        Path(vertices=np.array([[0.0, 0.0]]), mass=1.0)


def test_branch_validation():
    with pytest.raises(ValueError, match="len"):
        Branch(x=np.array([0.0, 1.0]), y=np.array([0.0, 1.0]), m=np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="origin"):
        Branch(x=np.array([0.5, 1.0]), y=np.array([0.0, 1.0]), m=np.array([1.0]))
    with pytest.raises(ValueError, match="nonnegative"):
        Branch(x=np.array([0.0, 1.0]), y=np.array([0.0, -0.1]), m=np.array([1.0]))
    with pytest.raises(ValueError, match="nonnegative"):
        Branch(x=np.array([0.0, 1.0]), y=np.array([0.0, 1.0]), m=np.array([-1.0]))


def test_path_plan_aggregates():
    p1 = Path(vertices=np.array([[0.0, 0.0], [1.0, 0.0]]), mass=0.25)
    p2 = Path(vertices=np.array([[0.0, 0.0], [0.0, 2.0]]), mass=0.75)
    plan = PathPlan(paths=(p1, p2))
    assert plan.total_mass == pytest.approx(1.0)
    assert plan.all_vertices().shape == (4, 2)
    assert plan.diameter() == pytest.approx(np.hypot(1.0, 2.0))


def test_branch_plan_total_leaf_mass():
    b = Branch(x=np.array([0.0, 1.0, 1.0]), y=np.array([0.0, 0.0, 2.0]), m=np.array([0.5, 0.25]))
    plan = BranchPlan(branches=(b,))
    # densities times segment lengths: 0.5 * 1 + 0.25 * 2
    assert tree_objective(plan, ObjectiveConfig()).payoff == pytest.approx(1.0)


def test_segment_table_path_fluxes():
    p1 = Path(vertices=np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]]), mass=0.3)
    p2 = Path(vertices=np.array([[0.0, 0.0], [0.0, 1.0]]), mass=0.7)
    table = segment_table(PathPlan(paths=(p1, p2)))
    assert table.size == 3
    np.testing.assert_array_equal(table.owner, [0, 0, 1])
    np.testing.assert_array_equal(table.interval, [0, 1, 0])
    np.testing.assert_allclose(table.flux, [0.3, 0.3, 0.7])
    np.testing.assert_allclose(table.length, [0.5, 0.5, 1.0])
    np.testing.assert_array_equal(table.group_starts, [0, 2])
    np.testing.assert_allclose(table.midpoint[0], [0.25, 0.0])


def test_segment_table_branch_fluxes_decrease_outward():
    # uniform density 1 on two unit intervals: flux seen by the first
    # midpoint is 0.5 + 1 = 1.5, by the second 0.5
    b = Branch(x=np.array([0.0, 1.0, 2.0]), y=np.array([0.0, 0.0, 0.0]), m=np.array([1.0, 1.0]))
    table = segment_table(BranchPlan(branches=(b,)))
    np.testing.assert_allclose(table.flux, [1.5, 0.5])
    assert np.all(np.diff(table.flux) < 0.0)


def test_half_circle_targets_geometry():
    t = half_circle_targets(5, radius=2.0, total_mass=1.5)
    assert len(t.positions) == 5
    np.testing.assert_allclose(np.hypot(t.positions[:, 0], t.positions[:, 1]), 2.0)
    assert t.total_mass == pytest.approx(1.5)
    assert np.all(t.positions[:, 1] >= -1e-12)


def test_build_star_plan_reaches_atoms():
    targets = half_circle_targets(7)
    plan = build_star_plan(targets, segments_per_path=4)
    assert len(plan.paths) == 7
    for path, pos, mass in zip(plan.paths, targets.positions, targets.masses):
        assert path.segments == 4
        np.testing.assert_allclose(path.vertices[-1], pos, atol=1e-12)
        assert path.mass == pytest.approx(mass)
        assert path.terminal_fixed


def test_build_fan_branches_single_is_vertical():
    plan = build_fan_branches(1, segments=3, m_init=0.2)
    b = plan.branches[0]
    np.testing.assert_allclose(b.x, 0.0, atol=1e-12)
    assert b.y[-1] == pytest.approx(1.0)
    np.testing.assert_allclose(b.m, 0.2)


def test_build_fan_branches_spread():
    plan = build_fan_branches(11, spread_angle=np.pi / 2, length0=1.0, segments=10)
    assert len(plan.branches) == 11
    tips = np.array([[b.x[-1], b.y[-1]] for b in plan.branches])
    np.testing.assert_allclose(np.hypot(tips[:, 0], tips[:, 1]), 1.0, atol=1e-12)
    angles = np.arctan2(tips[:, 1], tips[:, 0])
    np.testing.assert_allclose(angles.max() - angles.min(), np.pi / 2, atol=1e-12)


def test_crossing_cluster_count_star_vs_merged():
    targets = half_circle_targets(9)
    star = build_star_plan(targets, segments_per_path=8)
    assert crossing_cluster_count(star, radius=0.2, tol=0.01) == 9
    # two bundles sharing trunks cross the circle at two points only
    trunk_l = np.array([[0.0, 0.0], [-0.3, 0.3]])
    trunk_r = np.array([[0.0, 0.0], [0.3, 0.3]])
    paths = []
    for k in range(3):
        paths.append(Path(vertices=np.vstack([trunk_l, [[-1.0, 0.5 + 0.2 * k]]]), mass=0.1))
        paths.append(Path(vertices=np.vstack([trunk_r, [[1.0, 0.5 + 0.2 * k]]]), mass=0.1))
    assert crossing_cluster_count(PathPlan(paths=tuple(paths)), radius=0.2, tol=0.05) == 2


def test_crossing_cluster_count_skips_short_paths():
    short = Path(vertices=np.array([[0.0, 0.0], [0.05, 0.0]]), mass=1.0)
    assert crossing_cluster_count(PathPlan(paths=(short,)), radius=0.2) == 0


def test_plan_json_round_trip_paths(tmp_path):
    targets = half_circle_targets(4)
    plan = build_star_plan(targets, segments_per_path=3)
    f = tmp_path / "plan.json"
    save_plan(plan, str(f))
    data = json.loads(f.read_text())
    again = load_plan(str(f))
    assert isinstance(again, PathPlan)
    assert "paths" in data
    for p, q in zip(plan.paths, again.paths):
        np.testing.assert_array_equal(p.vertices, q.vertices)
        assert p.mass == q.mass
        assert p.terminal_fixed == q.terminal_fixed


def test_plan_json_round_trip_branches(tmp_path):
    plan = build_fan_branches(3, segments=4, m_init=0.3)
    f = tmp_path / "plan.json"
    save_plan(plan, str(f))
    again = load_plan(str(f))
    assert isinstance(again, BranchPlan)
    for b, c in zip(plan.branches, again.branches):
        np.testing.assert_array_equal(b.x, c.x)
        np.testing.assert_array_equal(b.y, c.y)
        np.testing.assert_array_equal(b.m, c.m)


def test_plan_from_dict_rejects_unknown_kind():
    with pytest.raises(ValueError):
        plan_from_dict({"kind": "mesh"})


def test_plan_to_dict_is_json_serializable():
    plan = build_star_plan(half_circle_targets(3), segments_per_path=2)
    text = json.dumps(plan_to_dict(plan))
    assert "paths" in text


def test_plan_kind_consumers_reject_a_non_plan():
    from ramify.gradients import plan_to_vector
    from ramify.svg import render_svg

    not_a_plan = (np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    for consumer in (segment_table, plan_to_dict, Layout.of, plan_to_vector, render_svg):
        with pytest.raises(TypeError, match="expected a PathPlan or BranchPlan"):
            consumer(not_a_plan)


def test_saturated_pair_plans_lengths_and_eps():
    l1, l2, delta, width = 4.0, 0.1, 0.1, 0.1
    short, long_detour, eps = saturated_pair_plans(l1=l1, l2=l2, delta=delta, width=width)
    scale = width / l2

    def path_len(p):
        seg = np.diff(p.vertices, axis=0)
        return np.hypot(seg[:, 0], seg[:, 1]).sum()

    for plan, short_len in ((short, scale * l2), (long_detour, scale * (l2 + delta))):
        lens = sorted(path_len(p) for p in plan.paths)
        assert lens[0] == pytest.approx(short_len, abs=1e-12)
        assert lens[1] == pytest.approx(scale * l1, abs=1e-9)
        # both paths end at the same terminal
        t0 = plan.paths[0].vertices[-1]
        t1 = plan.paths[1].vertices[-1]
        np.testing.assert_allclose(t0, t1, atol=1e-12)
    diam = max(short.diameter(), long_detour.diameter())
    assert eps == pytest.approx(10.0 * diam)


def test_random_branch_plan_is_valid_and_reproducible():
    for seed in range(20):
        plan1 = random_branch_plan(np.random.default_rng(seed))
        plan2 = random_branch_plan(np.random.default_rng(seed))
        assert 1 <= len(plan1.branches) <= 4
        for b1, b2 in zip(plan1.branches, plan2.branches):
            np.testing.assert_array_equal(b1.x, b2.x)
            np.testing.assert_array_equal(b1.y, b2.y)
            np.testing.assert_array_equal(b1.m, b2.m)
            assert 1 <= b1.segments <= 6
            assert np.all(b1.m >= 0.0)
            assert np.all(b1.y >= 0.0)


def _reference_layout(plan):
    """The flat layout as a loop over owners, for comparison."""
    from ramify.plan_model import _owners

    blocks, offsets, counts, clamp, m_slots, pinned = [], [], [], [], [], []
    offset = 0
    for owner in _owners(plan):
        count, densities = len(owner.vertices), len(owner.densities)
        x0, y0, m0 = offset, offset + count, offset + 2 * count
        blocks.extend([owner.vertices[:, 0], owner.vertices[:, 1], owner.densities])
        pinned.extend([x0, y0] + ([y0 - 1, m0 - 1] if owner.terminal_fixed else []))
        if densities:
            clamp.append(np.arange(y0, m0 + densities))
            m_slots.append(np.arange(m0, m0 + densities))
        offsets.append(offset)
        counts.append(count)
        offset = m0 + densities
    offsets.append(offset)
    free = np.ones(offset, dtype=bool)
    free[pinned] = False
    empty = np.zeros(0, dtype=int)
    return {"offsets": offsets, "counts": counts, "free": free,
            "base": np.concatenate(blocks) if blocks else np.zeros(0),
            "clamp": np.concatenate(clamp) if clamp else empty,
            "m_slots": np.concatenate(m_slots) if m_slots else empty}


def _random_path_plan(rng):
    paths = []
    for _ in range(int(rng.integers(1, 6))):
        segments = int(rng.integers(1, 7))  # one-segment paths included
        vertices = np.vstack([np.zeros((1, 2)), rng.uniform(-1.0, 1.0, (segments, 2))])
        paths.append(Path(vertices=vertices, mass=float(rng.uniform(0.1, 1.0)),
                          terminal_fixed=bool(rng.integers(2))))
    return PathPlan(paths=tuple(paths))


def test_layout_matches_the_owner_loop():
    from ramify.gradients import plan_to_vector

    rng = np.random.default_rng(31)
    plans = [_random_path_plan(rng) for _ in range(100)]
    plans += [random_branch_plan(rng, max_branches=6, max_segments=12) for _ in range(100)]
    plans.append(PathPlan(paths=()))
    for plan in plans:
        layout, expected = Layout.of(plan), _reference_layout(plan)
        for name, value in expected.items():
            assert np.array_equal(getattr(layout, name), value), name
        assert np.array_equal(plan_to_vector(plan), expected["base"])
    assert any(not p.terminal_fixed for plan in plans[:100] for p in plan.paths)


def _tables_equal(one, two) -> bool:
    """Field-by-field bit equality of two segment tables, their layouts aside."""
    from dataclasses import fields

    return all(getattr(one, f.name).dtype == getattr(two, f.name).dtype
               and getattr(one, f.name).shape == getattr(two, f.name).shape
               and getattr(one, f.name).tobytes() == getattr(two, f.name).tobytes()
               for f in fields(one) if f.name != "layout")


def test_a_layout_builds_each_table_and_each_table_knows_its_layout():
    from ramify.gradients import plan_to_vector

    rng = np.random.default_rng(53)
    plans = [_random_path_plan(rng) for _ in range(8)]
    plans += [random_branch_plan(rng, max_branches=5, max_segments=9) for _ in range(8)]
    plans += [build_fan_branches(15, segments=10),
              build_star_plan(half_circle_targets(13), segments_per_path=16)]
    for plan in plans:
        layout = Layout.of(plan)
        x = layout.base + rng.normal(0.0, 0.05, layout.base.shape)
        assert layout.table(x).layout is layout
        assert plan_to_vector(layout.table(x)).tobytes() == x.tobytes()
        assert _tables_equal(segment_table(plan), Layout.of(plan).table(Layout.of(plan).base))
    assert {type(plan) for plan in plans} == {PathPlan, BranchPlan}


def _reference_flux(plan) -> np.ndarray:
    """Segment fluxes as a loop over owners: each path's mass, or each
    branch's own reverse cumulative sum of density times length."""
    from oracles import segment_lengths

    if isinstance(plan, PathPlan):
        return np.concatenate([np.full(p.segments, p.mass) for p in plan.paths])
    fluxes = []
    for branch in plan.branches:
        m_l = branch.m * segment_lengths(branch.vertices)
        fluxes.append(0.5 * m_l + np.concatenate([np.cumsum(m_l[::-1])[::-1][1:], [0.0]]))
    return np.concatenate(fluxes)


def _scalars(value) -> tuple:
    """An energy's value and term bytes, or an objective value's four parts."""
    if value.terms is not None:
        return value.total, value.terms.tobytes()
    return value.total, value.irrigation, value.penalty, value.payoff


def test_layout_table_matches_the_table_of_its_plan():
    from ramify.gradients import plan_to_vector, vector_to_plan
    from ramify.mollified import energy_avg, energy_avg_gradient, energy_max, energy_max_gradient
    from ramify.objective import tree_objective_gradient
    from ramify.optimizer import feasibility_project, rediscretize_plan

    def resampled(plan):
        layout = Layout.of(plan)
        return vector_to_plan(rediscretize_plan(plan_to_vector(plan), layout), layout)

    rng = np.random.default_rng(47)
    plans = [_random_path_plan(rng) for _ in range(12)]
    plans += [random_branch_plan(rng, max_branches=5, max_segments=9) for _ in range(12)]
    plans += [resampled(plan) for plan in plans]
    plans += [build_fan_branches(15, segments=10),
              build_star_plan(half_circle_targets(13), segments_per_path=16)]
    assert any(len(set(segment_table(p).segments)) > 1 for p in plans if isinstance(p, BranchPlan))
    cfg = ObjectiveConfig(alpha=0.5, eps=0.3, c1=0.5, c2=1.0)
    for plan in plans:
        layout = Layout.of(plan)
        moved = layout.base + rng.normal(0.0, 0.05, layout.base.shape)
        x = feasibility_project(moved, layout)
        table, plan_at_x = layout.table(x), vector_to_plan(x, layout)
        assert _tables_equal(table, segment_table(plan_at_x))
        assert segment_table(table) is table
        assert _reference_flux(plan_at_x).tobytes() == table.flux.tobytes()
        if isinstance(plan, PathPlan):
            pairs = ((lambda p: energy_avg(p, 0.5, 0.3), energy_avg_gradient),
                     (lambda p: energy_max(p, 0.5, 0.3), energy_max_gradient))
            wrong, message = (lambda t: tree_objective(t, cfg)), "branch plans"
        else:
            pairs = ((lambda p: tree_objective(p, cfg), tree_objective_gradient),)
            wrong, message = (lambda t: energy_avg(t, 0.5, 0.3)), "path plans"
        for objective, gradient in pairs:
            on_plan, on_table = objective(plan_at_x), objective(table)
            assert _scalars(on_plan) == _scalars(on_table)
            assert gradient(on_plan).tobytes() == gradient(on_table).tobytes()
        with pytest.raises(TypeError, match=message):
            wrong(table)
        with pytest.raises(TypeError, match=message):
            wrong(plan_at_x)


def _first_crossing_by_loop(vertices, radius):
    """The first crossing of a path with the circle, one segment at a time."""
    r2 = radius * radius
    for a, b in zip(vertices[:-1], vertices[1:]):
        if (a * a).sum() >= r2:
            return None
        if (b * b).sum() < r2:
            continue
        d = b - a
        qa = (d * d).sum()
        if qa == 0.0:
            return None
        qb = 2.0 * (a * d).sum()
        disc = qb * qb - 4.0 * qa * ((a * a).sum() - r2)
        return a + min(max((-qb + np.sqrt(max(disc, 0.0))) / (2.0 * qa), 0.0), 1.0) * d
    return None


def _clusters_by_loop(plan, radius, tol):
    seeds = []
    for path in plan.paths:
        crossing = _first_crossing_by_loop(path.vertices, radius)
        if crossing is not None and all(np.hypot(*(crossing - s)) > tol for s in seeds):
            seeds.append(crossing)
    return len(seeds)


def test_crossing_cluster_count_at_a_vertex_on_the_circle_and_from_outside():
    # (0.2, 0) sits exactly on the circle of radius 0.2: x*x + y*y == 0.2 * 0.2.
    on = Path(vertices=np.array([[0.0, 0.0], [0.2, 0.0], [0.5, 0.0]]), mass=1.0)
    up = Path(vertices=np.array([[0.0, 0.0], [0.0, 0.2], [0.0, 0.5]]), mass=1.0)
    plan = PathPlan(paths=(on, up))
    assert crossing_cluster_count(plan, radius=0.2, tol=0.01) == 2
    assert crossing_cluster_count(plan, radius=0.2, tol=0.3) == 1
    # Every path starts at the origin, which is already on a circle of radius 0.
    assert crossing_cluster_count(plan, radius=0.0, tol=0.01) == 0
    # A path that leaves the circle on its first segment still crosses it.
    far = Path(vertices=np.array([[0.0, 0.0], [0.0, -1.0]]), mass=1.0)
    assert crossing_cluster_count(PathPlan(paths=(far, on)), radius=0.2, tol=0.01) == 2


def test_crossing_cluster_count_matches_a_path_by_path_scan():
    rng = np.random.default_rng(7)
    for _ in range(40):
        paths = []
        for _ in range(int(rng.integers(1, 9))):
            steps = rng.normal(0.0, 0.08, (int(rng.integers(1, 7)), 2))
            steps[rng.random(len(steps)) < 0.2] = 0.0  # some zero-length segments
            paths.append(Path(vertices=np.vstack([np.zeros((1, 2)), np.cumsum(steps, axis=0)]),
                              mass=1.0))
        plan = PathPlan(paths=tuple(paths))
        for radius, tol in ((0.1, 0.02), (0.2, 0.05), (0.05, 0.5), (0.0, 0.1)):
            assert crossing_cluster_count(plan, radius, tol) == _clusters_by_loop(plan, radius, tol)


def test_the_json_writer_writes_what_json_dumps_writes(tmp_path):
    from ramify.plan_model import _write_json

    targets = half_circle_targets(3)
    payload = {
        "floats": [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e16, 1e22, 0.1],
        "pairs": [[0.0, -0.0], [1e-7, 2.5]],
        "pairs_with_nan": [[0.0, float("nan")]],
        "float_subclass": [np.float64(0.1), 1.0],
        "numpy_scalar": np.float64(1.0 / 3.0),
        "ints": [0, -1, 2 ** 70, -(10 ** 30)],
        "mixed": [True, False, None, 1, 1.5, "s", [1.0, 2], [[1.0]], (3.0, 4.0)],
        "strings": ["", "plain", "quote \" and \\ and \n\t", "café ☃ \U0001f600", "\x00"],
        "empty": {"list": [], "dict": {}, "tuple": (), "nested": [[], {}, [[]]]},
        "tuple": (1.0, 2.0),
        "B": 1, "a": 2, "é": 3, "": 4,
        "path_plan": plan_to_dict(build_star_plan(targets, segments_per_path=3)),
        "branch_plan": plan_to_dict(random_branch_plan(np.random.default_rng(3))),
        "deep": {"x": {"y": {"z": [[1.0, 2.0], [3.0, 4.0]]}}},
    }
    path = tmp_path / "payload.json"
    for value in (payload, payload["path_plan"], payload["branch_plan"], [], {}, 1.0, "x"):
        _write_json(str(path), value)
        assert path.read_text(encoding="utf-8") == \
            json.dumps(value, indent=2, sort_keys=True) + "\n"
    # Objects json cannot write, and non-str keys, which no output uses.
    for bad in ({"n": np.int64(1)}, {(1, 2): 1.0}, {"s": {1.0}}, {1: "one"}):
        with pytest.raises(TypeError):
            _write_json(str(path), bad)

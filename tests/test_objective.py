"""Tests for the branch-growth objective and its analytic gradient."""

import numpy as np
import pytest

from ramify.gradients import Layout
from ramify.objective import (
    ObjectiveConfig,
    _penalty_matrix,
    _penalty_slopes,
    crowding_penalty,
    fd_gradient,
    tree_objective,
    tree_objective_gradient,
)
from ramify.plan_model import (
    Branch,
    BranchPlan,
    Path,
    PathPlan,
    build_fan_branches,
    random_branch_plan,
    segment_table,
)


def _two_branch_plan():
    b1 = Branch(x=np.array([0.0, 0.0]), y=np.array([0.0, 1.0]), m=np.array([2.0]))
    b2 = Branch(x=np.array([0.0, 1.0]), y=np.array([0.0, 1.0]), m=np.array([3.0]))
    return BranchPlan(branches=(b1, b2))


def test_config_validation():
    with pytest.raises(ValueError):
        ObjectiveConfig(alpha=0.0)
    with pytest.raises(ValueError):
        ObjectiveConfig(alpha=1.1)
    with pytest.raises(ValueError):
        ObjectiveConfig(eps=0.0)
    with pytest.raises(ValueError):
        ObjectiveConfig(c1=-0.1)
    with pytest.raises(ValueError):
        ObjectiveConfig(penalty_kernel="cubic")
    with pytest.raises(ValueError):
        ObjectiveConfig(penalty_kernel="gaussian", beta=0.0)
    with pytest.raises(ValueError):
        ObjectiveConfig(penalty_kernel="powerlaw", gamma=2.5)
    with pytest.raises(ValueError):
        ObjectiveConfig(f_min=-1.0)
    cfg = ObjectiveConfig(alpha=0.5, eps=0.2)
    assert cfg.with_eps(0.05).eps == 0.05
    assert cfg.with_eps(0.05).alpha == 0.5


def test_path_plans_are_rejected_with_type_error():
    path = Path(vertices=np.array([[0.0, 0.0], [1.0, 0.0]]), mass=1.0)
    plan = PathPlan(paths=(path,))
    cfg = ObjectiveConfig(alpha=0.5, eps=0.3, c1=1.0)
    for entry in (lambda p: crowding_penalty(p, cfg),
                  lambda p: tree_objective(p, cfg),
                  lambda p: tree_objective_gradient(tree_objective(p, cfg))):
        with pytest.raises(TypeError, match="branch plans"):
            entry(plan)


def test_leaf_payoff_hand_sum():
    # densities 2 and 3 on intervals of length 1 and sqrt(2)
    payoff = tree_objective(_two_branch_plan(), ObjectiveConfig()).payoff
    assert payoff == pytest.approx(2.0 + 3.0 * np.sqrt(2.0), abs=1e-12)


def test_gaussian_penalty_two_intervals():
    plan = _two_branch_plan()
    cfg = ObjectiveConfig(alpha=0.5, eps=0.3, c1=1.0, penalty_kernel="gaussian", beta=1.0)
    w1 = 2.0
    w2 = 3.0 * np.sqrt(2.0)
    d2 = 0.25  # squared distance between midpoints (0, 1/2) and (1/2, 1/2)
    expected = w1 * w1 + w2 * w2 + 2.0 * w1 * w2 * np.exp(-d2)
    assert crowding_penalty(plan, cfg) == pytest.approx(expected, abs=1e-12)


def test_powerlaw_penalty_excludes_diagonal():
    plan = _two_branch_plan()
    cfg = ObjectiveConfig(alpha=0.5, eps=0.3, c1=1.0, penalty_kernel="powerlaw", gamma=0.5)
    w1 = 2.0
    w2 = 3.0 * np.sqrt(2.0)
    expected = 2.0 * w1 * w2 * 0.5 ** -0.5
    assert crowding_penalty(plan, cfg) == pytest.approx(expected, abs=1e-12)


def test_parameter_weighted_penalty_variant():
    plan = _two_branch_plan()
    cfg = ObjectiveConfig(alpha=0.5, eps=0.3, c1=1.0, penalty_arclength=False)
    # weights are density per unit parameter: m / K with K = 1 interval
    expected = 4.0 + 9.0 + 2.0 * 6.0 * np.exp(-0.25)
    assert crowding_penalty(plan, cfg) == pytest.approx(expected, abs=1e-12)


def test_powerlaw_rejects_coincident_midpoints():
    b1 = Branch(x=np.array([0.0, 0.0]), y=np.array([0.0, 1.0]), m=np.array([1.0]))
    b2 = Branch(x=np.array([0.0, 0.0]), y=np.array([0.0, 1.0]), m=np.array([1.0]))
    plan = BranchPlan(branches=(b1, b2))
    cfg = ObjectiveConfig(alpha=0.5, eps=0.3, c1=1.0, penalty_kernel="powerlaw")
    with pytest.raises(ValueError, match="coincident"):
        crowding_penalty(plan, cfg)


def test_objective_combines_components():
    plan = _two_branch_plan()
    cfg = ObjectiveConfig(alpha=0.5, eps=0.3, c1=0.7, c2=1.3)
    val = tree_objective(plan, cfg)
    assert val.total == pytest.approx(
        val.irrigation + 0.7 * val.penalty - 1.3 * val.payoff, abs=1e-12
    )
    table = segment_table(plan)
    assert val.payoff == pytest.approx(float((table.density * table.length).sum()), abs=1e-12)
    assert val.penalty == pytest.approx(crowding_penalty(plan, cfg), abs=1e-12)
    assert val.irrigation > 0.0


def test_penalty_skipped_when_disabled():
    plan = _two_branch_plan()
    cfg = ObjectiveConfig(alpha=0.5, eps=0.3, c1=0.0, c2=0.0)
    assert tree_objective(plan, cfg).penalty == 0.0


def test_homogeneity_in_densities():
    rng = np.random.default_rng(2)
    plan = random_branch_plan(rng, max_branches=3, max_segments=4)
    alpha = 0.6
    cfg = ObjectiveConfig(alpha=alpha, eps=0.25, c1=1.0, c2=1.0, f_min=0.0)
    base = tree_objective(plan, cfg)
    s = 1.7
    scaled = BranchPlan(
        branches=tuple(Branch(x=b.x, y=b.y, m=s * b.m) for b in plan.branches)
    )
    val = tree_objective(scaled, cfg)
    # irrigation is alpha-homogeneous, the crowding penalty is quadratic,
    # and the payoff is linear in a uniform density rescaling
    assert val.irrigation == pytest.approx(s ** alpha * base.irrigation, rel=1e-12)
    assert val.penalty == pytest.approx(s ** 2 * base.penalty, rel=1e-12)
    assert val.payoff == pytest.approx(s * base.payoff, rel=1e-12)


def test_branch_permutation_symmetry():
    rng = np.random.default_rng(8)
    plan = random_branch_plan(rng, max_branches=4, max_segments=4)
    if len(plan.branches) < 2:
        plan = BranchPlan(branches=plan.branches * 2)
    cfg = ObjectiveConfig(alpha=0.5, eps=0.2, c1=0.8, c2=0.6)
    with np.errstate(all="raise"):
        base = tree_objective(plan, cfg).total
        flipped = BranchPlan(branches=plan.branches[::-1])
        assert tree_objective(flipped, cfg).total == pytest.approx(base, abs=1e-12)


def _worst_component_gap(analytic, numeric):
    scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-12)
    return np.abs(analytic - numeric).max() / scale


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(10)
    for trial in range(6):
        plan = random_branch_plan(rng, max_branches=3, max_segments=4)
        kernel = "gaussian" if trial % 2 == 0 else "powerlaw"
        cfg = ObjectiveConfig(
            alpha=float(rng.uniform(0.35, 0.9)),
            eps=float(rng.uniform(0.15, 0.4)),
            c1=float(rng.uniform(0.0, 1.0)),
            c2=float(rng.uniform(0.0, 1.5)),
            penalty_kernel=kernel,
            beta=1.2,
            gamma=0.6,
            penalty_arclength=trial % 3 != 0,
        )
        grad = tree_objective_gradient(tree_objective(plan, cfg))
        fd = fd_gradient(plan, cfg, step=1e-6)
        assert _worst_component_gap(grad, fd) < 1e-5


def test_gradient_linear_case_is_exact():
    # at alpha = 1 with no penalty the objective is linear in densities,
    # so a larger step only reduces finite-difference rounding noise
    rng = np.random.default_rng(12)
    plan = random_branch_plan(rng, max_branches=2, max_segments=3)
    cfg = ObjectiveConfig(alpha=1.0, eps=0.3, c1=0.0, c2=1.0)
    grad = tree_objective_gradient(tree_objective(plan, cfg))
    fd = fd_gradient(plan, cfg, step=1e-4)
    m = Layout.of(plan).m_slots
    np.testing.assert_allclose(grad[m], fd[m], atol=1e-8)


def test_zero_density_gradient_difference_isolates_length_term():
    b = Branch(x=np.array([0.0, 0.3, 0.5]), y=np.array([0.0, 0.6, 1.3]), m=np.zeros(2))
    plan = BranchPlan(branches=(b,))
    with_payoff = tree_objective_gradient(
        tree_objective(plan, ObjectiveConfig(alpha=0.5, eps=0.3, c2=1.0)))
    without = tree_objective_gradient(
        tree_objective(plan, ObjectiveConfig(alpha=0.5, eps=0.3, c2=0.0)))
    seg = np.diff(b.vertices, axis=0)
    lengths = np.hypot(seg[:, 0], seg[:, 1])
    m = Layout.of(plan).m_slots
    np.testing.assert_allclose(with_payoff[m] - without[m], -lengths, atol=1e-12)


def test_idle_branch_density_gradient_matches_one_sided_step():
    # An isolated zero-density branch pays the floored multiplicity rate
    # as soon as its density rises, so the reported derivative must be
    # the large positive floored slope, not the bare coupling terms.
    active = Branch(x=np.array([0.0, -0.5]), y=np.array([0.0, 0.8]), m=np.array([1.0]))
    idle = Branch(x=np.array([0.0, 0.7]), y=np.array([0.0, 0.1]), m=np.array([0.0]))
    plan = BranchPlan(branches=(active, idle))
    cfg = ObjectiveConfig(alpha=0.4, eps=0.05, c1=0.0, c2=0.0, f_min=1e-3)
    grad = tree_objective_gradient(tree_objective(plan, cfg))
    slot = grad[Layout.of(plan).m_slots[1]]  # branch 1, interval 0
    assert slot > 1.0

    step = 1e-6
    base = tree_objective(plan, cfg).total
    bumped = BranchPlan(branches=(
        active,
        Branch(x=idle.x.copy(), y=idle.y.copy(), m=np.array([step])),
    ))
    forward = (tree_objective(bumped, cfg).total - base) / step
    assert slot == pytest.approx(forward, rel=1e-6)


def test_collapsed_interval_gradient_is_finite_and_inert():
    # Consecutive coincident knots leave interval 1 with zero length, a
    # state descent can legitimately reach. The gradient must stay finite
    # and the invisible interval's density must have zero sensitivity.
    b = Branch(
        x=np.array([0.0, 0.5, 0.5, 1.0]),
        y=np.array([0.0, 0.5, 0.5, 1.0]),
        m=np.array([1.0, 1.0, 1.0]),
    )
    plan = BranchPlan(branches=(b,))
    cfg = ObjectiveConfig(alpha=0.5, eps=0.3, c2=1.0, f_min=1e-9)
    grad = tree_objective_gradient(tree_objective(plan, cfg))
    assert np.all(np.isfinite(grad))
    assert grad[Layout.of(plan).m_slots[1]] == 0.0

    # The collapsed interval transports nothing, so its density does not
    # move the objective either.
    other = Branch(x=b.x.copy(), y=b.y.copy(), m=np.array([1.0, 7.0, 1.0]))
    same = tree_objective(BranchPlan(branches=(other,)), cfg)
    assert same.total == pytest.approx(tree_objective(plan, cfg).total, abs=1e-12)


def test_fan_objective_is_finite_and_descendable():
    plan = build_fan_branches(5, segments=4, m_init=0.1)
    cfg = ObjectiveConfig(alpha=0.4, eps=0.5, c1=0.4, c2=1.4)
    val = tree_objective(plan, cfg)
    grad = tree_objective_gradient(tree_objective(plan, cfg))
    assert np.isfinite(val.total)
    assert np.sqrt((grad * grad).sum()) > 0.0


def _oracle_penalty_matrices(midpoints, weights, cfg):
    """M and N as first written: squared distances as a sum over the
    trailing coordinate axis of an (S, S, 2) difference array."""
    diff = midpoints[:, None, :] - midpoints[None, :, :]
    sq = (diff * diff).sum(axis=-1)
    if cfg.penalty_kernel == "gaussian":
        m_mat = np.exp(-cfg.beta * sq)
        return m_mat, -2.0 * cfg.beta * m_mat
    off = ~np.eye(len(midpoints), dtype=bool)
    if np.any(off & (sq == 0.0) & (np.outer(weights, weights) > 0.0)):
        raise ValueError("power-law crowding penalty: coincident weighted midpoints")
    valid = off & (sq > 0.0)
    m_mat = np.zeros_like(sq)
    n_mat = np.zeros_like(sq)
    np.power(sq, -0.5 * cfg.gamma, out=m_mat, where=valid)
    np.power(sq, -0.5 * cfg.gamma - 1.0, out=n_mat, where=valid)
    n_mat *= -cfg.gamma
    return m_mat, n_mat


def test_penalty_matrices_match_the_axis_sum_oracle_bit_for_bit():
    rng = np.random.default_rng(21)
    for trial in range(8):
        mids = rng.uniform(-1.5, 1.5, (int(rng.integers(1, 160)), 2))
        mids[1::9] = mids[::9][:len(mids[1::9])]  # coincident midpoints
        weights = rng.uniform(0.0, 2.0, len(mids))
        weights[1::9] = 0.0  # ... of which one carries no weight
        for kernel in ("gaussian", "powerlaw"):
            cfg = ObjectiveConfig(penalty_kernel=kernel, beta=float(rng.uniform(0.2, 3.0)),
                                  gamma=float(rng.uniform(0.1, 0.9)))
            m_mat = _penalty_matrix(mids, weights, cfg)
            want_m, want_n = _oracle_penalty_matrices(mids, weights, cfg)
            assert np.array_equal(m_mat, want_m)
            assert np.array_equal(_penalty_slopes(mids, m_mat, cfg), want_n)
            if kernel == "powerlaw":
                assert np.all(np.diag(m_mat) == 0.0)
                assert np.all(np.diag(_penalty_slopes(mids, m_mat, cfg)) == 0.0)


def test_penalty_matrix_rejects_coincident_weighted_midpoints_like_the_oracle():
    rng = np.random.default_rng(22)
    mids = rng.uniform(-1.0, 1.0, (12, 2))
    mids[7] = mids[2]
    weights = rng.uniform(0.5, 1.0, 12)
    cfg = ObjectiveConfig(penalty_kernel="powerlaw")
    for call in (_oracle_penalty_matrices, _penalty_matrix):
        with pytest.raises(ValueError, match="coincident"):
            call(mids, weights, cfg)


def test_tree_gradient_uses_its_values_own_plan_eps_or_config():
    rng = np.random.default_rng(24)
    plans = [random_branch_plan(rng, max_branches=5, max_segments=8) for _ in range(6)]
    plans.append(build_fan_branches(7, segments=6, m_init=0.1))
    cfg = ObjectiveConfig(alpha=0.5, eps=0.3, c1=0.4, c2=1.2)
    for plan in plans:
        twin = BranchPlan(branches=plan.branches)  # equal, but another object
        assert np.array_equal(tree_objective_gradient(tree_objective(twin, cfg)),
                              tree_objective_gradient(tree_objective(plan, cfg)))
        for settings in (cfg, cfg.with_eps(0.1),
                         ObjectiveConfig(alpha=0.5, eps=0.3, c1=0.4, c2=1.2, beta=3.0),
                         ObjectiveConfig(alpha=0.4, eps=0.15, c1=0.3, c2=0.8,
                                         penalty_kernel="powerlaw", penalty_arclength=False)):
            grad = tree_objective_gradient(tree_objective(plan, settings))
            assert _worst_component_gap(grad, fd_gradient(plan, settings)) < 1e-5

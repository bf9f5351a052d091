"""Tests for merged tree topologies and their exact transport costs."""

import numpy as np
import pytest

from oracles import brute_force_bifurcation, exact_multiplicity
from ramify.exact_cost import (
    TopologyError,
    exact_plan_cost,
    extract_topology,
    gilbert_energy,
)
from ramify.plan_model import (
    Path,
    PathPlan,
    build_star_plan,
    half_circle_targets,
)


def _y_plan():
    trunk = np.array([[0.0, 0.0], [0.0, 0.5]])
    a = Path(vertices=np.vstack([trunk, [[-0.5, 0.5]]]), mass=0.5)
    b = Path(vertices=np.vstack([trunk, [[0.5, 0.5]]]), mass=0.5)
    return PathPlan(paths=(a, b))


def test_y_tree_cost_hand_value():
    # trunk of length 1/2 at flux 1 plus two arms of length 1/2 at flux 1/2
    cost = exact_plan_cost(_y_plan(), 0.5, merge_tol=1e-9)
    assert cost == pytest.approx(0.5 + np.sqrt(0.5), abs=1e-12)


def test_gilbert_energy_alpha_limits():
    topo = extract_topology(_y_plan(), merge_tol=1e-9)
    # alpha = 0 counts pure length, alpha = 1 counts mass times length
    assert gilbert_energy(topo, 0.0) == pytest.approx(1.5, abs=1e-12)
    assert gilbert_energy(topo, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_star_cost_is_sum_of_atom_terms():
    n = 5
    plan = build_star_plan(half_circle_targets(n), segments_per_path=4)
    # n unit-length rays each carrying mass 1/n
    expected = n * (1.0 / n) ** 0.5
    assert exact_plan_cost(plan, 0.5, merge_tol=1e-9) == pytest.approx(expected, abs=1e-12)


def test_cost_merges_nearby_trunks():
    # jitter one trunk vertex by less than the tolerance: still one trunk
    a = Path(vertices=np.array([[0.0, 0.0], [0.0, 0.5], [-0.5, 0.5]]), mass=0.5)
    b = Path(vertices=np.array([[0.0, 0.0], [1e-4, 0.5], [0.5, 0.5]]), mass=0.5)
    plan = PathPlan(paths=(a, b))
    merged = exact_plan_cost(plan, 0.5, merge_tol=1e-3)
    assert merged == pytest.approx(0.5 + np.sqrt(0.5), abs=1e-3)
    separate = exact_plan_cost(plan, 0.5, merge_tol=1e-9)
    # without merging each trunk carries only half the mass
    assert separate > merged + 0.1


def test_extract_topology_merges_shared_trunk():
    trunk = np.array([[0.0, 0.0], [0.0, 0.5]])
    a = Path(vertices=np.vstack([trunk, [[-0.5, 1.0]]]), mass=0.4)
    b = Path(vertices=np.vstack([trunk, [[0.5, 1.0]]]), mass=0.6)
    topo = extract_topology(PathPlan(paths=(a, b)), merge_tol=1e-9)
    assert len(topo.nodes) == 4
    flux_by_edge = {(p, c): f for p, c, _, f in topo.edges}
    assert flux_by_edge[(0, 1)] == pytest.approx(1.0)
    assert sorted(topo.leaves.values()) == pytest.approx([0.4, 0.6])


def test_extract_topology_rejects_doubling_back():
    bad = Path(vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]), mass=1.0)
    with pytest.raises(TopologyError, match="doubles back"):
        extract_topology(PathPlan(paths=(bad,)), merge_tol=1e-6)


def test_extract_topology_negative_tolerance():
    p = Path(vertices=np.array([[0.0, 0.0], [1.0, 0.0]]), mass=1.0)
    with pytest.raises(ValueError):
        extract_topology(PathPlan(paths=(p,)), merge_tol=-1.0)


def test_exact_multiplicity_on_and_off_support():
    plan = _y_plan()
    assert exact_multiplicity(plan, [0.0, 0.25]) == pytest.approx(1.0)
    assert exact_multiplicity(plan, [0.25, 0.5]) == pytest.approx(0.5)
    assert exact_multiplicity(plan, [0.3, 0.1]) == 0.0
    # vertices count for every path passing through them
    assert exact_multiplicity(plan, [0.0, 0.5]) == pytest.approx(1.0)


def test_brute_force_steiner_point():
    # pure length cost: the optimal junction meets all edges at 120 degrees
    _, cost = brute_force_bifurcation([-1.0, 1.0], [1.0, 1.0], 0.5, 0.5, 0.0)
    assert cost == pytest.approx(1.0 + np.sqrt(3.0), rel=1e-6)


def test_brute_force_right_angle_v_is_marginal():
    # equal masses at 90 degrees apart: the direct V and the best single
    # bifurcation tie, so the search must not beat the V cost
    s = np.sqrt(0.5)
    point, cost = brute_force_bifurcation([-s, s], [s, s], 0.5, 0.5, 0.5)
    assert cost == pytest.approx(np.sqrt(2.0), abs=1e-9)
    assert cost >= np.sqrt(2.0) - 1e-12
    np.testing.assert_allclose(point, [0.0, 0.0], atol=1e-9)


def test_brute_force_narrow_v_prefers_branching():
    # 60 degrees apart: strict subadditivity, a junction beats the star
    p1 = [-0.5, np.sqrt(3.0) / 2]
    p2 = [0.5, np.sqrt(3.0) / 2]
    _, cost = brute_force_bifurcation(p1, p2, 0.5, 0.5, 0.5)
    star = np.sqrt(2.0)
    assert cost < star - 1e-3
    assert cost == pytest.approx(0.5 + np.sqrt(3.0) / 2, rel=1e-6)


def test_brute_force_validates_inputs():
    with pytest.raises(ValueError):
        brute_force_bifurcation([1.0, 0.0], [0.0, 1.0], -1.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        brute_force_bifurcation([1.0, 0.0], [0.0, 1.0], 0.5, 0.5, 1.5)
    with pytest.raises(ValueError):
        brute_force_bifurcation([1.0, 0.0], [0.0, 1.0], 0.5, 0.5, 0.5, grid=1)


def test_gilbert_energy_concave_in_alpha_on_fluxes_below_one():
    # every flux is at most 1 here, so raising alpha lowers each edge term
    topo = extract_topology(_y_plan(), merge_tol=1e-9)
    values = [gilbert_energy(topo, a) for a in (0.2, 0.4, 0.6, 0.8)]
    assert np.all(np.diff(values) < 0.0)


def test_merging_at_exactly_merge_tol_follows_hypot():
    # The vertex sits at exactly merge_tol from node (1, 0) by np.hypot, while
    # the sum of squares reads just above merge_tol**2.
    vertex = np.array([1.042, 0.042])
    merge_tol = float(np.hypot(vertex[0] - 1.0, vertex[1]))
    dx, dy = vertex[0] - 1.0, vertex[1]
    assert dx * dx + dy * dy > merge_tol * merge_tol
    out = np.array([vertex[0], np.nextafter(vertex[1], 1.0)])  # one ulp further out
    assert np.hypot(out[0] - 1.0, out[1]) > merge_tol
    trunk = Path(vertices=np.array([[0.0, 0.0], [1.0, 0.0]]), mass=1.0)
    for tail, merged in ((vertex, True), (out, False)):
        # Within tolerance of the current node, and of a child of the current node.
        for head in ([[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0]]):
            path = Path(vertices=np.vstack([head, [tail]]), mass=0.5)
            topo = extract_topology(PathPlan(paths=(trunk, path)), merge_tol)
            assert len(topo.nodes) == (2 if merged else 3)
            assert topo.leaves == ({1: 1.5} if merged else {1: 1.0, 2: 0.5})
        # Within tolerance of an ancestor: the path doubles back.
        back = Path(vertices=np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], tail]), mass=0.5)
        if merged:
            with pytest.raises(TopologyError, match="path 1 doubles back onto its own trunk "
                                                   "near node 1$"):
                extract_topology(PathPlan(paths=(trunk, back)), merge_tol)
        else:
            assert len(extract_topology(PathPlan(paths=(trunk, back)), merge_tol).nodes) == 4


def test_a_merge_tol_with_a_subnormal_square_is_decided_by_hypot():
    # The sum of squares rounds above merge_tol**2 by more than the 1e-9 band,
    # yet the vertex sits at exactly merge_tol from the root by np.hypot.
    dx, dy = 5.366718769884716e-162, 9.82663479821115e-162
    merge_tol = float(np.hypot(dx, dy))
    assert dx * dx + dy * dy > merge_tol * merge_tol * (1.0 + 1e-9)
    path = Path(vertices=np.array([[0.0, 0.0], [dx, dy]]), mass=1.0)
    topo = extract_topology(PathPlan(paths=(path,)), merge_tol)
    assert len(topo.nodes) == 1 and topo.leaves == {0: 1.0}


def test_topology_nodes_edges_and_leaves():
    plan = PathPlan(paths=(
        Path(vertices=np.array([[0.0, 0.0], [0.3, 0.4], [0.3, 0.4], [1.0, 1.0]]), mass=0.25),
        Path(vertices=np.array([[0.0, 0.0], [0.3, 0.4 + 1e-8], [-1.0, 1.0]]), mass=0.75)))
    topo = extract_topology(plan, merge_tol=1e-6)
    assert not topo.nodes.flags.writeable
    np.testing.assert_array_equal(topo.nodes, [[0.0, 0.0], [0.3, 0.4], [1.0, 1.0], [-1.0, 1.0]])
    assert topo.edges == ((0, 1, float(np.hypot(0.3, 0.4)), 1.0),
                          (1, 2, float(np.hypot(0.7, 0.6)), 0.25),
                          (1, 3, float(np.hypot(-1.0 - 0.3, 1.0 - 0.4)), 0.75))
    assert all(type(v) is float for edge in topo.edges for v in edge[2:])
    assert topo.leaves == {2: 0.25, 3: 0.75}

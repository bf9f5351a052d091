"""Tests for polyline geometry helpers."""

import numpy as np
import pytest

from oracles import cumulative_arclength, resample_polyline, segment_lengths
from ramify.geometry import bounding_box_diameter, pair_projection


def test_segment_lengths_l_shape():
    v = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    np.testing.assert_allclose(segment_lengths(v), [1.0, 1.0])
    np.testing.assert_allclose(cumulative_arclength(v), [0.0, 1.0, 2.0])
    assert segment_lengths(v).sum() == pytest.approx(2.0, abs=1e-15)


def test_segment_lengths_single_vertex_has_no_segments():
    out = segment_lengths(np.array([[0.0, 0.0]]))
    assert out.shape == (0,)


def test_resample_keeps_endpoints_and_equalizes_arcs():
    v = np.array([[0.0, 0.0], [0.1, 0.0], [1.0, 0.0], [1.0, 1.0]])
    out, arcs = resample_polyline(v, 5)
    np.testing.assert_allclose(out[0], v[0])
    np.testing.assert_allclose(out[-1], v[-1])
    np.testing.assert_allclose(np.diff(arcs), 0.5 * np.ones(4), atol=1e-12)


def test_resample_l_shape_quarter_points():
    v = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    out, arcs = resample_polyline(v, 5)
    np.testing.assert_allclose(arcs, [0.0, 0.5, 1.0, 1.5, 2.0], atol=1e-12)
    expected = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [1.0, 0.5], [1.0, 1.0]])
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_resample_is_identity_on_equal_arc_input():
    v = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    out, _ = resample_polyline(v, 3)
    np.testing.assert_allclose(out, v, atol=1e-15)


def test_resample_degenerate_zero_length_polyline():
    v = np.zeros((3, 2))
    out, arcs = resample_polyline(v, 4)
    assert out.shape == (4, 2)
    np.testing.assert_allclose(out, np.zeros((4, 2)))
    np.testing.assert_allclose(arcs, np.zeros(4))


def test_projection_clamps_to_segment_ends():
    a = np.array([[0.0, 0.0]])
    b = np.array([[1.0, 0.0]])
    pts = np.array([[-1.0, 1.0], [0.5, 2.0], [3.0, -1.0]])
    t, dist = pair_projection(pts[:, None, :], a[None, :, :], b[None, :, :])
    np.testing.assert_allclose(t[:, 0], [0.0, 0.5, 1.0])
    np.testing.assert_allclose(dist[:, 0], [np.sqrt(2.0), 2.0, np.sqrt(5.0)])
    np.testing.assert_allclose(
        pair_projection(pts[:, None, :], a[None, :, :], b[None, :, :])[1], dist)


def test_projection_zero_length_segment():
    a = np.array([[1.0, 1.0]])
    t, dist = pair_projection(np.array([[[4.0, 5.0]]]), a[None, :, :], a[None, :, :])
    assert t[0, 0] == 0.0
    assert dist[0, 0] == pytest.approx(5.0)


def test_projection_batched_over_segments():
    pts = np.array([[0.5, 0.5], [2.0, 0.0]])
    a = np.array([[0.0, 0.0], [0.0, 1.0]])
    b = np.array([[1.0, 0.0], [1.0, 1.0]])
    dist = pair_projection(pts[:, None, :], a[None, :, :], b[None, :, :])[1]
    assert dist.shape == (2, 2)
    np.testing.assert_allclose(dist[0], [0.5, 0.5])
    np.testing.assert_allclose(dist[1], [1.0, np.sqrt(2.0)])


def test_projection_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a = rng.uniform(-2, 2, (1, 2))
        b = rng.uniform(-2, 2, (1, 2))
        p = rng.uniform(-3, 3, (1, 2))
        d = pair_projection(p[:, None, :], a[None, :, :], b[None, :, :])[1][0, 0]
        ts = np.linspace(0.0, 1.0, 2001)
        pts = a + ts[:, None] * (b - a)
        brute = np.hypot(pts[:, 0] - p[0, 0], pts[:, 1] - p[0, 1]).min()
        # the sampled minimum can only overestimate the true distance, and
        # by at most a second-order term in the sample spacing
        assert d <= brute + 1e-12
        assert d >= brute - 1e-4


def test_bounding_box_diameter():
    pts = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]])
    assert bounding_box_diameter(pts) == pytest.approx(5.0)

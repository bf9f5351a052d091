"""Tests for kernel profiles and their segment line integrals."""

import numpy as np
import pytest

from ramify.kernels import (
    KERNEL_KINDS,
    KernelSpec,
    bump_segment_integral,
    bump_segment_integral_grad,
    kernel_derivative,
    kernel_eval,
    kernel_segment_integral,
    kernel_segment_integral_grad,
)


def test_profiles_are_unit_at_zero_and_nonincreasing():
    r = np.linspace(0.0, 3.0, 301)
    for kind in KERNEL_KINDS:
        spec = KernelSpec(kind)
        vals = kernel_eval(spec, r)
        assert vals[0] == pytest.approx(1.0)
        assert np.all(np.diff(vals) <= 1e-15)
        assert np.all(vals >= 0.0)
        assert np.all(vals <= 1.0)


def test_profile_masses():
    assert KernelSpec("exponential").profile_mass == pytest.approx(1.0)
    assert KernelSpec("triangular").profile_mass == pytest.approx(0.5)
    assert KernelSpec("bump").profile_mass == pytest.approx(2.0 / 3.0)
    assert KernelSpec("rational").profile_mass == np.inf


def test_compact_support_flags():
    assert KernelSpec("bump").compact_support
    assert KernelSpec("triangular").compact_support
    assert not KernelSpec("exponential").compact_support
    assert not KernelSpec("rational").compact_support


def test_unknown_kernel_kind_rejected():
    with pytest.raises(ValueError, match="unknown kernel"):
        KernelSpec("gaussian")


def test_negative_radius_rejected():
    with pytest.raises(ValueError):
        kernel_eval(KernelSpec("bump"), np.array([-0.1]))
    a, b, x = np.zeros(2), np.array([1.0, 0.0]), np.array([0.5, 0.1])
    for integral in (kernel_segment_integral, kernel_segment_integral_grad):
        with pytest.raises(ValueError, match="quad_points must be at least 1"):
            integral(KernelSpec("exponential"), a, b, x, 0.3, quad_points=0)


def test_kernel_derivative_matches_finite_differences():
    # stay away from the support kink at r = 1 for the compact profiles
    r = np.concatenate([np.linspace(0.01, 0.95, 40), np.linspace(1.05, 3.0, 40)])
    h = 1e-6
    for kind in KERNEL_KINDS:
        spec = KernelSpec(kind)
        fd = (kernel_eval(spec, r + h) - kernel_eval(spec, r - h)) / (2.0 * h)
        np.testing.assert_allclose(kernel_derivative(spec, r), fd, atol=1e-8)


def test_bump_segment_integral_fixtures():
    a = np.array([0.0, 0.0])
    b = np.array([1.0, 0.0])
    # eval point at the start: integral of (1 - u^2) over [0, 1]
    assert bump_segment_integral(a, b, a, 1.0) == pytest.approx(2.0 / 3.0, abs=1e-14)
    # eval point at the midpoint: integral of (1 - (u - 1/2)^2)
    mid = np.array([0.5, 0.0])
    assert bump_segment_integral(a, b, mid, 1.0) == pytest.approx(11.0 / 12.0, abs=1e-14)
    # perpendicular offset 1/2 above the midpoint
    off = np.array([0.5, 0.5])
    assert bump_segment_integral(a, b, off, 1.0) == pytest.approx(2.0 / 3.0, abs=1e-14)


def test_bump_segment_integral_outside_support_is_zero():
    a = np.array([0.0, 0.0])
    b = np.array([1.0, 0.0])
    assert bump_segment_integral(a, b, np.array([0.5, 2.0]), 1.0) == 0.0
    assert bump_segment_integral(a, b, np.array([5.0, 0.0]), 1.0) == 0.0


def test_bump_segment_integral_zero_length_segment():
    a = np.array([0.3, 0.3])
    assert bump_segment_integral(a, a, np.array([0.3, 0.3]), 1.0) == 0.0


def test_bump_segment_integral_scales_with_eps():
    # scaling the geometry and eps together scales the integral by the
    # geometric factor only: value(s*a, s*b, s*x, s*eps) = value(a, b, x, eps)
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = rng.uniform(-1, 1, 2)
        b = rng.uniform(-1, 1, 2)
        x = rng.uniform(-1, 1, 2)
        eps = rng.uniform(0.2, 2.0)
        s = rng.uniform(0.5, 3.0)
        v1 = bump_segment_integral(a, b, x, eps)
        v2 = bump_segment_integral(s * a, s * b, s * x, s * eps)
        assert v2 == pytest.approx(v1, abs=1e-12, rel=1e-12)


def test_quadrature_matches_bump_closed_form():
    rng = np.random.default_rng(11)
    spec = KernelSpec("bump")
    worst = 0.0
    for _ in range(100):
        a = rng.uniform(-1, 1, 2)
        b = rng.uniform(-1, 1, 2)
        x = rng.uniform(-1.5, 1.5, 2)
        eps = rng.uniform(0.3, 1.5)
        exact = bump_segment_integral(a, b, x, eps)
        quad = kernel_segment_integral(spec, a, b, x, eps, quad_points=64)
        worst = max(worst, abs(quad - exact))
    # the integrand is piecewise quadratic; 64 Gauss-Legendre points on the
    # clipped support resolve it to near machine precision
    assert worst < 1e-10


def test_kernel_segment_integral_positive_inside_support():
    a = np.array([0.0, 0.0])
    b = np.array([1.0, 0.0])
    x = np.array([0.5, 0.1])
    for kind in KERNEL_KINDS:
        val = kernel_segment_integral(KernelSpec(kind), a, b, x, 0.5)
        assert val > 0.0


def _fd_segment_grad(fn, a, b, x, eps, h=1e-6):
    ga = np.zeros(2)
    gb = np.zeros(2)
    gx = np.zeros(2)
    for k in range(2):
        da = np.zeros(2)
        da[k] = h
        ga[k] = (fn(a + da, b, x, eps) - fn(a - da, b, x, eps)) / (2 * h)
        gb[k] = (fn(a, b + da, x, eps) - fn(a, b - da, x, eps)) / (2 * h)
        gx[k] = (fn(a, b, x + da, eps) - fn(a, b, x - da, eps)) / (2 * h)
    return ga, gb, gx


def test_bump_segment_integral_grad_matches_fd():
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(80):
        a = rng.uniform(-1, 1, 2)
        b = rng.uniform(-1, 1, 2)
        x = rng.uniform(-1, 1, 2)
        eps = rng.uniform(0.4, 1.5)
        val = bump_segment_integral(a, b, x, eps)
        if val < 1e-6:
            continue
        got, ga, gb, gx = bump_segment_integral_grad(a, b, x, eps)
        assert got == pytest.approx(val, abs=1e-14)
        fa, fb, fx = _fd_segment_grad(bump_segment_integral, a, b, x, eps)
        np.testing.assert_allclose(ga, fa, atol=2e-7)
        np.testing.assert_allclose(gb, fb, atol=2e-7)
        np.testing.assert_allclose(gx, fx, atol=2e-7)
        checked += 1
    assert checked > 30


def test_quadrature_segment_integral_grad_matches_fd():
    rng = np.random.default_rng(9)
    for kind in ("exponential", "rational"):
        spec = KernelSpec(kind)

        def fn(a, b, x, eps, spec=spec):
            return kernel_segment_integral(spec, a, b, x, eps, quad_points=48)

        for _ in range(30):
            a = rng.uniform(-1, 1, 2)
            b = rng.uniform(-1, 1, 2)
            x = rng.uniform(-1, 1, 2)
            eps = rng.uniform(0.4, 1.5)
            _, ga, gb, gx = kernel_segment_integral_grad(spec, a, b, x, eps, quad_points=48)
            fa, fb, fx = _fd_segment_grad(fn, a, b, x, eps)
            np.testing.assert_allclose(ga, fa, atol=5e-7)
            np.testing.assert_allclose(gb, fb, atol=5e-7)
            np.testing.assert_allclose(gx, fx, atol=5e-7)


def test_segment_grad_zero_length_is_finite():
    a = np.array([0.2, 0.2])
    val, ga, gb, gx = bump_segment_integral_grad(a, a.copy(), np.array([0.25, 0.2]), 1.0)
    assert val == 0.0
    assert np.all(np.isfinite(ga))
    assert np.all(np.isfinite(gb))
    assert np.all(np.isfinite(gx))

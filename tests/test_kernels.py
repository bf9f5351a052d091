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
    for kind in KERNEL_KINDS:
        for reader in (kernel_eval, kernel_derivative):
            with pytest.raises(ValueError, match="kernel radius must be nonnegative"):
                reader(KernelSpec(kind), np.array([-0.1]))
            with pytest.raises(ValueError, match="kernel radius must be nonnegative"):
                reader(KernelSpec(kind), -0.5)
    a, b, x = np.zeros(2), np.array([1.0, 0.0]), np.array([0.5, 0.1])
    for integral in (kernel_segment_integral, kernel_segment_integral_grad):
        for quad_points in (0, 1001):
            with pytest.raises(ValueError, match="at least 1 and at most 1000"):
                integral(KernelSpec("exponential"), a, b, x, 0.3, quad_points=quad_points)


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


# Oracles: the kernels as first written, every dot product a sum over the
# trailing coordinate axis. The per-coordinate kernels must match them bit
# for bit.

def _oracle_bump_closed_form(a, b, x, eps):
    a, b, x = (np.asarray(v, dtype=float) for v in (a, b, x))
    d = b - a
    w = a - x
    A = (d * d).sum(axis=-1)
    B = 2.0 * (w * d).sum(axis=-1)
    C = (w * w).sum(axis=-1)
    L = np.sqrt(A)
    disc = B * B - 4.0 * A * (C - eps * eps)
    pos = (A > 0.0) & (disc > 0.0)
    sq = np.sqrt(np.where(pos, disc, 0.0))
    with np.errstate(invalid="ignore", divide="ignore"):
        u1 = np.where(pos, (-B - sq) / (2.0 * A), 0.0)
        u2 = np.where(pos, (-B + sq) / (2.0 * A), 0.0)
    lo = np.maximum(u1, 0.0)
    hi = np.minimum(u2, 1.0)
    active = pos & (lo < hi)
    lo = np.where(active, lo, 0.0)
    hi = np.where(active, hi, 0.0)
    s0 = hi - lo
    s1 = 0.5 * (hi * hi - lo * lo)
    s2 = (hi * hi * hi - lo * lo * lo) / 3.0
    inv2 = 1.0 / (eps * eps)
    inner = (1.0 - C * inv2) * s0 - B * inv2 * s1 - A * inv2 * s2
    val = np.where(active, np.maximum((L / eps) * inner, 0.0), 0.0)
    return a, x, d, L, active, (s0, s1, s2), inner, val


def _oracle_bump_grad(a, b, x, eps):
    a, x, d, L, active, (s0, s1, s2), inner, val = _oracle_bump_closed_form(a, b, x, eps)
    w = a - x
    inv2 = 1.0 / (eps * eps)
    gA = np.where(active, -(L / eps) * inv2 * s2, 0.0)[..., None]
    gB = np.where(active, -(L / eps) * inv2 * s1, 0.0)[..., None]
    gC = np.where(active, -(L / eps) * inv2 * s0, 0.0)[..., None]
    with np.errstate(invalid="ignore", divide="ignore"):
        gL = np.where(active & (L > 0.0), inner / eps, 0.0)[..., None]
        unit = np.where(L[..., None] > 0.0, d / L[..., None], 0.0)
    da = gA * (-2.0 * d) + gB * 2.0 * (d - w) + gC * 2.0 * w + gL * (-unit)
    db = gA * (2.0 * d) + gB * 2.0 * w + gL * unit
    dx = gB * (-2.0 * d) + gC * (-2.0 * w)
    return val, da, db, dx


def _oracle_quadrature(spec, a, b, x, eps, quad_points):
    a, b, x = (np.asarray(v, dtype=float) for v in (a, b, x))
    d = b - a
    L = np.sqrt((d * d).sum(axis=-1))
    nodes, weights = np.polynomial.legendre.leggauss(quad_points)
    acc = 0.0
    for u, wt in zip(0.5 * (nodes + 1.0), 0.5 * weights):
        r = np.sqrt(((a + u * d - x) ** 2).sum(axis=-1))
        acc = acc + wt * kernel_eval(spec, r / eps)
    return acc * L / eps


def _oracle_quadrature_grad(spec, a, b, x, eps, quad_points):
    a, b, x = (np.asarray(v, dtype=float) for v in (a, b, x))
    d = b - a
    L = np.sqrt((d * d).sum(axis=-1))
    nodes, weights = np.polynomial.legendre.leggauss(quad_points)
    with np.errstate(invalid="ignore", divide="ignore"):
        unit = np.where(L[..., None] > 0.0, d / L[..., None], 0.0)
    acc = 0.0
    da = np.zeros(np.broadcast(a, b, x).shape)
    db = np.zeros_like(da)
    dx = np.zeros_like(da)
    for u, wt in zip(0.5 * (nodes + 1.0), 0.5 * weights):
        diff = a + u * d - x
        r = np.sqrt((diff * diff).sum(axis=-1))
        jv = kernel_eval(spec, r / eps)
        jd = kernel_derivative(spec, r / eps)
        acc = acc + wt * jv
        with np.errstate(invalid="ignore", divide="ignore"):
            rdir = np.where(r[..., None] > 0.0, diff / r[..., None], 0.0)
        core = (wt * jd * L / (eps * eps))[..., None] * rdir
        da += core * (1.0 - u)
        db += core * u
        dx += -core
    da += (acc / eps)[..., None] * (-unit)
    db += (acc / eps)[..., None] * unit
    return acc * L / eps, da, db, dx


def _oracle_inputs(seed):
    """Segment and point arrays of several shapes: flat (P, 2) pairs with
    zero-length segments and points on the support edge, broadcast
    (T, 1, 2) x (1, S, 2) grids, and a single (2,) triple."""
    rng = np.random.default_rng(seed)
    eps = 0.5
    a = rng.uniform(-1.0, 1.0, (400, 2))
    b = a + rng.uniform(-0.6, 0.6, (400, 2))
    b[::7] = a[::7]  # zero-length segments
    x = a + rng.uniform(-0.8, 0.8, (400, 2))
    # On the support edge: eps above a segment's interior and eps beyond its end.
    edge_a, edge_b = np.array([[0.0, 0.0], [0.0, 0.0]]), np.array([[1.0, 0.0], [1.0, 0.0]])
    edge_x = np.array([[0.5, eps], [1.0 + eps, 0.0]])
    grid_a = rng.uniform(-1.0, 1.0, (1, 30, 2))
    grid_b = grid_a + rng.uniform(-0.4, 0.4, (1, 30, 2))
    grid_x = rng.uniform(-1.2, 1.2, (25, 1, 2))
    return eps, [(a, b, x), (edge_a, edge_b, edge_x), (grid_a, grid_b, grid_x),
                 (a[:, None], b[:, None], x[None, :50]), (a[3], b[3], x[3])]


def _assert_same_bits(got, want):
    for g, w in zip(got, want):
        assert np.shape(g) == np.shape(w)
        assert np.array_equal(g, w)


def test_bump_kernels_match_the_axis_sum_oracle_bit_for_bit():
    eps, cases = _oracle_inputs(31)
    for a, b, x in cases:
        for scale in (1.0, 0.3):
            want = _oracle_bump_grad(a, b, x, scale * eps)
            got = (bump_segment_integral(a, b, x, scale * eps),
                   *bump_segment_integral_grad(a, b, x, scale * eps))
            # Bytes, unlike np.array_equal, tell -0.0 from 0.0.
            for g, w in zip(got, want[:1] + want):
                assert np.shape(g) == np.shape(w)
                assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


def test_bump_gradient_from_the_values_moments_is_bit_for_bit():
    eps, cases = _oracle_inputs(33)
    # Along a unit segment at eps: supports clipped at u = 0, at u = 1 and at
    # neither end, a point off the support and a zero-length segment.
    a = np.zeros((5, 2))
    b = np.array([[1.0, 0.0]] * 4 + [[0.0, 0.0]])
    x = np.array([[0.1, 0.2], [0.95, -0.1], [0.5, 0.1], [0.5, 2.0], [0.0, 0.1]])
    s0, s1, _ = bump_segment_integral(a, b, x, eps, with_moments=True)[1]
    assert np.all(s0[:3] > 0.0) and np.all(s0[3:] == 0.0)
    middle = s1[:3] / s0[:3]  # (lo + hi) / 2 of each support
    lo, hi = middle - 0.5 * s0[:3], middle + 0.5 * s0[:3]
    assert lo[0] == pytest.approx(0.0, abs=1e-12) and hi[0] < 1.0
    assert hi[1] == pytest.approx(1.0, abs=1e-12) and lo[1] > 0.0
    assert lo[2] > 0.0 and hi[2] < 1.0
    cases.append((a, b, x))
    for a, b, x in cases:
        for scale in (1.0, 0.3):
            value, moments = bump_segment_integral(a, b, x, scale * eps, with_moments=True)
            want = bump_segment_integral_grad(a, b, x, scale * eps)
            got = bump_segment_integral_grad(a, b, x, scale * eps, moments)
            assert np.asarray(value).tobytes() == np.asarray(want[0]).tobytes()
            for g, w in zip(got, want):
                assert np.shape(g) == np.shape(w)
                assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


def test_quadrature_kernels_match_the_axis_sum_oracle_bit_for_bit():
    eps, cases = _oracle_inputs(32)
    for kind in ("exponential", "rational", "triangular"):
        spec = KernelSpec(kind)
        for a, b, x in cases:
            for quad_points in (1, 5, 32):
                want = _oracle_quadrature_grad(spec, a, b, x, eps, quad_points)
                value = kernel_segment_integral(spec, a, b, x, eps, quad_points)
                _assert_same_bits([value], [_oracle_quadrature(spec, a, b, x, eps, quad_points)])
                _assert_same_bits([value], want[:1])
                _assert_same_bits(kernel_segment_integral_grad(spec, a, b, x, eps, quad_points),
                                  want)


def test_integral_entries_carry_the_bump_moments():
    eps, cases = _oracle_inputs(34)
    for kind in KERNEL_KINDS:
        spec = KernelSpec(kind)
        for a, b, x in cases:
            value, moments = kernel_segment_integral(spec, a, b, x, eps, 5, with_moments=True)
            _assert_same_bits([value], [kernel_segment_integral(spec, a, b, x, eps, 5)])
            if kind == "bump":
                want = bump_segment_integral(a, b, x, eps, with_moments=True)[1]
                assert len(moments) == 3
                for got, exact in zip(moments, want):
                    assert np.asarray(got).tobytes() == np.asarray(exact).tobytes()
            else:
                assert moments is None
            got = kernel_segment_integral_grad(spec, a, b, x, eps, 5, moments=moments)
            want = kernel_segment_integral_grad(spec, a, b, x, eps, 5)
            for g, w in zip(got, want):
                assert np.shape(g) == np.shape(w)
                assert np.asarray(g).tobytes() == np.asarray(w).tobytes()

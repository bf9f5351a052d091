"""Mollifier kernel profiles and line integrals of scaled kernels over segments.

A kernel profile J maps a nonnegative radius to a value in [0, 1] with
J(0) = 1 and J non-increasing. The scaled kernel at width eps is
J(r / eps), and the quantity integrated along source segments is
(1/eps) * J(R(u)/eps) * |b - a| du for u in [0, 1], where R(u) is the
distance from the moving segment point to a fixed evaluation point.

For the quadratic bump profile max{0, 1 - r^2} the segment integral has a
closed form (the integrand is a clipped quadratic in u), implemented here
together with its exact derivatives with respect to the segment endpoints
and the evaluation point. Other profiles fall back to Gauss-Legendre
quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

KERNEL_KINDS = ("exponential", "rational", "triangular", "bump")

# Integral of the profile over [0, infinity); used for run metadata.
# The bump and triangular profiles integrate to less than 1, which means
# multiplicity estimates built from them are not normalized; callers
# surface this in their run summaries.
_PROFILE_MASS = {
    "exponential": 1.0,
    "rational": float("inf"),
    "triangular": 0.5,
    "bump": 2.0 / 3.0,
}


@dataclass(frozen=True)
class KernelSpec:
    """Selects one of the built-in kernel profiles by name."""

    kind: str = "bump"

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}; expected one of {KERNEL_KINDS}")

    @property
    def compact_support(self) -> bool:
        return self.kind in ("triangular", "bump")

    @property
    def profile_mass(self) -> float:
        """Integral of the profile over [0, infinity)."""
        return _PROFILE_MASS[self.kind]


def kernel_eval(spec: KernelSpec, r):
    """Profile value J(r) for nonnegative radii; vectorized."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0):
        raise ValueError("kernel radius must be nonnegative")
    if spec.kind == "exponential":
        out = np.exp(-r)
    elif spec.kind == "rational":
        out = 1.0 / (1.0 + r)
    elif spec.kind == "triangular":
        out = np.maximum(0.0, 1.0 - r)
    else:
        out = np.maximum(0.0, 1.0 - r * r)
    return out if out.ndim else float(out)


def kernel_derivative(spec: KernelSpec, r):
    """dJ/dr, taken one-sidedly from inside the support at kink radii."""
    r = np.asarray(r, dtype=float)
    if spec.kind == "exponential":
        out = -np.exp(-r)
    elif spec.kind == "rational":
        out = -1.0 / (1.0 + r) ** 2
    elif spec.kind == "triangular":
        out = np.where(r < 1.0, -1.0, 0.0)
    else:
        out = np.where(r < 1.0, -2.0 * r, 0.0)
    return out if out.ndim else float(out)


def _bump_closed_form(a, b, x, eps: float, moments=None):
    """Shared body of the bump segment integral and its gradient.

    With d = b - a, w = a - x and L = |d| the squared distance is
    A u^2 + B u + C, and s0, s1, s2 are the moments of u where it stays
    below eps^2. Returns the cast a and x, the coordinates (dx, dy) of d,
    L, active, (s0, s1, s2), inner and the value (L/eps) inner, clipped at
    0 and 0 off the support. Given the ``moments`` of an earlier call on
    the same inputs it skips the support solve; active is then s0 > 0.

    Every dot product is written per coordinate, x part plus y part: that
    is the order in which a sum over the length-2 coordinate axis adds,
    at a fraction of its cost.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    x = np.asarray(x, dtype=float)
    dx, dy = b[..., 0] - a[..., 0], b[..., 1] - a[..., 1]
    wx, wy = a[..., 0] - x[..., 0], a[..., 1] - x[..., 1]
    A = dx * dx + dy * dy
    B = 2.0 * (wx * dx + wy * dy)
    C = wx * wx + wy * wy
    del wx, wy  # temporaries held to the end cost about 1.5x the page faults
    L = np.sqrt(A)
    if moments is None:
        disc = B * B - 4.0 * A * (C - eps * eps)
        pos = (A > 0.0) & (disc > 0.0)
        sq = np.sqrt(np.where(pos, disc, 0.0))
        with np.errstate(invalid="ignore", divide="ignore"):
            u1 = np.where(pos, (-B - sq) / (2.0 * A), 0.0)
            u2 = np.where(pos, (-B + sq) / (2.0 * A), 0.0)
        lo = np.maximum(u1, 0.0)
        hi = np.minimum(u2, 1.0)
        active = pos & (lo < hi)
        del disc, sq, u1, u2, pos
        lo = np.where(active, lo, 0.0)
        hi = np.where(active, hi, 0.0)
        moments = (hi - lo, 0.5 * (hi * hi - lo * lo), (hi * hi * hi - lo * lo * lo) / 3.0)
    else:
        active = moments[0] > 0.0  # lo < hi makes hi - lo positive
    s0, s1, s2 = moments
    inv2 = 1.0 / (eps * eps)
    inner = (1.0 - C * inv2) * s0 - B * inv2 * s1 - A * inv2 * s2
    val = np.where(active, np.maximum((L / eps) * inner, 0.0), 0.0)
    return a, x, (dx, dy), L, active, moments, inner, val


def bump_segment_integral(a, b, x, eps: float, with_moments: bool = False):
    """Closed-form segment integral of the scaled bump kernel.

    Evaluates int_0^1 (1/eps) max{0, 1 - R(u)^2/eps^2} |b - a| du where
    R(u) is the distance from a + u(b - a) to x. Accepts broadcastable
    point arrays with a trailing coordinate axis and returns the
    broadcast shape without it. Zero-length segments contribute 0. With
    ``with_moments`` returns (value, moments), the moments (s0, s1, s2) of
    u over the support that :func:`bump_segment_integral_grad` can reuse.
    """
    *_, moments, _, val = _bump_closed_form(a, b, x, eps)
    val = val if val.ndim else float(val)
    return (val, moments) if with_moments else val


def bump_segment_integral_grad(a, b, x, eps: float, moments=None):
    """Value and exact gradients of :func:`bump_segment_integral`.

    Returns (value, d/da, d/db, d/dx) with the derivative arrays shaped
    like the broadcast inputs. The integrand vanishes at interior support
    boundaries and the clipped limits 0 and 1 are constants, so the
    derivative reduces to differentiating the coefficients at fixed
    limits. The result is one-sided where a support boundary coincides
    with a segment endpoint. Given the ``moments`` of a value call on the
    same inputs it skips the support solve, with the same result bit for bit.
    """
    a, x, d, L, active, (s0, s1, s2), inner, val = _bump_closed_form(a, b, x, eps, moments)
    inv2 = 1.0 / (eps * eps)
    # Partials of the integral with respect to the quadratic coefficients.
    gA = np.where(active, -(L / eps) * inv2 * s2, 0.0)
    gB = np.where(active, -(L / eps) * inv2 * s1, 0.0)
    gC = np.where(active, -(L / eps) * inv2 * s0, 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        gL = np.where(active & (L > 0.0), inner / eps, 0.0)
        unit = [np.where(L > 0.0, dc / L, 0.0) for dc in d]

    da, db, dx = (np.empty(active.shape + (2,)) for _ in range(3))
    for k in range(2):
        dk, wk, uk = d[k], a[..., k] - x[..., k], unit[k]
        da[..., k] = gA * (-2.0 * dk) + gB * 2.0 * (dk - wk) + gC * 2.0 * wk + gL * (-uk)
        db[..., k] = gA * (2.0 * dk) + gB * 2.0 * wk + gL * uk
        dx[..., k] = gB * (-2.0 * dk) + gC * (-2.0 * wk)
    return (val if val.ndim else float(val)), da, db, dx


@lru_cache(maxsize=8)
def _gauss_legendre(quad_points: int):
    """Read-only Gauss-Legendre nodes and weights mapped to [0, 1], solved
    once per node count: each block of a pair list calls the quadrature."""
    nodes, weights = np.polynomial.legendre.leggauss(quad_points)
    nodes, weights = 0.5 * (nodes + 1.0), 0.5 * weights
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _quadrature_setup(a, b, x, eps: float, quad_points: int):
    """Checked inputs as coordinate pairs (ax, ay), (xx, xy) and (dx, dy)
    of the segment vectors d = b - a, their lengths L, the broadcast shape
    of the inputs, and Gauss-Legendre nodes and weights mapped to [0, 1]."""
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if quad_points < 1:
        raise ValueError("quad_points must be at least 1")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    x = np.asarray(x, dtype=float)
    d = (b[..., 0] - a[..., 0], b[..., 1] - a[..., 1])
    L = np.sqrt(d[0] * d[0] + d[1] * d[1])
    return ((a[..., 0], a[..., 1]), (x[..., 0], x[..., 1]), d, L,
            np.broadcast(a, b, x).shape, *_gauss_legendre(quad_points))


def kernel_segment_integral(spec: KernelSpec, a, b, x, eps: float, quad_points: int = 32):
    """Segment integral of a scaled kernel profile.

    Same integral as :func:`bump_segment_integral` for an arbitrary
    profile; the bump profile dispatches to the closed form and the rest
    use Gauss-Legendre quadrature with ``quad_points`` nodes.
    """
    if spec.kind == "bump":
        return bump_segment_integral(a, b, x, eps)
    (ax, ay), (xx, xy), (dx, dy), L, _, nodes, weights = _quadrature_setup(
        a, b, x, eps, quad_points)
    acc = 0.0
    for u, wt in zip(nodes, weights):
        r = np.sqrt((ax + u * dx - xx) ** 2 + (ay + u * dy - xy) ** 2)
        acc = acc + wt * kernel_eval(spec, r / eps)
    val = acc * L / eps
    return val if np.ndim(val) else float(val)


def kernel_segment_integral_grad(spec: KernelSpec, a, b, x, eps: float, quad_points: int = 32):
    """Value and gradients of :func:`kernel_segment_integral`.

    The gradient differentiates the quadrature sum itself, so it is exact
    for the discretized quantity the optimizer minimizes. Nodes that land
    exactly on the evaluation point contribute no directional term.
    """
    if spec.kind == "bump":
        return bump_segment_integral_grad(a, b, x, eps)
    (ax, ay), (xx, xy), d, L, shape, nodes, weights = _quadrature_setup(
        a, b, x, eps, quad_points)
    with np.errstate(invalid="ignore", divide="ignore"):
        unit = [np.where(L > 0.0, dc / L, 0.0) for dc in d]
    acc = 0.0
    da, db, dx = (np.zeros(shape) for _ in range(3))
    for u, wt in zip(nodes, weights):
        diff = (ax + u * d[0] - xx, ay + u * d[1] - xy)
        r = np.sqrt(diff[0] * diff[0] + diff[1] * diff[1])
        jv = kernel_eval(spec, r / eps)
        jd = kernel_derivative(spec, r / eps)
        acc = acc + wt * jv
        # d/dtheta of (1/eps) J(r/eps) L = (1/eps^2) J' (dr/dtheta) L + (1/eps) J dL/dtheta
        scale = wt * jd * L / (eps * eps)
        for k in range(2):
            with np.errstate(invalid="ignore", divide="ignore"):
                core = scale * np.where(r > 0.0, diff[k] / r, 0.0)
            da[..., k] += core * (1.0 - u)
            db[..., k] += core * u
            dx[..., k] += -core
    for k in range(2):
        da[..., k] += (acc / eps) * (-unit[k])
        db[..., k] += (acc / eps) * unit[k]
    val = acc * L / eps
    return (val if np.ndim(val) else float(val)), da, db, dx

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

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Kind -> the profile J(r), its slope dJ/dr (one-sided from inside the
# support at kinks), its mass (the integral over [0, infinity), which run
# summaries report; below 1 for bump and triangular, so their multiplicities
# are not normalized) and whether J vanishes for r >= 1.
_Profile = namedtuple("_Profile", "value slope mass compact")
_PROFILES = {
    "exponential": _Profile(lambda r: np.exp(-r), lambda r: -np.exp(-r), 1.0, False),
    "rational": _Profile(lambda r: 1.0 / (1.0 + r), lambda r: -1.0 / (1.0 + r) ** 2,
                         np.inf, False),
    "triangular": _Profile(lambda r: np.maximum(0.0, 1.0 - r),
                           lambda r: np.where(r < 1.0, -1.0, 0.0), 0.5, True),
    "bump": _Profile(lambda r: np.maximum(0.0, 1.0 - r * r),
                     lambda r: np.where(r < 1.0, -2.0 * r, 0.0), 2.0 / 3.0, True),
}
KERNEL_KINDS = tuple(_PROFILES)


@dataclass(frozen=True)
class KernelSpec:
    """Selects one of the built-in kernel profiles by name."""

    kind: str = "bump"

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}; expected one of {KERNEL_KINDS}")

    @property
    def compact_support(self) -> bool:
        return _PROFILES[self.kind].compact

    @property
    def profile_mass(self) -> float:
        """Integral of the profile over [0, infinity)."""
        return _PROFILES[self.kind].mass


def _check_eps(*values: float, what: str = "eps"):
    """The one eps rule, for a smoothing radius or a decreasing schedule of
    them: each at least 1.5e-154, where eps**2 is normal and 1 / eps**2 finite."""
    if not all(eps >= 1.5e-154 for eps in values):
        raise ValueError(f"{what} must be at least 1.5e-154, where eps**2 is a normal float")
    if any(b >= a for a, b in zip(values, values[1:])):
        raise ValueError(f"{what} must be strictly decreasing")


def _at_radii(column, r):
    """``column`` of the profile table at nonnegative radii; vectorized."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0):
        raise ValueError("kernel radius must be nonnegative")
    out = column(r)
    return out if out.ndim else float(out)


def kernel_eval(spec: KernelSpec, r):
    """Profile value J(r) for nonnegative radii; vectorized."""
    return _at_radii(_PROFILES[spec.kind].value, r)


def kernel_derivative(spec: KernelSpec, r):
    """dJ/dr, taken one-sidedly from inside the support at kink radii."""
    return _at_radii(_PROFILES[spec.kind].slope, r)


def _bump_closed_form(a, b, x, eps: float, moments=None, grad: bool = False):
    """Shared body of the bump segment integral and its gradient.

    With d = b - a, w = a - x and L = |d| the squared distance is
    A u^2 + B u + C, and s0, s1, s2 are the moments of u where it stays
    below eps^2. Returns the broadcast shape of the pairs, d and (when
    ``grad`` is set, else None) w with the coordinate axis first, L,
    active, (s0, s1, s2), inner and the value (L/eps) inner, clipped at 0
    and 0 off the support. Given the ``moments`` of an earlier call on the
    same inputs it skips the support solve; active is then s0 > 0. A
    single pair is worked as an array of one, which the callers reshape.

    Every dot product is written per coordinate, x part plus y part: that
    is the order in which a sum over the length-2 coordinate axis adds,
    at a fraction of its cost. Factors that two terms share are computed
    once, and arrays no later step reads are overwritten in place.
    """
    _check_eps(eps)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    x = np.asarray(x, dtype=float)
    if not a.shape == b.shape == x.shape:  # the in-place steps below need one shape
        a, b, x = np.broadcast_arrays(a, b, x)
    shape = a.shape[:-1]
    if not shape:  # one pair: the in-place steps need arrays
        a, b, x = a[None], b[None], x[None]
        moments = moments and np.reshape(moments, (3, 1))
    a = np.moveaxis(a, -1, 0)
    d = np.subtract(np.moveaxis(b, -1, 0), a, order="C")
    w = np.subtract(a, np.moveaxis(x, -1, 0), order="C")
    A = d[0] * d[0] + d[1] * d[1]
    B = 2.0 * (w[0] * d[0] + w[1] * d[1])
    C = w[0] * w[0] + w[1] * w[1]
    w = w if grad else None  # a value call holds no w through the support solve
    L = np.sqrt(A)
    if moments is None:
        disc = B * B
        disc -= 4.0 * A * (C - eps * eps)
        pos = (A > 0.0) & (disc > 0.0)
        disc[~pos] = 0.0
        sq, two_a, lo = np.sqrt(disc, out=disc), 2.0 * A, np.negative(B)
        # Off pos the roots may be inf or nan: active is False there, and
        # both limits are zeroed.
        with np.errstate(invalid="ignore", divide="ignore"):
            hi = np.add(lo, sq)
            lo -= sq
            lo /= two_a
            hi /= two_a
            np.maximum(lo, 0.0, out=lo)
            np.minimum(hi, 1.0, out=hi)
            active = pos & (lo < hi)
        del disc, sq, two_a, pos
        lo[~active] = hi[~active] = 0.0
        hh, ll = hi * hi, lo * lo
        s1 = np.multiply(0.5, hh - ll)
        hh *= hi
        hh -= np.multiply(ll, lo, out=ll)
        moments = (np.subtract(hi, lo, out=hi), s1, np.divide(hh, 3.0, out=hh))
        del lo, ll
    else:
        active = moments[0] > 0.0  # lo < hi makes hi - lo positive
    s0, s1, s2 = moments
    inv2 = 1.0 / (eps * eps)
    # inner = (1 - C inv2) s0 - B inv2 s1 - A inv2 s2, in the arrays of C, B and A.
    inner = np.subtract(1.0, np.multiply(C, inv2, out=C), out=C)
    inner *= s0
    inner -= np.multiply(np.multiply(B, inv2, out=B), s1, out=B)
    inner -= np.multiply(np.multiply(A, inv2, out=A), s2, out=A)
    del A, B
    val = L / eps
    val *= inner
    np.maximum(val, 0.0, out=val)
    val[~active] = 0.0
    return shape, d, w, L, active, moments, inner, val


def bump_segment_integral(a, b, x, eps: float, with_moments: bool = False):
    """Closed-form segment integral of the scaled bump kernel.

    Evaluates int_0^1 (1/eps) max{0, 1 - R(u)^2/eps^2} |b - a| du where
    R(u) is the distance from a + u(b - a) to x. Accepts broadcastable
    point arrays with a trailing coordinate axis and returns the
    broadcast shape without it. Zero-length segments contribute 0. With
    ``with_moments`` returns (value, moments), the moments (s0, s1, s2) of
    u over the support that :func:`bump_segment_integral_grad` can reuse.
    """
    shape, *_, moments, _, val = _bump_closed_form(a, b, x, eps)
    if not shape:
        val, moments = float(val[0]), tuple(np.reshape(moments, (3,)))
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
    shape, d, w, L, active, (s0, s1, s2), inner, val = _bump_closed_form(
        a, b, x, eps, moments, True)
    # Partials of the integral with respect to the quadratic coefficients.
    scale = -(L / eps) * (1.0 / (eps * eps))
    gA, gB, gC = scale * s2, scale * s1, np.multiply(scale, s0, out=scale)
    idle, length = ~active, L > 0.0
    for g in (gA, gB, gC):
        g[idle] = 0.0
    gB2, gC2 = gB * 2.0, gC * 2.0
    gL = np.divide(inner, eps, out=inner)
    gL[~(active & length)] = 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        unit = d / L
    unit[:, ~length] = 0.0
    del inner, idle, active, L
    # da = gA (-2 d) + gB 2 (d - w) + gC 2 w + gL (-unit), db = gA (2 d) + gB 2 w + gL unit
    # and dx = gB (-2 d) + gC (-2 w), each in a (2, ...) array, added left to right.
    da, db, dx, term = (np.empty(d.shape) for _ in range(4))
    np.multiply(gA, np.multiply(-2.0, d, out=dx), out=da)
    np.multiply(gB, dx, out=dx)
    dx += np.multiply(gC, np.multiply(-2.0, w, out=term), out=term)
    da += np.multiply(gB2, np.subtract(d, w, out=term), out=term)
    da += np.multiply(gC2, w, out=term)
    da += np.multiply(gL, np.negative(unit, out=term), out=term)
    np.multiply(gA, np.multiply(2.0, d, out=db), out=db)
    db += np.multiply(gB2, w, out=term)
    db += np.multiply(gL, unit, out=term)
    da, db, dx = (np.moveaxis(g, 0, -1).reshape(shape + (2,)) for g in (da, db, dx))
    return (val if shape else float(val[0])), da, db, dx


@lru_cache(maxsize=8)
def _gauss_legendre(quad_points: int):
    """Read-only Gauss-Legendre nodes and weights mapped to [0, 1], solved
    once per node count: each block of a pair list calls the quadrature."""
    nodes, weights = np.polynomial.legendre.leggauss(quad_points)
    nodes, weights = 0.5 * (nodes + 1.0), 0.5 * weights
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _quadrature(spec: KernelSpec, a, b, x, eps: float, quad_points: int, grad: bool = False):
    """Shared Gauss-Legendre body of :func:`kernel_segment_integral` and, with
    ``grad``, :func:`kernel_segment_integral_grad`: the value, or the value and
    its (..., 2) derivatives in a, b and x."""
    _check_eps(eps)
    if quad_points < 1:
        raise ValueError("quad_points must be at least 1")
    profile = _PROFILES[spec.kind]
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    x = np.asarray(x, dtype=float)
    d = (b[..., 0] - a[..., 0], b[..., 1] - a[..., 1])
    L = np.sqrt(d[0] * d[0] + d[1] * d[1])
    acc = 0.0
    if grad:
        da, db, dx = (np.zeros(np.broadcast(a, b, x).shape) for _ in range(3))
    for u, wt in zip(*_gauss_legendre(quad_points)):
        diff = (a[..., 0] + u * d[0] - x[..., 0], a[..., 1] + u * d[1] - x[..., 1])
        r = np.sqrt(diff[0] * diff[0] + diff[1] * diff[1])
        acc = acc + wt * profile.value(r / eps)
        if not grad:
            continue
        # d/dtheta of (1/eps) J(r/eps) L = (1/eps^2) J' (dr/dtheta) L + (1/eps) J dL/dtheta
        scale = wt * profile.slope(r / eps) * L / (eps * eps)
        for k in range(2):
            with np.errstate(invalid="ignore", divide="ignore"):
                core = scale * np.where(r > 0.0, diff[k] / r, 0.0)
            da[..., k] += core * (1.0 - u)
            db[..., k] += core * u
            dx[..., k] += -core
    val = acc * L / eps
    val = val if np.ndim(val) else float(val)
    if not grad:
        return val
    for k in range(2):
        with np.errstate(invalid="ignore", divide="ignore"):
            unit = np.where(L > 0.0, d[k] / L, 0.0)
        da[..., k] += (acc / eps) * (-unit)
        db[..., k] += (acc / eps) * unit
    return val, da, db, dx


def kernel_segment_integral(spec: KernelSpec, a, b, x, eps: float, quad_points: int = 32,
                            with_moments: bool = False):
    """Segment integral of a scaled kernel profile.

    Same integral as :func:`bump_segment_integral` for an arbitrary
    profile; the bump profile dispatches to the closed form and the rest
    use Gauss-Legendre quadrature with ``quad_points`` nodes. With
    ``with_moments`` returns (value, moments): the bump's support moments,
    which :func:`kernel_segment_integral_grad` can reuse, else None.
    """
    if spec.kind == "bump":
        return bump_segment_integral(a, b, x, eps, with_moments=with_moments)
    value = _quadrature(spec, a, b, x, eps, quad_points)
    return (value, None) if with_moments else value


def kernel_segment_integral_grad(spec: KernelSpec, a, b, x, eps: float, quad_points: int = 32,
                                 moments=None):
    """Value and gradients of :func:`kernel_segment_integral`.

    The gradient differentiates the quadrature sum itself, so it is exact
    for the discretized quantity the optimizer minimizes. Nodes that land
    exactly on the evaluation point contribute no directional term. A
    bump reuses the ``moments`` of a value call on the same inputs.
    """
    if spec.kind == "bump":
        return bump_segment_integral_grad(a, b, x, eps, moments)
    return _quadrature(spec, a, b, x, eps, quad_points, grad=True)

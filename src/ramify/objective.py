"""Branch-shape objective: irrigation cost plus crowding minus payoff.

The objective J = I + c1 * P - c2 * H balances three terms on a branch
plan. I is the mollified irrigation cost, whose concave flux power
rewards bundling transported mass into shared trunks. P is a pairwise
crowding penalty between segment midpoints that pushes branches apart.
H pays for total leaf mass (density times arc length), the only term
that makes growing mass worthwhile at all.

The gradient is exact for the discretized objective: every term is
chain-ruled through vertex positions, segment lengths, midpoints, and
densities, including the prefix-sum structure of downstream flux. Where
the objective has kinks (flux floor, kernel support edges) a one-sided
choice is made so projected descent with a small floor stays stable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .gradients import central_difference, scatter_segment_gradients
from .mollified import (
    _branch_cost_gradient,
    _branch_cost_terms,
    _Evaluation,
    _midpoint_pairs,
    _record,
    ObjectiveValue,
)
from .plan_model import BranchPlan, SegmentTable, segment_table

PENALTY_KERNELS = ("gaussian", "powerlaw")


@dataclass(frozen=True)
class ObjectiveConfig:
    """Weights and smoothing parameters of the branch objective."""

    alpha: float = 0.5
    eps: float = 0.1
    c1: float = 0.0
    c2: float = 0.0
    penalty_kernel: str = "gaussian"
    beta: float = 1.0
    gamma: float = 0.5
    f_min: float = 1e-12
    penalty_arclength: bool = True

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        if not self.eps > 0.0:
            raise ValueError("eps must be positive")
        if self.c1 < 0.0 or self.c2 < 0.0:
            raise ValueError("c1 and c2 must be nonnegative")
        if self.penalty_kernel not in PENALTY_KERNELS:
            raise ValueError(f"penalty_kernel must be one of {PENALTY_KERNELS}")
        if not self.beta > 0.0:
            raise ValueError("beta must be positive")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if self.f_min < 0.0:
            raise ValueError("f_min must be nonnegative")

    def with_eps(self, eps: float) -> "ObjectiveConfig":
        return replace(self, eps=eps)


def _branch_table(plan) -> SegmentTable:
    table = segment_table(plan) if isinstance(plan, BranchPlan) else plan
    if not isinstance(table, SegmentTable) or not len(table.density):
        raise TypeError("tree objective is defined on branch plans")
    return table


def _parameter_steps(table: SegmentTable) -> np.ndarray:
    """Each segment's step 1/K on its branch's uniform parameter grid."""
    return (1.0 / table.segments)[table.owner]


def _square_distances(midpoints: np.ndarray) -> np.ndarray:
    """(S, S) squared distances between midpoints, the x part plus the y
    part: the order of a sum over the coordinate axis, without its cost."""
    dx = midpoints[:, 0, None] - midpoints[None, :, 0]
    dy = midpoints[:, 1, None] - midpoints[None, :, 1]
    return dx * dx + dy * dy


def _penalty_matrix(midpoints: np.ndarray, weights: np.ndarray,
                    cfg: ObjectiveConfig) -> np.ndarray:
    """Interaction matrix M with P = w @ M @ w.

    Gaussian pairs include the diagonal; the power-law kernel is singular
    at zero distance so the diagonal is excluded and coincident weighted
    midpoints are an error.
    """
    sq = _square_distances(midpoints)
    if cfg.penalty_kernel == "gaussian":
        return np.exp(-cfg.beta * sq)
    off = ~np.eye(len(midpoints), dtype=bool)
    if np.any(off & (sq == 0.0) & (np.outer(weights, weights) > 0.0)):
        raise ValueError("power-law crowding penalty: coincident weighted midpoints")
    m_mat = np.zeros_like(sq)
    np.power(sq, -0.5 * cfg.gamma, out=m_mat, where=off & (sq > 0.0))
    return m_mat


def _penalty_slopes(midpoints: np.ndarray, m_mat: np.ndarray,
                    cfg: ObjectiveConfig) -> np.ndarray:
    """Radial-derivative companion N of the matrix M of the same midpoints:
    the midpoint gradient of each pair is 2 w_s w_t N_st (mid_s - mid_t)."""
    if cfg.penalty_kernel == "gaussian":
        return -2.0 * cfg.beta * m_mat
    sq = _square_distances(midpoints)
    n_mat = np.zeros_like(sq)
    # M is positive on exactly the pairs the power law counts.
    np.power(sq, -0.5 * cfg.gamma - 1.0, out=n_mat, where=m_mat > 0.0)
    n_mat *= -cfg.gamma
    return n_mat


def _crowding(table: SegmentTable, cfg: ObjectiveConfig):
    """Penalty weights w and interaction matrix M of the crowding penalty."""
    weights = table.density * (table.length if cfg.penalty_arclength
                               else _parameter_steps(table))
    return weights, _penalty_matrix(table.midpoint, weights, cfg)


def crowding_penalty(plan: BranchPlan, cfg: ObjectiveConfig) -> float:
    """Pairwise repulsion between segment midpoints, weighted by mass."""
    weights, m_mat = _crowding(_branch_table(plan), cfg)
    return float(weights @ m_mat @ weights)


def tree_objective(plan, cfg: ObjectiveConfig, kept=None) -> ObjectiveValue:
    """Evaluate J = I + c1 * P - c2 * H on a branch plan or its segment table.

    The result carries its config, segment table, pair blocks, their
    support moments, the mollified flux and the crowding matrix for
    :func:`tree_objective_gradient`. ``kept`` is as in ``energy_max``.
    """
    table = _branch_table(plan)
    pairs = _midpoint_pairs(table, cfg.eps, kept=kept)
    terms, moments, flux_mol = _branch_cost_terms(table, cfg.alpha, cfg.eps, cfg.f_min, pairs)
    irrigation = float(terms.sum())
    crowding, penalty = None, 0.0
    if cfg.c1 != 0.0:
        weights, m_mat = crowding = _crowding(table, cfg)
        penalty = float(weights @ m_mat @ weights)
    payoff = float((table.density * table.length).sum())
    total = irrigation + cfg.c1 * penalty - cfg.c2 * payoff
    return ObjectiveValue(total=total, irrigation=irrigation, penalty=penalty, payoff=payoff,
                          _evaluation=_Evaluation("tree_objective", (cfg,),
                                                  (table, pairs, moments, flux_mol,
                                                   crowding)))


def tree_objective_gradient(value: ObjectiveValue) -> np.ndarray:
    """Exact gradient of :func:`tree_objective` in free coordinates, at the
    plan and config of ``value``, a result of :func:`tree_objective`.

    Returns sensitivities for every interior vertex coordinate and every
    density entry; the root vertex is pinned to zero by the free mask.
    """
    record = _record(value, "tree_objective")
    (cfg,), (table, pairs, moments, flux_mol, crowding) = record.settings, record.data
    density = table.density
    mids = table.midpoint
    ga, gb, gx, g_len, g_cell = _branch_cost_gradient(table, cfg.alpha, cfg.eps, cfg.f_min,
                                                      pairs, moments, flux_mol)
    g_density = g_cell * table.length
    g_len = g_len + g_cell * density

    # Crowding penalty.
    if cfg.c1 != 0.0:
        weights, m_mat = crowding
        n_mat = _penalty_slopes(mids, m_mat, cfg)
        g_weights = 2.0 * (m_mat @ weights)
        pulled = n_mat @ (weights[:, None] * mids)
        g_mid_pen = 2.0 * weights[:, None] * ((n_mat @ weights)[:, None] * mids - pulled)
        if cfg.penalty_arclength:
            g_density = g_density + cfg.c1 * g_weights * table.length
            g_len = g_len + cfg.c1 * g_weights * density
        else:
            g_density = g_density + cfg.c1 * g_weights * _parameter_steps(table)
        gx = gx + cfg.c1 * g_mid_pen

    # Leaf payoff enters with a negative sign.
    g_density = g_density - cfg.c2 * table.length
    g_len = g_len - cfg.c2 * density

    return scatter_segment_gradients(table, ga, gb, gx, g_len, g_density)


def fd_gradient(plan: BranchPlan, cfg: ObjectiveConfig, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of the objective, for verification."""
    return central_difference(lambda p: tree_objective(p, cfg).total, plan, step)

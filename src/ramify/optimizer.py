"""Projected gradient descent over plans, with continuation in eps.

The descent works on the flat coordinate vector of a plan. Each
iteration takes the analytic gradient, tries steps tau * factor^j on the
ladder tau0 * factor^j from its starting rung downward, projects each
trial onto the feasible set (origin and fixed terminals pinned, branch
heights and densities nonnegative), and accepts the first strict
decrease. A stage's first search starts at tau0; each later one starts
one rung above the step the previous iteration accepted, capped at tau0,
as in the monotone variant of Birgin, Martinez and Raydan (SIAM J.
Optim. 10, 2000). Every few iterations the plan is re-sampled to equal
arc length; the remap is applied only when it does not increase the
objective, so the recorded objective values decrease strictly until the
method stops.

Continuation solves a sequence of problems with shrinking smoothing
radius, warm-starting each stage from the previous minimizer. Larger
radii let distant paths feel each other and merge into shared trunks;
smaller radii sharpen the geometry toward the unsmoothed cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .gradients import vector_to_plan
from .kernels import KernelSpec, _check_eps
from .mollified import _KeptPairs, energy_avg, energy_avg_gradient, energy_max, energy_max_gradient
from .objective import ObjectiveConfig, tree_objective, tree_objective_gradient
from .plan_model import Layout

TRACE_FIELDS = ("iter", "eps", "J", "I", "P", "H", "tau", "gnorm", "backtracks")
TRACE_HEADER = ",".join(TRACE_FIELDS)


@dataclass(frozen=True)
class DescentConfig:
    """Step-size, stopping, and continuation parameters."""

    eps_schedule: tuple = (0.1,)
    tau0: Optional[float] = None
    j_max: int = 500
    backtrack_factor: float = 0.5
    backtrack_limit: int = 30
    stop_tol: float = 1e-7
    stop_patience: int = 10
    rediscretize_every: int = 5
    m_init: float = 0.1

    def __post_init__(self):
        schedule = tuple(float(e) for e in self.eps_schedule)
        object.__setattr__(self, "eps_schedule", schedule)
        if not schedule:
            raise ValueError("eps_schedule must not be empty")
        _check_eps(*schedule, what="eps_schedule entries")
        if self.tau0 is not None and not self.tau0 > 0.0:
            raise ValueError("tau0 must be positive when given")
        if self.j_max < 0:
            raise ValueError("j_max must be nonnegative")
        if not 0.0 < self.backtrack_factor < 1.0:
            raise ValueError("backtrack_factor must lie in (0, 1)")
        if self.backtrack_limit < 1:
            raise ValueError("backtrack_limit must be at least 1")
        if not self.stop_tol > 0.0:
            raise ValueError("stop_tol must be positive")
        if self.stop_patience < 1:
            raise ValueError("stop_patience must be at least 1")
        if self.rediscretize_every < 0:
            raise ValueError("rediscretize_every must be nonnegative (0 disables)")
        if self.m_init < 0.0:
            raise ValueError("m_init must be nonnegative")


class TraceRow(NamedTuple):
    """One accepted descent iteration, in trace column order."""

    iteration: int
    eps: float
    total: float
    irrigation: float
    penalty: float
    payoff: float
    tau: float
    grad_norm: float
    backtracks: int

    def as_csv(self) -> str:
        return ",".join(format(v, ".17g") if isinstance(v, float) else str(v)
                        for v in self)


class StageCounts(NamedTuple):
    """Line-search work of one stage: every objective evaluation (start,
    trials and resamples) and every trial that failed to decrease."""

    objective_evals: int
    rejected_trials: int


@dataclass
class RunTrace:
    """Concatenated iteration history plus per-stage snapshots and counts."""

    rows: list = field(default_factory=list)
    stage_plans: list = field(default_factory=list)
    stage_reasons: list = field(default_factory=list)
    stage_counts: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)


class Evaluator(NamedTuple):
    """Objective and gradient callables over one plan type.

    ``objective(table, kept=None)`` returns an :class:`ObjectiveValue`, with
    ``kept`` a stage's pair list for ``pairs`` (eps, kernel); ``gradient(value)``
    the flat gradient at the plan of ``value``, a result of that objective.
    """

    objective: Callable
    gradient: Callable
    pairs: Optional[tuple] = None


def path_evaluator(alpha: float, eps: float, spec: KernelSpec = KernelSpec(),
                   functional: str = "avg", quad_points: int = 32) -> Evaluator:
    """Evaluator minimizing a mollified irrigation energy over path plans.

    Each call reads the energy from this module's names, so a wrapper set
    over them after import (as a tracer does) is the one used.
    """
    if functional == "avg":
        def objective(plan, kept=None):
            return energy_avg(plan, alpha, eps, spec, quad_points, kept=kept)
        return Evaluator(objective=objective, gradient=energy_avg_gradient, pairs=(eps, spec))
    if functional == "max":
        def objective(plan, kept=None):
            return energy_max(plan, alpha, eps, spec, kept=kept)
        return Evaluator(objective=objective, gradient=energy_max_gradient, pairs=(eps, spec))
    raise ValueError("functional must be 'avg' or 'max'")


def branch_evaluator(obj_cfg: ObjectiveConfig, eps: float) -> Evaluator:
    """Evaluator for the branch-shape objective at one stage's smoothing."""
    cfg = obj_cfg.with_eps(eps)
    return Evaluator(objective=lambda plan, kept=None: tree_objective(plan, cfg, kept=kept),
                     gradient=tree_objective_gradient, pairs=(eps, KernelSpec()))


def feasibility_project(vector: np.ndarray, layout: Layout) -> np.ndarray:
    """Project a flat coordinate vector onto the feasible set.

    Pinned slots are restored from the layout's base vector; branch
    heights and densities are clamped to zero from below. Path vertices
    are otherwise unconstrained.
    """
    out = np.where(layout.free, np.asarray(vector, dtype=float), layout.base)
    out[layout.clamp] = np.maximum(out[layout.clamp], 0.0)
    return out


def _interp_rows(x: np.ndarray, xp: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """``np.interp(x[r], xp[r], fp[r])`` for each row r of nondecreasing ``xp``
    and finite ``fp``, with no x below xp[r, 0]: fp at the last knot at or
    below x where x lies on it or past the end, else the slope to the next
    knot times the distance plus fp, in np.interp's order and without warnings."""
    j = (xp[:, None, :] <= x[:, :, None]).sum(axis=2) - 1
    x0, f0, x1, f1 = (np.take_along_axis(v, k, 1) for k in (j, np.minimum(j + 1, xp.shape[1] - 1))
                      for v in (xp, fp))
    with np.errstate(all="ignore"):
        out = (f1 - f0) / (x1 - x0) * (x - x0) + f0
    return np.where((j == xp.shape[1] - 1) | (x0 == x), f0, out)


def rediscretize_plan(x: np.ndarray, layout: Layout) -> np.ndarray:
    """A copy of the flat vector ``x`` with every path or branch re-sampled
    to equal arc length between its knots.

    Knot counts and endpoints are unchanged. The density of each new branch
    interval carries the mass of the old arc span it covers. A zero-length
    branch, or one whose remapped leaf mass drifts by more than 1e-9
    relative, keeps its slots. The owners with one vertex count are
    re-sampled together, each by the arithmetic of ``np.linspace`` and
    ``np.interp`` on it alone.
    """
    out = np.array(x, dtype=float)
    firsts = layout.group_starts + np.arange(len(layout.counts))  # each owner's first vertex
    for n in sorted(set(layout.counts.tolist())):  # a first np.unique call adds ~1.4 MB of RSS
        vertex = firsts[layout.counts == n, None] + np.arange(n)
        xi, yi = layout.vertex_slots[:, 0][vertex], layout.vertex_slots[:, 1][vertex]
        xs, ys = out[xi], out[yi]
        lengths = np.hypot(np.diff(xs), np.diff(ys))
        arcs = np.zeros(xi.shape)
        np.cumsum(lengths, axis=1, out=arcs[:, 1:])
        total = arcs[:, -1]
        # np.linspace(0, total, n) for each row, its step-underflow case included.
        step = total / (n - 1)
        knots = np.arange(n) * step[:, None]
        knots[step == 0.0] = np.arange(n) / (n - 1) * total[step == 0.0, None]
        knots[:, -1] = total
        new_x, new_y = _interp_rows(knots, arcs, xs), _interp_rows(knots, arcs, ys)
        keep = slice(None)  # every owner, unless a branch remap below is refused
        for new, old in ((new_x, xs), (new_y, ys)):
            new[:, 0], new[:, -1] = old[:, 0], old[:, -1]
            new[total <= 0.0] = old[total <= 0.0, :1]  # no length: all at the first vertex
        if len(layout.m_slots):
            mi = layout.m_slots[layout.group_starts[layout.counts == n, None] + np.arange(n - 1)]
            ms = out[mi]
            new_lengths = np.hypot(np.diff(new_x), np.diff(new_y))
            # overlap[o, q, p]: arc length shared by old interval q and new interval p of owner o.
            overlap = (np.minimum(knots[:, None, 1:], arcs[:, 1:, None])
                       - np.maximum(knots[:, None, :-1], arcs[:, :-1, None]))
            # Reducing along axis 1 adds the old intervals in order, one row at
            # a time; a pairwise sum would change the last bits of the result.
            acc = np.where(overlap > 0.0, ms[:, :, None] * overlap, 0.0).sum(axis=1)
            new_m = np.divide(acc, new_lengths, out=np.zeros_like(acc), where=new_lengths > 0.0)
            old_mass = (ms * lengths).sum(axis=1)  # each row summed as its own 1-D sum would be
            drift = np.abs((new_m * new_lengths).sum(axis=1) - old_mass)
            keep = (total != 0.0) & ~(drift > 1e-9 * np.where(old_mass > 1.0, old_mass, 1.0))
            out[mi[keep]] = new_m[keep]
        out[xi[keep]], out[yi[keep]] = new_x[keep], new_y[keep]
    return out


def _guarded(call):
    """``call()``, or None when it overflows; the guard of every evaluation."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            return call()
    except FloatingPointError:  # finite coordinates whose squares overflow, or a tiny eps
        return None


def backtracking_step(x: np.ndarray, layout: Layout, current_total: float, grad: np.ndarray,
                      tau_start: float, evaluate: Callable, cfg: DescentConfig):
    """Largest projected step tau_start * factor^j from x that strictly decreases.

    At most ``backtrack_limit`` trials are made, from ``tau_start`` down;
    ``run_descent`` chooses the start. Each projected trial vector goes to the
    stage's ``evaluate`` (None when not finite or overflowing); no plan is
    built. Returns (x, value, tau, trials) on success, where trials counts
    the rejected shrinks before acceptance, or (None, None, 0.0, limit) when
    no trial decreases the objective. A trial with no finite value ends the
    search with that trial vector and no value.
    """
    tau = tau_start
    for j in range(cfg.backtrack_limit):
        with np.errstate(over="ignore"):  # a non-finite step is caught below
            trial = feasibility_project(x - tau * grad, layout)
        value = evaluate(trial)
        if value is None or not np.isfinite(value.total):
            return trial, None, tau, j
        if value.total < current_total:
            return trial, value, tau, j
        tau *= cfg.backtrack_factor
    return None, None, 0.0, cfg.backtrack_limit


def run_descent(plan, evaluator: Evaluator, cfg: DescentConfig, eps: float, tau0: float,
                start_iteration: int = 0, on_iteration=None):
    """Projected descent at fixed eps until convergence or rejection.

    Stops after ``stop_patience`` consecutive iterations whose relative
    decrease falls below ``stop_tol``, when the line search cannot find
    any decreasing step, or at the iteration cap. A starting objective,
    gradient entry, trial vector entry, trial objective or resample
    objective that is not finite or overflows stops the stage with reason
    ``"nonfinite"``. Returns the last finite accepted plan (the starting
    plan if its own objective is not finite), its objective value (None
    if that overflowed), the accepted-iteration rows, the stop reason and
    the stage's :class:`StageCounts`.

    The first line search starts at ``tau0``; each later one at
    ``min(tau0, tau_prev / backtrack_factor)``, where ``tau_prev`` is the
    step the previous iteration accepted, whether or not its resample was
    kept. Every search still makes at most ``backtrack_limit`` trials from
    its start, and one that finds no decrease ends the stage.

    The state is the iterate, a flat vector in the starting plan's layout,
    and its objective value; the start, every trial and every resample are
    evaluated on tables built from the vector. A plan is built from it only
    where one is read: for ``on_iteration`` when one is given, and for the
    return. Each gradient is taken of the objective value of the accepted
    iterate (the accepted trial or resample).
    """
    layout = Layout.of(plan)
    # For the start and every trial; a resample gets a fresh list and leaves this one.
    kept = None if evaluator.pairs is None else _KeptPairs(*evaluator.pairs)
    evals = rejected = 0

    def evaluate(vector, kept=kept):
        def call():
            nonlocal evals
            table = layout.table(vector)
            evals += 1
            return evaluator.objective(table, kept)
        return _guarded(call) if np.all(np.isfinite(vector)) else None

    x = feasibility_project(layout.base, layout)
    value = evaluate(x)
    if value is None or not np.isfinite(value.total):
        return vector_to_plan(x, layout), value, [], "nonfinite", StageCounts(evals, rejected)
    rows = []
    quiet = 0
    reason = "iteration_cap"
    tau_prev = None
    for it in range(1, cfg.j_max + 1):
        grad = evaluator.gradient(value)
        if not np.all(np.isfinite(grad)):
            reason = "nonfinite"
            break
        start = tau0 if tau_prev is None else min(tau0, tau_prev / cfg.backtrack_factor)
        trial, new_value, tau, trials = backtracking_step(
            x, layout, value.total, grad, start, evaluate, cfg)
        rejected += trials
        if new_value is None:
            reason = "line_search_exhausted" if trial is None else "nonfinite"
            break
        x, tau_prev = trial, tau
        if cfg.rediscretize_every > 0 and it % cfg.rediscretize_every == 0:
            resampled = rediscretize_plan(x, layout)
            resampled_value = evaluate(resampled, kept=None)
            if resampled_value is None or not np.isfinite(resampled_value.total):
                reason = "nonfinite"  # the accepted trial still gets its row
            elif resampled_value.total <= new_value.total:
                x, new_value = resampled, resampled_value
            # A rejected resample's evaluation would otherwise be held until the next one.
            del resampled, resampled_value
        row = TraceRow(
            iteration=start_iteration + it,
            eps=eps,
            total=new_value.total,
            irrigation=new_value.irrigation,
            penalty=new_value.penalty,
            payoff=new_value.payoff,
            tau=tau,
            grad_norm=float(np.sqrt((grad * grad).sum())),
            backtracks=trials,
        )
        rows.append(row)
        if on_iteration is not None:
            on_iteration(row, vector_to_plan(x, layout))
        relative = (value.total - new_value.total) / max(abs(value.total), 1e-300)
        value = new_value
        if reason == "nonfinite":
            break
        if relative < cfg.stop_tol:
            quiet += 1
            if quiet >= cfg.stop_patience:
                reason = "converged"
                break
        else:
            quiet = 0
    return vector_to_plan(x, layout), value, rows, reason, StageCounts(evals, rejected)


def resolve_tau0(plan, cfg: DescentConfig) -> float:
    """Configured tau0, or a tenth of the plan diameter when unset."""
    if cfg.tau0 is not None:
        return cfg.tau0
    diameter = plan.diameter()
    return 0.1 * diameter if diameter > 0.0 else 0.1


def eps_continuation(plan, evaluator_factory: Callable[[float], Evaluator],
                     cfg: DescentConfig, on_iteration=None):
    """Descend through the eps schedule with warm starts.

    ``evaluator_factory`` maps each eps to an evaluator. Returns the
    final plan and a trace whose stage_plans hold the initial plan
    followed by the minimizer of every stage; iteration numbers continue
    across stages. A stage that stops on a non-finite value is the last.
    The final value is the last finite one, or None when the first
    stage's starting objective is not finite.
    """
    layout = Layout.of(plan)  # the nearest feasible plan (identity on feasible input)
    plan = vector_to_plan(feasibility_project(layout.base, layout), layout)
    del layout  # each stage makes its own; this one would be held through the run
    tau0 = resolve_tau0(plan, cfg)
    trace = RunTrace()
    trace.stage_plans.append(plan)
    trace.metadata["tau0"] = tau0
    start = 0
    final_value = None
    for eps in cfg.eps_schedule:
        evaluator = evaluator_factory(eps)
        plan, value, rows, reason, counts = run_descent(
            plan, evaluator, cfg, eps, tau0, start_iteration=start, on_iteration=on_iteration)
        if value is not None and np.isfinite(value.total):
            final_value = value
        trace.rows.extend(rows)
        trace.stage_plans.append(plan)
        trace.stage_reasons.append(reason)
        trace.stage_counts.append(counts)
        start += len(rows)
        if reason == "nonfinite":
            break
    trace.metadata["final"] = None if final_value is None else {
        key: getattr(final_value, key) for key in ("total", "irrigation", "penalty", "payoff")}
    return plan, trace

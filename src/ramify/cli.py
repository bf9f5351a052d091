"""Command-line frontend for irrigation and branch-shape experiments.

Subcommands: irrigate (half-circle path plans), treeopt (branch fans),
gamma-table (smoothing-vs-exact cost table), counterexample (the
two-path lengthening paradox), gradcheck (analytic vs finite-difference
gradients). Each ``cmd_*`` returns its report's file name, the report and
its failed checks; ``main`` writes the report and exits 0 on success, 2 on
configuration problems, 3 on failed checks (each named on stderr) or
degenerate evaluations.

Heavy numeric imports happen inside the command functions so that the
RAMIFY_THREADS cap can be applied to the BLAS thread pools first. On
glibc, ``main`` also raises the heap's trim and mmap thresholds once per
process, so the block temporaries each evaluation frees stay in the heap
for the next one instead of going back to the system.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import asdict

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS")

# Run-config settings that only some commands read; any other command
# rejects a non-default value instead of silently ignoring it. A dotted
# key is one field of a section that not every reader of the section reads.
_READ_BY = {
    "kernel": ("irrigate", "gamma-table"),
    "functional": ("irrigate",),
    "quad_points": ("irrigate", "gamma-table", "counterexample"),
    "merge_tol": ("irrigate",),
    "measure": ("irrigate", "gamma-table"),
    "fan": ("treeopt",),
    "descent": ("irrigate", "treeopt"),
    "gamma": ("gamma-table",),
    "counterexample": ("counterexample",),
    "gradcheck": ("gradcheck",),
    "objective": ("irrigate", "treeopt", "gamma-table", "gradcheck"),
    "objective.eps": ("gradcheck",),  # treeopt takes eps from its schedule
    "descent.m_init": ("treeopt",),
}
# Path energies read objective.alpha only; the branch objective reads every field.
_READ_BY.update({f"objective.{key}": ("treeopt", "gradcheck") for key in (
    "c1", "c2", "penalty.kernel", "penalty.beta", "penalty.gamma", "f_min", "penalty_arclength")})
# Most pairs, S^2 for a plan of S segments, of any plan a command builds,
# whatever the kernel (by tracemalloc on a 2-core x86-64 host). A non-compact
# kernel pairs all S^2 as point ranges: about 10 MB at any S, but about 4 s an
# evaluation at S = 2,000. A compact kernel's list holds 40 B a pair and moves
# toward S^2 as paths bundle: at fig2's first eps (0.25) the starting star's
# energy_avg and gradient listed 1.9M pairs in 85 MB at S = 3,200 and 7.4M in
# 340 MB and 3.2 s at S = 6,400 (about 8.5 GB at S = 32,000). Crowding matrices
# (c1 != 0) are dense S x S: at S = 2,000 (a fan of 200 x 10 segments at eps
# 0.5) one tree objective and its gradient peak at 234 MB with the gaussian
# penalty, 266 MB with the power law and 113 MB with c1 = 0.
_MAX_DENSE_PAIRS = 4_000_000
# glibc mallopt(3) settings: M_TRIM_THRESHOLD (-1) and M_MMAP_THRESHOLD (-3),
# so the block temporaries each evaluation frees stay in the heap. Setting
# either turns off glibc's adaptive mmap threshold: on fig5 the trim
# threshold alone took 4.6M minor faults and twice the wall time, as every
# block array above the default 128 kB went to mmap; both took 7k.
_MALLOC_SETTINGS = ((-1, 256 << 20), (-3, 32 << 20))


def _apply_thread_env():
    """Cap numeric thread pools from RAMIFY_THREADS; returns an error or None.

    Must run before the first numpy import, which is why this reports
    problems as a string instead of importing any package machinery.
    """
    raw = os.environ.get("RAMIFY_THREADS")
    if raw is None:
        return None
    try:
        count = int(raw)
    except ValueError:
        return f"RAMIFY_THREADS must be an integer, got {raw!r}"
    if count < 0:
        return "RAMIFY_THREADS must be nonnegative (0 = automatic)"
    if count > 0:
        for name in _THREAD_VARS:
            os.environ[name] = str(count)
    return None


@functools.cache
def _keep_freed_memory():
    """Raise glibc's heap trim and mmap thresholds (``_MALLOC_SETTINGS``);
    once per process, and nothing off glibc or without ``mallopt``.

    ``ctypes`` is imported here because importing the CLI must stay cheap.
    """
    try:
        if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
            return
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return
    import ctypes

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for param, value in _MALLOC_SETTINGS:
        mallopt(param, value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramify",
        description="Optimal ramified irrigation patterns and branch shapes.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", metavar="FILE", help="JSON config file")
        cmd.add_argument("--preset", metavar="NAME",
                         help="named preset layered under the config file")
        cmd.add_argument("--out", metavar="DIR", help="output directory")
        if name == "irrigate":
            cmd.add_argument("--functional", choices=("avg", "max"),
                             help="mollified energy form for path plans")
    return parser


def _resolved_merge_tol(run_cfg, plan) -> float:
    if run_cfg.merge_tol is not None:
        return run_cfg.merge_tol
    diameter = plan.diameter()
    return 1e-6 * diameter if diameter > 0.0 else 0.0


def _run_continuation(initial_plan, factory, run_cfg, out_dir, svg_alpha, targets):
    """Shared run: continuation, then the trace and stage snapshots.

    ``trace.csv`` is written from the stages' rows once the continuation
    ends, so a run that raises leaves none. Returns the plans (the start,
    then each stage's), the last objective value a stage returned (None
    when none did), the keys both optimization summaries share, and the
    failure of a stage that stopped on a non-finite value."""
    from .optimizer import TRACE_HEADER, eps_continuation
    from .plan_model import save_plan
    from .svg import save_svg

    start, tau0, stages = eps_continuation(initial_plan, factory, run_cfg.descent)
    rows = [row for stage in stages for row in stage.rows]
    with open(os.path.join(out_dir, "trace.csv"), "w", encoding="utf-8") as trace_file:
        trace_file.writelines(line + "\n" for line in
                              [TRACE_HEADER] + [row.as_csv() for row in rows])
    plans = [start] + [stage.plan for stage in stages]
    for i, plan in enumerate(plans):
        save_plan(plan, os.path.join(out_dir, f"plan_stage_{i}.json"))
        save_svg(plan, os.path.join(out_dir, f"stage_{i}.svg"),
                 alpha=svg_alpha, targets=targets)
    schedule = run_cfg.descent.eps_schedule
    reasons = [stage.reason for stage in stages]
    shared = {"eps_schedule": list(schedule), "tau0": tau0,
              "stage_reasons": reasons, "iterations": len(rows),
              "stage_rejected_trials": [stage.rejected_trials for stage in stages],
              "stage_objective_evals": [stage.objective_evals for stage in stages]}
    failures = [f"stage {stage + 1} (eps={schedule[stage]}) stopped on a non-finite "
                "objective, gradient or trial step"
                for stage, reason in enumerate(reasons) if reason == "nonfinite"]
    final = next((stage.value for stage in reversed(stages) if stage.value is not None), None)
    return plans, final, shared, failures


def _guarded_at(eps, call):
    """``call()`` under the descent's guard; a ValueError naming ``eps`` when
    the guard refuses it."""
    from .optimizer import _guarded

    result = _guarded(call)
    if result is None:
        raise ValueError(f"no finite evaluation at eps={eps} (overflow or degenerate plan)")
    return result


def _kernel_payload(spec) -> dict:
    mass = spec.profile_mass
    return {
        "kind": spec.kind,
        "profile_mass": "infinite" if mass == float("inf") else mass,
        "note": "profile mass is the scale of the smoothed field; "
                "profiles are unit at zero, not unit mass",
    }


def cmd_irrigate(run_cfg, out_dir: str):
    from .exact_cost import TopologyError, exact_plan_cost
    from .optimizer import path_evaluator
    from .plan_model import build_star_plan, crossing_cluster_count, half_circle_targets

    measure = run_cfg.measure
    targets = half_circle_targets(measure.n, measure.radius, measure.total_mass)
    initial = build_star_plan(targets, measure.segments_per_path)
    alpha = run_cfg.objective.alpha

    def factory(eps):
        return path_evaluator(alpha, eps, run_cfg.kernel, run_cfg.functional,
                              run_cfg.quad_points)

    plans, final, shared, failures = _run_continuation(initial, factory, run_cfg,
                                                       out_dir, alpha, targets)
    clusters = [crossing_cluster_count(p) for p in plans]
    merge_tol = _resolved_merge_tol(run_cfg, plans[-1])
    try:
        exact = exact_plan_cost(plans[-1], alpha, merge_tol)
        exact_note = None
    except TopologyError as exc:
        exact = None
        exact_note = str(exc)
    summary = {
        "experiment": "irrigate",
        "functional": run_cfg.functional,
        "kernel": _kernel_payload(run_cfg.kernel),
        "alpha": alpha,
        **shared,
        "final_energy": None if final is None else final.total,
        "exact_cost": exact,
        "exact_cost_note": exact_note,
        "merge_tol": merge_tol,
        "cluster_counts": clusters,
        "atoms": measure.n,
    }
    return "summary.json", summary, failures


def cmd_treeopt(run_cfg, out_dir: str):
    from .optimizer import branch_evaluator
    from .plan_model import build_fan_branches

    fan = run_cfg.fan
    initial = build_fan_branches(fan.n, fan.spread_angle, fan.length0,
                                 fan.segments, run_cfg.descent.m_init)

    def factory(eps):
        return branch_evaluator(run_cfg.objective, eps)

    _, final, shared, failures = _run_continuation(initial, factory, run_cfg, out_dir,
                                                   run_cfg.objective.alpha, None)
    summary = {
        "experiment": "treeopt",
        "branches": fan.n,
        "alpha": run_cfg.objective.alpha,
        "c1": run_cfg.objective.c1,
        "c2": run_cfg.objective.c2,
        "penalty_kernel": run_cfg.objective.penalty_kernel,
        "f_min": run_cfg.objective.f_min,
        **shared,
        "final": None if final is None else {
            key: getattr(final, key) for key in ("total", "irrigation", "penalty", "payoff")},
    }
    return "summary.json", summary, failures


def cmd_gamma_table(run_cfg, out_dir: str):
    from .exact_cost import exact_plan_cost
    from .mollified import energy_avg, energy_max
    from .plan_model import build_star_plan, half_circle_targets

    measure = run_cfg.measure
    alpha = run_cfg.objective.alpha
    plan = build_star_plan(
        half_circle_targets(measure.n, measure.radius, measure.total_mass),
        measure.segments_per_path)
    exact = exact_plan_cost(plan, alpha, 0.0)
    gamma = run_cfg.gamma
    rows = []
    for eps in gamma.eps_values:
        e_max, e_avg = _guarded_at(eps, lambda: (
            energy_max(plan, alpha, eps, run_cfg.kernel).total,
            energy_avg(plan, alpha, eps, run_cfg.kernel, run_cfg.quad_points).total))
        rows.append({
            "eps": eps,
            "E_exact": exact,
            "E_max": e_max,
            "E_avg": e_avg,
            "gap_max": (exact - e_max) / exact,
            "gap_avg": (exact - e_avg) / exact,
        })
    lines = ["eps,E_exact,E_max,E_avg,gap_max,gap_avg"]
    for row in rows:
        lines.append(",".join(format(row[k], ".17g") for k in
                              ("eps", "E_exact", "E_max", "E_avg", "gap_max", "gap_avg")))
    with open(os.path.join(out_dir, "gamma_table.csv"), "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")

    failures = []
    for row in rows:
        if row["E_max"] > exact * (1.0 + gamma.bound_tol):
            failures.append(f"upper bound violated at eps={row['eps']}: "
                            f"E_max={row['E_max']} > E_exact={exact}")
    for prev, cur in zip(rows, rows[1:]):
        if cur["gap_max"] > prev["gap_max"] + 1e-12:
            failures.append(f"gap_max grew from eps={prev['eps']} to eps={cur['eps']}: "
                            f"{prev['gap_max']} -> {cur['gap_max']}")
    summary = {
        "experiment": "gamma-table",
        "alpha": alpha,
        "atoms": measure.n,
        "kernel": _kernel_payload(run_cfg.kernel),
        "E_exact": exact,
        "rows": rows,
        "final_gap_max": rows[-1]["gap_max"],
        "gap_target": gamma.gap_target,
        "gap_target_met": abs(rows[-1]["gap_max"]) <= gamma.gap_target,
        "assertions_passed": not failures,
        "failures": failures,
    }
    return "summary.json", summary, failures


def cmd_counterexample(run_cfg, out_dir: str):
    from .kernels import KernelSpec
    from .mollified import (energy_avg, saturated_two_path_cost,
                            saturated_two_path_cost_dl2)
    from .plan_model import saturated_pair_plans

    fixture = run_cfg.counterexample
    cost_before = saturated_two_path_cost(fixture.m1, fixture.m2, fixture.l1,
                                          fixture.l2, fixture.alpha)
    cost_after = saturated_two_path_cost(fixture.m1, fixture.m2, fixture.l1,
                                         fixture.l2 + fixture.delta, fixture.alpha)
    derivative = saturated_two_path_cost_dl2(fixture.m1, fixture.m2, fixture.l1,
                                             fixture.l2, fixture.alpha)
    control_before = saturated_two_path_cost(fixture.m1, fixture.m2, fixture.l1,
                                             fixture.l2, 1.0)
    control_after = saturated_two_path_cost(fixture.m1, fixture.m2, fixture.l1,
                                            fixture.l2 + fixture.delta, 1.0)

    plan_short, plan_long, eps = saturated_pair_plans(
        fixture.l1, fixture.l2, fixture.delta, fixture.m1, fixture.m2)
    # A kernel with unbounded profile mass stays near 1 across the whole
    # configuration at this eps, which is what saturates the cap.
    spec = KernelSpec(kind="rational")
    energy_short, energy_long = _guarded_at(eps, lambda: tuple(
        energy_avg(plan, fixture.alpha, eps, spec, run_cfg.quad_points).total
        for plan in (plan_short, plan_long)))

    failures = []
    if not cost_after < cost_before:
        failures.append(f"closed form: lengthened cost {cost_after} "
                        f"not below {cost_before}")
    if not derivative < 0.0:
        failures.append(f"closed form: derivative {derivative} not negative")
    if not energy_long < energy_short:
        failures.append(f"pipeline: lengthened energy {energy_long} "
                        f"not below {energy_short}")
    if not control_after > control_before:
        failures.append("alpha=1 control: lengthening did not increase cost")

    report = {
        "experiment": "counterexample",
        "fixture": asdict(fixture),
        "closed_form": {
            "cost_before": cost_before,
            "cost_after": cost_after,
            "derivative_at_l2": derivative,
        },
        "alpha1_control": {
            "cost_before": control_before,
            "cost_after": control_after,
            "lengthening_increases_cost": control_after > control_before,
        },
        "pipeline": {
            "kernel": "rational",
            "eps": eps,
            "energy_short": energy_short,
            "energy_long": energy_long,
            "lengthened_is_cheaper": energy_long < energy_short,
        },
        "assertions_passed": not failures,
        "failures": failures,
    }
    return "report.json", report, failures


def run_gradient_check(run_cfg) -> dict:
    """Compare analytic and central-difference gradients on random plans.

    ``worst_rel_error``, which decides the check, runs over every component
    above a 1e-8 floor, where finite-difference roundoff can set it.
    ``worst_rel_error_major`` runs only over the components whose scale is
    at least 1e-3 of their plan's largest; it is reported, not checked.
    """
    import numpy as np

    from .objective import fd_gradient, tree_objective, tree_objective_gradient
    from .plan_model import random_branch_plan

    check = run_cfg.gradcheck
    rng = np.random.default_rng(check.seed)
    worst = worst_major = 0.0
    worst_plan = None
    worst_component = None
    for index in range(check.plans):
        plan = random_branch_plan(rng, check.max_branches, check.max_segments)
        analytic, numeric = _guarded_at(run_cfg.objective.eps, lambda: (
            tree_objective_gradient(tree_objective(plan, run_cfg.objective)),
            fd_gradient(plan, run_cfg.objective, check.step)))
        scale = np.maximum(np.abs(analytic), np.abs(numeric))
        relevant = scale > 1e-8
        if not np.any(relevant):
            continue
        error = np.abs(analytic - numeric)
        rel = error[relevant] / scale[relevant]
        major = scale >= 1e-3 * scale.max()
        worst_major = max(worst_major, float((error[major] / scale[major]).max()))
        peak = float(rel.max())
        if peak > worst:
            worst = peak
            worst_plan = index
            worst_component = int(np.flatnonzero(relevant)[int(rel.argmax())])
    return {
        "experiment": "gradcheck",
        **asdict(check),
        "alpha": run_cfg.objective.alpha,
        "c1": run_cfg.objective.c1,
        "c2": run_cfg.objective.c2,
        "worst_rel_error": worst,
        "worst_rel_error_major": worst_major,
        "worst_plan_index": worst_plan,
        "worst_component": worst_component,
        "passed": worst <= check.tolerance,
    }


def cmd_gradcheck(run_cfg, out_dir: str):
    report = run_gradient_check(run_cfg)
    print(f"worst relative gradient error: {report['worst_rel_error']:.3e} "
          f"(tolerance {report['tolerance']:.1e}); "
          f"{report['worst_rel_error_major']:.3e} over components at least 1e-3 "
          "of their plan's largest")
    failures = [] if report["passed"] else [
        f"gradient mismatch {report['worst_rel_error']:.3e} exceeds "
        f"tolerance {report['tolerance']:.1e}"]
    return "report.json", report, failures


def _check_pair_budget(run_cfg):
    """Raise a ConfigError when a plan a run would build has more than
    ``_MAX_DENSE_PAIRS`` pairs at worst, S^2 for its S segments: the star of
    irrigate and gamma-table, the fan of treeopt, or gradcheck's largest
    random plan. Unread settings keep their defaults."""
    from .config import ConfigError

    measure, fan, check = run_cfg.measure, run_cfg.fan, run_cfg.gradcheck
    for segments, fix in (
            (measure.n * measure.segments_per_path, "measure.n * measure.segments_per_path"),
            (fan.n * fan.segments, "fan.n * fan.segments"),
            (check.max_branches * check.max_segments,
             "gradcheck.max_branches * gradcheck.max_segments")):
        if segments ** 2 > _MAX_DENSE_PAIRS:
            raise ConfigError(f"a plan of S = {segments} segments, {segments ** 2} pairs at "
                              f"worst, is above the limit of {_MAX_DENSE_PAIRS} (S = 2,000); "
                              f"use fewer {fix}")


def _check_read(run_cfg, command: str):
    """Raise a ConfigError naming the first setting of ``run_cfg`` that
    ``command`` does not read and that differs from its default."""
    from .config import _PENALTY_FIELDS, ConfigError, RunConfig

    default = RunConfig()
    for key, readers in _READ_BY.items():
        path = key.split(".")
        if path[:2] == ["objective", "penalty"]:
            path = ["objective", _PENALTY_FIELDS[path[2]]]
        if command not in readers and (functools.reduce(getattr, path, run_cfg)
                                       != functools.reduce(getattr, path, default)):
            raise ConfigError(f"the {command!r} command does not read {key!r}; "
                              f"only {', '.join(readers)} do")


# Subcommand -> (help text, command function).
_COMMANDS = {
    "irrigate": ("Minimize a mollified irrigation energy over half-circle paths.",
                 cmd_irrigate),
    "treeopt": ("Optimize branch shapes and leaf densities.", cmd_treeopt),
    "gamma-table": ("Tabulate exact vs mollified energies over a smoothing grid.",
                    cmd_gamma_table),
    "counterexample": ("Reproduce the two-path lengthening paradox.", cmd_counterexample),
    "gradcheck": ("Compare analytic and finite-difference gradients.", cmd_gradcheck),
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    env_error = _apply_thread_env()
    if env_error is not None:
        print(f"configuration error: {env_error}", file=sys.stderr)
        return 2
    _keep_freed_memory()

    from .config import ConfigError, load_config_file, resolve_config, validate_config
    from .plan_model import _write_json

    try:
        file_data = load_config_file(args.config) if args.config else None
        raw = resolve_config(file_data, args.preset)
        if getattr(args, "functional", None):
            raw["functional"] = args.functional
        run_cfg = validate_config(raw)
        if run_cfg.experiment is not None and run_cfg.experiment != args.command:
            raise ConfigError(
                f"config is for experiment {run_cfg.experiment!r} "
                f"but the {args.command!r} command was invoked")
        _check_read(run_cfg, args.command)
        _check_pair_budget(run_cfg)
        out_dir = args.out or run_cfg.out_dir or os.path.join("runs", args.command)
        try:  # an output directory or file that cannot be written
            os.makedirs(out_dir, exist_ok=True)
            name, report, failures = _COMMANDS[args.command][1](run_cfg, out_dir)
            _write_json(os.path.join(out_dir, name), report)
        except OSError as exc:
            raise ConfigError(f"cannot write output to {out_dir}: {exc}") from exc
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    if failures:
        print(f"numerical check failed: {'; '.join(failures)}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

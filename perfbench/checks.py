"""Correctness gate over the files one ``ramify irrigate|treeopt`` call wrote.

Each check returns (name, passed, detail). The driver counts every check
it attempts and every one that fails; a run is correct only when none
fails. Importers put the ramify sources on ``sys.path`` first.
"""

from __future__ import annotations

import csv
import glob
import json
import math
import os

from ramify.optimizer import branch_evaluator, path_evaluator
from ramify.plan_model import half_circle_targets, load_plan


def read_trace(out_dir: str) -> list:
    """trace.csv rows as dicts of floats (iteration and backtracks as ints)."""
    with open(os.path.join(out_dir, "trace.csv"), encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    return [{key: (int(value) if key in ("iter", "backtracks") else float(value))
             for key, value in row.items()} for row in rows]


def read_summary(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as handle:
        return json.load(handle)


def stage_plan_files(out_dir: str) -> list:
    paths = glob.glob(os.path.join(out_dir, "plan_stage_*.json"))
    return sorted(paths, key=lambda p: int(p.rsplit("_", 1)[1].split(".")[0]))


def strictly_decreasing_within_stages(rows: list) -> tuple:
    """J falls strictly from each accepted iteration to the next of the same eps."""
    for prev, cur in zip(rows, rows[1:]):
        if cur["eps"] == prev["eps"] and not cur["J"] < prev["J"]:
            return False, f"J did not decrease at iteration {cur['iter']}: {prev['J']!r} -> {cur['J']!r}"
    return True, f"{len(rows)} rows"


def _finite_leaves(value, where: str, bad: list):
    if isinstance(value, dict):
        for key, item in value.items():
            _finite_leaves(item, f"{where}.{key}", bad)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _finite_leaves(item, f"{where}[{i}]", bad)
    elif isinstance(value, float) and not math.isfinite(value):
        bad.append(where)


def all_finite(rows: list, summary: dict, plans: list) -> tuple:
    bad = []
    for row in rows:
        _finite_leaves(row, f"trace[{row['iter']}]", bad)
    _finite_leaves(summary, "summary", bad)
    for name, plan_dict in plans:
        _finite_leaves(plan_dict, name, bad)
    return not bad, ", ".join(bad[:5]) or "all finite"


def feasible(final_plan: dict, targets) -> tuple:
    """Origin pinned; path terminals on their atoms; branch y and m nonnegative."""
    if "paths" in final_plan:
        for k, path in enumerate(final_plan["paths"]):
            vertices = path["vertices"]
            if vertices[0] != [0.0, 0.0]:
                return False, f"path {k} left the origin: {vertices[0]}"
            atom = [float(v) for v in targets[k]]
            if vertices[-1] != atom:
                return False, f"path {k} terminal {vertices[-1]} is off its atom {atom}"
        return True, f"{len(final_plan['paths'])} paths"
    for k, branch in enumerate(final_plan["branches"]):
        if branch["x"][0] != 0.0 or branch["y"][0] != 0.0:
            return False, f"branch {k} left the origin"
        if min(branch["y"]) < 0.0 or min(branch["m"]) < 0.0:
            return False, f"branch {k} has negative height or density"
    return True, f"{len(final_plan['branches'])} branches"


def final_energy(summary: dict) -> float:
    """The final stage's mollified objective as the summary reports it."""
    if summary["experiment"] == "irrigate":
        return summary["final_energy"]
    return summary["final"]["total"]


def final_stage_objective(run_cfg, plan) -> float:
    """The objective the CLI minimized in its last stage, evaluated on a plan."""
    eps = run_cfg.descent.eps_schedule[-1]
    if run_cfg.experiment == "irrigate":
        evaluator = path_evaluator(run_cfg.objective.alpha, eps, run_cfg.kernel,
                                   run_cfg.functional, run_cfg.quad_points)
    else:
        evaluator = branch_evaluator(run_cfg.objective, eps)
    return evaluator.objective(plan).total


def check_outputs(out_dir: str, run_cfg) -> list:
    """Every gate check on one solve's output directory."""
    targets = None
    if run_cfg.experiment == "irrigate":
        m = run_cfg.measure
        targets = half_circle_targets(m.n, m.radius, m.total_mass).positions.tolist()
    results = []
    rows = read_trace(out_dir)
    summary = read_summary(out_dir)
    plan_files = stage_plan_files(out_dir)
    plans = []
    for path in plan_files:
        with open(path, encoding="utf-8") as handle:
            plans.append((os.path.basename(path), json.load(handle)))
    expected_stages = len(run_cfg.descent.eps_schedule) + 1
    results.append(("stage_plans_written", len(plans) == expected_stages,
                    f"{len(plans)} of {expected_stages}"))
    if not plans:
        return results
    results.append(("trace_strictly_decreasing",) + strictly_decreasing_within_stages(rows))
    results.append(("values_finite",) + all_finite(rows, summary, plans))
    results.append(("final_plan_feasible",) + feasible(plans[-1][1], targets))

    reported = final_energy(summary)
    again = final_stage_objective(run_cfg, load_plan(plan_files[-1]))
    results.append(("final_energy_reproduced", again == reported,
                    f"re-evaluated {again!r}, reported {reported!r}"))
    if summary["experiment"] == "irrigate":
        exact = summary["exact_cost"]
        ok = isinstance(exact, float) and math.isfinite(exact) and exact > 0.0
        results.append(("exact_cost_computed", ok,
                        f"{exact!r} {summary.get('exact_cost_note') or ''}".strip()))
    else:
        payoff = summary["final"]["payoff"]
        results.append(("payoff_positive", payoff > 0.0, f"{payoff!r}"))
    return results


ANSWER_FILES = ("summary.json", "trace.csv", "plan_stage_*.json", "stage_*.svg")


def same_outputs(first_dir: str, other_dirs: list) -> tuple:
    """Every other directory holds answer files byte-identical to the first's."""
    def names(directory, pattern):
        return sorted(os.path.basename(p) for p in glob.glob(os.path.join(directory, pattern)))

    for other in other_dirs:
        for pattern in ANSWER_FILES:
            if names(first_dir, pattern) != names(other, pattern):
                return False, f"{os.path.basename(other)}: different {pattern} files"
            for name in names(first_dir, pattern):
                with open(os.path.join(first_dir, name), "rb") as a, \
                        open(os.path.join(other, name), "rb") as b:
                    if a.read() != b.read():
                        return False, f"{os.path.basename(other)}: {name} differs"
    return True, f"{len(other_dirs)} other solves identical"

"""Optimal ramified irrigation patterns and tree branch shapes.

The library computes branched transport structures by minimizing
mollified irrigation-cost functionals with projected gradient descent
and continuation in the smoothing radius, alongside exact tree-cost
oracles for validation. Attribute access is lazy so that the command
line can configure thread pools before any numeric import happens.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "KernelSpec": "kernels",
    "KERNEL_KINDS": "kernels",
    "kernel_eval": "kernels",
    "bump_segment_integral": "kernels",
    "kernel_segment_integral": "kernels",
    "TargetMeasure": "plan_model",
    "Path": "plan_model",
    "PathPlan": "plan_model",
    "Branch": "plan_model",
    "BranchPlan": "plan_model",
    "TreeTopology": "plan_model",
    "TopologyError": "plan_model",
    "segment_table": "plan_model",
    "extract_topology": "plan_model",
    "half_circle_targets": "plan_model",
    "build_star_plan": "plan_model",
    "build_fan_branches": "plan_model",
    "saturated_pair_plans": "plan_model",
    "random_branch_plan": "plan_model",
    "crossing_cluster_count": "plan_model",
    "save_plan": "plan_model",
    "load_plan": "plan_model",
    "gilbert_energy": "exact_cost",
    "exact_plan_cost": "exact_cost",
    "exact_multiplicity": "exact_cost",
    "brute_force_bifurcation": "exact_cost",
    "MollifiedEval": "mollified",
    "multiplicity_max": "mollified",
    "multiplicity_avg": "mollified",
    "energy_max": "mollified",
    "energy_avg": "mollified",
    "energy_max_gradient": "mollified",
    "energy_avg_gradient": "mollified",
    "mollified_flux": "mollified",
    "branch_irrigation_cost": "mollified",
    "saturated_two_path_cost": "mollified",
    "saturated_two_path_cost_dl2": "mollified",
    "Layout": "gradients",
    "central_difference": "gradients",
    "ObjectiveConfig": "objective",
    "ObjectiveValue": "objective",
    "leaf_payoff": "objective",
    "crowding_penalty": "objective",
    "tree_objective": "objective",
    "tree_objective_gradient": "objective",
    "fd_gradient": "objective",
    "DescentConfig": "optimizer",
    "RunTrace": "optimizer",
    "TraceRow": "optimizer",
    "Evaluator": "optimizer",
    "path_evaluator": "optimizer",
    "branch_evaluator": "optimizer",
    "project_plan": "optimizer",
    "rediscretize_plan": "optimizer",
    "backtracking_step": "optimizer",
    "run_descent": "optimizer",
    "eps_continuation": "optimizer",
    "render_svg": "svg",
    "save_svg": "svg",
    "RunConfig": "config",
    "ConfigError": "config",
    "PRESETS": "config",
    "validate_config": "config",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{module_name}", __name__)
    return getattr(module, name)


def __dir__():
    return __all__

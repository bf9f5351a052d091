"""Benchmark workloads: ramify CLI commands with JSON configs.

Every config is made only of keys the ``ramify`` CLI already accepts, so
the program receives nothing but ordinary inputs. The workload seed
perturbs one geometric input within a small stated range, so that a
claim can be checked on a seed nobody tuned against:

- irrigation workloads: half-circle radius in [1 - 0.005, 1 + 0.005];
- branch workloads: fan spread angle in (pi/2) * [1 - 0.005, 1 + 0.005].

A seed gives a fixed list of such inputs, one per solve of a run; the
run reports medians over them. Descent trajectories are chaotic in the
input: two radii 2e-5 apart were measured to end with exact merged-tree
costs 6% apart and line searches of different lengths. One input per
seed would make each seed's numbers a lottery; the median over several
is steady.

The descent is capped with ``j_max`` on every benchmark workload. Runs to
convergence changed their iteration count by up to 25% between inputs
this close together, which would make the time to solution differ more
from seed to seed than any bound a change is held to; a fixed iteration
budget keeps the work per input comparable and still lets a faster line
search show as fewer evaluations or a lower final energy.
"""

from __future__ import annotations

import math
import random

RADIUS_RANGE = 0.005
SPREAD_RANGE = 0.005


def _irrigate(atoms, segments, alpha, eps_schedule, j_max, unit):
    radius = 1.0 + RADIUS_RANGE * unit
    return {
        "command": "irrigate",
        "preset": None,
        "config": {
            "experiment": "irrigate",
            "functional": "avg",
            "kernel": "bump",
            "merge_tol": 0.05,
            "measure": {"n": atoms, "radius": radius, "total_mass": 1.0,
                        "segments_per_path": segments},
            "objective": {"alpha": alpha},
            "descent": {"eps_schedule": list(eps_schedule), "j_max": j_max},
        },
        "inputs": {"radius": radius},
    }


def _treeopt(preset, config, unit):
    spread = 0.5 * math.pi * (1.0 + SPREAD_RANGE * unit)
    config = dict(config)
    config["fan"] = dict(config.get("fan", {}), spread_angle=spread)
    return {
        "command": "treeopt",
        "preset": preset,
        "config": config,
        "inputs": {"spread_angle": spread},
    }


def irrigate_star(unit):
    """fig2's functional, kernel, alpha and eps schedule on 13 atoms (S=208).

    Capped at 30 iterations a stage. Dense kernels and a line search that
    rejects about two trials per accepted step share the time.
    """
    return _irrigate(13, 16, 0.4, (0.25, 0.1, 0.05), 30, unit)


def treeopt_fan(unit):
    """The fig5 preset (15 branches x 10 segments), capped at 100 iterations a stage.

    Kernels are small here; plan objects, Python overhead per trial,
    the crowding-penalty matrices and re-discretization carry the cost.
    With a cap of 60, stages 2 and 3 ended in ``line_search_exhausted``
    after a number of iterations that depended on the spread angle (4 to
    17 s a solve); with 100, every stage reached the cap at every angle
    tried.
    """
    return _treeopt("fig5", {"descent": {"j_max": 100}}, unit)


def irrigate_wide(unit):
    """100 atoms x 16 segments (S=1,600) with fig3's alpha and eps schedule.

    Two iterations a stage: the dense (T, S, 2) kernel temporaries exceed
    the per-core L2 cache and set the peak memory.
    """
    return _irrigate(100, 16, 0.9, (0.1, 0.05, 0.01), 2, unit)


def tiny_irrigate(unit):
    """Self-test only: three atoms, two short stages."""
    return _irrigate(3, 3, 0.5, (0.3, 0.15), 5, unit)


def tiny_treeopt(unit):
    """Self-test only: a three-branch fan, two short stages."""
    return _treeopt(None, {
        "experiment": "treeopt",
        "fan": {"n": 3, "segments": 3},
        "objective": {"alpha": 0.5, "c1": 0.5, "c2": 1.5},
        "descent": {"eps_schedule": [0.5, 0.2], "j_max": 5},
    }, unit)


# name -> (factory, inputs per run). The counts make one pass over the
# inputs take about 30 s on a 2-core Intel Xeon (family 6, model 143).
WORKLOADS = {
    "irrigate-star": (irrigate_star, 5),
    "treeopt-fan": (treeopt_fan, 3),
    "irrigate-wide": (irrigate_wide, 2),
}

SELFTEST_WORKLOADS = {
    "tiny-irrigate": (tiny_irrigate, 2),
    "tiny-treeopt": (tiny_treeopt, 2),
}


def build(name: str, seed: int) -> list:
    """The workload's inputs for a seed: command, preset, config, perturbation."""
    factory, count = WORKLOADS.get(name) or SELFTEST_WORKLOADS[name]
    return [factory(random.Random(f"{seed}/{index}").uniform(-1.0, 1.0))
            for index in range(count)]

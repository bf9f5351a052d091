"""What every ramify CLI call pays before it solves, in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py CONFIG.json [PRESET]

Imports numpy and the modules an irrigate or treeopt call loads,
validates the config the same way the CLI does, builds the initial plan
and prints the three phase times as one JSON object; their sum is one
set-up sample.
"""

import json
import os
import sys
import time

start = time.perf_counter()
import numpy  # noqa: E402,F401

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
from ramify import cli, exact_cost, svg  # noqa: E402,F401
from ramify.config import load_config_file, resolve_config, validate_config  # noqa: E402
from ramify.plan_model import build_fan_branches, build_star_plan, half_circle_targets  # noqa: E402

imported = time.perf_counter()
run_cfg = validate_config(resolve_config(load_config_file(sys.argv[1]),
                                         sys.argv[2] if len(sys.argv) > 2 else None))
validated = time.perf_counter()
if run_cfg.experiment == "irrigate":
    m = run_cfg.measure
    plan = build_star_plan(half_circle_targets(m.n, m.radius, m.total_mass), m.segments_per_path)
else:
    f = run_cfg.fan
    plan = build_fan_branches(f.n, f.spread_angle, f.length0, f.segments, run_cfg.descent.m_init)
built = time.perf_counter()
print(json.dumps({"import_s": imported - start, "validate_s": validated - imported,
                  "build_s": built - validated}))

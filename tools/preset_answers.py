"""Print the answers and costs of the preset runs at a revision and in the working tree.

Usage: python tools/preset_answers.py [REV]

Extracts the ``src/`` tree of git revision REV (default ``HEAD``) with
``git archive``, like ``tools/same_outputs.py``, and runs ``irrigate
--preset fig2`` at the radii in ``FIG2_RADII`` plus ``irrigate --preset
fig3`` and ``fig3-text`` and ``treeopt --preset fig4`` and ``fig5``, each
once against REV's ``src/`` and once against the working tree's, under
``RAMIFY_THREADS=1``.
Runs go one at a time, REV's first. For each run it prints the wall time,
peak resident memory and minor page faults (the child's ``ru_maxrss``, in
kilobytes on Linux, and ``ru_minflt``, from ``os.wait4``), iterations,
stage reasons, rejected line-search trials per accepted iteration, final
energy (J for treeopt), exact cost and cluster counts, then the median
and the min-max of fig2's final energy and exact cost over its radii, for
each tree. The exact cost of a branch
tree is the unsmoothed sum of flux^alpha * length over its final segments.
Exits 1 if a run fails, 0 otherwise; it compares nothing.
"""

from __future__ import annotations

import csv
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

from same_outputs import ROOT, extract_src

sys.path.insert(0, os.path.join(ROOT, "src"))

from ramify.config import resolve_config, validate_config  # noqa: E402
from ramify.plan_model import load_plan, segment_table  # noqa: E402

FIG2_RADII = (0.995, 0.997, 0.999, 1.0, 1.001, 1.003, 1.005)


def run_set() -> dict:
    """Run name -> (command, preset, config file content or None)."""
    runs = {f"fig2 r={radius}": ("irrigate", "fig2", {"measure": {"radius": radius}})
            for radius in FIG2_RADII}
    runs["fig3"] = ("irrigate", "fig3", None)
    runs["fig3-text"] = ("irrigate", "fig3-text", None)
    runs["fig4"] = ("treeopt", "fig4", None)
    runs["fig5"] = ("treeopt", "fig5", None)
    return runs


def answers(out_dir: str, command: str, preset: str, config) -> dict:
    """The answers one run wrote, read with the working tree's package."""
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as handle:
        summary = json.load(handle)
    with open(os.path.join(out_dir, "trace.csv"), encoding="utf-8", newline="") as handle:
        backtracks = [int(row["backtracks"]) for row in csv.DictReader(handle)]
    run_cfg = validate_config(resolve_config(config, preset))
    exhausted = summary["stage_reasons"].count("line_search_exhausted")
    rejected = sum(backtracks) + exhausted * run_cfg.descent.backtrack_limit
    if command == "irrigate":
        energy, exact = summary["final_energy"], summary["exact_cost"]
    else:
        stages = len(summary["stage_reasons"])
        table = segment_table(load_plan(os.path.join(out_dir, f"plan_stage_{stages}.json")))
        energy = summary["final"]["total"]
        exact = float((table.flux ** run_cfg.objective.alpha * table.length).sum())
    return {"iterations": len(backtracks), "stage_reasons": summary["stage_reasons"],
            "rejected_per_iter": rejected / max(len(backtracks), 1),
            "final_energy": energy, "exact_cost": exact,
            "cluster_counts": summary.get("cluster_counts")}


def solve(src: str, name: str, run: tuple, out_root: str):
    """Run one entry against ``src``; returns (wall seconds, answers) or None."""
    command, preset, config = run
    out = os.path.join(out_root, name.replace(" ", "_"))
    argv = [sys.executable, "-m", "ramify.cli", command, "--preset", preset, "--out", out]
    if config is not None:
        os.makedirs(out_root, exist_ok=True)
        cfg_path = os.path.join(out_root, name.replace(" ", "_") + ".json")
        with open(cfg_path, "w", encoding="utf-8") as handle:
            json.dump(config, handle)
        argv += ["--config", cfg_path]
    env = dict(os.environ, PYTHONPATH=src, RAMIFY_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    with tempfile.TemporaryFile("w+") as stderr:
        child = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=stderr)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        code = child.returncode = os.waitstatus_to_exitcode(status)
        if code != 0:
            stderr.seek(0)
            print(f"  {name}: exit {code}: {stderr.read().strip()}", flush=True)
            return None
    found = answers(out, command, preset, config)
    found.update(peak_mb=usage.ru_maxrss / 1024, minor_faults=usage.ru_minflt)
    return wall, found


def describe(wall: float, found: dict) -> str:
    exact = found["exact_cost"]
    return (f"{wall:6.1f} s  {found['peak_mb']:5.1f} MB  {found['minor_faults']:7d} faults  "
            f"{found['iterations']:5d} it  "
            f"{found['rejected_per_iter']:5.2f} rej/it  E {found['final_energy']:.6g}  "
            f"exact {'-' if exact is None else format(exact, '.6g')}  "
            f"clusters {found['cluster_counts']}  {found['stage_reasons']}")


def spread(values: list) -> str:
    """The median and min-max of ``values``, or "-" when there are none."""
    if not values:
        return "-"
    return f"{statistics.median(values):.6g} (min-max {min(values):.6g}-{max(values):.6g})"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) > 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    rev = args[0] if args else "HEAD"
    trees = {rev: None, "working tree": os.path.join(ROOT, "src")}
    fig2 = {label: [] for label in trees}
    failed = False
    with tempfile.TemporaryDirectory(prefix="preset-answers-") as tmp:
        trees[rev] = extract_src(rev, os.path.join(tmp, "rev"))
        for name, run in run_set().items():
            print(name, flush=True)
            for index, (label, src) in enumerate(trees.items()):
                result = solve(src, name, run, os.path.join(tmp, f"out{index}"))
                if result is None:
                    failed = True
                    continue
                print(f"  {label:>12}: {describe(*result)}", flush=True)
                if name.startswith("fig2"):
                    fig2[label].append(result[1])
    for label, found in fig2.items():
        if found:
            energy = [f["final_energy"] for f in found]
            exact = [f["exact_cost"] for f in found if f["exact_cost"] is not None]
            print(f"fig2 over {len(found)} radii, {label}: "
                  f"E median {spread(energy)}, exact median {spread(exact)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

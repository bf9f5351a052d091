"""Check that a change leaves every run's output files byte-identical.

Usage: python tools/same_outputs.py [REV]

Extracts the ``src/`` tree of git revision REV (default ``HEAD``) with
``git archive``, runs a fixed set of CLI runs under ``RAMIFY_THREADS=1``
once against REV's ``src/`` and once against the working tree's ``src/``,
and compares every output file byte for byte. Prints each difference and
exits 1 if any file differs or an exit code changed, 0 otherwise.

The run set: the first seed-1 input of the irrigate-star, treeopt-fan and
irrigate-wide benchmark workloads (configs from ``perfbench/workloads.py``,
read only), ``treeopt --preset fig4``, ``irrigate --functional max`` on the
irrigate-star config, ``gradcheck``, ``gamma-table`` and ``counterexample``
with their default configs, and three short runs of the kernels and
penalties no other run reaches (``SHORT_RUNS``). Runs go one at a time,
and each prints its exit code, peak resident memory and minor page
faults; irrigate-wide, the largest, peaks at about 50 MB.
"""

from __future__ import annotations

import importlib.util
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _irrigate_config(kernel: str) -> dict:
    return {"experiment": "irrigate", "functional": "avg", "kernel": kernel,
            "measure": {"n": 9, "segments_per_path": 10}, "objective": {"alpha": 0.5},
            "descent": {"eps_schedule": [0.3, 0.1], "j_max": 40}}


# Run name -> (command, config): the quadrature kernels in the averaged
# energy and the power-law crowding penalty, one to two seconds each.
SHORT_RUNS = {
    "irrigate-triangular": ("irrigate", _irrigate_config("triangular")),
    "irrigate-exponential": ("irrigate", _irrigate_config("exponential")),
    "treeopt-powerlaw": ("treeopt", {
        "experiment": "treeopt", "fan": {"n": 4, "segments": 6},
        "objective": {"alpha": 0.5, "c1": 0.5, "c2": 1.5, "penalty": {"kernel": "powerlaw"}},
        "descent": {"eps_schedule": [0.5, 0.2], "j_max": 60}}),
}


def _workload_inputs():
    """First seed-1 input of each benchmark workload."""
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {name: module.build(name, 1)[0]
            for name in ("irrigate-star", "treeopt-fan", "irrigate-wide")}


def run_set(config_dir: str) -> dict:
    """Run name -> CLI arguments (without ``--out``); writes the configs."""
    runs = {}
    configs = {name: (item["command"], item["config"], item["preset"])
               for name, item in _workload_inputs().items()}
    configs.update((name, (command, config, None))
                   for name, (command, config) in SHORT_RUNS.items())
    for name, (command, config, preset) in configs.items():
        cfg_path = os.path.join(config_dir, f"{name}.json")
        with open(cfg_path, "w", encoding="utf-8") as handle:
            json.dump(config, handle)
        argv = [command, "--config", cfg_path]
        runs[name] = argv + (["--preset", preset] if preset else [])
    runs["treeopt-fig4"] = ["treeopt", "--preset", "fig4"]
    runs["irrigate-star-max"] = runs["irrigate-star"] + ["--functional", "max"]
    for command in ("gradcheck", "gamma-table", "counterexample"):
        runs[command] = [command]
    return runs


def extract_src(rev: str, dest: str) -> str:
    """Unpack REV's ``src/`` under ``dest`` and return its path."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev, "src"],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return os.path.join(dest, "src")


def run_all(src: str, runs: dict, out_root: str) -> dict:
    """Run every entry against ``src``; returns run name -> exit code.

    Prints each run's exit code, peak resident memory and minor page
    faults, from the child's own resource usage (``ru_maxrss``, in
    kilobytes on Linux, and ``ru_minflt``); the memory and faults are
    information only and take no part in the comparison.
    """
    env = dict(os.environ, PYTHONPATH=src, RAMIFY_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    codes = {}
    for name, argv in runs.items():
        out = os.path.join(out_root, name)
        child = subprocess.Popen([sys.executable, "-m", "ramify.cli", *argv, "--out", out],
                                 env=env, cwd=out_root, stdout=subprocess.DEVNULL,
                                 stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = codes[name] = os.waitstatus_to_exitcode(status)
        print(f"  {name}: exit {codes[name]}, peak {usage.ru_maxrss / 1024:.1f} MB, "
              f"{usage.ru_minflt} minor faults", flush=True)
    return codes


def _files(top: str) -> set:
    found = set()
    for dirpath, _, names in os.walk(top):
        found.update(os.path.relpath(os.path.join(dirpath, n), top) for n in names)
    return found


def compare_trees(left: str, right: str) -> list:
    """Relative paths that exist on one side only or whose bytes differ."""
    left_files, right_files = _files(left), _files(right)
    diffs = [f"only in {side}: {path}"
             for side, path in sorted([("old", p) for p in left_files - right_files]
                                      + [("new", p) for p in right_files - left_files])]
    for path in sorted(left_files & right_files):
        with open(os.path.join(left, path), "rb") as a, open(os.path.join(right, path), "rb") as b:
            if a.read() != b.read():
                diffs.append(f"differs: {path}")
    return diffs


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) > 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    rev = args[0] if args else "HEAD"
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        runs = run_set(tmp)
        old_out = os.path.join(tmp, "old")
        new_out = os.path.join(tmp, "new")
        os.makedirs(old_out)
        os.makedirs(new_out)
        print(f"{rev} src/:")
        old_codes = run_all(extract_src(rev, os.path.join(tmp, "rev")), runs, old_out)
        print("working tree src/:")
        new_codes = run_all(os.path.join(ROOT, "src"), runs, new_out)
        diffs = [f"exit code of {name}: {old_codes[name]} -> {new_codes[name]}"
                 for name in runs if old_codes[name] != new_codes[name]]
        diffs += compare_trees(old_out, new_out)
        compared = len(_files(old_out) | _files(new_out))
    for line in diffs:
        print(line)
    print(f"{len(diffs)} difference(s) in {compared} files over {len(runs)} runs" if diffs
          else f"no difference in {compared} files over {len(runs)} runs")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark the working tree against a git revision with the unchanged benchmark.

Usage: python tools/bench.py --against REV --pr N

Extracts the ``src/`` tree of REV as ``tools/same_outputs.py`` does and
copies the working tree's ``src/``; beside each it puts a copy of the
working tree's ``perfbench/``. For each workload of ``BENCHMARK.json`` it
then runs the benchmark's command with ``--trace 0`` and the benchmark's
``run_seconds`` as a subprocess on both sides, pair by pair: pair k uses
seed ``SEED`` + k, and the side that runs first alternates. Every workload
runs ``PAIRS`` pairs, enough for a "lower in at least 9 of 10" claim.

Writes ``BENCH_<N>.json`` at the root of the checkout: for every workload
and end-to-end metric, the median and quartiles of each side, and in how
many of the pairs the change was lower than REV, with every sample. Then
prints that summary and the delta of the change's medians against the
newest other ``BENCH_*.json``. Beside each delta it prints the host drift:
REV's median here against the earlier record's change median. When REV
is the change that record measured, both ran the same ``src/``, so the
drift is what the host alone moved. Runs go one at a time; a run takes
about ``run_seconds`` plus ten seconds of set-up timing.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile

from same_outputs import ROOT, extract_src

PAIRS = 10  # pairs per workload
SEED = 901  # pair k runs seed SEED + k
SIDES = ("parent", "change")


def quartiles(values: list) -> dict:
    """Median and inclusive first and third quartiles of two or more ``values``."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: dict) -> dict:
    """One workload's summary from ``runs``, side name -> list of result
    lines of ``perfbench/run.py`` in pair order."""
    pairs = len(runs["change"])
    summary = {"pairs": pairs,
               "correct": {side: sum(r["correct"] for r in runs[side]) for side in SIDES},
               "metrics": {}}
    for name, entry in runs["change"][0]["metrics"].items():
        samples = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        summary["metrics"][name] = {
            "unit": entry["unit"],
            **{side: quartiles(samples[side]) for side in SIDES},
            "change_lower_in": sum(c < p for p, c in zip(samples["parent"], samples["change"])),
            "samples": samples,
        }
    return summary


def write_record(path: str, record: dict):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")


def summary_lines(record: dict) -> list:
    """REV against the change, per workload and metric."""
    lines = []
    for workload, summary in record["workloads"].items():
        for name, m in summary["metrics"].items():
            p, c = m["parent"], m["change"]
            lines.append(f"{workload} {name}: {p['median']:.6g} ({p['q1']:.6g}-{p['q3']:.6g})"
                         f" -> {c['median']:.6g} ({c['q1']:.6g}-{c['q3']:.6g}) {m['unit']},"
                         f" lower in {m['change_lower_in']} of {summary['pairs']}")
    return lines


def newest_bench(root: str, exclude: str):
    """The ``BENCH_<n>.json`` under ``root`` with the largest n, other than
    ``exclude``; None when there is none."""
    found = []
    for path in glob.glob(os.path.join(root, "BENCH_*.json")):
        match = re.fullmatch(r"BENCH_(\d+)\.json", os.path.basename(path))
        if match and os.path.abspath(path) != os.path.abspath(exclude):
            found.append((int(match.group(1)), path))
    return max(found)[1] if found else None


def _move(old: float, new: float, unit: str) -> str:
    change = f"{(new - old) / abs(old):+.1%}" if old else f"{new - old:+.6g}"
    return f"{old:.6g} -> {new:.6g} {unit} ({change})"


def delta_lines(previous: dict, record: dict) -> list:
    """The change's medians in ``record`` against those in ``previous``,
    for every workload and metric the two share, each beside the host
    drift: ``record``'s parent median against ``previous``'s change median."""
    lines = []
    for workload, summary in record["workloads"].items():
        before = previous["workloads"].get(workload, {}).get("metrics", {})
        for name, m in summary["metrics"].items():
            if name not in before:
                continue
            old = before[name]["change"]["median"]
            lines.append(f"{workload} {name}: {_move(old, m['change']['median'], m['unit'])},"
                         f" host drift {_move(old, m['parent']['median'], m['unit'])}")
    return lines


def _side(top: str, side: str, rev: str) -> str:
    """A checkout for one side: REV's or the working tree's ``src/``, and
    the working tree's ``perfbench/``."""
    checkout = os.path.join(top, side)
    skip = shutil.ignore_patterns("__pycache__")
    if side == "parent":
        extract_src(rev, checkout)
    else:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(checkout, "src"), ignore=skip)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(checkout, "perfbench"),
                    ignore=skip)
    return checkout


def run_once(checkout: str, command: list, workload: str, seed: int, seconds: int):
    """The result line and the record of one run of the benchmark's command."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} in {checkout} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    record = next(json.loads(line)["record"] for line in lines if line.startswith('{"record"'))
    return json.loads(lines[-1]), record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--against", required=True, metavar="REV")
    parser.add_argument("--pr", required=True, type=int, metavar="N")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    seconds = benchmark["run_seconds"]
    rev = subprocess.run(["git", "-C", ROOT, "rev-parse", args.against], check=True,
                         capture_output=True, text=True).stdout.strip()
    out = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    record = {"against": rev, "seconds": seconds, "seed": SEED, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
        checkouts = {side: _side(tmp, side, rev) for side in SIDES}
        for workload in (entry["name"] for entry in benchmark["workloads"]):
            runs = {side: [] for side in SIDES}
            for k in range(PAIRS):
                order = SIDES if k % 2 == 0 else SIDES[::-1]
                for side in order:
                    result, run_record = run_once(checkouts[side], benchmark["command"],
                                                  workload, SEED + k, seconds)
                    runs[side].append(result)
                    record.setdefault("machine", run_record["machine"])
                    print(f"{workload} pair {k + 1}/{PAIRS} {side}: wall_s "
                          f"{result['metrics']['wall_s']['value']:.4g}", flush=True)
            record["workloads"][workload] = dict(summarize(runs), first=[
                SIDES[k % 2] for k in range(PAIRS)])
    write_record(out, record)
    print(f"wrote {os.path.relpath(out, ROOT)}")
    print("\n".join(summary_lines(record)))
    previous = newest_bench(ROOT, out)
    if previous is None:
        print("no earlier BENCH_*.json to compare with")
    else:
        with open(previous, encoding="utf-8") as handle:
            print(f"change against {os.path.basename(previous)} (medians), with host drift:")
            print("\n".join(delta_lines(json.load(handle), record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

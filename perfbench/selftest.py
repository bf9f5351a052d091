"""Self-test of the benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py

1. Runs the driver on the tiny self-test workloads with ``--trace 0`` and
   ``--trace 1`` and checks the last stdout line: exactly the keys
   ``correct``, ``attempted``, ``failed`` and ``metrics``, a correct run,
   and metric names and units exactly as BENCHMARK.json lists them.
2. Checks that the correctness gate rejects a trace whose J does not
   strictly decrease, on hand-made rows and on a real tiny solve whose
   trace.csv was rewritten so that one J repeats.
3. Checks that the driver exits nonzero without a result in a directory
   that holds only BENCHMARK.json and the benchmark's own files.

Exits 0 when every test passes and 1 otherwise.
"""

import csv
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_out", f"selftest-pid{os.getpid()}")
TIMEOUT_S = 180

sys.path.insert(0, os.path.join(ROOT, "src"))
import checks  # noqa: E402
import workloads  # noqa: E402

failures = []


def expect(condition, message):
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        failures.append(message)


def run_driver(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def test_metric_names():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in sorted(workloads.SELFTEST_WORKLOADS):
        for trace in (0, 1):
            done = run_driver(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            expect(done.returncode == 0,
                   f"{label} exits {done.returncode} {done.stderr.strip()[-300:]}".rstrip())
            if done.returncode:
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{label} result keys are {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label} is correct ({result['failed']} of {result['attempted']} checks failed)")
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(printed == declared[trace],
                   f"{label} prints the metrics BENCHMARK.json declares "
                   f"(extra {sorted(set(printed) - set(declared[trace]))}, "
                   f"missing {sorted(set(declared[trace]) - set(printed))})")


def test_gate_rejects_non_decreasing_trace():
    rows = [{"iter": 1, "eps": 0.3, "J": 2.0}, {"iter": 2, "eps": 0.3, "J": 1.5},
            {"iter": 3, "eps": 0.15, "J": 1.6}, {"iter": 4, "eps": 0.15, "J": 1.2}]
    expect(checks.strictly_decreasing_within_stages(rows)[0],
           "gate accepts J that falls within each stage and rises between stages")
    for bad_J in (1.2, 1.3):
        bad = rows + [{"iter": 5, "eps": 0.15, "J": bad_J}]
        expect(not checks.strictly_decreasing_within_stages(bad)[0],
               f"gate rejects J going 1.2 -> {bad_J} within a stage")

    from ramify import cli
    from ramify.config import resolve_config, validate_config

    workload = workloads.build("tiny-irrigate", 3)[0]
    cfg_path = os.path.join(SCRATCH, "tiny.json")
    out_dir = os.path.join(SCRATCH, "tiny")
    with open(cfg_path, "w", encoding="utf-8") as handle:
        json.dump(workload["config"], handle)
    expect(cli.main(["irrigate", "--config", cfg_path, "--out", out_dir]) == 0,
           "tiny irrigate solve exits 0")
    run_cfg = validate_config(resolve_config(workload["config"], None))

    def gate():
        return {name: passed for name, passed, _ in checks.check_outputs(out_dir, run_cfg)}

    expect(all(gate().values()), "gate passes the untouched tiny solve")
    trace_path = os.path.join(out_dir, "trace.csv")
    with open(trace_path, encoding="utf-8", newline="") as handle:
        table = list(csv.reader(handle))
    j_col = table[0].index("J")
    table[2][j_col] = table[1][j_col]
    with open(trace_path, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(table)
    expect(not gate()["trace_strictly_decreasing"],
           "gate rejects the tiny solve once one J repeats in trace.csv")


def test_refuses_without_sources():
    bare = os.path.join(SCRATCH, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_driver(bare, "irrigate-star", 0)
    lines = done.stdout.strip().splitlines()
    expect(done.returncode != 0 and not any(line.startswith('{"correct"') for line in lines),
           f"driver without sources exits {done.returncode} and prints no result")


def main() -> int:
    os.makedirs(SCRATCH)
    try:
        test_metric_names()
        test_gate_rejects_non_decreasing_trace()
        test_refuses_without_sources()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""ramify benchmark: time to solution, answer quality and per-layer cost.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run writes the workload's JSON config (see workloads.py), then:

1. Times set-up: a fresh interpreter imports numpy and ramify, validates
   the config and builds the initial plan, as every CLI call does, and
   reports how long that took. One warm-up process compiles the bytecode;
   the median of the next ones is ``setup_s``. Interpreter start-up is
   left out of it because it swings with the host's load far more than the
   work ramify controls; the whole process's wall time is the per-layer
   ``setup.process_s``.
2. Solves: calls ``ramify.cli.main`` in this process, with
   ``RAMIFY_THREADS=1``, once for each of the seed's inputs and then on
   repeat while ``--seconds`` last, each call writing its own output
   directory. ``wall_s`` is the median over inputs of each input's median
   call; ``final_energy`` and ``exact_cost`` are medians over inputs. With
   ``--trace 1`` untraced and traced calls on the first input alternate
   instead, and the per-layer metrics come from the traced calls
   (tracer.py); the tracing overhead is traced minus untraced wall.
3. Checks every input's outputs (checks.py) and that every repeat,
   traced or not, wrote byte-identical answer files.

Stdout gets one line per metric, one ``{"record": ...}`` line with the
answer fields, machine information and every sample, and as its last line
the JSON result ``{"correct", "attempted", "failed", "metrics"}``. The run
exits with 2, printing no result, when the ramify sources are not next to
the benchmark or the arguments are invalid.
"""

import os
import sys

# Pin every numeric thread pool before numpy loads here or in a child process.
os.environ["RAMIFY_THREADS"] = "1"
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import workloads  # noqa: E402

SETUP_SAMPLES = 9
PROBE_TIMEOUT_S = 60

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("final_energy", "cost"),
    ("exact_cost", "cost"),
    ("pass_rate", "ratio"),
)

_TIMED = ("self_s", "s")
_CALLS = ("calls", "count")
PER_LAYER = tuple(
    [(f"{layer}.self_s", "s") for layer in (
        "config", "plan_model", "geometry", "kernels", "mollified", "objective",
        "gradients", "optimizer", "exact_cost", "svg", "cli")]
    + [(f"kernels.{fn}.{kind}", unit)
       for fn in ("bump_segment_integral", "bump_segment_integral_grad")
       for kind, unit in (_TIMED, _CALLS)]
    + [("kernels.pairs", "count"), ("kernels.active_pair_ratio", "ratio"),
       ("kernels.bytes_computed", "bytes")]
    + [("optimizer.iterations", "count"), ("optimizer.objective_evals", "count"),
       ("optimizer.gradient_evals", "count"), ("optimizer.evals_per_iter", "ratio"),
       ("optimizer.accept_ratio", "ratio"), ("optimizer.iter_ms_p50", "ms"),
       ("optimizer.iter_ms_p90", "ms"),
       ("optimizer.rediscretize_attempts", "count"),
       ("optimizer.rediscretize_accept_ratio", "ratio")]
    + [("plan_model.segment_table.self_s", "s"), ("plan_model.segment_table.calls", "count"),
       ("plan_model.segment_table.calls_per_eval", "ratio")]
    + [(f"{fn}.{kind}", unit)
       for fn in ("gradients.plan_to_vector", "gradients.vector_to_plan",
                  "optimizer.feasibility_project", "optimizer.rediscretize_plan",
                  "mollified.energy_avg", "mollified.energy_avg_gradient",
                  "mollified.mollified_flux", "mollified.branch_irrigation_cost",
                  "objective.tree_objective", "objective.tree_objective_gradient",
                  "objective.crowding_penalty")
       for kind, unit in (_TIMED, _CALLS)]
    + [(f"{fn}.self_s", "s")
       for fn in ("exact_cost.exact_plan_cost", "plan_model.crossing_cluster_count",
                  "plan_model.save_plan", "svg.save_svg", "config.validate_config")]
    + [("setup.import_s", "s"), ("setup.validate_s", "s"), ("setup.build_plan_s", "s"),
       ("setup.process_s", "s")]
    + [("trace.coverage", "ratio"), ("trace.spans", "count"), ("trace.wall_s_untraced", "s"),
       ("trace.wall_s_traced", "s"), ("trace.overhead_s", "s"), ("trace.overhead_ratio", "ratio")]
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="ramify benchmark driver")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + sorted(workloads.SELFTEST_WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def machine_info(numpy_version: str) -> dict:
    """nproc, CPU model, cache sizes, interpreter and numpy versions, pinning."""
    info = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "thread_pinning": {name: os.environ[name] for name in (
            "RAMIFY_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    for index in range(8):
        base = os.path.join(cache_dir, f"index{index}")
        try:
            with open(os.path.join(base, "level")) as lv, open(os.path.join(base, "type")) as ty, \
                    open(os.path.join(base, "size")) as sz:
                level, kind, size = lv.read().strip(), ty.read().strip(), sz.read().strip()
        except OSError:
            break
        if kind != "Instruction":
            info[f"L{level}_per_core"] = size
    return info


def measure_setup(cfg_path: str, preset, samples: int):
    """Set-up times of fresh processes, and the medians of their phases.

    Returns the samples of import + validate + build time and a dict of
    per-phase medians, including ``process_s``, the process's whole wall
    time as seen from here.
    """
    command = [sys.executable, os.path.join(HERE, "setup_probe.py"), cfg_path]
    if preset:
        command.append(preset)
    totals, phases = [], []
    for i in range(samples + 1):
        start = time.perf_counter()
        done = subprocess.run(command, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                              check=True)
        wall = time.perf_counter() - start
        if i:  # the first process compiles bytecode and is not counted
            phase = json.loads(done.stdout.strip().splitlines()[-1])
            phase["process_s"] = wall
            phases.append(phase)
            totals.append(phase["import_s"] + phase["validate_s"] + phase["build_s"])
    return totals, {key: statistics.median(p[key] for p in phases) for key in phases[0]}


def eval_counts(rows, stage_reasons, descent):
    """Objective and gradient evaluations implied by trace.csv and the config.

    Per stage run_descent evaluates the start plan once, then per
    iteration one gradient and (backtracks + 1) trial objectives, plus
    one objective for each re-discretization; an exhausted line search
    spends backtrack_limit trials on a gradient that is never accepted.
    """
    objective = gradient = trials = 0
    for eps, reason in zip(descent.eps_schedule, stage_reasons):
        stage = [r for r in rows if r["eps"] == eps]
        exhausted = reason == "line_search_exhausted"
        stage_trials = sum(r["backtracks"] + 1 for r in stage) + \
            (descent.backtrack_limit if exhausted else 0)
        redisc = len(stage) // descent.rediscretize_every if descent.rediscretize_every else 0
        objective += 1 + stage_trials + redisc
        gradient += len(stage) + exhausted
        trials += stage_trials
    return {"objective_evals": objective, "gradient_evals": gradient, "trials": trials}


class Run:
    """One benchmark run: the seed's inputs, the output area, solves and checks."""

    def __init__(self, args):
        self.inputs = workloads.build(args.workload, args.seed)
        self.root = os.path.join(ROOT, ".bench_out",
                                 f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        os.makedirs(self.root)
        for index, item in enumerate(self.inputs):
            item["cfg_path"] = os.path.join(self.root, f"input{index}.json")
            with open(item["cfg_path"], "w", encoding="utf-8") as handle:
                json.dump(item["config"], handle, indent=2, sort_keys=True)
            item["argv"] = [item["command"], "--config", item["cfg_path"]]
            if item["preset"]:
                item["argv"] += ["--preset", item["preset"]]
            item["walls"], item["dirs"] = [], []
        self.checks = []
        self.exit_codes = []

    def check(self, name, passed, detail=""):
        self.checks.append({"check": name, "passed": bool(passed), "detail": detail})

    def solve(self, cli, item):
        """One CLI call into a fresh output directory: (wall seconds, directory)."""
        out_dir = os.path.join(self.root, f"solve{len(self.exit_codes)}")
        start = time.perf_counter()
        self.exit_codes.append(cli.main(item["argv"] + ["--out", out_dir]))
        return time.perf_counter() - start, out_dir


def gate(run, item, index):
    """Run the correctness gate on an input's first solve; return its answer fields."""
    import numpy as np
    import checks
    from ramify.config import resolve_config, validate_config
    from ramify.plan_model import load_plan, segment_table

    run_cfg = validate_config(resolve_config(item["config"], item["preset"]))
    first = item["dirs"][0]
    try:
        results = checks.check_outputs(first, run_cfg)
        summary = checks.read_summary(first)
        rows = checks.read_trace(first)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        run.check(f"input{index}.outputs_readable", False, f"{type(exc).__name__}: {exc}")
        return None
    for name, passed, detail in results:
        run.check(f"input{index}.{name}", passed, detail)
    run.check(f"input{index}.repeats_identical", *checks.same_outputs(first, item["dirs"][1:]))

    counts = eval_counts(rows, summary["stage_reasons"], run_cfg.descent)
    answers = {
        "inputs": item["inputs"],
        "stage_reasons": summary["stage_reasons"],
        "cluster_counts": summary.get("cluster_counts"),
        "iterations": len(rows),
        "objective_evals": counts["objective_evals"],
        "gradient_evals": counts["gradient_evals"],
        "line_search_trials": counts["trials"],
        "final_energy": checks.final_energy(summary),
    }
    if run_cfg.experiment == "irrigate":
        answers["exact_cost"] = summary["exact_cost"]
    else:
        # Unsmoothed cost of the branch tree: sum of flux^alpha * length
        # over segments, with the exact downstream flux at each midpoint.
        table = segment_table(load_plan(checks.stage_plan_files(first)[-1]))
        answers["final"] = summary["final"]
        answers["exact_cost"] = float(
            (np.power(table.flux, run_cfg.objective.alpha) * table.length).sum())
        run.check(f"input{index}.exact_cost_positive", answers["exact_cost"] > 0.0,
                  f"{answers['exact_cost']!r}")
    return answers


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ramify", "cli.py")):
        print(f"error: ramify sources not found at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy as np
    import checks
    import tracer
    from ramify import cli, exact_cost, svg  # noqa: F401  (all loaded before timing)

    if not os.path.abspath(cli.__file__).startswith(os.path.join(SRC, "ramify")):
        print(f"error: imported ramify from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    run = Run(args)
    inputs = run.inputs
    setup_walls, setup_phases = measure_setup(
        inputs[0]["cfg_path"], inputs[0]["preset"], SETUP_SAMPLES if not args.trace else 3)

    traced, tracers, traced_dirs = [], [], []
    phase_start = time.perf_counter()
    if not args.trace:
        # Every input once, then repeats in the same order while time is left.
        count = 0
        while True:
            item = inputs[count % len(inputs)]
            wall, out_dir = run.solve(cli, item)
            item["walls"].append(wall)
            item["dirs"].append(out_dir)
            count += 1
            typical = statistics.median(statistics.median(i["walls"]) for i in inputs if i["walls"])
            if count >= len(inputs) and time.perf_counter() - phase_start + typical > args.seconds:
                break
        solved = inputs
    else:
        item = inputs[0]
        while True:
            wall, out_dir = run.solve(cli, item)
            item["walls"].append(wall)
            item["dirs"].append(out_dir)
            with tracer.Tracer() as spans:
                wall, out_dir = run.solve(cli, item)
            traced.append(wall)
            traced_dirs.append(out_dir)
            tracers.append(spans)
            elapsed = time.perf_counter() - phase_start
            if elapsed + statistics.median(item["walls"]) + statistics.median(traced) > args.seconds:
                break
        solved = inputs[:1]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    run.check("exit_codes_zero", not any(run.exit_codes), f"exit codes {sorted(set(run.exit_codes))}")
    answers = [gate(run, item, index) for index, item in enumerate(solved)]
    complete = all(a is not None for a in answers)
    if args.trace:
        run.check("input0.traced_matches_untraced",
                  *checks.same_outputs(inputs[0]["dirs"][0], traced_dirs))
        metrics = layer_metrics(tracers, inputs[0]["walls"], traced, answers[0] or {}, setup_phases)
        if complete:
            run.check("input0.eval_counts_agree",
                      (metrics["optimizer.objective_evals"], metrics["optimizer.gradient_evals"])
                      == (answers[0]["objective_evals"], answers[0]["gradient_evals"]),
                      "calls seen by the tracer vs counts implied by trace.csv")
    failed = sum(not c["passed"] for c in run.checks)
    attempted = len(run.checks)
    correct = failed == 0 and complete
    if not args.trace:
        def median_answer(key):
            return statistics.median(a[key] for a in answers) if complete else 0.0
        metrics = {
            "setup_s": statistics.median(setup_walls),
            "wall_s": statistics.median(statistics.median(i["walls"]) for i in inputs),
            "peak_rss_mb": peak_rss_mb,
            "final_energy": median_answer("final_energy"),
            "exact_cost": median_answer("exact_cost"),
            "pass_rate": (attempted - failed) / attempted,
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "answers": answers,
        "samples": {"setup_s": setup_walls, "wall_s": [i["walls"] for i in solved],
                    "wall_s_traced": traced},
        "setup_phases_s": setup_phases,
        "machine": machine_info(np.__version__),
        "checks": run.checks,
    }
    print(json.dumps({"record": record}, sort_keys=True))
    result = {}
    for name, unit in (PER_LAYER if args.trace else END_TO_END):
        value = float(metrics[name])
        result[name] = {"value": value, "unit": unit}
        print(f"{name} = {value!r} {unit}")
    if correct:
        shutil.rmtree(run.root, ignore_errors=True)
    else:
        print(f"outputs kept in {run.root}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


def layer_metrics(tracers, untraced, traced, answers, setup_phases) -> dict:
    """Per-layer metrics: medians over the traced solves of each quantity."""
    import tracer

    def med(fn):
        return statistics.median(fn(t) for t in tracers)

    out = {}
    for layer in tracer.LAYERS:
        out[f"{layer}.self_s"] = med(lambda t: t.layer_self_s(layer))
    for key in tracers[0].self_s:
        out[f"{key}.self_s"] = med(lambda t: t.self_s[key])
        out[f"{key}.calls"] = med(lambda t: t.calls[key])
    spans = tracers[0]
    out["kernels.pairs"] = spans.pairs
    out["kernels.active_pair_ratio"] = spans.active_pairs / spans.pairs if spans.pairs else 0.0
    out["kernels.bytes_computed"] = spans.bytes_computed

    objective, gradient = spans.evaluator_calls()
    iterations = answers.get("iterations", 0)
    trials = answers.get("line_search_trials", 0)
    out["optimizer.iterations"] = iterations
    out["optimizer.objective_evals"] = objective
    out["optimizer.gradient_evals"] = gradient
    out["optimizer.evals_per_iter"] = (objective + gradient) / iterations if iterations else 0.0
    out["optimizer.accept_ratio"] = iterations / trials if trials else 0.0
    iter_ms = [statistics.median(ms) for ms in zip(*(t.iteration_ms() for t in tracers))]
    out["optimizer.iter_ms_p50"] = tracer.quantile(iter_ms, 0.5) if iter_ms else 0.0
    out["optimizer.iter_ms_p90"] = tracer.quantile(iter_ms, 0.9) if iter_ms else 0.0
    attempts, accepted = spans.rediscretizations()
    out["optimizer.rediscretize_attempts"] = attempts
    out["optimizer.rediscretize_accept_ratio"] = accepted / attempts if attempts else 0.0
    evals = objective + gradient
    out["plan_model.segment_table.calls_per_eval"] = \
        out["plan_model.segment_table.calls"] / evals if evals else 0.0

    out["setup.import_s"] = setup_phases["import_s"]
    out["setup.validate_s"] = setup_phases["validate_s"]
    out["setup.build_plan_s"] = setup_phases["build_s"]
    out["setup.process_s"] = setup_phases["process_s"]
    wall_traced = statistics.median(traced)
    wall_untraced = statistics.median(untraced)
    out["trace.coverage"] = statistics.median(
        t.covered_s() / wall for t, wall in zip(tracers, traced))
    out["trace.spans"] = sum(spans.calls.values())
    out["trace.wall_s_untraced"] = wall_untraced
    out["trace.wall_s_traced"] = wall_traced
    out["trace.overhead_s"] = wall_traced - wall_untraced
    out["trace.overhead_ratio"] = (wall_traced - wall_untraced) / wall_untraced
    return out


if __name__ == "__main__":
    sys.exit(main())

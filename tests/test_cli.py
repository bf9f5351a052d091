"""End-to-end tests of the command line interface."""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import ramify
import ramify.optimizer as optimizer_module
from ramify.cli import main

TINY_IRRIGATE = {
    "experiment": "irrigate",
    "measure": {"n": 3, "segments_per_path": 3},
    "objective": {"alpha": 0.5},
    "descent": {"eps_schedule": [0.3, 0.15], "j_max": 5},
}

TINY_TREEOPT = {
    "experiment": "treeopt",
    "fan": {"n": 3, "segments": 3},
    "objective": {"alpha": 0.5, "c1": 0.5, "c2": 1.5},
    "descent": {"eps_schedule": [0.5, 0.2], "j_max": 5},
}


def _write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def _read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_help_exits_zero():
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_irrigate_writes_all_outputs(tmp_path):
    cfg = _write_config(tmp_path, TINY_IRRIGATE)
    out = str(tmp_path / "run")
    assert main(["irrigate", "--config", cfg, "--out", out]) == 0
    summary = _read_json(os.path.join(out, "summary.json"))
    assert summary["experiment"] == "irrigate"
    assert summary["atoms"] == 3
    assert summary["eps_schedule"] == [0.3, 0.15]
    assert len(summary["stage_reasons"]) == 2
    assert len(summary["cluster_counts"]) == 3
    assert summary["final_energy"] > 0.0
    assert summary["exact_cost"] is None or summary["exact_cost"] > 0.0
    assert summary["kernel"]["kind"] == "bump"
    # one plan and one image per stage snapshot, initial included
    for i in range(3):
        assert os.path.exists(os.path.join(out, f"plan_stage_{i}.json"))
        assert os.path.exists(os.path.join(out, f"stage_{i}.svg"))
    lines = open(os.path.join(out, "trace.csv")).read().strip().split("\n")
    assert lines[0] == "iter,eps,J,I,P,H,tau,gnorm,backtracks"
    assert len(lines) == summary["iterations"] + 1
    iters = [int(l.split(",")[0]) for l in lines[1:]]
    assert iters == list(range(1, len(iters) + 1))


def test_irrigate_single_atom_reaches_exact_cost(tmp_path):
    cfg = _write_config(
        tmp_path,
        {
            "experiment": "irrigate",
            "measure": {"n": 1, "segments_per_path": 4},
            "objective": {"alpha": 0.5},
            "descent": {"eps_schedule": [0.2, 0.1], "j_max": 30},
        },
    )
    out = str(tmp_path / "run")
    assert main(["irrigate", "--config", cfg, "--out", out]) == 0
    summary = _read_json(os.path.join(out, "summary.json"))
    # a single straight ray is already optimal: energy mass^alpha * radius
    assert summary["final_energy"] == pytest.approx(1.0, abs=1e-6)
    assert summary["exact_cost"] == pytest.approx(1.0, abs=1e-9)


def test_treeopt_writes_summary(tmp_path):
    cfg = _write_config(tmp_path, TINY_TREEOPT)
    out = str(tmp_path / "run")
    assert main(["treeopt", "--config", cfg, "--out", out]) == 0
    summary = _read_json(os.path.join(out, "summary.json"))
    assert summary["experiment"] == "treeopt"
    assert summary["branches"] == 3
    assert set(summary["final"]) == {"total", "irrigation", "penalty", "payoff"}
    assert summary["final"]["payoff"] > 0.0
    assert os.path.exists(os.path.join(out, "trace.csv"))


def test_runs_are_deterministic(tmp_path):
    cfg = _write_config(tmp_path, TINY_IRRIGATE)
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    assert main(["irrigate", "--config", cfg, "--out", out1]) == 0
    assert main(["irrigate", "--config", cfg, "--out", out2]) == 0
    for name in ("trace.csv", "summary.json", "stage_2.svg", "plan_stage_2.json"):
        a = open(os.path.join(out1, name), "rb").read()
        b = open(os.path.join(out2, name), "rb").read()
        assert a == b, name


def test_gamma_table_outputs_and_monotone_gap(tmp_path):
    cfg = _write_config(
        tmp_path,
        {
            "experiment": "gamma-table",
            "measure": {"n": 5, "segments_per_path": 8},
            "objective": {"alpha": 0.5},
            "gamma": {"eps_values": [0.2, 0.1, 0.05]},
        },
    )
    out = str(tmp_path / "run")
    assert main(["gamma-table", "--config", cfg, "--out", out]) == 0
    lines = open(os.path.join(out, "gamma_table.csv")).read().strip().split("\n")
    assert lines[0] == "eps,E_exact,E_max,E_avg,gap_max,gap_avg"
    rows = [list(map(float, l.split(","))) for l in lines[1:]]
    assert len(rows) == 3
    exact = rows[0][1]
    for eps, e_exact, e_max, e_avg, gap_max, gap_avg in rows:
        assert e_exact == pytest.approx(exact, abs=1e-12)
        assert e_max <= e_exact * (1.0 + 1e-3)
        assert gap_max == pytest.approx((e_exact - e_max) / e_exact, abs=1e-12)
    gaps = [r[4] for r in rows]
    assert np.all(np.diff(gaps) < 0.0)
    summary = _read_json(os.path.join(out, "summary.json"))
    assert summary["assertions_passed"]
    assert summary["failures"] == []


def test_counterexample_report_values(tmp_path):
    out = str(tmp_path / "run")
    assert main(["counterexample", "--out", out]) == 0
    report = _read_json(os.path.join(out, "report.json"))
    closed = report["closed_form"]
    assert closed["cost_before"] == pytest.approx(4.1 / np.sqrt(1.1), rel=1e-12)
    assert closed["cost_after"] == pytest.approx(4.2 / np.sqrt(1.2), rel=1e-12)
    assert closed["derivative_at_l2"] < 0.0
    pipeline = report["pipeline"]
    assert pipeline["energy_long"] < pipeline["energy_short"]
    assert pipeline["kernel"] == "rational"
    control = report["alpha1_control"]
    assert control["cost_before"] < control["cost_after"]
    assert report["assertions_passed"]
    assert report["failures"] == []


def test_failed_counterexample_checks_are_written_then_exit_three(tmp_path, capsys):
    # Near alpha = 1 lengthening no longer pays: three of the four checks fail.
    cfg = _write_config(tmp_path, {"counterexample": {"alpha": 0.99}})
    out = str(tmp_path / "run")
    assert main(["counterexample", "--config", cfg, "--out", out]) == 3
    report = _read_json(os.path.join(out, "report.json"))
    assert report["assertions_passed"] is False
    assert len(report["failures"]) == 3
    err = capsys.readouterr().err
    assert err.strip() == "numerical check failed: " + "; ".join(report["failures"])


def test_gradcheck_passes_and_detects_corruption(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        {"experiment": "gradcheck", "gradcheck": {"plans": 4, "seed": 1}},
    )
    out = str(tmp_path / "ok")
    assert main(["gradcheck", "--config", cfg, "--out", out]) == 0
    report = _read_json(os.path.join(out, "report.json"))
    assert report["passed"]
    assert report["worst_rel_error"] < report["tolerance"]
    assert report["plans"] == 4

    bad_out = str(tmp_path / "bad")
    capsys.readouterr()
    assert (
        main(["gradcheck", "--config", cfg, "--out", bad_out, "--corrupt-gradient"]) == 3
    )
    bad_report = _read_json(os.path.join(bad_out, "report.json"))
    assert not bad_report["passed"]
    assert "numerical check failed: gradient mismatch" in capsys.readouterr().err


def test_config_errors_exit_two(tmp_path):
    bad = _write_config(tmp_path, {"objective": {"alfa": 0.5}})
    assert main(["irrigate", "--config", bad, "--out", str(tmp_path / "x")]) == 2
    assert main(["irrigate", "--preset", "fig9", "--out", str(tmp_path / "y")]) == 2
    # A command rejects every setting it does not read (cli._READ_BY).
    for index, (command, setting) in enumerate((
            ("treeopt", {"kernel": "exponential"}),
            ("treeopt", {"functional": "max"}),
            ("gradcheck", {"kernel": "rational"}),
            ("counterexample", {"kernel": "triangular"}),
            ("gamma-table", {"functional": "max"}),
            ("treeopt", {"quad_points": 2}),
            ("treeopt", {"merge_tol": 0.3}),
            ("treeopt", {"measure": {"n": 7}}),
            ("treeopt", {"gamma": {"gap_target": 0.5}}),
            ("gamma-table", {"descent": {"j_max": 3}}),
            ("gamma-table", {"fan": {"n": 3}}),
            ("counterexample", {"objective": {"alpha": 0.7}}),
            ("irrigate", {"counterexample": {"alpha": 0.7}}),
            ("gradcheck", {"descent": {"j_max": 3}}),
            ("treeopt", {"gradcheck": {"plans": 2}}),
            # ...and every field it ignores inside a section it reads.
            ("treeopt", {"objective": {"eps": 0.03}}),
            ("irrigate", {"objective": {"eps": 0.7}}),
            ("irrigate", {"objective": {"c1": 2.0}}),
            ("irrigate", {"objective": {"penalty": {"kernel": "powerlaw"}}}),
            ("gamma-table", {"objective": {"f_min": 0.0}}),
            ("gamma-table", {"objective": {"penalty": {"beta": 2.0}}}),
            ("irrigate", {"descent": {"m_init": 0.9}}))):
        unread = _write_config(tmp_path, setting, name=f"unread-{index}.json")
        out = str(tmp_path / f"unread-{index}")
        assert main([command, "--config", unread, "--out", out]) == 2
        assert not os.path.exists(out)
    with pytest.raises(SystemExit) as info:
        main(["treeopt", "--functional", "max", "--out", str(tmp_path / "z")])
    assert info.value.code == 2


def test_experiment_subcommand_mismatch_exits_two(tmp_path):
    cfg = _write_config(tmp_path, TINY_TREEOPT)
    assert main(["irrigate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


def test_thread_env_validation(tmp_path, monkeypatch):
    monkeypatch.setenv("RAMIFY_THREADS", "lots")
    assert main(["counterexample", "--out", str(tmp_path / "x")]) == 2
    monkeypatch.setenv("RAMIFY_THREADS", "1")
    assert main(["counterexample", "--out", str(tmp_path / "y")]) == 0
    assert os.environ["OMP_NUM_THREADS"] == "1"


def test_zero_iteration_budget_emits_initial_plan_only(tmp_path):
    cfg = _write_config(
        tmp_path,
        {
            "experiment": "irrigate",
            "measure": {"n": 2, "segments_per_path": 2},
            "descent": {"eps_schedule": [0.2], "j_max": 0},
        },
    )
    out = str(tmp_path / "run")
    assert main(["irrigate", "--config", cfg, "--out", out]) == 0
    lines = open(os.path.join(out, "trace.csv")).read().strip().split("\n")
    assert len(lines) == 1  # header only
    summary = _read_json(os.path.join(out, "summary.json"))
    assert summary["iterations"] == 0
    assert summary["stage_reasons"] == ["iteration_cap"]


def test_nonfinite_stage_writes_outputs_and_exits_three(tmp_path, monkeypatch, capsys):
    real = optimizer_module.path_evaluator

    def poisoned(*args, **kwargs):
        evaluator, calls = real(*args, **kwargs), []

        def objective(plan):
            calls.append(plan)
            value = evaluator.objective(plan)
            return value if len(calls) <= 3 else dataclasses.replace(value, total=np.nan)

        return dataclasses.replace(evaluator, objective=objective)

    monkeypatch.setattr(optimizer_module, "path_evaluator", poisoned)
    cfg = _write_config(tmp_path, TINY_IRRIGATE)
    out = str(tmp_path / "run")
    assert main(["irrigate", "--config", cfg, "--out", out]) == 3
    assert "stage 1 (eps=0.3)" in capsys.readouterr().err
    summary = _read_json(os.path.join(out, "summary.json"))
    assert summary["stage_reasons"] == ["nonfinite"]
    assert np.isfinite(summary["final_energy"])
    lines = open(os.path.join(out, "trace.csv")).read().strip().split("\n")
    assert len(lines) == 1 + summary["iterations"]
    for name in ("plan_stage_0.json", "plan_stage_1.json", "stage_1.svg"):
        assert os.path.exists(os.path.join(out, name))
    assert not os.path.exists(os.path.join(out, "plan_stage_2.json"))


@pytest.mark.parametrize("poisoned_eps, stage", [(0.15, 2), (0.3, 1)])
def test_nonfinite_stage_start_writes_outputs_and_exits_three(tmp_path, monkeypatch, capsys,
                                                              poisoned_eps, stage):
    real = optimizer_module.path_evaluator

    def poisoned(alpha, eps, *args):
        evaluator = real(alpha, eps, *args)
        if eps != poisoned_eps:
            return evaluator
        return dataclasses.replace(evaluator, objective=lambda plan: dataclasses.replace(
            evaluator.objective(plan), total=np.nan))

    monkeypatch.setattr(optimizer_module, "path_evaluator", poisoned)
    cfg = _write_config(tmp_path, TINY_IRRIGATE)
    out = str(tmp_path / "run")
    assert main(["irrigate", "--config", cfg, "--out", out]) == 3
    assert f"stage {stage} (eps={poisoned_eps})" in capsys.readouterr().err
    with open(os.path.join(out, "summary.json"), encoding="utf-8") as handle:
        text = handle.read()
    summary = json.loads(text, parse_constant=lambda name: pytest.fail(f"{name} in summary"))
    assert summary["stage_reasons"][-1] == "nonfinite"
    assert len(summary["stage_reasons"]) == stage
    lines = open(os.path.join(out, "trace.csv")).read().strip().split("\n")
    assert len(lines) == 1 + summary["iterations"]
    if stage == 1:
        assert summary["iterations"] == 0
        assert summary["final_energy"] is None
    else:
        assert summary["final_energy"] == float(lines[-1].split(",")[2])
    for k in range(stage + 1):
        for name in (f"plan_stage_{k}.json", f"stage_{k}.svg"):
            assert os.path.exists(os.path.join(out, name))
    assert not os.path.exists(os.path.join(out, f"plan_stage_{stage + 1}.json"))


def test_importing_the_package_and_the_cli_leaves_numpy_unloaded():
    # RAMIFY_THREADS must reach the environment before numpy loads.
    src = os.path.dirname(os.path.dirname(os.path.abspath(ramify.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, ramify, ramify.cli; print(sorted(m for m in sys.modules if 'numpy' in m))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          check=True)
    assert done.stdout.strip() == "[]"

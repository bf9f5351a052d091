"""End-to-end tests of the command line interface."""

import dataclasses
import json
import os
import subprocess
import sys
import time
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import ramify
import ramify.exact_cost as exact_cost_module
import ramify.mollified as mollified_module
import ramify.objective as objective_module
import ramify.optimizer as optimizer_module
from ramify.cli import main
from ramify.exact_cost import TopologyError, exact_plan_cost

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

TINY_GAMMA = {
    "experiment": "gamma-table",
    "measure": {"n": 5, "segments_per_path": 8},
    "objective": {"alpha": 0.5},
    "gamma": {"eps_values": [0.2, 0.1, 0.05]},
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


def test_irrigate_notes_a_merged_plan_that_is_no_tree(tmp_path, monkeypatch):
    def doubles_back(plan, alpha, merge_tol=0.0):
        raise TopologyError("path 0 doubles back onto its own trunk near node 0")

    monkeypatch.setattr(exact_cost_module, "exact_plan_cost", doubles_back)
    out = str(tmp_path / "run")
    assert main(["irrigate", "--config", _write_config(tmp_path, TINY_IRRIGATE),
                 "--out", out]) == 0
    with open(os.path.join(out, "summary.json"), "r", encoding="utf-8") as handle:
        text = handle.read()
    assert '"exact_cost": null' in text
    summary = json.loads(text)
    assert summary["exact_cost_note"] == "path 0 doubles back onto its own trunk near node 0"
    for i in range(3):
        assert os.path.exists(os.path.join(out, f"plan_stage_{i}.json"))
        assert os.path.exists(os.path.join(out, f"stage_{i}.svg"))
    lines = open(os.path.join(out, "trace.csv")).read().strip().split("\n")
    assert len(lines) == summary["iterations"] + 1


def test_functional_flag_overrides_the_config(tmp_path):
    flagged = str(tmp_path / "flagged")
    configured = str(tmp_path / "configured")
    avg_cfg = _write_config(tmp_path, dict(TINY_IRRIGATE, functional="avg"), "avg.json")
    max_cfg = _write_config(tmp_path, dict(TINY_IRRIGATE, functional="max"), "max.json")
    assert main(["irrigate", "--config", avg_cfg, "--functional", "max", "--out", flagged]) == 0
    assert main(["irrigate", "--config", max_cfg, "--out", configured]) == 0
    assert _read_json(os.path.join(flagged, "summary.json"))["functional"] == "max"
    names = sorted(os.listdir(flagged))
    assert names == sorted(os.listdir(configured))
    for name in names:
        a = open(os.path.join(flagged, name), "rb").read()
        b = open(os.path.join(configured, name), "rb").read()
        assert a == b, name


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


@pytest.mark.parametrize("command, config", [
    ("irrigate", TINY_IRRIGATE),
    ("treeopt", TINY_TREEOPT),
    ("irrigate", dict(TINY_IRRIGATE, descent={"eps_schedule": [0.3], "tau0": 1.0,
                                              "backtrack_limit": 2, "j_max": 50})),
], ids=["irrigate", "treeopt", "exhausted"])
def test_summary_counts_line_search_work_per_stage(tmp_path, command, config):
    out = str(tmp_path / "run")
    assert main([command, "--config", _write_config(tmp_path, config), "--out", out]) == 0
    summary = _read_json(os.path.join(out, "summary.json"))
    descent = config["descent"]
    defaults = optimizer_module.DescentConfig()
    limit = descent.get("backtrack_limit", defaults.backtrack_limit)
    lines = open(os.path.join(out, "trace.csv")).read().strip().split("\n")[1:]
    rows = [(float(line.split(",")[1]), int(line.split(",")[-1])) for line in lines]
    assert len(summary["stage_objective_evals"]) == len(descent["eps_schedule"])
    for eps, reason, evals, rejected in zip(
            descent["eps_schedule"], summary["stage_reasons"],
            summary["stage_objective_evals"], summary["stage_rejected_trials"]):
        backtracks = [b for at, b in rows if at == eps]
        exhausted = limit if reason == "line_search_exhausted" else 0
        assert rejected == sum(backtracks) + exhausted
        # the start, every trial, and a resample every few accepted iterations
        resamples = len(backtracks) // defaults.rediscretize_every
        assert evals == 1 + rejected + len(backtracks) + resamples
    if len(descent["eps_schedule"]) == 1:
        assert summary["stage_reasons"] == ["line_search_exhausted"]
        assert len(rows) == 1


def _streamed_trace(command, config):
    """The trace.csv bytes of a run, streamed row by row from the
    continuation's callback, with the settings the command would use."""
    from ramify.config import validate_config
    from ramify.plan_model import build_fan_branches, build_star_plan, half_circle_targets

    run_cfg = validate_config(config)
    if command == "irrigate":
        measure = run_cfg.measure
        plan = build_star_plan(half_circle_targets(measure.n, measure.radius,
                                                   measure.total_mass),
                               measure.segments_per_path)

        def factory(eps):
            return optimizer_module.path_evaluator(run_cfg.objective.alpha, eps, run_cfg.kernel,
                                                   run_cfg.functional, run_cfg.quad_points)
    else:
        fan = run_cfg.fan
        plan = build_fan_branches(fan.n, fan.spread_angle, fan.length0, fan.segments,
                                  run_cfg.descent.m_init)

        def factory(eps):
            return optimizer_module.branch_evaluator(run_cfg.objective, eps)
    lines = [optimizer_module.TRACE_HEADER + "\n"]
    optimizer_module.eps_continuation(
        plan, factory, run_cfg.descent,
        on_iteration=lambda row, _: lines.append(row.as_csv() + "\n"))
    return "".join(lines).encode("utf-8")


@pytest.mark.parametrize("command, config", [("irrigate", TINY_IRRIGATE),
                                             ("treeopt", TINY_TREEOPT)],
                         ids=["irrigate", "treeopt"])
def test_runs_build_plans_only_for_stage_ends_and_the_start(
        tmp_path, monkeypatch, command, config):
    expected = _streamed_trace(command, config)
    builds, resamples = [], []

    def count(name, calls):
        real = getattr(optimizer_module, name)

        def wrapper(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(optimizer_module, name, wrapper)

    count("vector_to_plan", builds)
    count("rediscretize_plan", resamples)
    out = str(tmp_path / "run")
    assert main([command, "--config", _write_config(tmp_path, config), "--out", out]) == 0
    summary = _read_json(os.path.join(out, "summary.json"))
    assert len(resamples) > 0
    # project_plan's one and one per stage end; a resample builds none.
    assert len(builds) == 1 + len(summary["stage_reasons"])
    with open(os.path.join(out, "trace.csv"), "rb") as handle:
        assert handle.read() == expected


def test_noncompact_kernel_refuses_a_pair_list_above_the_limit(tmp_path, capsys):
    from ramify.cli import _check_pair_budget
    from ramify.config import ConfigError, validate_config

    big = {"kernel": "exponential", "measure": {"n": 200, "segments_per_path": 16}}
    for command in ("irrigate", "gamma-table"):
        out = str(tmp_path / command)
        start = time.perf_counter()
        assert main([command, "--config", _write_config(tmp_path, big), "--out", out]) == 2
        assert time.perf_counter() - start < 5.0  # refused before any pair is listed
        err = capsys.readouterr().err
        assert "S = 3200" in err and "10240000 pairs" in err
        assert not os.path.exists(out)
    # A compact kernel's list moves toward all S^2 pairs as paths bundle, so
    # the limit holds whatever the kernel.
    for kind in ("rational", "bump"):
        with pytest.raises(ConfigError, match="S = 3200 segments, 10240000 pairs"):
            _check_pair_budget(validate_config(dict(big, kernel=kind)))
    _check_pair_budget(validate_config(dict(big, measure={"n": 125, "segments_per_path": 16})))
    # Gradcheck's largest random plan has max_branches * max_segments segments.
    with pytest.raises(ConfigError, match="S = 2010 segments, 4040100 pairs"):
        _check_pair_budget(validate_config({"gradcheck": {"max_branches": 201,
                                                          "max_segments": 10}}))
    _check_pair_budget(validate_config({"gradcheck": {"max_branches": 200, "max_segments": 10}}))
    # Treeopt pairs every midpoint with every segment (and, with c1 != 0, every
    # midpoint), so a crowded fan is refused whatever c1 is.
    crowded = {"fan": {"n": 201, "segments": 10}, "objective": {"c1": 0.5}}
    with pytest.raises(ConfigError, match="S = 2010 segments, 4040100 pairs"):
        _check_pair_budget(validate_config(crowded))
    with pytest.raises(ConfigError, match="S = 2010 segments"):
        _check_pair_budget(validate_config(dict(crowded, objective={"c1": 0.0})))


def test_gamma_table_outputs_and_monotone_gap(tmp_path):
    cfg = _write_config(tmp_path, TINY_GAMMA)
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


@pytest.mark.parametrize("e_max, failure", [
    (lambda exact, eps: 2.0 * exact, "upper bound violated"),
    (lambda exact, eps: eps * exact, "gap_max grew"),
], ids=["upper-bound", "gap-grew"])
def test_failed_gamma_table_checks_are_written_then_exit_three(tmp_path, monkeypatch, capsys,
                                                               e_max, failure):
    def energy_max(plan, alpha, eps, spec):
        return SimpleNamespace(total=e_max(exact_plan_cost(plan, alpha), eps))

    monkeypatch.setattr(mollified_module, "energy_max", energy_max)
    out = str(tmp_path / "run")
    assert main(["gamma-table", "--config", _write_config(tmp_path, TINY_GAMMA),
                 "--out", out]) == 3
    summary = _read_json(os.path.join(out, "summary.json"))
    assert summary["assertions_passed"] is False
    assert summary["failures"]
    assert all(f.startswith(failure) for f in summary["failures"])
    err = capsys.readouterr().err
    assert err.strip() == "numerical check failed: " + "; ".join(summary["failures"])


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


def test_gradcheck_passes_and_detects_corruption(tmp_path, monkeypatch, capsys):
    cfg = _write_config(
        tmp_path,
        {"experiment": "gradcheck", "gradcheck": {"plans": 4, "seed": 1}},
    )
    out = str(tmp_path / "ok")
    assert main(["gradcheck", "--config", cfg, "--out", out]) == 0
    report = _read_json(os.path.join(out, "report.json"))
    assert report["passed"]
    assert report["worst_rel_error"] < report["tolerance"]
    assert 0.0 < report["worst_rel_error_major"] <= report["worst_rel_error"]
    assert report["plans"] == 4

    real = objective_module.tree_objective_gradient

    def corrupted(value):
        analytic = real(value)
        analytic[min(1, len(analytic) - 1)] += 1e-3
        return analytic

    monkeypatch.setattr(objective_module, "tree_objective_gradient", corrupted)
    bad_out = str(tmp_path / "bad")
    capsys.readouterr()
    assert main(["gradcheck", "--config", cfg, "--out", bad_out]) == 3
    bad_report = _read_json(os.path.join(bad_out, "report.json"))
    assert not bad_report["passed"]
    assert "numerical check failed: gradient mismatch" in capsys.readouterr().err


def test_config_errors_exit_two(tmp_path, capsys):
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
        capsys.readouterr()
        assert main([command, "--config", unread, "--out", out]) == 2
        assert not os.path.exists(out)
        # A penalty setting is named as the config spells it.
        for key in setting.get("objective", {}).get("penalty", {}):
            assert f"'objective.penalty.{key}'" in capsys.readouterr().err
    # Settings no solve can use are refused before any solve: an eps whose square
    # underflows (every eps setting), a counterexample alpha of 0 (its energy needs
    # alpha > 0), a fan above the dense pair limit (S = 2,010) with or without
    # crowding matrices, a bump-kernel star above it (S = 2,016), and more
    # than 1,000 Gauss-Legendre nodes.
    for index, (command, setting) in enumerate((
            ("irrigate", {"descent": {"eps_schedule": [1e-300]},
                          "measure": {"n": 3, "segments_per_path": 3}}),
            ("gradcheck", {"objective": {"eps": 1e-300}}),
            ("gamma-table", {"gamma": {"eps_values": [0.1, 1e-300]}}),
            ("counterexample", {"counterexample": {"alpha": 0.0}}),
            ("treeopt", {"fan": {"n": 201, "segments": 10}, "objective": {"c1": 0.5},
                         "descent": {"j_max": 0}}),
            ("treeopt", {"fan": {"n": 201, "segments": 10}, "descent": {"j_max": 0}}),
            ("irrigate", {"measure": {"n": 126, "segments_per_path": 16}}),
            ("counterexample", {"quad_points": 1001}))):
        refused = _write_config(tmp_path, setting, name=f"refused-{index}.json")
        out = str(tmp_path / f"refused-{index}")
        capsys.readouterr()
        assert main([command, "--config", refused, "--out", out]) == 2
        assert capsys.readouterr().err.startswith("configuration error:")
        assert not os.path.exists(out)
    with pytest.raises(SystemExit) as info:
        main(["treeopt", "--functional", "max", "--out", str(tmp_path / "z")])
    assert info.value.code == 2
    # A config file that is not UTF-8, and an --out that names an existing file.
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"out_dir": "\xff"}')
    taken = tmp_path / "taken"
    taken.touch()
    for args, out in ((["irrigate", "--config", str(not_utf8), "--out", str(tmp_path / "u")],
                       tmp_path / "u"),
                      (["counterexample", "--out", str(taken)], taken)):
        capsys.readouterr()
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("configuration error:")
        assert not out.is_dir()
    assert taken.read_bytes() == b""
    # An output file that cannot be written: a directory stands at its path.
    tiny = _write_config(tmp_path, TINY_IRRIGATE, name="tiny.json")
    for args, blocked in ((["counterexample"], "report.json"),
                          (["irrigate", "--config", tiny], "trace.csv")):
        out = tmp_path / f"blocked-{blocked}"
        (out / blocked).mkdir(parents=True)
        capsys.readouterr()
        assert main(args + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "Traceback" not in err
        assert str(out / blocked) in err


def test_experiment_subcommand_mismatch_exits_two(tmp_path):
    cfg = _write_config(tmp_path, TINY_TREEOPT)
    assert main(["irrigate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


def test_thread_env_validation(tmp_path, monkeypatch):
    monkeypatch.setenv("RAMIFY_THREADS", "lots")
    assert main(["counterexample", "--out", str(tmp_path / "x")]) == 2
    monkeypatch.setenv("RAMIFY_THREADS", "1")
    assert main(["counterexample", "--out", str(tmp_path / "y")]) == 0
    assert os.environ["OMP_NUM_THREADS"] == "1"


class _FakeLibc:
    """A C library whose ``mallopt``, if it has one, records its calls."""

    def __init__(self, has_mallopt=True):
        self.calls = []
        if has_mallopt:
            def mallopt(param, value):
                self.calls.append((param, value))
                return 1
            self.mallopt = mallopt


def _raise(error):
    def confstr(name):
        raise error
    return confstr


def test_malloc_thresholds_are_set_once_and_only_through_glibc_mallopt(tmp_path, monkeypatch):
    import ctypes

    from ramify import cli

    libraries = []

    def load(name):
        assert name is None  # the process's own symbols; find_library would start subprocesses
        return libraries[-1]

    def glibc(name):
        return "glibc 2.36" if name == "CS_GNU_LIBC_VERSION" else None

    monkeypatch.setattr(ctypes, "CDLL", load)
    try:
        for confstr, has_mallopt, expected in [
                (glibc, True, [(-1, 256 * 2 ** 20), (-3, 32 * 2 ** 20)]),
                (glibc, False, []),
                (_raise(ValueError("unrecognized configuration name")), True, []),
                (_raise(OSError(22, "Invalid argument")), True, []),
                (lambda name: None, True, []),
                (None, True, [])]:
            if confstr is None:
                monkeypatch.delattr(os, "confstr")
            else:
                monkeypatch.setattr(os, "confstr", confstr)
            libraries.append(_FakeLibc(has_mallopt))
            cli._keep_freed_memory.cache_clear()
            cli._keep_freed_memory()
            cli._keep_freed_memory()  # a second call is a no-op
            assert libraries[-1].calls == expected
            if expected:
                assert libraries[-1].mallopt.argtypes == (ctypes.c_int, ctypes.c_int)
    finally:
        cli._keep_freed_memory.cache_clear()
    # main calls it once the RAMIFY_THREADS check has passed.
    calls = []
    monkeypatch.setattr(cli, "_keep_freed_memory", lambda: calls.append(1))
    monkeypatch.setenv("RAMIFY_THREADS", "lots")
    assert main(["counterexample", "--out", str(tmp_path / "x")]) == 2
    assert calls == []
    monkeypatch.setenv("RAMIFY_THREADS", "1")
    assert main(["counterexample", "--out", str(tmp_path / "y")]) == 0
    assert calls == [1]


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

        def objective(plan, kept=None):
            calls.append(plan)
            value = evaluator.objective(plan, kept)
            return value if len(calls) <= 3 else dataclasses.replace(value, total=np.nan)

        return evaluator._replace(objective=objective)

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


def test_a_run_that_raises_leaves_no_trace(tmp_path, monkeypatch, capsys):
    real = optimizer_module.path_evaluator

    def degenerate(*args, **kwargs):
        evaluator, calls = real(*args, **kwargs), []

        def objective(plan, kept=None):
            calls.append(plan)
            if len(calls) > 3:
                raise ValueError("energy_avg: zero multiplicity at midpoint 0")
            return evaluator.objective(plan, kept)

        return evaluator._replace(objective=objective)

    monkeypatch.setattr(optimizer_module, "path_evaluator", degenerate)
    out = str(tmp_path / "run")
    assert main(["irrigate", "--config", _write_config(tmp_path, TINY_IRRIGATE),
                 "--out", out]) == 3
    assert "numerical error: energy_avg" in capsys.readouterr().err
    # The trace is written from the finished run's rows, so none is left.
    assert os.listdir(out) == []


def test_overflowing_finite_step_stops_the_stage_as_nonfinite(tmp_path, capsys):
    # At tau0 = 1e308 the first trial's coordinates stay finite, but their
    # squares in the pair gaps and the kernel coefficients overflow.
    data = dict(TINY_IRRIGATE, descent=dict(TINY_IRRIGATE["descent"], tau0=1e308))
    cfg = _write_config(tmp_path, data)
    out = str(tmp_path / "run")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["irrigate", "--config", cfg, "--out", out]) == 3
    assert "stage 1 (eps=0.3)" in capsys.readouterr().err
    summary = _read_json(os.path.join(out, "summary.json"))
    assert summary["stage_reasons"] == ["nonfinite"]
    assert summary["iterations"] == 0
    assert np.isfinite(summary["final_energy"])
    for name in ("plan_stage_0.json", "plan_stage_1.json", "stage_0.svg", "stage_1.svg"):
        assert os.path.exists(os.path.join(out, name))


@pytest.mark.parametrize("functional", ["avg", "max"])
def test_an_overflowing_stage_start_stops_the_stage_as_nonfinite(tmp_path, capsys, functional):
    # eps = 1e-150 passes the eps check, but in the starting objective the
    # avg form's 1 / eps**2 times the segment lengths overflows, and the max
    # form's own-segment kernel reads 0: the midpoint's computed distance to
    # its own segment is a rounding residue far above eps, so the midpoint
    # sees a zero multiplicity, a degenerate plan.
    data = dict(TINY_IRRIGATE, descent=dict(TINY_IRRIGATE["descent"], eps_schedule=[1e-150]))
    cfg = _write_config(tmp_path, data)
    out = str(tmp_path / "run")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["irrigate", "--functional", functional, "--config", cfg,
                     "--out", out]) == 3
    assert "stage 1 (eps=1e-150) stopped on a non-finite objective" in capsys.readouterr().err
    summary = _read_json(os.path.join(out, "summary.json"))
    assert summary["stage_reasons"] == ["nonfinite"]
    assert summary["iterations"] == 0
    assert summary["final_energy"] is None
    for name in ("plan_stage_0.json", "plan_stage_1.json", "stage_0.svg", "stage_1.svg"):
        assert os.path.exists(os.path.join(out, name))


@pytest.mark.parametrize("command, data", [
    ("gradcheck", {"objective": {"eps": 1e-150}}),
    ("gamma-table", {"gamma": {"eps_values": [1e-150]}}),
], ids=["gradcheck", "gamma-table"])
def test_a_check_at_an_overflowing_eps_exits_three_and_names_it(tmp_path, capsys, command, data):
    # eps = 1e-150 passes the eps check, but the branch objective overflows
    # and the max-form multiplicity of a midpoint is zero. Each command ends
    # through the descent's guard, with no warning and no traceback.
    out = str(tmp_path / "run")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([command, "--config", _write_config(tmp_path, data), "--out", out]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error: ") and "eps=1e-150" in err
    assert "Traceback" not in err and err.count("\n") == 1


@pytest.mark.parametrize("poisoned_eps, stage", [(0.15, 2), (0.3, 1)])
def test_nonfinite_stage_start_writes_outputs_and_exits_three(tmp_path, monkeypatch, capsys,
                                                              poisoned_eps, stage):
    real = optimizer_module.path_evaluator

    def poisoned(alpha, eps, *args):
        evaluator = real(alpha, eps, *args)
        if eps != poisoned_eps:
            return evaluator
        return evaluator._replace(objective=lambda plan, kept=None: dataclasses.replace(
            evaluator.objective(plan, kept), total=np.nan))

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
    # RAMIFY_THREADS must reach the environment before numpy loads, and
    # ctypes (about 1 ms to import) loads only when main sets the allocator.
    src = os.path.dirname(os.path.dirname(os.path.abspath(ramify.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, ramify, ramify.cli; "
            "print(sorted(m for m in sys.modules if 'numpy' in m or 'ctypes' in m))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          check=True)
    assert done.stdout.strip() == "[]"

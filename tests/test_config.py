"""Tests for config parsing, validation, merging, and presets."""

import json

import pytest

from ramify.config import (
    PRESETS,
    ConfigError,
    RunConfig,
    load_config_file,
    merge_config,
    resolve_config,
    validate_config,
)


def test_empty_config_gets_defaults():
    cfg = validate_config({})
    assert cfg.functional == "avg"
    assert cfg.kernel.kind == "bump"
    assert cfg.objective.alpha == 0.5
    assert cfg.descent.eps_schedule == (0.1,)
    assert cfg.experiment is None
    assert cfg.merge_tol is None
    assert cfg == RunConfig()


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        validate_config({"alpha": 0.5})


def test_unknown_nested_keys_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        validate_config({"objective": {"alfa": 0.5}})
    with pytest.raises(ConfigError, match="unknown key"):
        validate_config({"descent": {"step": 0.1}})
    with pytest.raises(ConfigError, match="unknown key"):
        validate_config({"measure": {"atoms": 5}})
    with pytest.raises(ConfigError, match="unknown key"):
        validate_config({"objective": {"penalty": {"kind": "gaussian"}}})
    with pytest.raises(ConfigError, match="unknown key"):
        validate_config({"gamma": {"eps": [0.1]}})


def test_type_errors_are_reported_with_location():
    with pytest.raises(ConfigError, match="objective.alpha"):
        validate_config({"objective": {"alpha": "big"}})
    with pytest.raises(ConfigError, match="descent.j_max"):
        validate_config({"descent": {"j_max": 1.5}})
    with pytest.raises(ConfigError, match="objective.eps must be finite"):
        validate_config({"objective": {"eps": 10 ** 400}})
    with pytest.raises(ConfigError, match="must be true or false"):
        validate_config({"objective": {"penalty_arclength": 1}})
    with pytest.raises(ConfigError):
        validate_config({"descent": {"eps_schedule": "0.1"}})
    with pytest.raises(ConfigError):
        validate_config({"descent": {"eps_schedule": [0.1, 0.2]}})


def test_value_range_checks():
    with pytest.raises(ConfigError):
        validate_config({"objective": {"alpha": 0.0}})
    with pytest.raises(ConfigError):
        validate_config({"quad_points": 0})
    with pytest.raises(ConfigError):
        validate_config({"merge_tol": -0.5})
    with pytest.raises(ConfigError):
        validate_config({"kernel": "box"})
    with pytest.raises(ConfigError):
        validate_config({"functional": "mean"})
    with pytest.raises(ConfigError):
        validate_config({"experiment": "irrigation"})
    with pytest.raises(ConfigError, match="measure"):
        validate_config({"measure": {"n": 0}})
    with pytest.raises(ConfigError, match="fan"):
        validate_config({"fan": {"spread_angle": 3.5}})
    with pytest.raises(ConfigError, match="counterexample"):
        validate_config({"counterexample": {"l2": 0.95}})
    with pytest.raises(ConfigError, match="gradcheck"):
        validate_config({"gradcheck": {"max_segments": 1}})


def test_all_presets_validate():
    for name, preset in PRESETS.items():
        cfg = validate_config(resolve_config(None, name))
        assert cfg.experiment in ("irrigate", "treeopt"), name
        assert len(cfg.descent.eps_schedule) >= 1


def test_fig_presets_match_documented_settings():
    fig2 = validate_config(resolve_config(None, "fig2"))
    assert fig2.experiment == "irrigate"
    assert fig2.measure.n == 25
    assert fig2.objective.alpha == 0.4
    assert fig2.descent.eps_schedule == (0.25, 0.1, 0.05)

    fig3 = validate_config(resolve_config(None, "fig3"))
    assert fig3.measure.n == 29
    assert fig3.objective.alpha == 0.9

    fig4 = validate_config(resolve_config(None, "fig4"))
    assert fig4.experiment == "treeopt"
    assert fig4.fan.n == 11
    assert fig4.objective.c1 == 0.4
    assert fig4.objective.c2 == 1.4

    fig5 = validate_config(resolve_config(None, "fig5"))
    assert fig5.fan.n == 15
    assert fig5.objective.c1 == 0.5
    assert fig5.objective.c2 == 1.5


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError, match="unknown preset"):
        resolve_config(None, "fig9")


def test_file_data_overrides_preset():
    merged = resolve_config({"objective": {"alpha": 0.7}}, "fig2")
    cfg = validate_config(merged)
    assert cfg.objective.alpha == 0.7
    # untouched preset values survive
    assert cfg.measure.n == 25


def test_merge_config_is_recursive():
    base = {"objective": {"alpha": 0.4, "eps": 0.1}, "kernel": "bump"}
    override = {"objective": {"alpha": 0.9}}
    merged = merge_config(base, override)
    assert merged["objective"]["alpha"] == 0.9
    assert merged["objective"]["eps"] == 0.1
    assert merged["kernel"] == "bump"
    # the inputs are not mutated
    assert base["objective"]["alpha"] == 0.4


def test_load_config_file(tmp_path):
    f = tmp_path / "run.json"
    f.write_text(json.dumps({"functional": "max"}))
    assert load_config_file(str(f)) == {"functional": "max"}
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config_file(str(bad))
    with pytest.raises(ConfigError, match="cannot read"):
        load_config_file(str(tmp_path / "missing.json"))
    lst = tmp_path / "list.json"
    lst.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config_file(str(lst))


def test_penalty_section_round_trip():
    cfg = validate_config(
        {
            "objective": {
                "alpha": 0.5,
                "c1": 0.5,
                "c2": 1.5,
                "penalty": {"kernel": "powerlaw", "gamma": 0.8},
            }
        }
    )
    assert cfg.objective.penalty_kernel == "powerlaw"
    assert cfg.objective.gamma == 0.8


def test_gamma_section_validation():
    cfg = validate_config({"gamma": {"eps_values": [0.2, 0.1], "bound_tol": 0.01}})
    assert cfg.gamma.eps_values == (0.2, 0.1)
    assert cfg.gamma.bound_tol == 0.01
    with pytest.raises(ConfigError):
        validate_config({"gamma": {"eps_values": []}})
    with pytest.raises(ConfigError):
        validate_config({"gamma": {"eps_values": [0.1, 0.2]}})

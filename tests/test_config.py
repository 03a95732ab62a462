import dataclasses
import importlib
import math
from pathlib import Path

import numpy as np
import pytest

from irsim import ConfigError, ScenarioConfig
from irsim.cli import main as cli_main


def test_defaults_match_reference_setup():
    cfg = ScenarioConfig.default()
    geom, plan = cfg.geometry, cfg.timing
    assert geom.lrs_spec.size == 64 and geom.urs_spec.size == 64
    assert geom.irs_spec.size == 64
    assert geom.lrs_spec.wavelength == geom.urs_spec.wavelength == geom.irs_spec.wavelength == 0.2
    assert plan.lrs.power == 0.03 and plan.urs.power == 0.03
    assert geom.dist_li == 30.0 and geom.dist_ui == 20.0
    assert plan.pri == 100e-6
    assert plan.lrs.duration == 25e-6 and plan.urs.duration == 30e-6
    assert geom.irs_spec.spacing == pytest.approx(0.02)
    assert plan.lrs.bandwidth == plan.urs.bandwidth == 100e6
    # default offsets give a 10 us overlap
    from irsim import segment_pri

    _, _, t_overlap = segment_pri(plan)
    np.testing.assert_allclose(t_overlap, 10e-6)


def test_default_validates():
    cfg = ScenarioConfig.default()
    cfg.validate()
    assert cfg.geometry.irs_spec.count_a == 64
    assert cfg.timing.pulses_per_cpi == 10


def test_file_roundtrip(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text(
        "[geometry]\nlrs_distance = 45\n\n[power]\ngamma = 2e-9\n\n[run]\nseed = 7\n"
    )
    cfg = ScenarioConfig.from_file(str(path))
    assert cfg.geometry.dist_li == 45.0
    assert cfg.gamma == 2e-9
    assert cfg.seed == 7
    # untouched keys keep their defaults
    assert cfg.geometry.dist_ui == 20.0


def test_readme_ini_example_loads_as_defaults(tmp_path):
    # the documented example carries an inline "; comment" on most keys
    readme = Path(__file__).resolve().parent.parent / "README.md"
    block = readme.read_text().split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.ini"
    path.write_text(block)
    assert ScenarioConfig.from_file(str(path)) == ScenarioConfig.default()


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[power]\nwattage = 3\n")
    with pytest.raises(ConfigError, match="power.wattage"):
        ScenarioConfig.from_file(str(path))


def test_unknown_section_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[rocket]\nfuel = 3\n")
    with pytest.raises(ConfigError, match="rocket"):
        ScenarioConfig.from_file(str(path))


def test_unequal_pri_rejected(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[timing]\nurs_pri = 90e-6\n")
    message = "timing.urs_pri: unequal PRIs are not supported; both radars share timing.pri"
    with pytest.raises(ConfigError, match=f"^{message}$"):
        ScenarioConfig.from_file(str(path))
    out = tmp_path / "p.json"
    assert cli_main(["optimize", "--config", str(path), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_field_level_messages(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[power]\ngamma = -2\n")
    with pytest.raises(ConfigError, match="power.gamma"):
        ScenarioConfig.from_file(str(path))
    path.write_text("[timing]\nlrs_duration = 200e-6\n")
    with pytest.raises(ConfigError, match="timing"):
        ScenarioConfig.from_file(str(path))
    path.write_text("[arrays]\nirs_count_x = zero\n")
    with pytest.raises(ConfigError, match="arrays.irs_count_x"):
        ScenarioConfig.from_file(str(path))


@pytest.mark.parametrize("key", ["p_l", "p_u", "p_u_min", "gamma", "noise_l", "noise_u"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_power_rejected(tmp_path, key, value):
    path = tmp_path / "bad.ini"
    path.write_text(f"[power]\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=f"power.{key}.*finite"):
        ScenarioConfig.from_file(str(path))


GEOMETRY_KEYS = ["lrs_elevation_deg", "lrs_azimuth_deg", "urs_elevation_deg",
                 "urs_azimuth_deg", "lrs_distance", "urs_distance"]
TIMING_KEYS = ["pri", "lrs_duration", "urs_duration", "lrs_start", "urs_start", "bandwidth"]


@pytest.mark.parametrize(
    "section,key", [("geometry", k) for k in GEOMETRY_KEYS] + [("timing", k) for k in TIMING_KEYS]
)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_geometry_and_timing_rejected(tmp_path, section, key, value):
    path = tmp_path / "bad.ini"
    path.write_text(f"[{section}]\n{key} = {value}\n")
    # an elevation is range-checked as an angle, every other key as a finite value
    message = "outside" if key.endswith("elevation_deg") else "must be finite"
    with pytest.raises(ConfigError, match=f"{section}.{key}: .*{message}"):
        ScenarioConfig.from_file(str(path))


def test_cli_non_finite_geometry_exits_2(tmp_path, capsys):
    out = tmp_path / "sol.json"
    for text, key in (("[geometry]\nlrs_distance = inf\n", "geometry.lrs_distance"),
                      ("[timing]\npri = nan\n", "timing.pri")):
        bad = tmp_path / "bad.ini"
        bad.write_text(text)
        assert cli_main(["optimize", "--config", str(bad), "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()


OTHER_FINITE_KEYS = [
    ("arrays", "wavelength"), ("arrays", "radar_spacing"), ("arrays", "irs_spacing"),
    ("protocol", "echo_ratio"),
    ("error", "angle_offset_deg"), ("error", "angle_sigma_deg"), ("error", "power_rel_error"),
    ("pdd", "rho0"), ("pdd", "inner_tol"), ("pdd", "outer_tol"),
]


@pytest.mark.parametrize("section,key", OTHER_FINITE_KEYS)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_other_sections_rejected(tmp_path, section, key, value):
    # named by its key, also where a range check (positive spacing, a sigma
    # >= 0, a relative error in (-1, 1)) would otherwise catch it first
    path = tmp_path / "bad.ini"
    path.write_text(f"[{section}]\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=f"^{section}.{key}: must be finite"):
        ScenarioConfig.from_file(str(path))


@pytest.mark.parametrize("value,message", [
    ("nan", "pdd.rho0: must be finite"),
    ("0", "pdd.rho0: retired; only the solver's fixed value 1.0 is accepted"),
    ("-1", "pdd.rho0: retired; only the solver's fixed value 1.0 is accepted"),
], ids=["nan", "0", "-1"])
def test_cli_non_finite_solver_setting_exits_2(tmp_path, capsys, value, message):
    # the solver's settings are constants: a retired [pdd] key is still read
    # and finite-checked, and any value but the constant's names its key
    out = tmp_path / "sol.json"
    bad = tmp_path / "bad.ini"
    bad.write_text(f"[pdd]\nrho0 = {value}\n")
    assert cli_main(["optimize", "--config", str(bad), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key,fixed", [
    ("rho0", "1.0"), ("c", "0.7"), ("inner_tol", "1e-07"), ("outer_tol", "1e-06"),
    ("max_outer", "50"), ("max_inner", "100"), ("max_sca", "200"),
])
def test_retired_solver_key_loads_only_at_its_fixed_value(tmp_path, capsys, key, fixed):
    path = tmp_path / "pdd.ini"
    path.write_text(f"[pdd]\n{key} = {fixed}\n")
    assert ScenarioConfig.from_file(str(path)) == ScenarioConfig.default()
    path.write_text(f"[pdd]\n{key} = 5\n")
    message = f"pdd.{key}: retired; only the solver's fixed value {fixed} is accepted"
    with pytest.raises(ConfigError) as info:
        ScenarioConfig.from_file(str(path))
    assert info.value.key == f"pdd.{key}" and str(info.value) == message
    out = tmp_path / "sol.json"
    assert cli_main(["optimize", "--config", str(path), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def _scenario_objects():
    """A valid instance of each scenario object, from the default config."""
    cfg = ScenarioConfig.default()
    geom, plan = cfg.geometry, cfg.timing
    return {
        "ArraySpec": geom.irs_spec, "AnglePair": geom.angles_u, "ScenarioGeometry": geom,
        "PulseSpec": plan.urs, "TimingPlan": plan, "EstimationError": cfg.error,
    }


FINITE_FIELDS = [
    ("ArraySpec", "spacing"), ("ArraySpec", "wavelength"), ("AnglePair", "azimuth"),
    ("ScenarioGeometry", "dist_li"), ("ScenarioGeometry", "dist_ui"),
    ("PulseSpec", "power"), ("PulseSpec", "duration"), ("PulseSpec", "bandwidth"),
    ("PulseSpec", "start_offset"), ("TimingPlan", "pri"),
    ("EstimationError", "angle_offset"), ("EstimationError", "angle_sigma"),
    ("EstimationError", "power_rel_error"),
]


@pytest.mark.parametrize("cls,name", FINITE_FIELDS)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_constructors_reject_non_finite(cls, name, value):
    # each scenario object checks its own values, however it is built
    obj = _scenario_objects()[cls]
    with pytest.raises(ValueError, match="finite"):
        dataclasses.replace(obj, **{name: value})


def test_replace_rejects_non_finite():
    cfg = ScenarioConfig.default()
    with pytest.raises(ConfigError, match="power.gamma"):
        cfg.replace(gamma=float("nan"))
    with pytest.raises(ConfigError, match="power.p_u_min"):
        cfg.replace(p_u_min=float("inf"))
    with pytest.raises(ConfigError, match="^protocol.echo_ratio: must be finite"):
        cfg.replace(echo_ratio=float("inf"))


@pytest.mark.parametrize("section,key", [
    ("arrays", "lrs_count_z"), ("arrays", "irs_count_y"),
    ("geometry", "lrs_azimuth_deg"), ("geometry", "urs_elevation_deg"),
])
def test_unparsable_value_names_its_key(tmp_path, section, key):
    # each value is read before the object built from it is checked
    path = tmp_path / "bad.ini"
    path.write_text(f"[{section}]\n{key} = abc\n")
    with pytest.raises(ConfigError, match=f"^{section}.{key}: cannot parse 'abc'") as info:
        ScenarioConfig.from_file(str(path))
    assert info.value.key == f"{section}.{key}"


@pytest.mark.parametrize("section,key,value,rule", [
    ("arrays", "lrs_count_y", "0", "element counts must be >= 1"),
    ("arrays", "lrs_count_z", "0", "element counts must be >= 1"),
    ("arrays", "urs_count_z", "-3", "element counts must be >= 1"),
    ("arrays", "irs_count_y", "0", "element counts must be >= 1"),
    ("arrays", "radar_spacing", "-0.1", "spacing and wavelength must be positive"),
    ("arrays", "irs_spacing", "0", "spacing and wavelength must be positive"),
    ("arrays", "wavelength", "0", "spacing and wavelength must be positive"),
    ("timing", "lrs_start", "-1", "must be >= 0"),
    ("timing", "urs_start", "90e-6", "must be <= pri - duration"),
    ("timing", "lrs_duration", "0", "must be positive"),
    ("timing", "urs_duration", "100e-6", "must be < pri"),
    ("timing", "bandwidth", "-1", "must be >= 0"),
    ("timing", "pri", "0", "must be positive"),
    ("timing", "pulses_per_cpi", "0", "must be >= 1"),
    ("error", "angle_sigma_deg", "-1", "must be >= 0"),
    ("error", "power_rel_error", "1.5", r"must lie in \(-1, 1\)"),
    ("geometry", "lrs_distance", "-5", "must be positive"),
    ("geometry", "urs_distance", "0", "must be positive"),
    ("power", "noise_l", "-1", "must be >= 0"),
    ("protocol", "step1_pris", "10", "must leave at least one step-II PRI"),
    ("protocol", "echo_ratio", "0", "must be positive"),
])
def test_out_of_range_value_names_its_key(tmp_path, section, key, value, rule):
    # the key that was set, not another key of the object built from it
    path = tmp_path / "bad.ini"
    path.write_text(f"[{section}]\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=f"^{section}.{key}: {rule}$") as info:
        ScenarioConfig.from_file(str(path))
    assert info.value.key == f"{section}.{key}"


@pytest.mark.parametrize("key", ["p_l", "p_u"])
def test_non_positive_transmit_power_names_its_key(tmp_path, key):
    path = tmp_path / "bad.ini"
    path.write_text(f"[power]\n{key} = 0\n")
    with pytest.raises(ConfigError) as info:
        ScenarioConfig.from_file(str(path))
    assert info.value.key == f"power.{key}"


def test_mode_validation(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[protocol]\nmode = quarterly\n")
    with pytest.raises(ConfigError, match="protocol.mode"):
        ScenarioConfig.from_file(str(path))


def test_malformed_file_rejected(tmp_path, capsys):
    # a key before any section header
    path = tmp_path / "bad.ini"
    path.write_text("gamma = 1e-9\n")
    with pytest.raises(ConfigError, match=f"^config: malformed file {path}: ") as info:
        ScenarioConfig.from_file(str(path))
    assert info.value.key == "config"
    assert cli_main(["optimize", "--config", str(path)]) == 2
    assert "config: malformed file" in capsys.readouterr().err


def test_missing_file():
    with pytest.raises(ConfigError):
        ScenarioConfig.from_file("/nonexistent/scenario.ini")


def test_replace_revalidates():
    cfg = ScenarioConfig.default()
    with pytest.raises(ConfigError):
        cfg.replace(gamma=-1.0)
    assert cfg.replace(gamma=5e-9).gamma == 5e-9


def test_angles_parsed_in_degrees():
    cfg = ScenarioConfig.default()
    np.testing.assert_allclose(cfg.geometry.angles_l.elevation, np.pi / 2)
    np.testing.assert_allclose(cfg.geometry.angles_l.azimuth, 0.0)
    np.testing.assert_allclose(cfg.geometry.angles_u.azimuth, np.pi / 6)


# retired keys still load and are range-checked, then ignored; the tests keep
# the name of the first key retired
RETIRED_KEYS = [("run", "random_phase_draws", "10000"), ("protocol", "mode", "long_term"),
                ("arrays", "sensor_count", "3")]


def test_retired_random_phase_draws_key_loads_and_has_no_effect(tmp_path):
    # a file that still sets a retired key loads, and its rows equal those of
    # the same file without the key
    for section, key, value in RETIRED_KEYS:
        rows = {}
        for name, text in (("with", f"[{section}]\n{key} = {value}\n"), ("without", "")):
            path = tmp_path / f"{name}.ini"
            path.write_text(text)
            assert ScenarioConfig.from_file(str(path)) == ScenarioConfig.default()
            out = tmp_path / f"{name}.csv"
            assert cli_main(["reproduce", "fig6", "--config", str(path), "--out", str(out)]) == 0
            lines = out.read_text().splitlines()
            rows[name] = [line.rsplit(",", 1)[0] for line in lines]  # wall_time is last
        assert rows["with"] == rows["without"], key


@pytest.mark.parametrize("value", ["0", "abc"])
def test_retired_random_phase_draws_key_still_checked(tmp_path, value):
    for section, key, _ in RETIRED_KEYS:
        path = tmp_path / "bad.ini"
        path.write_text(f"[{section}]\n{key} = {value}\n")
        with pytest.raises(ConfigError) as info:
            ScenarioConfig.from_file(str(path))
        assert info.value.key == f"{section}.{key}"


def test_perfbench_reference_scenario_loads(tmp_path, monkeypatch):
    # the benchmark writes every key of the grammar, retired ones included
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    workloads = importlib.import_module("workloads")
    path = workloads.write_scenario(str(tmp_path / "reference.ini"), 5)
    assert ScenarioConfig.from_file(path) == ScenarioConfig.default().replace(seed=5)


def test_negative_seed_rejected(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[run]\nseed = -1\n")
    with pytest.raises(ConfigError) as info:
        ScenarioConfig.from_file(str(path))
    assert info.value.key == "run.seed"
    out = tmp_path / "fig12.csv"
    assert cli_main(["reproduce", "fig12", "--seed", "-1", "--out", str(out)]) == 2
    assert "run.seed" in capsys.readouterr().err
    assert not out.exists()

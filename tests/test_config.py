from pathlib import Path

import numpy as np
import pytest

from irsim import AnglePair, ArraySpec, ConfigError, EstimationError, PddParams, ScenarioConfig
from irsim.cli import main as cli_main


def test_defaults_match_reference_setup():
    cfg = ScenarioConfig.default()
    assert cfg.lrs_spec.size == 64 and cfg.urs_spec.size == 64
    assert cfg.irs_spec.size == 64
    assert cfg.sensor_count == 15
    assert cfg.wavelength == 0.2
    assert cfg.p_l == 0.03 and cfg.p_u == 0.03
    assert cfg.lrs_distance == 30.0 and cfg.urs_distance == 20.0
    assert cfg.pri == 100e-6
    assert cfg.lrs_duration == 25e-6 and cfg.urs_duration == 30e-6
    assert cfg.irs_spec.spacing == pytest.approx(0.02)
    assert cfg.bandwidth == 100e6
    # default offsets give a 10 us overlap
    from irsim import segment_pri

    seg = segment_pri(cfg.timing())
    np.testing.assert_allclose(seg.t_overlap, 10e-6)


def test_default_validates():
    cfg = ScenarioConfig.default()
    cfg.validate()
    assert cfg.geometry().irs_spec.count_a == 64
    assert cfg.timing().pulses_per_cpi == 10


def test_file_roundtrip(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text(
        "[geometry]\nlrs_distance = 45\n\n[power]\ngamma = 2e-9\n\n[run]\nseed = 7\n"
    )
    cfg = ScenarioConfig.from_file(str(path))
    assert cfg.lrs_distance == 45.0
    assert cfg.gamma == 2e-9
    assert cfg.seed == 7
    # untouched keys keep their defaults
    assert cfg.urs_distance == 20.0


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


def test_unequal_pri_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[timing]\nurs_pri = 90e-6\n")
    with pytest.raises(ConfigError, match="urs_pri"):
        ScenarioConfig.from_file(str(path))


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


def test_cli_non_finite_solver_setting_exits_2(tmp_path, capsys):
    out = tmp_path / "sol.json"
    bad = tmp_path / "bad.ini"
    bad.write_text("[pdd]\nrho0 = nan\n")
    assert cli_main(["optimize", "--config", str(bad), "--out", str(out)]) == 2
    assert "pdd.rho0" in capsys.readouterr().err
    assert not out.exists()


def test_replace_rejects_non_finite_nested_settings():
    cfg = ScenarioConfig.default()
    nan, inf = float("nan"), float("inf")
    cases = [
        ("arrays.wavelength", {"wavelength": nan}),
        ("arrays.irs_spacing", {"irs_spec": ArraySpec(64, 1, inf, 0.2)}),
        ("arrays.radar_spacing", {"urs_spec": ArraySpec(64, 1, nan, 0.2)}),
        ("protocol.echo_ratio", {"echo_ratio": inf}),
        ("error.angle_offset_deg", {"error": EstimationError(angle_offset=nan)}),
        ("error.power_rel_error", {"error": EstimationError(power_rel_error=nan)}),
        ("pdd.rho0", {"pdd": PddParams(rho0=inf)}),
        ("pdd.outer_tol", {"pdd": PddParams(outer_tol=inf)}),
    ]
    for key, change in cases:
        with pytest.raises(ConfigError, match=f"^{key}: must be finite"):
            cfg.replace(**change)


def test_replace_rejects_non_finite():
    cfg = ScenarioConfig.default()
    with pytest.raises(ConfigError, match="power.gamma"):
        cfg.replace(gamma=float("nan"))
    with pytest.raises(ConfigError, match="power.p_u_min"):
        cfg.replace(p_u_min=float("inf"))
    with pytest.raises(ConfigError, match="timing.urs_start"):
        cfg.replace(urs_start=float("-inf"))
    with pytest.raises(ConfigError, match="geometry.urs_azimuth_deg"):
        cfg.replace(angles_u=AnglePair(0.5, float("nan")))


def test_mode_validation(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[protocol]\nmode = quarterly\n")
    with pytest.raises(ConfigError, match="protocol.mode"):
        ScenarioConfig.from_file(str(path))


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
    np.testing.assert_allclose(cfg.angles_l.elevation, np.pi / 2)
    np.testing.assert_allclose(cfg.angles_l.azimuth, 0.0)
    np.testing.assert_allclose(cfg.angles_u.azimuth, np.pi / 6)


def test_retired_random_phase_draws_key_loads_and_has_no_effect(tmp_path):
    # the random-phase rows are exact; a file that still sets the draw count
    # loads, and its rows equal those of the same file without the key
    rows = {}
    for name, run in (("with", "seed = 3\nrandom_phase_draws = 10000\n"), ("without", "seed = 3\n")):
        path = tmp_path / f"{name}.ini"
        path.write_text(f"[run]\n{run}")
        assert ScenarioConfig.from_file(str(path)) == ScenarioConfig.default(seed=3)
        out = tmp_path / f"{name}.csv"
        assert cli_main(["reproduce", "fig6", "--config", str(path), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        rows[name] = [line.rsplit(",", 1)[0] for line in lines]  # wall_time is last
    assert rows["with"] == rows["without"]


@pytest.mark.parametrize("value", ["0", "abc"])
def test_retired_random_phase_draws_key_still_checked(tmp_path, value):
    path = tmp_path / "bad.ini"
    path.write_text(f"[run]\nrandom_phase_draws = {value}\n")
    with pytest.raises(ConfigError) as info:
        ScenarioConfig.from_file(str(path))
    assert info.value.key == "run.random_phase_draws"

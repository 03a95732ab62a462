import csv
import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import irsim
from irsim import ScenarioConfig, SweepSpec, default_grid, emit, run_experiment
from irsim.cli import main as cli_main
from irsim.experiments import COLUMNS, all_infeasible


@pytest.fixture(scope="module")
def small_config():
    # 16-element arrays keep the sweep tests quick
    cfg = ScenarioConfig.default()
    from irsim import ArraySpec

    return cfg.replace(geometry=dataclasses.replace(
        cfg.geometry,
        lrs_spec=ArraySpec(16, 1, 0.1, 0.2),
        urs_spec=ArraySpec(16, 1, 0.1, 0.2),
        irs_spec=ArraySpec(16, 1, 0.02, 0.2),
    ))


def rows_of(cfg, experiment, grid=None):
    sweep = SweepSpec(grid or default_grid(experiment, cfg), experiment)
    return run_experiment(cfg, sweep)


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec((), "gamma_sweep")
    with pytest.raises(ValueError):
        SweepSpec((1.0, 3.0, 2.0), "gamma_sweep")
    with pytest.raises(ValueError):
        SweepSpec((1.0, 2.0), "unknown_experiment")


def test_beam_scan_peak_at_target(small_config):
    rows = rows_of(small_config, "beam_scan_lrs")
    prop = [r for r in rows if r["scheme"] == "proposed"]
    # the target sits on the codebook grid at zeta = 0
    peak = max(prop, key=lambda r: r["lrs_power_or_energy"])
    assert peak["swept_value"] == pytest.approx(0.0)
    assert len(prop) == 16 and len(rows) == 48


def test_beam_scan_row_count_and_schemes(small_config):
    rows = rows_of(small_config, "beam_scan_urs")
    assert len(rows) == 16 * 3
    assert {r["scheme"] for r in rows} == {"proposed", "random_phase", "no_irs"}
    # proposed reflection nulls the unauthorized echo at every beam
    no_irs_peak = max(r["urs_power"] for r in rows if r["scheme"] == "no_irs")
    prop_peak = max(r["urs_power"] for r in rows if r["scheme"] == "proposed")
    assert prop_peak <= 1e-12 * no_irs_peak
    # the null is closed-form on the ULA reflector too: no solver iterations
    assert {r["iterations"] for r in rows} == {0}


def test_gamma_sweep_monotone_and_capped(small_config):
    grid = tuple(np.logspace(-11, -8, 5))
    rows = rows_of(small_config, "gamma_sweep", grid)
    for scheme in ("short_term", "long_term"):
        sub = [r for r in rows if r["scheme"] == scheme]
        assert len(sub) == len(grid)
        feasible = [r for r in sub if r["feasible"]]
        for r in feasible:
            assert r["urs_power"] <= r["swept_value"] * (1 + 1e-6)
        energies = [r["lrs_power_or_energy"] for r in sub]
        assert all(a <= b * (1 + 1e-9) for a, b in zip(energies, energies[1:]))


def test_overlap_ratio_equal_at_one(small_config):
    rows = rows_of(small_config, "overlap_ratio", (0.0, 0.5, 1.0))
    s = {r["swept_value"]: r for r in rows if r["scheme"] == "short_term"}
    l = {r["swept_value"]: r for r in rows if r["scheme"] == "long_term"}
    assert s[1.0]["lrs_power_or_energy"] == pytest.approx(
        l[1.0]["lrs_power_or_energy"], rel=1e-6
    )
    assert s[0.0]["lrs_power_or_energy"] >= l[0.0]["lrs_power_or_energy"] - 1e-30


def test_overlap_ratio_baseline_peak_over_occurring_cases(small_config):
    # no overlap: the URS sees each pulse alone, never their sum
    from irsim.experiments import _point_config
    from irsim.protocol import _random_phase_expectation

    rows = rows_of(small_config, "overlap_ratio", (0.0, 1.0))
    rand = {r["swept_value"]: r for r in rows if r["scheme"] == "random_phase"}
    for value in (0.0, 1.0):
        cfg = _point_config(small_config, "overlap_ratio", value)
        rep = _random_phase_expectation(cfg.geometry, cfg.timing.lrs.power, cfg.timing.urs.power)
        want = max(rep.q_lu, rep.q_uu) if value == 0.0 else rep.q_ou
        assert rand[value]["urs_power"] == want


def test_lrs_distance_includes_reference_scheme(small_config):
    rows = rows_of(small_config, "lrs_distance", (20.0, 40.0))
    schemes = {r["scheme"] for r in rows}
    assert {"short_term", "lrs_only", "random_phase", "no_irs"} <= schemes
    assert len(rows) == 2 * len(schemes)


def test_angle_error_columns(small_config):
    rows = rows_of(small_config, "angle_error", (0.0, 1.0))
    sub = [r for r in rows if r["scheme"] == "short_term"]
    assert len(sub) == 2
    assert all(r["feasible"] for r in sub)


def test_emit_csv_contract(tmp_path, small_config):
    rows = rows_of(small_config, "beam_scan_lrs", (0.0, 0.25))
    path = tmp_path / "out.csv"
    emit(rows, "csv", str(path))
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        body = list(reader)
    assert header == list(COLUMNS)
    assert len(body) == len(rows) == 2 * 3


def test_emit_json_roundtrip(tmp_path, small_config):
    rows = rows_of(small_config, "beam_scan_lrs", (0.0,))
    path = tmp_path / "out.json"
    emit(rows, "json", str(path))
    loaded = json.load(open(path))
    assert len(loaded) == len(rows)
    for got, want in zip(loaded, rows):
        for key in COLUMNS:
            if isinstance(want[key], float):
                assert got[key] == float(f"{want[key]:.12g}")
            else:
                assert got[key] == want[key]
    # a second emit of the parsed rows reproduces the file byte for byte
    path2 = tmp_path / "out2.json"
    emit(loaded, "json", str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_emit_rejects_empty(tmp_path):
    path = tmp_path / "never.csv"
    with pytest.raises(ValueError):
        emit([], "csv", str(path))
    assert not path.exists()


def test_emit_rejects_unknown_format(tmp_path, small_config):
    rows = rows_of(small_config, "beam_scan_lrs", (0.0,))
    with pytest.raises(ValueError):
        emit(rows, "xml", str(tmp_path / "x.xml"))


def strip_wall(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return [row[:-1] for row in rows]


def test_deterministic_output(tmp_path, small_config):
    # byte-identical modulo the wall_time column
    grid = (1e-9, 1e-8)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit(rows_of(small_config, "gamma_sweep", grid), "csv", str(a))
    emit(rows_of(small_config, "gamma_sweep", grid), "csv", str(b))
    assert strip_wall(a) == strip_wall(b)


def test_unparsable_worker_count_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("IRSIM_WORKERS", "abc")
    out = tmp_path / "x.csv"
    argv = ["sweep", "--experiment", "lrs_distance", "--grid", "20,40", "--out", str(out)]
    assert cli_main(argv) == 2
    assert "IRSIM_WORKERS: cannot parse 'abc'" in capsys.readouterr().err
    assert not out.exists()


def test_worker_pool_matches_serial(tmp_path, small_config):
    grid = (0.0, 1.0)
    serial = rows_of(small_config, "angle_error", grid)
    os.environ["IRSIM_WORKERS"] = "2"
    try:
        pooled = rows_of(small_config, "angle_error", grid)
    finally:
        del os.environ["IRSIM_WORKERS"]
    for a, b in zip(serial, pooled):
        for key in COLUMNS:
            if key == "wall_time":
                continue
            assert a[key] == b[key]


def test_every_row_times_its_own_work(small_config):
    # CPI sweeps time each baseline row at every grid point, the cap sweep too
    for experiment, grid in (("gamma_sweep", (1e-9, 1e-8)), ("overlap_ratio", (0.0, 1.0))):
        rows = rows_of(small_config, experiment, grid)
        baselines = [r for r in rows if r["scheme"] in ("random_phase", "no_irs")]
        assert len(baselines) == 2 * len(grid), experiment
        assert all(r["wall_time"] > 0 for r in baselines), experiment
    # a beam scan charges its once-per-scan work to the first grid point
    for experiment in ("beam_scan_lrs", "beam_scan_urs"):
        rows = rows_of(small_config, experiment, (-0.5, 0.0, 0.5))
        for scheme in ("random_phase", "no_irs"):
            walls = [r["wall_time"] for r in rows if r["scheme"] == scheme]
            assert walls[0] > 0 and walls[1:] == [0.0, 0.0], (experiment, scheme)


def test_every_experiment_runs_on_default_config():
    # short grids, full default (64-element) scenario
    from irsim import EXPERIMENT_IDS

    cfg = ScenarioConfig.default()
    for experiment in EXPERIMENT_IDS:
        grid = default_grid(experiment, cfg)
        short = grid[:2] if len(grid) > 2 else grid
        rows = run_experiment(cfg, SweepSpec(short, experiment))
        assert rows, experiment
        values = {r["swept_value"] for r in rows}
        assert values == set(float(v) for v in short), experiment
        for row in rows:
            assert set(row) == set(COLUMNS), experiment


def test_all_infeasible_helper():
    rows = [
        {"scheme": "short_term", "feasible": False},
        {"scheme": "no_irs", "feasible": True},
    ]
    assert all_infeasible(rows)
    rows[0]["feasible"] = True
    assert not all_infeasible(rows)
    assert not all_infeasible([{"scheme": "no_irs", "feasible": True}])


@pytest.mark.parametrize("shape", [(1, 16), (4, 4)])
def test_beam_scan_urs_uses_closed_form_null(small_config, shape):
    from irsim import ArraySpec

    geometry = dataclasses.replace(small_config.geometry, irs_spec=ArraySpec(*shape, 0.02, 0.2))
    cfg = small_config.replace(geometry=geometry)
    rows = rows_of(cfg, "beam_scan_urs", (-0.5, 0.0, 0.5))
    prop = [r for r in rows if r["scheme"] == "proposed"]
    no_irs_peak = max(r["urs_power"] for r in rows if r["scheme"] == "no_irs")
    assert [r["iterations"] for r in prop] == [0, 0, 0]
    assert max(r["urs_power"] for r in prop) <= 1e-12 * no_irs_peak


# ---------------------------------------------------------------------------
# CLI


def test_cli_scan_writes_csv(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "scan.csv"
    code = cli_main(["sweep", "--experiment", "beam_scan_lrs", "--out", str(out)])
    assert code == 0
    header = open(out).readline().strip().split(",")
    assert header == list(COLUMNS)


def test_cli_scan_urs_single_element_reflector(tmp_path):
    # one element has no null; the scan reflects with zero phase and succeeds
    ini = tmp_path / "one.ini"
    ini.write_text("[arrays]\nirs_count_x = 1\nirs_count_y = 1\n")
    out = tmp_path / "scan.csv"
    assert cli_main(["sweep", "--experiment", "beam_scan_urs", "--config", str(ini),
                     "--out", str(out)]) == 0
    with open(out) as fh:
        prop = [r for r in csv.DictReader(fh) if r["scheme"] == "proposed"]
    assert prop and all(r["iterations"] == "0" and float(r["urs_power"]) > 0 for r in prop)


@pytest.mark.parametrize("problem", ["p1", "p2", "p3", "p4"])
def test_cli_optimize_json(tmp_path, problem):
    out = tmp_path / "sol.json"
    code = cli_main(["optimize", "--problem", problem, "--out", str(out)])
    assert code == 0
    payload = json.load(open(out))
    assert payload["problem"] == problem.upper()
    assert len(payload["phases"]) == 64
    assert payload["constraint"] <= payload["gamma"] * (1 + 1e-6)


def test_cli_bad_config_exits_2(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[power]\ngamma = -3\n")
    assert cli_main(["optimize", "--config", str(bad)]) == 2


def test_cli_non_finite_gamma_exits_2(tmp_path, capsys):
    bad = tmp_path / "nan.ini"
    bad.write_text("[power]\ngamma = nan\n")
    out = tmp_path / "sol.json"
    assert cli_main(["optimize", "--config", str(bad), "--out", str(out)]) == 2
    assert "power.gamma" in capsys.readouterr().err
    assert not out.exists()


def test_cli_optimize_rejected_scenario_exits_2(tmp_path, capsys):
    # every key is valid, but at 1e300 m the reflector's received power
    # underflows to 0, which build_problem rejects
    ini = tmp_path / "far.ini"
    ini.write_text("[geometry]\nlrs_distance = 1e300\n")
    out = tmp_path / "sol.json"
    assert cli_main(["optimize", "--config", str(ini), "--out", str(out)]) == 2
    assert "config error: q_ls must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_cli_optimize_infeasible_cap_exits_3(tmp_path, capsys):
    # a one-element reflector cannot push the URS echo under a cap of 1e-30 W
    ini = tmp_path / "one.ini"
    ini.write_text("[arrays]\nirs_count_x = 1\n\n[power]\ngamma = 1e-30\n")
    out = tmp_path / "sol.json"
    assert cli_main(["optimize", "--config", str(ini), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("infeasible: ")
    assert not out.exists()


def test_cli_optimize_without_noise_prints_infinite_snr(tmp_path, capsys):
    # zero noise is a valid config value; the SNR line reads inf, not a crash
    ini = tmp_path / "quiet.ini"
    ini.write_text("[power]\nnoise_l = 0\nnoise_u = 0\n")
    assert cli_main(["optimize", "--config", str(ini)]) == 0
    assert ": inf dB at LRS" in capsys.readouterr().out


def test_cli_optimize_json_is_strict(tmp_path):
    out = tmp_path / "sol.json"
    assert cli_main(["optimize", "--problem", "p3", "--out", str(out)]) == 0

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    payload = json.loads(out.read_text(), parse_constant=reject)
    assert np.isfinite(payload["objective"]) and np.isfinite(payload["gamma"])


def test_cli_optimize_never_writes_nan(tmp_path, monkeypatch):
    # a non-finite figure that got past validation fails the run instead of
    # landing in the file as a bare NaN, which is not JSON
    import irsim.cli

    solve = irsim.cli.pdd_solve
    monkeypatch.setattr(
        irsim.cli, "pdd_solve",
        lambda *a, **k: dataclasses.replace(solve(*a, **k), objective=float("nan")),
    )
    out = tmp_path / "sol.json"
    with pytest.raises(ValueError, match="JSON"):
        cli_main(["optimize", "--problem", "p1", "--out", str(out)])
    assert not out.exists()


def test_cli_unknown_figure_exits_2(tmp_path):
    assert cli_main(["reproduce", "fig99", "--out", str(tmp_path / "x.csv")]) == 2


def exit_code(argv) -> int:
    # argparse rejects an unknown command or option by raising SystemExit
    try:
        return cli_main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv", [
    ["scan", "--radar", "lrs"],
    ["optimize", "--format", "csv"],
    ["optimize", "--seed", "1"],
    ["reproduce", "gamma_sweep"],
])
def test_cli_removed_routes_exit_2(tmp_path, capsys, argv):
    # one route per operation: beam scans are `sweep --experiment beam_scan_*`,
    # `reproduce` takes figure ids only, and `optimize` always writes JSON from
    # a solve that draws no random numbers
    out = tmp_path / "x.out"
    assert exit_code(argv + ["--out", str(out)]) == 2
    assert not out.exists()
    if argv[0] == "reproduce":
        assert "known: fig6, fig7" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["reproduce", "fig9", "--grid", "40"],
    ["optimize", "--problem", "p1"],
])
def test_cli_unwritable_out_exits_2(tmp_path, capsys, monkeypatch, argv):
    # the target is checked before any solve runs
    def never(*args, **kwargs):
        raise AssertionError("solved for an output that cannot be written")

    monkeypatch.setattr(irsim.cli, "run_experiment", never)
    monkeypatch.setattr(irsim.cli, "pdd_solve", never)
    (tmp_path / "existing").mkdir()
    for target, reason in (("missing/x.out", "No such file or directory"),
                           ("existing", "Is a directory")):
        out = tmp_path / target
        assert cli_main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: cannot write {out}: {reason}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["existing"]
        assert not any((tmp_path / "existing").iterdir())


@pytest.mark.parametrize("argv,message", [
    (["sweep", "--experiment", "beam_scan_lrs", "--grid", "nan"], "finite"),
    (["sweep", "--experiment", "beam_scan_urs", "--grid", "0.1,inf"], "finite"),
    (["sweep", "--experiment", "gamma_sweep", "--grid", "1e-9,inf"], "finite"),
    (["sweep", "--experiment", "gamma_sweep", "--grid", "0,1e-9"], "power.gamma"),
    (["sweep", "--experiment", "gamma_sweep", "--grid=-1e-9,1e-9"], "power.gamma"),
    (["sweep", "--experiment", "lrs_distance", "--grid=-5,10"], "geometry"),
    (["sweep", "--experiment", "overlap_ratio", "--grid", "0.5,1.5"], "timing"),
    (["sweep", "--experiment", "gamma_sweep", "--grid", "1,x"], "cannot parse grid '1,x'"),
])
def test_cli_bad_grid_value_exits_2(tmp_path, capsys, argv, message):
    out = tmp_path / "x.csv"
    assert cli_main(argv + ["--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_cli_rejected_grid_value_names_experiment_and_value(tmp_path, capsys, monkeypatch, workers):
    # every grid point is checked before any is solved, also with a worker pool
    monkeypatch.setenv("IRSIM_WORKERS", workers)
    out = tmp_path / "x.csv"
    for argv, message in (
        (["--experiment", "overlap_ratio", "--grid", "0.5,1.5"],
         "overlap_ratio: grid value 1.5 rejected: timing: start_offset must be >= 0"),
        (["--experiment", "lrs_distance", "--grid=-5,10"],
         "lrs_distance: grid value -5 rejected: geometry: "),
        (["--experiment", "gamma_sweep", "--grid", "0,1e-9"],
         "gamma_sweep: grid value 0 rejected: power.gamma: must be positive"),
    ):
        assert cli_main(["sweep", *argv, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command", [["optimize"], ["sweep", "--experiment", "gamma_sweep"],
                                     ["reproduce", "fig8"]])
def test_cli_param_option_is_gone(tmp_path, command):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as info:
        cli_main(command + ["--param", "gamma", "--out", str(out)])
    assert info.value.code == 2
    assert not out.exists()


# each figure id, its experiment and a short grid of it
FIGURE_EXPERIMENTS = {
    "fig6": ("beam_scan_lrs", "-0.5,0.5"),
    "fig7": ("beam_scan_urs", "-0.5,0.5"),
    "fig8": ("gamma_sweep", "1e-9"),
    "fig9": ("lrs_distance", "40"),
    "fig10": ("urs_distance", "20"),
    "fig11": ("aoa_difference", "0.1"),
    "fig12": ("overlap_ratio", "0,1"),
    "fig13": ("angle_error", "0.5"),
}


@pytest.mark.parametrize("figure", FIGURE_EXPERIMENTS)
def test_cli_reproduce_maps_figures(tmp_path, figure):
    experiment, grid = FIGURE_EXPERIMENTS[figure]
    fig_out, sweep_out = tmp_path / "figure.csv", tmp_path / "sweep.csv"
    assert cli_main(["reproduce", figure, f"--grid={grid}", "--out", str(fig_out)]) == 0
    assert cli_main(["sweep", "--experiment", experiment, f"--grid={grid}", "--out", str(sweep_out)]) == 0
    assert strip_wall(fig_out) == strip_wall(sweep_out)


def test_cli_infeasible_sweep_exits_3(tmp_path):
    # single-element reflector: every cap point is provably infeasible
    ini = tmp_path / "one.ini"
    ini.write_text("[arrays]\nirs_count_x = 1\n")
    out = tmp_path / "inf.csv"
    code = cli_main([
        "sweep", "--experiment", "gamma_sweep", "--grid", "1e-30,1e-29",
        "--config", str(ini), "--out", str(out),
    ])
    assert code == 3


def test_cli_seed_override(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(["sweep", "--experiment", "gamma_sweep", "--grid", "1e-9",
                     "--seed", "5", "--out", str(out1)]) == 0
    assert cli_main(["sweep", "--experiment", "gamma_sweep", "--grid", "1e-9",
                     "--seed", "5", "--out", str(out2)]) == 0
    assert strip_wall(out1) == strip_wall(out2)


def run_child(*args):
    # the child imports the same package as this process, installed or from src/
    src = os.path.dirname(os.path.dirname(irsim.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_cli_entry_point_installed():
    proc = run_child("-m", "irsim.cli", "--help")
    assert proc.returncode == 0
    assert "sweep" in proc.stdout and "reproduce" in proc.stdout


def test_package_imports_without_scipy():
    # scipy is a test dependency only; a None entry makes any import of it fail
    proc = run_child("-c", "import sys; sys.modules['scipy'] = None; import irsim, irsim.cli")
    assert proc.returncode == 0, proc.stderr


def test_package_import_leaves_the_process_pool_unloaded():
    # IRSIM_WORKERS defaults to 1, so a serial run never needs multiprocessing
    code = "import sys, irsim, irsim.cli; print('concurrent.futures.process' in sys.modules)"
    proc = run_child("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"

"""Experiment sweeps over scenario parameters, with CSV/JSON emission.

Every experiment produces one row per grid point per scheme with a fixed
column set: swept_value, scheme, lrs_power_or_energy, urs_power, feasible,
iterations, wall_time. Scan experiments report received power; CPI-based
sweeps report the legitimate radar's step-II energy so that short-term and
long-term reflection schedules are directly comparable. Identical config
and seed reproduce identical numbers (wall_time excepted).

Grid points of CPI-based sweeps can run on a process pool, sized by the
IRSIM_WORKERS environment variable (default 1); the cap sweep always runs
sequentially because each point warm-starts from the previous one.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from .arrays import AnglePair, composite_vector, steering_1d, dft_codebook
from .config import ConfigError, ScenarioConfig, _cast
from .waveform import segment_pri
from .optimizer import closed_form_lrs_only, closed_form_urs_null
from .power import _LINK_TABLE, ReflectionVector, _Steering, link_power
from .protocol import (
    _random_phase_expectation,
    _step2_figures,
    default_rcs,
    no_irs_baseline_power,
    run_cpi,
)

__all__ = ["SweepSpec", "EXPERIMENT_IDS", "run_experiment", "emit", "default_grid", "all_infeasible"]

EXPERIMENT_IDS = (
    "beam_scan_lrs",
    "beam_scan_urs",
    "gamma_sweep",
    "lrs_distance",
    "urs_distance",
    "aoa_difference",
    "overlap_ratio",
    "angle_error",
)

COLUMNS = (
    "swept_value",
    "scheme",
    "lrs_power_or_energy",
    "urs_power",
    "feasible",
    "iterations",
    "wall_time",
)

OPTIMIZING_SCHEMES = ("short_term", "long_term", "proposed", "lrs_only")


@dataclass(frozen=True)
class SweepSpec:
    """A grid of swept values and the experiment family that sweeps it."""

    grid: tuple[float, ...]
    experiment: str

    def __post_init__(self):
        if self.experiment not in EXPERIMENT_IDS:
            raise ValueError(f"experiment must be one of {EXPERIMENT_IDS}, got {self.experiment!r}")
        grid = tuple(float(v) for v in self.grid)
        if not grid:
            raise ValueError("grid must be nonempty")
        if not all(math.isfinite(v) for v in grid):
            raise ValueError(f"grid values must be finite, got {grid}")
        diffs = np.diff(grid)
        if len(grid) > 1 and not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ValueError("grid must be strictly monotone")
        object.__setattr__(self, "grid", grid)


def default_grid(experiment: str, config: ScenarioConfig) -> tuple[float, ...]:
    """The default grid of an experiment family."""
    if experiment == "beam_scan_lrs":
        return tuple(dft_codebook(config.geometry.lrs_spec)[0])
    if experiment == "beam_scan_urs":
        return tuple(dft_codebook(config.geometry.urs_spec)[0])
    if experiment == "gamma_sweep":
        return tuple(np.logspace(-10, -7, 7))
    if experiment == "lrs_distance":
        return tuple(np.geomspace(20.0, 160.0, 7))
    if experiment == "urs_distance":
        return tuple(np.geomspace(10.0, 80.0, 7))
    if experiment == "aoa_difference":
        return (0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.4)
    if experiment == "overlap_ratio":
        return tuple(np.linspace(0.0, 1.0, 6))
    if experiment == "angle_error":
        return (0.0, 0.25, 0.5, 1.0, 1.5, 2.0)
    raise ValueError(f"unknown experiment {experiment!r}")


def _row(value, scheme, lrs, urs, feasible, iterations, wall) -> dict:
    return {
        "swept_value": float(value),
        "scheme": scheme,
        "lrs_power_or_energy": float(lrs),
        "urs_power": float(urs),
        "feasible": bool(feasible),
        "iterations": int(iterations),
        "wall_time": float(wall),
    }


def _scan_beam(spec, zeta) -> np.ndarray:
    """Unit-norm beam steered at direction cosine ``zeta`` on the y axis."""
    w = steering_1d(spec.count_a, spec.spacing, spec.wavelength, zeta)
    return np.repeat(w, spec.count_b) / np.sqrt(spec.size)


def _run_beam_scan(config: ScenarioConfig, grid, radar: str) -> list[dict]:
    geom = config.geometry
    p_l, p_u = config.timing.lrs.power, config.timing.urs.power
    lrs = radar == "lrs"
    irs = geom.irs_spec
    side, p_side = ("L", p_l) if lrs else ("U", p_u)
    kind, factor = _LINK_TABLE[side * 2]
    t0 = time.perf_counter()
    steering = _Steering(geom, side, kind)
    if lrs:
        # legitimate radar only: reflect coherently back at it
        theta = closed_form_lrs_only(steering.composites["U"])
    elif irs.size == 1:
        # no null exists, and every phase gives the same echo
        theta = ReflectionVector.on(np.zeros(1))
    else:
        # unauthorized radar only: null its echo along the first axis with
        # at least two elements
        theta = closed_form_urs_null(irs, geom.angles_u, (1, 0) if irs.count_a >= 2 else (0, 1))
    # the reflection gain does not depend on the beam: once per scan
    array_gain = steering.array_gain(kind, theta.coefficients)
    solve_wall = time.perf_counter() - t0
    spec = geom.lrs_spec if lrs else geom.urs_spec
    rand = _random_phase_expectation(geom, p_l, p_u)
    rand_q = rand.q_ll if lrs else rand.q_uu
    rcs = default_rcs(irs, config.echo_ratio)
    base = no_irs_baseline_power(geom, rcs, p_l, p_u)[0 if lrs else 1]
    matched = steering.gain(side) * p_side
    rows = []
    for zeta in grid:
        t0 = time.perf_counter()
        k = steering.gain(side, _scan_beam(spec, zeta))
        q_beam = k * p_side
        # the link's factor reads only the scanned radar's gain
        prop = float(factor(k, k, p_l, p_u) * array_gain)
        wall = time.perf_counter() - t0 + solve_wall
        solve_wall = 0.0
        pattern = q_beam / matched  # |b^H w|^2 / count, in [0, 1]
        for scheme, value, it, t in (("proposed", prop, 0, wall),
                                     ("random_phase", rand_q * pattern**2, 0, 0.0),
                                     ("no_irs", base * pattern**2, 0, 0.0)):
            lrs_value, urs_value = (value, 0.0) if lrs else (0.0, value)
            rows.append(_row(zeta, scheme, lrs_value, urs_value, True, it, t))
    return rows


def _cpi_row(config: ScenarioConfig, variant, value, seed_index, warm=None):
    """One CPI at the config's cap and its row; returns (CpiResult, row)."""
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, seed_index]))
    plan = config.timing
    t0 = time.perf_counter()
    cpi = run_cpi(
        config.geometry, plan, variant, config.gamma, plan.lrs.power, plan.urs.power,
        config.p_u_min, err=config.error, rng=rng, step1_pris=config.step1_pris, warm=warm,
    )
    wall = time.perf_counter() - t0
    return cpi, _row(value, variant, cpi.lrs_energy, cpi.urs_peak_power,
                     cpi.feasible, cpi.iterations, wall)


def _cpi_energy_rows(config: ScenarioConfig, value: float, index: int, schemes=("short_term",)) -> list[dict]:
    """Rows for one grid point of a CPI-based sweep (baselines included)."""
    rows = [
        _cpi_row(config, variant, value, index * 8 + k)[1] for k, variant in enumerate(schemes)
    ]
    rand, base, wall = _baselines(config)
    rows.append(_row(value, "random_phase", *rand, True, 0, wall))
    rows.append(_row(value, "no_irs", *base, True, 0, 0.0))
    return rows


def _baselines(config: ScenarioConfig) -> tuple[tuple, tuple, float]:
    """Step-II (energy, URS peak) of the random-phase and the no-reflector baselines.

    Returns both pairs and the wall time of the random-phase baseline alone.
    """
    geom, plan = config.geometry, config.timing
    p_l, p_u = plan.lrs.power, plan.urs.power
    n_pris = plan.pulses_per_cpi - config.step1_pris
    t0 = time.perf_counter()
    rand = _random_phase_expectation(geom, p_l, p_u)
    rand_figures = _step2_figures(rand, segment_pri(plan), n_pris)
    wall = time.perf_counter() - t0
    rcs = default_rcs(geom.irs_spec, config.echo_ratio)
    p_l_base, p_u_base = no_irs_baseline_power(geom, rcs, p_l, p_u)
    return rand_figures, (n_pris * plan.lrs.duration * p_l_base, p_u_base), wall


def _rebuilt(key: str, obj, **changes):
    """``dataclasses.replace`` whose ValueError is a ConfigError on ``key``."""
    try:
        return replace(obj, **changes)
    except ValueError as exc:
        raise ConfigError(key, str(exc)) from exc


def _point_config(config: ScenarioConfig, experiment: str, value: float) -> ScenarioConfig:
    """Specialize the scenario for one grid point of a CPI-based sweep.

    A grid value that the scenario rejects is a ConfigError on the
    experiment that names the value.
    """
    geom, plan = config.geometry, config.timing
    try:
        if experiment == "gamma_sweep":
            return config.replace(gamma=float(value))
        if experiment == "lrs_distance":
            return config.replace(geometry=_rebuilt("geometry", geom, dist_li=float(value)))
        if experiment == "urs_distance":
            return config.replace(geometry=_rebuilt("geometry", geom, dist_ui=float(value)))
        if experiment == "aoa_difference":
            # sweep around broadside of the reflector axis, where the direction
            # cosine responds linearly to azimuth
            base = np.pi / 2
            return config.replace(geometry=replace(
                geom,
                angles_l=AnglePair(np.pi / 2, base),
                angles_u=AnglePair(np.pi / 2, base + float(value)),
            ))
        if experiment == "overlap_ratio":
            # equal pulse lengths; slide the second pulse to set the overlap
            t = 30e-6
            return config.replace(timing=_rebuilt(
                "timing", plan,
                lrs=_rebuilt("timing", plan.lrs, duration=t, start_offset=0.0),
                urs=_rebuilt("timing", plan.urs, duration=t, start_offset=float((1.0 - value) * t)),
            ))
        if experiment == "angle_error":
            return config.replace(
                error=replace(config.error, angle_offset=float(np.deg2rad(value)))
            )
    except ConfigError as exc:
        raise ConfigError(experiment, f"grid value {_fmt(value)} rejected: {exc}") from exc
    raise ValueError(f"unknown CPI-based experiment {experiment!r}")


def _pooled_point(args) -> list[dict]:
    point_cfg, experiment, value, index = args
    if experiment in ("overlap_ratio", "angle_error"):
        schemes = ("short_term", "long_term")
    else:
        schemes = ("short_term",)
    rows = _cpi_energy_rows(point_cfg, value, index, schemes)
    if experiment == "lrs_distance":
        # reference: same optimized reflection with the unauthorized radar absent
        geom, plan = point_cfg.geometry, point_cfg.timing
        t0 = time.perf_counter()
        u = composite_vector("U", geom.angles_l, geom.angles_u, geom.irs_spec)
        theta = closed_form_lrs_only(u)
        q_ll = link_power("LL", theta, geom, plan.lrs.power, plan.urs.power)
        e = (plan.pulses_per_cpi - point_cfg.step1_pris) * plan.lrs.duration * q_ll
        wall = time.perf_counter() - t0
        rows.insert(1, _row(value, "lrs_only", e, 0.0, True, 0, wall))
    return rows


def _run_gamma_sweep(config: ScenarioConfig, grid) -> list[dict]:
    order = np.argsort(grid)  # ascending caps so warm starts stay feasible
    warm = {"short_term": None, "long_term": None}
    rows_by_point: dict[int, list[dict]] = {}
    for index in order:
        gamma = grid[index]
        point_cfg = _point_config(config, "gamma_sweep", gamma)
        point_rows = []
        for k, variant in enumerate(("short_term", "long_term")):
            cpi, row = _cpi_row(point_cfg, variant, gamma, int(index) * 8 + k, warm[variant])
            if cpi.feasible:
                warm[variant] = cpi.mode
            point_rows.append(row)
        rows_by_point[int(index)] = point_rows
    # cap-independent baselines, once
    rand, base, _ = _baselines(config)
    rows = []
    for index, gamma in enumerate(grid):
        rows.extend(rows_by_point[index])
        rows.append(_row(gamma, "random_phase", *rand, True, 0, 0.0))
        rows.append(_row(gamma, "no_irs", *base, True, 0, 0.0))
    return rows


def run_experiment(config: ScenarioConfig, sweep: SweepSpec) -> list[dict]:
    """Run one experiment family over its grid; returns the result rows."""
    grid = sweep.grid
    if sweep.experiment == "beam_scan_lrs":
        return _run_beam_scan(config, grid, "lrs")
    if sweep.experiment == "beam_scan_urs":
        return _run_beam_scan(config, grid, "urs")
    if sweep.experiment == "gamma_sweep":
        return _run_gamma_sweep(config, grid)
    # every grid point is checked here, before any is solved, so a rejected
    # value is reported the same way with and without workers
    args = [(_point_config(config, sweep.experiment, value), sweep.experiment, value, index)
            for index, value in enumerate(grid)]
    workers = _cast("IRSIM_WORKERS", os.environ.get("IRSIM_WORKERS", "1"), int)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # a serial run never loads multiprocessing

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_pooled_point, args))
    else:
        chunks = [_pooled_point(a) for a in args]
    return [row for chunk in chunks for row in chunk]


def all_infeasible(rows: list[dict]) -> bool:
    """True when the sweep produced optimization rows and none were feasible."""
    opt = [r for r in rows if r["scheme"] in OPTIMIZING_SCHEMES]
    return bool(opt) and not any(r["feasible"] for r in opt)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def emit(results: list[dict], fmt: str, path: str) -> None:
    """Write result rows as CSV or JSON with 12-significant-digit floats.

    The CSV header matches the column contract exactly; JSON is an array of
    row objects. Empty results are an error and create no file.
    """
    if not results:
        raise ValueError("no results to emit")
    if fmt == "csv":
        lines = [",".join(COLUMNS)]
        for row in results:
            lines.append(
                ",".join(
                    [
                        _fmt(row["swept_value"]),
                        row["scheme"],
                        _fmt(row["lrs_power_or_energy"]),
                        _fmt(row["urs_power"]),
                        "true" if row["feasible"] else "false",
                        str(row["iterations"]),
                        _fmt(row["wall_time"]),
                    ]
                )
            )
        payload = "\n".join(lines) + "\n"
    elif fmt == "json":
        rounded = [
            {
                key: (float(_fmt(row[key])) if isinstance(row[key], float) else row[key])
                for key in COLUMNS
            }
            for row in results
        ]
        payload = json.dumps(rounded, indent=2) + "\n"
    else:
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    with open(path, "w") as fh:
        fh.write(payload)

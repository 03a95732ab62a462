"""Experiment sweeps over scenario parameters, with CSV/JSON emission.

Every experiment produces one row per grid point per scheme with a fixed
column set: swept_value, scheme, lrs_power_or_energy, urs_power, feasible,
iterations, wall_time. Scan experiments report received power; CPI-based
sweeps report the legitimate radar's step-II energy so that short-term and
long-term reflection schedules are directly comparable. Identical config
and seed reproduce identical numbers (wall_time excepted).

``_EXPERIMENTS`` is the one list of experiment families: each entry gives
the figure it reproduces, its default grid, how a grid value changes the
scenario and the reflection schedules it runs.

Every CPI-based sweep runs ``_point_rows`` per grid point, on a process
pool sized by the IRSIM_WORKERS environment variable (default 1); the cap
sweep runs its points in one process in ascending-cap order, each warm-started
from the last feasible one. A row's wall_time is the time of the work that
produced it; a beam scan charges the work its points share to the first point.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .arrays import AnglePair, _steering, composite_vector, dft_codebook
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

__all__ = [
    "SweepSpec", "EXPERIMENT_IDS", "FIGURES", "run_experiment", "emit", "default_grid", "all_infeasible",
]

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


def _rebuilt(key: str, obj, **changes):
    """``dataclasses.replace`` whose ValueError is a ConfigError on ``key``."""
    try:
        return replace(obj, **changes)
    except ValueError as exc:
        raise ConfigError(key, str(exc)) from exc


def _aoa_point(config: ScenarioConfig, value: float) -> ScenarioConfig:
    # sweep around broadside of the reflector axis, where the direction
    # cosine responds linearly to azimuth
    base = np.pi / 2
    return config.replace(geometry=replace(
        config.geometry, angles_l=AnglePair(np.pi / 2, base), angles_u=AnglePair(np.pi / 2, base + value),
    ))


def _overlap_point(config: ScenarioConfig, value: float) -> ScenarioConfig:
    # equal pulse lengths; slide the second pulse to set the overlap
    plan, t = config.timing, 30e-6
    return config.replace(timing=_rebuilt(
        "timing", plan,
        lrs=_rebuilt("timing", plan.lrs, duration=t, start_offset=0.0),
        urs=_rebuilt("timing", plan.urs, duration=t, start_offset=(1.0 - value) * t),
    ))


@dataclass(frozen=True)
class _Experiment:
    figure: str  # the figure id that ``reproduce`` takes
    grid: Callable[[ScenarioConfig], tuple]  # the default grid of a config
    # the scenario at one grid value; None for a beam scan
    point: Callable[[ScenarioConfig, float], ScenarioConfig] | None = None
    schedules: tuple[str, ...] = ("short_term",)  # the reflection schedules of each grid point


_BOTH = ("short_term", "long_term")

# each experiment family once, in figure order
_EXPERIMENTS = {
    "beam_scan_lrs": _Experiment("fig6", lambda c: tuple(dft_codebook(c.geometry.lrs_spec)[0])),
    "beam_scan_urs": _Experiment("fig7", lambda c: tuple(dft_codebook(c.geometry.urs_spec)[0])),
    "gamma_sweep": _Experiment(
        "fig8", lambda c: tuple(np.logspace(-10, -7, 7)), lambda c, v: c.replace(gamma=v), _BOTH,
    ),
    "lrs_distance": _Experiment(
        "fig9", lambda c: tuple(np.geomspace(20.0, 160.0, 7)),
        lambda c, v: c.replace(geometry=_rebuilt("geometry", c.geometry, dist_li=v)),
    ),
    "urs_distance": _Experiment(
        "fig10", lambda c: tuple(np.geomspace(10.0, 80.0, 7)),
        lambda c, v: c.replace(geometry=_rebuilt("geometry", c.geometry, dist_ui=v)),
    ),
    "aoa_difference": _Experiment("fig11", lambda c: (0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.4), _aoa_point),
    "overlap_ratio": _Experiment("fig12", lambda c: tuple(np.linspace(0.0, 1.0, 6)), _overlap_point, _BOTH),
    "angle_error": _Experiment(
        "fig13", lambda c: (0.0, 0.25, 0.5, 1.0, 1.5, 2.0),
        lambda c, v: c.replace(error=replace(c.error, angle_offset=float(np.deg2rad(v)))), _BOTH,
    ),
}
EXPERIMENT_IDS = tuple(_EXPERIMENTS)
FIGURES = {e.figure: experiment for experiment, e in _EXPERIMENTS.items()}  # figure id -> experiment


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
    if experiment not in _EXPERIMENTS:
        raise ValueError(f"unknown experiment {experiment!r}")
    return _EXPERIMENTS[experiment].grid(config)


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
    """Unit-norm beam steered at direction cosine ``zeta`` on the y axis (a grid value, finite)."""
    w = _steering(spec.count_a, spec.spacing / spec.wavelength, zeta)
    return np.repeat(w, spec.count_b) / np.sqrt(spec.size)


def _run_beam_scan(config: ScenarioConfig, grid, lrs: bool) -> list[dict]:
    geom = config.geometry
    p_l, p_u = config.timing.lrs.power, config.timing.urs.power
    irs = geom.irs_spec
    side, p_side = ("L", p_l) if lrs else ("U", p_u)
    kind, factor = _LINK_TABLE[side * 2]
    t0 = time.perf_counter()
    steering = _Steering(geom, kind)
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
    t1 = time.perf_counter()
    rand = _random_phase_expectation(geom, p_l, p_u)
    rand_q = rand.q_ll if lrs else rand.q_uu
    t2 = time.perf_counter()
    rcs = default_rcs(irs, config.echo_ratio)
    base = no_irs_baseline_power(geom, rcs, p_l, p_u)[0 if lrs else 1]
    # each scheme's once-per-scan work, charged to the first grid point
    walls = [t1 - t0, t2 - t1, time.perf_counter() - t2]
    spec = geom.lrs_spec if lrs else geom.urs_spec
    matched = steering.gain(side) * p_side
    k_other = steering.gain("U" if lrs else "L")  # the other radar's beam stays matched
    rows = []
    for zeta in grid:
        t0 = time.perf_counter()
        k = steering.gain(side, _scan_beam(spec, zeta))
        k_l, k_u = (k, k_other) if lrs else (k_other, k)
        q_beam = k * p_side
        prop = float(factor(k_l, k_u, p_l, p_u) * array_gain)
        walls[0] += time.perf_counter() - t0
        pattern = q_beam / matched  # |b^H w|^2 / count, in [0, 1]
        for scheme, value, wall in zip(("proposed", "random_phase", "no_irs"),
                                       (prop, rand_q * pattern**2, base * pattern**2), walls):
            lrs_value, urs_value = (value, 0.0) if lrs else (0.0, value)
            rows.append(_row(zeta, scheme, lrs_value, urs_value, True, 0, wall))
        walls = [0.0, 0.0, 0.0]
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


def _baselines(config: ScenarioConfig, value: float) -> list[dict]:
    """The random-phase and no-reflector rows of one grid point, step-II
    (energy, URS peak) each, and each timed on its own work."""
    geom, plan = config.geometry, config.timing
    p_l, p_u = plan.lrs.power, plan.urs.power
    n_pris = plan.pulses_per_cpi - config.step1_pris
    t0 = time.perf_counter()
    rand = _random_phase_expectation(geom, p_l, p_u)
    rand_figures = _step2_figures(rand, segment_pri(plan), n_pris)
    t1 = time.perf_counter()
    rcs = default_rcs(geom.irs_spec, config.echo_ratio)
    p_l_base, p_u_base = no_irs_baseline_power(geom, rcs, p_l, p_u)
    base = (n_pris * plan.lrs.duration * p_l_base, p_u_base)
    t2 = time.perf_counter()
    return [_row(value, "random_phase", *rand_figures, True, 0, t1 - t0),
            _row(value, "no_irs", *base, True, 0, t2 - t1)]


def _point_config(config: ScenarioConfig, experiment: str, value: float) -> ScenarioConfig:
    """Specialize the scenario for one grid point of a CPI-based sweep.

    A grid value that the scenario rejects is a ConfigError on the
    experiment that names the value.
    """
    try:
        return _EXPERIMENTS[experiment].point(config, float(value))
    except ConfigError as exc:
        raise ConfigError(experiment, f"grid value {_fmt(value)} rejected: {exc}") from exc


def _point_rows(args, warm=None) -> list[dict]:
    """The rows of one grid point of a CPI-based sweep, baselines included.

    ``warm`` maps a schedule to its last feasible ProtocolMode: each CPI
    starts from it, and a feasible CPI replaces it. Without it, every CPI
    starts cold.
    """
    point_cfg, experiment, value, index = args
    warm = {} if warm is None else warm
    rows = []
    for k, variant in enumerate(_EXPERIMENTS[experiment].schedules):
        cpi, row = _cpi_row(point_cfg, variant, value, index * 8 + k, warm.get(variant))
        if cpi.feasible:
            warm[variant] = cpi.mode
        rows.append(row)
    if experiment == "lrs_distance":
        # reference: same optimized reflection with the unauthorized radar absent
        geom, plan = point_cfg.geometry, point_cfg.timing
        t0 = time.perf_counter()
        u = composite_vector("U", geom.angles_l, geom.angles_u, geom.irs_spec)
        theta = closed_form_lrs_only(u)
        q_ll = link_power("LL", theta, geom, plan.lrs.power, plan.urs.power)
        e = (plan.pulses_per_cpi - point_cfg.step1_pris) * plan.lrs.duration * q_ll
        wall = time.perf_counter() - t0
        rows.append(_row(value, "lrs_only", e, 0.0, True, 0, wall))
    return rows + _baselines(point_cfg, value)


def run_experiment(config: ScenarioConfig, sweep: SweepSpec) -> list[dict]:
    """Run one experiment family over its grid; returns the result rows."""
    grid, experiment = sweep.grid, sweep.experiment
    if _EXPERIMENTS[experiment].point is None:
        return _run_beam_scan(config, grid, experiment == "beam_scan_lrs")
    # every grid point is checked here, before any is solved, so a rejected
    # value is reported the same way with and without workers
    args = [(_point_config(config, experiment, value), experiment, value, index)
            for index, value in enumerate(grid)]
    if experiment == "gamma_sweep":
        # ascending caps, so that each point's warm start stays feasible
        warm, chunks = {}, [None] * len(args)
        for index in np.argsort(grid):
            chunks[index] = _point_rows(args[index], warm)
        return [row for chunk in chunks for row in chunk]
    workers = _cast("IRSIM_WORKERS", os.environ.get("IRSIM_WORKERS", "1"), int)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # a serial run never loads multiprocessing

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_point_rows, args))
    else:
        chunks = [_point_rows(a) for a in args]
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

"""Scenario configuration: an INI file with one section per subsystem.

Angles are given in degrees in the file (keys carry a ``_deg`` suffix) and
converted to radians internally; every other quantity is SI (meters,
seconds, watts, hertz). Defaults reproduce the reference simulation setup:
64-element ULAs everywhere, 0.2 m wavelength, 30 mW transmitters, 30/20 m
radar-target distances, 100 us PRI with 25/30 us pulses overlapping for
10 us. See the README for the full grammar.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

import numpy as np

from .arrays import AnglePair, ArraySpec
from .channel import ScenarioGeometry
from .optimizer import PddParams
from .protocol import EstimationError
from .waveform import PulseSpec, TimingPlan

__all__ = ["ConfigError", "ScenarioConfig", "DEFAULTS"]


class ConfigError(ValueError):
    """A configuration value failed validation; carries 'section.key' context."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key = key


DEFAULTS: dict[str, dict[str, str]] = {
    "arrays": {
        "wavelength": "0.2",
        "lrs_count_y": "64",
        "lrs_count_z": "1",
        "urs_count_y": "64",
        "urs_count_z": "1",
        "irs_count_x": "64",
        "irs_count_y": "1",
        "radar_spacing": "0.1",
        "irs_spacing": "0.02",
        "sensor_count": "15",
    },
    "geometry": {
        "lrs_elevation_deg": "90",
        "lrs_azimuth_deg": "0",
        "urs_elevation_deg": "90",
        "urs_azimuth_deg": "30",
        "lrs_distance": "30",
        "urs_distance": "20",
    },
    "timing": {
        "pri": "100e-6",
        "lrs_duration": "25e-6",
        "urs_duration": "30e-6",
        "lrs_start": "0",
        "urs_start": "15e-6",
        "pulses_per_cpi": "10",
        "bandwidth": "100e6",
    },
    "power": {
        "p_l": "0.03",
        "p_u": "0.03",
        "p_u_min": "0.03",
        "gamma": "1e-8",
        "noise_l": "1e-12",
        "noise_u": "1e-12",
    },
    "protocol": {
        "mode": "short_term",
        "step1_pris": "1",
        "echo_ratio": "1.2",
    },
    "error": {
        "angle_offset_deg": "0",
        "angle_sigma_deg": "0",
        "power_rel_error": "0",
    },
    "pdd": {
        "rho0": "1.0",
        "c": "0.7",
        "inner_tol": "1e-7",
        "outer_tol": "1e-6",
        "max_outer": "50",
        "max_inner": "100",
        "max_sca": "200",
    },
    "run": {
        "seed": "0",
        "random_phase_draws": "10000",
    },
}


# float keys that must be finite, besides the azimuths; an INI value is
# checked as it is read, before any constructor range-checks it
_FINITE_KEYS = {
    "arrays": ("wavelength", "radar_spacing", "irs_spacing"),
    "geometry": ("lrs_distance", "urs_distance"),
    "timing": ("pri", "lrs_duration", "urs_duration", "lrs_start", "urs_start", "bandwidth"),
    "power": ("p_l", "p_u", "p_u_min", "gamma", "noise_l", "noise_u"),
    "protocol": ("echo_ratio",),
    "error": ("angle_offset_deg", "angle_sigma_deg", "power_rel_error"),
    "pdd": ("rho0", "inner_tol", "outer_tol"),
}


def _parser() -> configparser.ConfigParser:
    # defaults first, for a file to override; "key = 1  ; note" reads as 1
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    parser.read_dict(DEFAULTS)
    return parser


def _cast(key: str, raw: str, kind):
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(key, f"cannot parse {raw!r} as {kind.__name__}") from exc


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully validated scenario: geometry, timing, powers, solver and error model."""

    wavelength: float
    lrs_spec: ArraySpec = field(repr=False, default=None)
    urs_spec: ArraySpec = field(repr=False, default=None)
    irs_spec: ArraySpec = field(repr=False, default=None)
    sensor_count: int = 15
    angles_l: AnglePair = None
    angles_u: AnglePair = None
    lrs_distance: float = 30.0
    urs_distance: float = 20.0
    pri: float = 100e-6
    lrs_duration: float = 25e-6
    urs_duration: float = 30e-6
    lrs_start: float = 0.0
    urs_start: float = 15e-6
    pulses_per_cpi: int = 10
    bandwidth: float = 100e6
    p_l: float = 0.03
    p_u: float = 0.03
    p_u_min: float = 0.03
    gamma: float = 1e-8
    noise_l: float = 1e-12
    noise_u: float = 1e-12
    mode: str = "short_term"
    step1_pris: int = 1
    echo_ratio: float = 1.2
    error: EstimationError = field(default_factory=EstimationError)
    pdd: PddParams = field(default_factory=PddParams)
    seed: int = 0

    @classmethod
    def default(cls, **overrides) -> "ScenarioConfig":
        cfg = cls.from_parser(_parser())
        return cfg.replace(**overrides) if overrides else cfg

    @classmethod
    def from_file(cls, path: str) -> "ScenarioConfig":
        parser = _parser()
        try:
            with open(path) as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError("config", f"cannot read {path}: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError("config", f"malformed file {path}: {exc}") from exc
        for section in parser.sections():
            if section not in DEFAULTS:
                raise ConfigError(section, "unknown section")
            for key in parser[section]:
                if key not in DEFAULTS[section]:
                    raise ConfigError(f"{section}.{key}", "unknown key")
        return cls.from_parser(parser)

    @classmethod
    def from_parser(cls, parser: configparser.ConfigParser) -> "ScenarioConfig":
        def get(section, key, kind=float):
            value = _cast(f"{section}.{key}", parser.get(section, key), kind)
            if key in _FINITE_KEYS.get(section, ()) and not math.isfinite(value):
                raise ConfigError(f"{section}.{key}", "must be finite")
            return value

        if parser.has_option("timing", "urs_pri"):
            raise ConfigError(
                "timing.urs_pri",
                "unequal PRIs are not supported; both radars share timing.pri",
            )
        wavelength = get("arrays", "wavelength")
        radar_spacing = get("arrays", "radar_spacing")
        irs_spacing = get("arrays", "irs_spacing")

        def spec(key_a, key_b, spacing, context):
            try:
                return ArraySpec(
                    get("arrays", key_a, int), get("arrays", key_b, int), spacing, wavelength
                )
            except ValueError as exc:
                raise ConfigError(f"arrays.{context}", str(exc)) from exc

        lrs_spec = spec("lrs_count_y", "lrs_count_z", radar_spacing, "lrs_count_y")
        urs_spec = spec("urs_count_y", "urs_count_z", radar_spacing, "urs_count_y")
        irs_spec = spec("irs_count_x", "irs_count_y", irs_spacing, "irs_count_x")

        def angles(prefix):
            try:
                return AnglePair(
                    float(np.deg2rad(get("geometry", f"{prefix}_elevation_deg"))),
                    float(np.deg2rad(get("geometry", f"{prefix}_azimuth_deg"))),
                )
            except ValueError as exc:
                raise ConfigError(f"geometry.{prefix}_elevation_deg", str(exc)) from exc

        # retired (the random-phase rows are exact): checked so old files load, then ignored
        if get("run", "random_phase_draws", int) < 1:
            raise ConfigError("run.random_phase_draws", "must be >= 1")
        mode = get("protocol", "mode", str)
        if mode not in ("short_term", "long_term"):
            raise ConfigError("protocol.mode", f"must be short_term or long_term, got {mode!r}")
        offset, sigma, rel = (
            get("error", key) for key in ("angle_offset_deg", "angle_sigma_deg", "power_rel_error")
        )
        try:
            error = EstimationError(
                angle_offset=float(np.deg2rad(offset)),
                angle_sigma=float(np.deg2rad(sigma)),
                power_rel_error=rel,
            )
        except ValueError as exc:
            raise ConfigError("error", str(exc)) from exc
        solver = {
            key: get("pdd", key, int if key.startswith("max_") else float) for key in DEFAULTS["pdd"]
        }
        try:
            pdd = PddParams(**solver)
        except ValueError as exc:
            raise ConfigError("pdd", str(exc)) from exc

        cfg = cls(
            wavelength=wavelength,
            lrs_spec=lrs_spec,
            urs_spec=urs_spec,
            irs_spec=irs_spec,
            sensor_count=get("arrays", "sensor_count", int),
            angles_l=angles("lrs"),
            angles_u=angles("urs"),
            lrs_distance=get("geometry", "lrs_distance"),
            urs_distance=get("geometry", "urs_distance"),
            pri=get("timing", "pri"),
            lrs_duration=get("timing", "lrs_duration"),
            urs_duration=get("timing", "urs_duration"),
            lrs_start=get("timing", "lrs_start"),
            urs_start=get("timing", "urs_start"),
            pulses_per_cpi=get("timing", "pulses_per_cpi", int),
            bandwidth=get("timing", "bandwidth"),
            p_l=get("power", "p_l"),
            p_u=get("power", "p_u"),
            p_u_min=get("power", "p_u_min"),
            gamma=get("power", "gamma"),
            noise_l=get("power", "noise_l"),
            noise_u=get("power", "noise_u"),
            mode=mode,
            step1_pris=get("protocol", "step1_pris", int),
            echo_ratio=get("protocol", "echo_ratio"),
            error=error,
            pdd=pdd,
            seed=get("run", "seed", int),
        )
        cfg.validate()
        return cfg

    def replace(self, **changes) -> "ScenarioConfig":
        from dataclasses import replace as dc_replace

        cfg = dc_replace(self, **changes)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        """Re-check every module precondition; raises ConfigError with context."""
        # AnglePair range-checks the elevation; a non-finite azimuth wraps to nan
        finite = [
            ("geometry.lrs_azimuth_deg", self.angles_l.azimuth),
            ("geometry.urs_azimuth_deg", self.angles_u.azimuth),
            ("arrays.wavelength", self.wavelength),
            ("protocol.echo_ratio", self.echo_ratio),
            ("error.angle_offset_deg", self.error.angle_offset),
            ("error.angle_sigma_deg", self.error.angle_sigma),
            ("error.power_rel_error", self.error.power_rel_error),
            ("pdd.rho0", self.pdd.rho0),
            ("pdd.inner_tol", self.pdd.inner_tol),
            ("pdd.outer_tol", self.pdd.outer_tol),
        ]
        for spec, key in ((self.lrs_spec, "radar_spacing"), (self.urs_spec, "radar_spacing"),
                          (self.irs_spec, "irs_spacing")):
            finite += [("arrays.wavelength", spec.wavelength), (f"arrays.{key}", spec.spacing)]
        for section in ("geometry", "timing", "power"):
            finite += [(f"{section}.{key}", getattr(self, key)) for key in _FINITE_KEYS[section]]
        for key, value in finite:
            if not math.isfinite(value):
                raise ConfigError(key, "must be finite")
        try:
            self.geometry()
        except ValueError as exc:
            raise ConfigError("geometry", str(exc)) from exc
        try:
            self.timing()
        except ValueError as exc:
            raise ConfigError("timing", str(exc)) from exc
        for key in ("p_l", "p_u", "p_u_min", "gamma"):
            if getattr(self, key) <= 0:
                raise ConfigError(f"power.{key}", "must be positive")
        for key in ("noise_l", "noise_u"):
            if getattr(self, key) < 0:
                raise ConfigError(f"power.{key}", "must be >= 0")
        if not 1 <= self.step1_pris < self.pulses_per_cpi:
            raise ConfigError(
                "protocol.step1_pris", "must leave at least one step-II PRI"
            )
        if self.echo_ratio <= 0:
            raise ConfigError("protocol.echo_ratio", "must be positive")

    def geometry(self) -> ScenarioGeometry:
        return ScenarioGeometry(
            angles_l=self.angles_l,
            angles_u=self.angles_u,
            dist_li=self.lrs_distance,
            dist_ui=self.urs_distance,
            lrs_spec=self.lrs_spec,
            urs_spec=self.urs_spec,
            irs_spec=self.irs_spec,
            sensor_count=self.sensor_count,
        )

    def timing(self) -> TimingPlan:
        return TimingPlan(
            pri=self.pri,
            pulses_per_cpi=self.pulses_per_cpi,
            lrs=PulseSpec(self.p_l, self.lrs_duration, self.bandwidth, self.lrs_start),
            urs=PulseSpec(self.p_u, self.urs_duration, self.bandwidth, self.urs_start),
        )

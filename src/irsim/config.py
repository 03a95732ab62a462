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
from dataclasses import dataclass

import numpy as np

from .arrays import AnglePair, ArraySpec
from .channel import ScenarioGeometry
from .optimizer import _C, _INNER_TOL, _MAX_INNER, _MAX_OUTER, _MAX_SCA, _OUTER_TOL, _RHO0
from .protocol import EstimationError
from .waveform import PulseSpec, TimingPlan

__all__ = ["ConfigError", "ScenarioConfig", "DEFAULTS"]


class ConfigError(ValueError):
    """A configuration value failed validation; carries 'section.key' context."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key = key


# the retired [pdd] keys: the solver's settings are constants, and a file
# may still set each one, to the constant's value only
_PDD_FIXED = {"rho0": _RHO0, "c": _C, "inner_tol": _INNER_TOL, "outer_tol": _OUTER_TOL,
              "max_outer": _MAX_OUTER, "max_inner": _MAX_INNER, "max_sca": _MAX_SCA}
# keys that a scenario may not set, each rejected with its reason instead of as unknown
_UNSUPPORTED = {"timing.urs_pri": "unequal PRIs are not supported; both radars share timing.pri"}

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
    "pdd": {key: str(value) for key, value in _PDD_FIXED.items()},
    "run": {
        "seed": "0",
        "random_phase_draws": "10000",
    },
}


# float keys that must be finite; an INI value is checked as it is read,
# before any constructor range-checks it
_FINITE_KEYS = {
    "arrays": ("wavelength", "radar_spacing", "irs_spacing"),
    "geometry": ("lrs_azimuth_deg", "urs_azimuth_deg", "lrs_distance", "urs_distance"),
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


# the INI key of each field that a constructor's error names, per section;
# {} stands for the radar, lrs or urs
_TIMING_FIELD_KEYS = {"pri": "pri", "pulses_per_cpi": "pulses_per_cpi", "bandwidth": "bandwidth",
                      "duration": "{}_duration", "start_offset": "{}_start"}
_GEOMETRY_FIELD_KEYS = {"dist_li": "lrs_distance", "dist_ui": "urs_distance"}
_ERROR_FIELD_KEYS = {"angle_offset": "angle_offset_deg", "angle_sigma": "angle_sigma_deg",
                     "power_rel_error": "power_rel_error"}


def _field_error(exc: ValueError, section: str, field_keys: dict,
                 radar: str | None = None) -> ConfigError:
    """A constructor's error, "[radar] field rule", as a ConfigError on the
    ``section`` key that ``field_keys`` maps the field to; ``radar`` names
    the pulse when the message does not."""
    field, _, rule = str(exc).partition(" ")
    if field in ("lrs", "urs"):
        radar, (field, _, rule) = field, rule.partition(" ")
    key = field_keys.get(field)
    if key is None:
        return ConfigError(section, str(exc))
    return ConfigError(f"{section}.{key.format(radar)}", rule)


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully validated scenario: geometry, timing, powers and error model.

    Built only by :meth:`_from_parser` (through :meth:`default` or
    :meth:`from_file`) and :meth:`replace`, so ``DEFAULTS`` holds the one
    copy of the reference values. The nested objects check their own
    values; :meth:`validate` checks the rest. The transmit powers are
    ``timing.lrs.power`` and ``timing.urs.power``.
    """

    geometry: ScenarioGeometry
    timing: TimingPlan
    p_u_min: float
    gamma: float
    noise_l: float
    noise_u: float
    step1_pris: int
    echo_ratio: float
    error: EstimationError
    seed: int

    @classmethod
    def default(cls) -> "ScenarioConfig":
        return cls._from_parser(_parser())

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
        return cls._from_parser(parser)

    @classmethod
    def _from_parser(cls, parser: configparser.ConfigParser) -> "ScenarioConfig":
        for section in parser.sections():
            if section not in DEFAULTS:
                raise ConfigError(section, "unknown section")
            for key in parser[section]:
                if key not in DEFAULTS[section]:
                    name = f"{section}.{key}"
                    raise ConfigError(name, _UNSUPPORTED.get(name, "unknown key"))

        def get(section, key, kind=float):
            value = _cast(f"{section}.{key}", parser.get(section, key), kind)
            if key in _FINITE_KEYS.get(section, ()) and not math.isfinite(value):
                raise ConfigError(f"{section}.{key}", "must be finite")
            return value

        # every value is read before the constructor that range-checks it, so
        # a value that does not parse names its own key
        def spec(key_a, key_b, spacing_key):
            values = {key: get("arrays", key, int) for key in (key_a, key_b)}
            values[spacing_key] = get("arrays", spacing_key)
            values["wavelength"] = get("arrays", "wavelength")
            try:
                return ArraySpec(*values.values())
            except ValueError as exc:
                # ArraySpec rejects counts below 1 and, once they pass, a spacing
                # or wavelength <= 0 (both are finite here): the first value <= 0
                bad = next(key for key, value in values.items() if value <= 0)
                raise ConfigError(f"arrays.{bad}", str(exc)) from exc

        lrs_spec = spec("lrs_count_y", "lrs_count_z", "radar_spacing")
        urs_spec = spec("urs_count_y", "urs_count_z", "radar_spacing")
        irs_spec = spec("irs_count_x", "irs_count_y", "irs_spacing")

        def angles(prefix):
            elevation, azimuth = (
                float(np.deg2rad(get("geometry", f"{prefix}_{axis}_deg")))
                for axis in ("elevation", "azimuth")
            )
            try:
                return AnglePair(elevation, azimuth)
            except ValueError as exc:
                raise ConfigError(f"geometry.{prefix}_elevation_deg", str(exc)) from exc

        angles_l, angles_u = angles("lrs"), angles("urs")
        dist_li, dist_ui = get("geometry", "lrs_distance"), get("geometry", "urs_distance")
        try:
            geometry = ScenarioGeometry(
                angles_l, angles_u, dist_li, dist_ui, lrs_spec, urs_spec, irs_spec
            )
        except ValueError as exc:
            raise _field_error(exc, "geometry", _GEOMETRY_FIELD_KEYS) from exc

        bandwidth = get("timing", "bandwidth")

        def pulse(radar, power_key):
            power = get("power", power_key)
            if power <= 0:
                raise ConfigError(f"power.{power_key}", "must be positive")
            duration, start = get("timing", f"{radar}_duration"), get("timing", f"{radar}_start")
            try:
                return PulseSpec(power, duration, bandwidth, start)
            except ValueError as exc:
                raise _field_error(exc, "timing", _TIMING_FIELD_KEYS, radar) from exc

        lrs, urs = pulse("lrs", "p_l"), pulse("urs", "p_u")
        pri, pulses_per_cpi = get("timing", "pri"), get("timing", "pulses_per_cpi", int)
        try:
            timing = TimingPlan(pri, pulses_per_cpi, lrs, urs)
        except ValueError as exc:
            raise _field_error(exc, "timing", _TIMING_FIELD_KEYS) from exc

        # retired keys, checked so old files load, then ignored: the random-phase
        # rows are exact, every experiment runs both reflection schedules, the
        # sensors' estimation is abstracted into the error model, and the
        # solver's settings are constants
        if get("run", "random_phase_draws", int) < 1:
            raise ConfigError("run.random_phase_draws", "must be >= 1")
        mode = get("protocol", "mode", str)
        if mode not in ("short_term", "long_term"):
            raise ConfigError("protocol.mode", f"must be short_term or long_term, got {mode!r}")
        if get("arrays", "sensor_count", int) < 1:
            raise ConfigError("arrays.sensor_count", "must be >= 1")
        for key, fixed in _PDD_FIXED.items():
            if get("pdd", key, type(fixed)) != fixed:
                raise ConfigError(f"pdd.{key}", f"retired; only the solver's fixed value {fixed} is accepted")
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
            raise _field_error(exc, "error", _ERROR_FIELD_KEYS) from exc

        cfg = cls(
            geometry=geometry,
            timing=timing,
            p_u_min=get("power", "p_u_min"),
            gamma=get("power", "gamma"),
            noise_l=get("power", "noise_l"),
            noise_u=get("power", "noise_u"),
            step1_pris=get("protocol", "step1_pris", int),
            echo_ratio=get("protocol", "echo_ratio"),
            error=error,
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
        """Check the values held here; raises ConfigError with context.

        The geometry, timing and error model check their own values when
        they are built.
        """
        for key, value in (("power.p_u_min", self.p_u_min), ("power.gamma", self.gamma),
                           ("power.noise_l", self.noise_l), ("power.noise_u", self.noise_u),
                           ("protocol.echo_ratio", self.echo_ratio)):
            if not math.isfinite(value):
                raise ConfigError(key, "must be finite")
        for key in ("p_u_min", "gamma"):
            if getattr(self, key) <= 0:
                raise ConfigError(f"power.{key}", "must be positive")
        for key in ("noise_l", "noise_u"):
            if getattr(self, key) < 0:
                raise ConfigError(f"power.{key}", "must be >= 0")
        if not 1 <= self.step1_pris < self.timing.pulses_per_cpi:
            raise ConfigError(
                "protocol.step1_pris", "must leave at least one step-II PRI"
            )
        if self.echo_ratio <= 0:
            raise ConfigError("protocol.echo_ratio", "must be positive")
        if self.seed < 0:
            raise ConfigError("run.seed", "must be >= 0")

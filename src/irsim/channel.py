"""Line-of-sight channel matrices between the radars and the reflector.

Each hop is a rank-1 outer product of the radar-side and reflector-side
steering vectors, scaled by a complex link gain alpha = exp(j nu) * abar.
The repo's gain convention for abar is the one-way free-space amplitude
wavelength / (4 pi distance); the no-reflector baseline uses the radar
range equation instead (see :mod:`irsim.protocol`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arrays import AnglePair, ArraySpec, steering_irs, steering_radar

__all__ = [
    "LinkGain",
    "ChannelSet",
    "ScenarioGeometry",
    "path_gain",
    "sample_reference_phases",
    "build_channels",
]


@dataclass(frozen=True)
class LinkGain:
    """Complex LoS gain split into real amplitude and reference phase."""

    amplitude: float
    reference_phase: float = 0.0

    def __post_init__(self):
        if self.amplitude < 0:
            raise ValueError("amplitude must be >= 0")
        object.__setattr__(
            self, "reference_phase", float(self.reference_phase % (2.0 * np.pi))
        )

    @property
    def value(self) -> complex:
        return self.amplitude * np.exp(1j * self.reference_phase)


@dataclass(frozen=True)
class ScenarioGeometry:
    """Placement of both radars relative to the target-mounted reflector."""

    angles_l: AnglePair
    angles_u: AnglePair
    dist_li: float
    dist_ui: float
    lrs_spec: ArraySpec
    urs_spec: ArraySpec
    irs_spec: ArraySpec

    def __post_init__(self):
        for name in ("dist_li", "dist_ui"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        wavelengths = {
            self.lrs_spec.wavelength,
            self.urs_spec.wavelength,
            self.irs_spec.wavelength,
        }
        if len(wavelengths) != 1:
            raise ValueError("all arrays must share one wavelength")

    @property
    def wavelength(self) -> float:
        return self.irs_spec.wavelength


@dataclass(frozen=True)
class ChannelSet:
    """The four LoS hop matrices (radar -> reflector and back, both radars)."""

    h_li: np.ndarray  # reflector -> legitimate radar, M x N
    h_il: np.ndarray  # legitimate radar -> reflector, N x M
    h_ui: np.ndarray  # reflector -> unauthorized radar, D x N
    h_iu: np.ndarray  # unauthorized radar -> reflector, N x D


def path_gain(distance: float, wavelength: float) -> float:
    """One-way free-space amplitude gain wavelength / (4 pi distance)."""
    if distance <= 0:
        raise ValueError("distance must be positive")
    if wavelength <= 0:
        raise ValueError("wavelength must be positive")
    return wavelength / (4.0 * np.pi * distance)


def sample_reference_phases(rng: np.random.Generator) -> tuple[float, float]:
    """Draw the two independent reference phases, uniform on [0, 2 pi)."""
    nu = rng.uniform(0.0, 2.0 * np.pi, size=2)
    return float(nu[0]), float(nu[1])


def build_channels(geom: ScenarioGeometry, gains: tuple[LinkGain, LinkGain]) -> ChannelSet:
    """Construct the four rank-1 hop matrices for one scenario.

    ``gains`` holds the (legitimate, unauthorized) link gains. Every matrix
    entry has modulus equal to the corresponding amplitude.
    """
    gain_l, gain_u = gains
    al, au = gain_l.value, gain_u.value
    b_rx = steering_radar(geom.lrs_spec, geom.angles_l, "receive")
    b_tx = steering_radar(geom.lrs_spec, geom.angles_l, "transmit")
    c_rx = steering_radar(geom.urs_spec, geom.angles_u, "receive")
    c_tx = steering_radar(geom.urs_spec, geom.angles_u, "transmit")
    a_l_in = steering_irs(geom.irs_spec, geom.angles_l, "incident")
    a_l_out = steering_irs(geom.irs_spec, geom.angles_l, "reflected")
    a_u_in = steering_irs(geom.irs_spec, geom.angles_u, "incident")
    a_u_out = steering_irs(geom.irs_spec, geom.angles_u, "reflected")
    return ChannelSet(
        h_li=al * np.outer(b_rx, np.conj(a_l_out)),
        h_il=al * np.outer(a_l_in, np.conj(b_tx)),
        h_ui=au * np.outer(c_rx, np.conj(a_u_out)),
        h_iu=au * np.outer(a_u_in, np.conj(c_tx)),
    )

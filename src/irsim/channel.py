"""Line-of-sight geometry and link gains between the radars and the reflector.

Each hop is a rank-1 outer product of the radar-side and reflector-side
steering vectors, scaled by a complex link gain alpha = exp(j nu) * abar.
The repo's gain convention for abar is the one-way free-space amplitude
wavelength / (4 pi distance); the no-reflector baseline uses the radar
range equation instead (see :mod:`irsim.protocol`). The power closed forms
never build a hop matrix: :func:`_hop_matrices` is the private reference
that the guard :func:`irsim.power.bilinear_link_power` multiplies out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arrays import AnglePair, ArraySpec, steering_irs, steering_radar

__all__ = [
    "ScenarioGeometry",
    "path_gain",
    "sample_reference_phases",
]


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


def path_gain(distance: float, wavelength: float) -> float:
    """One-way free-space amplitude gain wavelength / (4 pi distance)."""
    if not (math.isfinite(distance) and distance > 0):
        raise ValueError(f"distance must be finite and positive, got {distance}")
    if not (math.isfinite(wavelength) and wavelength > 0):
        raise ValueError(f"wavelength must be finite and positive, got {wavelength}")
    return wavelength / (4.0 * np.pi * distance)


def sample_reference_phases(rng: np.random.Generator) -> tuple[float, float]:
    """Draw the two independent reference phases, uniform on [0, 2 pi)."""
    nu = rng.uniform(0.0, 2.0 * np.pi, size=2)
    return float(nu[0]), float(nu[1])


def _hop_matrices(geom: ScenarioGeometry, alpha_l: complex, alpha_u: complex) -> tuple:
    """The four rank-1 hop matrices (h_li, h_il, h_ui, h_iu) of one scenario.

    ``alpha_l``/``alpha_u`` are the complex gains of the legitimate and the
    unauthorized link; every entry of a hop matrix has the modulus of its
    link's gain. h_li (M x N) and h_ui (D x N) carry the reflector's echo to
    each radar, h_il (N x M) and h_iu (N x D) each radar's pulse to the
    reflector.
    """
    b_rx = steering_radar(geom.lrs_spec, geom.angles_l, "receive")
    b_tx = steering_radar(geom.lrs_spec, geom.angles_l, "transmit")
    c_rx = steering_radar(geom.urs_spec, geom.angles_u, "receive")
    c_tx = steering_radar(geom.urs_spec, geom.angles_u, "transmit")
    a_l_in = steering_irs(geom.irs_spec, geom.angles_l, "incident")
    a_l_out = steering_irs(geom.irs_spec, geom.angles_l, "reflected")
    a_u_in = steering_irs(geom.irs_spec, geom.angles_u, "incident")
    a_u_out = steering_irs(geom.irs_spec, geom.angles_u, "reflected")
    return (
        alpha_l * np.outer(b_rx, np.conj(a_l_out)),
        alpha_l * np.outer(a_l_in, np.conj(b_tx)),
        alpha_u * np.outer(c_rx, np.conj(a_u_out)),
        alpha_u * np.outer(a_u_in, np.conj(c_tx)),
    )

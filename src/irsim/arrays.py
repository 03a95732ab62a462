"""Steering vectors for the radar/reflector arrays and the reflection-domain composites.

All arrays are uniform planar arrays (UPA). A ULA is a UPA with one axis
count set to 1. Kronecker ordering is fixed repo-wide: the first axis
(``count_a``) is the outer factor of every Kronecker product, i.e. it
varies slowest in the stacked element index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ArraySpec",
    "AnglePair",
    "steering_1d",
    "steering_irs",
    "steering_radar",
    "composite_deltas",
    "composite_vector",
    "composite_vector_kron",
    "matched_beamformer",
    "dft_codebook",
]

COMPOSITE_KINDS = ("U", "V", "R", "G")


def _wrap_angle(a: float) -> float:
    """Wrap an angle to [-pi, pi)."""
    return float((a + np.pi) % (2.0 * np.pi) - np.pi)


@dataclass(frozen=True)
class ArraySpec:
    """Geometry of one UPA: element counts per axis, spacing and wavelength.

    ``count_a`` is the outer Kronecker axis (x for the reflector, y for the
    radars); ``count_b`` is the inner axis (y for the reflector, z for the
    radars). ``spacing`` is the inter-element distance in meters.
    """

    count_a: int
    count_b: int
    spacing: float
    wavelength: float

    def __post_init__(self):
        if self.count_a < 1 or self.count_b < 1:
            raise ValueError("element counts must be >= 1")
        if self.spacing <= 0 or self.wavelength <= 0:
            raise ValueError("spacing and wavelength must be positive")

    @property
    def size(self) -> int:
        return self.count_a * self.count_b


@dataclass(frozen=True)
class AnglePair:
    """Elevation/azimuth direction in radians.

    Elevation is measured from the array normal (0 = broadside) and must lie
    in [0, pi]. Azimuth is wrapped into [-pi, pi), so identities like
    (pi - elevation, pi + azimuth) for the specular direction are legal
    inputs everywhere.
    """

    elevation: float
    azimuth: float

    def __post_init__(self):
        if not 0.0 <= self.elevation <= np.pi:
            raise ValueError(f"elevation {self.elevation} outside [0, pi]")
        object.__setattr__(self, "azimuth", _wrap_angle(self.azimuth))

    def specular(self) -> "AnglePair":
        """The mirrored departure direction (pi - elevation, pi + azimuth)."""
        return AnglePair(np.pi - self.elevation, self.azimuth + np.pi)


def steering_1d(count: int, spacing: float, wavelength: float, zeta: float) -> np.ndarray:
    """1D steering vector [1, e^{j 2 pi d/lambda zeta}, ...] of length ``count``.

    ``zeta`` is the dimensionless steering coordinate (a direction cosine or a
    difference of direction cosines). Periodic in zeta with period
    wavelength/spacing.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    k = np.arange(count)
    return np.exp(2j * np.pi * (spacing / wavelength) * zeta * k)


def _irs_zetas(angles: AnglePair, sense: str) -> tuple[float, float]:
    """Direction cosines (zeta_x, zeta_y) seen by the reflector UPA."""
    zx = np.sin(angles.elevation) * np.cos(angles.azimuth)
    zy = np.sin(angles.elevation) * np.sin(angles.azimuth)
    if sense == "incident":
        return zx, zy
    if sense == "reflected":
        # sign identities: the specular direction (pi - phi, pi + eta)
        # flips both direction cosines
        return -zx, -zy
    raise ValueError(f"sense must be 'incident' or 'reflected', got {sense!r}")


def steering_irs(spec: ArraySpec, angles: AnglePair, sense: str = "incident") -> np.ndarray:
    """2D steering vector of the reflector UPA (x-y plane), length N = Nx*Ny.

    ``sense='incident'`` evaluates the arrival direction (phi, eta);
    ``sense='reflected'`` evaluates the specular departure direction
    (pi - phi, pi + eta), which equals the elementwise conjugate of the
    incident vector.
    """
    zx, zy = _irs_zetas(angles, sense)
    dx = steering_1d(spec.count_a, spec.spacing, spec.wavelength, zx)
    dy = steering_1d(spec.count_b, spec.spacing, spec.wavelength, zy)
    return np.outer(dx, dy).ravel()


def steering_radar(spec: ArraySpec, angles: AnglePair, sense: str = "transmit") -> np.ndarray:
    """2D steering vector of a radar UPA (y-z plane), length M = My*Mz.

    Both radars share the same construction. ``sense='receive'`` evaluates
    the echo direction (pi - phi, pi + eta) and equals the conjugate of the
    transmit-sense vector.
    """
    if sense == "transmit":
        s = 1.0
    elif sense == "receive":
        s = -1.0
    else:
        raise ValueError(f"sense must be 'transmit' or 'receive', got {sense!r}")
    zy = s * np.sin(angles.elevation) * np.sin(angles.azimuth)
    zz = s * np.cos(angles.elevation)
    dy = steering_1d(spec.count_a, spec.spacing, spec.wavelength, zy)
    dz = steering_1d(spec.count_b, spec.spacing, spec.wavelength, zz)
    return np.outer(dy, dz).ravel()


def composite_deltas(kind: str, angles_l: AnglePair, angles_u: AnglePair) -> tuple[float, float]:
    """Steering-coordinate differences (dzeta_x, dzeta_y) of one composite.

    Each composite pairs a reflected-sense direction with a (conjugated)
    incident-sense direction; the result is a pure 1D-steering pair:

    ==== =================== ===================
    kind reflected direction incident direction
    ==== =================== ===================
    U    legitimate          legitimate
    V    unauthorized        legitimate
    R    legitimate          unauthorized
    G    unauthorized        unauthorized
    ==== =================== ===================
    """
    zl = _irs_zetas(angles_l, "incident")
    zu = _irs_zetas(angles_u, "incident")
    zl_r = _irs_zetas(angles_l, "reflected")
    zu_r = _irs_zetas(angles_u, "reflected")
    if kind == "U":
        out_z, in_z = zl_r, zl
    elif kind == "V":
        out_z, in_z = zu_r, zl
    elif kind == "R":
        out_z, in_z = zl_r, zu
    elif kind == "G":
        out_z, in_z = zu_r, zu
    else:
        raise ValueError(f"kind must be one of {COMPOSITE_KINDS}, got {kind!r}")
    return out_z[0] - in_z[0], out_z[1] - in_z[1]


def composite_vector(
    kind: str, angles_l: AnglePair, angles_u: AnglePair, irs_spec: ArraySpec
) -> np.ndarray:
    """Reflection-domain composite vector of length N.

    Elementwise product of the reflected-sense steering vector toward the
    destination and the conjugated incident-sense steering vector from the
    source; this is the effective per-element channel of one
    source -> reflector -> destination hop.
    """
    out_angles = {"U": angles_l, "V": angles_u, "R": angles_l, "G": angles_u}
    in_angles = {"U": angles_l, "V": angles_l, "R": angles_u, "G": angles_u}
    if kind not in COMPOSITE_KINDS:
        raise ValueError(f"kind must be one of {COMPOSITE_KINDS}, got {kind!r}")
    a_out = steering_irs(irs_spec, out_angles[kind], "reflected")
    a_in = steering_irs(irs_spec, in_angles[kind], "incident")
    return a_out * np.conj(a_in)


def composite_vector_kron(
    kind: str, angles_l: AnglePair, angles_u: AnglePair, irs_spec: ArraySpec
) -> np.ndarray:
    """Closed Kronecker form d(Nx, dzeta_x) kron d(Ny, dzeta_y) of a composite."""
    dzx, dzy = composite_deltas(kind, angles_l, angles_u)
    dx = steering_1d(irs_spec.count_a, irs_spec.spacing, irs_spec.wavelength, dzx)
    dy = steering_1d(irs_spec.count_b, irs_spec.spacing, irs_spec.wavelength, dzy)
    return np.outer(dx, dy).ravel()


def matched_beamformer(spec: ArraySpec, angles: AnglePair) -> np.ndarray:
    """Unit-norm transmit beamformer matched to the given direction."""
    b = steering_radar(spec, angles, "transmit")
    return b / np.sqrt(spec.size)


def dft_codebook(spec: ArraySpec) -> tuple[np.ndarray, np.ndarray]:
    """DFT beam codebook scanning the first (y) axis of a radar UPA.

    Returns (zetas, W): W[:, m] is the unit-norm beam of length spec.size
    steered at direction cosine zetas[m] along the scanned axis, broadside
    on the other axis. The grid is the DFT grid of size count_a, centered
    on zero and sorted ascending; for half-wavelength spacing it spans
    [-1, 1).
    """
    count = spec.count_a
    m = np.arange(count)
    period = spec.wavelength / spec.spacing
    zetas = np.sort(((m / count) * period + period / 2.0) % period - period / 2.0)
    beams = np.exp(
        2j * np.pi * (spec.spacing / spec.wavelength) * np.outer(np.arange(count), zetas)
    )
    W = np.kron(beams, np.ones((spec.count_b, 1))) / np.sqrt(spec.size)
    return zetas, W

"""Steering vectors for the radar/reflector arrays and the reflection-domain composites.

All arrays are uniform planar arrays (UPA). A ULA is a UPA with one axis
count set to 1. Kronecker ordering is fixed repo-wide: the first axis
(``count_a``) is the outer factor of every Kronecker product, i.e. it
varies slowest in the stacked element index.

How a vector is built: the direction cosines are taken with :mod:`math` on
Python floats; each 1D factor is exp(j 2 pi d/lambda zeta k) over one
read-only index ramp k per element count; the 2D vector is the broadcast
product ``(dx[:, None] * dy).ravel()``, the values of ``np.outer``. The
builders of validated specs and angles skip the argument checks of the
public :func:`steering_1d`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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

# composite kind -> its (reflected, incident) direction: legitimate (L) or unauthorized (U)
_COMPOSITE_SIDES = {"U": "LL", "V": "UL", "R": "LU", "G": "UU"}
COMPOSITE_KINDS = tuple(_COMPOSITE_SIDES)


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
        if not (_is_integer(self.count_a) and _is_integer(self.count_b)):
            raise ValueError(f"element counts must be integers, got {self.count_a!r}, {self.count_b!r}")
        if self.count_a < 1 or self.count_b < 1:
            raise ValueError("element counts must be >= 1")
        if not (math.isfinite(self.spacing) and math.isfinite(self.wavelength)):
            raise ValueError("spacing and wavelength must be finite")
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
        if not math.isfinite(self.azimuth):
            raise ValueError("azimuth must be finite")
        object.__setattr__(self, "azimuth", _wrap_angle(self.azimuth))


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def steering_1d(count: int, spacing: float, wavelength: float, zeta: float) -> np.ndarray:
    """1D steering vector [1, e^{j 2 pi d/lambda zeta}, ...] of length ``count``.

    ``zeta`` is the dimensionless steering coordinate (a direction cosine or a
    difference of direction cosines). Periodic in zeta with period
    wavelength/spacing. Raises ``ValueError``, naming the argument, for a
    ``count`` that is not an integer >= 1, a non-finite ``zeta`` and a
    ``spacing`` or ``wavelength`` that is not finite and positive.
    """
    if not (_is_integer(count) and count >= 1):
        raise ValueError(f"count must be an integer >= 1, got {count!r}")
    if not math.isfinite(zeta):
        raise ValueError(f"zeta must be finite, got {zeta}")
    for name, value in (("spacing", spacing), ("wavelength", wavelength)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    return _steering(count, spacing / wavelength, zeta)


@lru_cache(maxsize=64)
def _index_ramp(count: int) -> np.ndarray:
    """0, 1, ..., count - 1, read-only: shared by every steering vector of ``count`` elements.

    Stored complex: the complex phase step multiplies an integer ramp as
    k + 0j anyway, so the product is the same and no cast runs per vector.
    """
    k = np.arange(count).astype(complex)
    k.flags.writeable = False
    return k


def _steering(count: int, ratio: float, zeta: float) -> np.ndarray:
    """:func:`steering_1d` with ``ratio`` = spacing / wavelength, for arguments already checked."""
    return np.exp(2j * np.pi * ratio * zeta * _index_ramp(count))


def _irs_zetas(angles: AnglePair, sense: str) -> tuple[float, float]:
    """Direction cosines (zeta_x, zeta_y) seen by the reflector UPA."""
    sin_el = math.sin(angles.elevation)
    zx = sin_el * math.cos(angles.azimuth)
    zy = sin_el * math.sin(angles.azimuth)
    if sense == "incident":
        return zx, zy
    if sense == "reflected":
        # sign identities: the specular direction (pi - phi, pi + eta)
        # flips both direction cosines
        return -zx, -zy
    raise ValueError(f"sense must be 'incident' or 'reflected', got {sense!r}")


def _upa(spec: ArraySpec, zeta_a: float, zeta_b: float) -> np.ndarray:
    """The 2D steering vector of ``spec``: the outer product of its axes' 1D vectors, raveled."""
    ratio = spec.spacing / spec.wavelength
    return (_steering(spec.count_a, ratio, zeta_a)[:, None] * _steering(spec.count_b, ratio, zeta_b)).ravel()


def steering_irs(spec: ArraySpec, angles: AnglePair, sense: str = "incident") -> np.ndarray:
    """2D steering vector of the reflector UPA (x-y plane), length N = Nx*Ny.

    ``sense='incident'`` evaluates the arrival direction (phi, eta);
    ``sense='reflected'`` evaluates the specular departure direction
    (pi - phi, pi + eta), which equals the elementwise conjugate of the
    incident vector exactly, value for value (only the signs of zeros may
    differ), so the power layer builds incident vectors only.
    """
    return _upa(spec, *_irs_zetas(angles, sense))


def steering_radar(spec: ArraySpec, angles: AnglePair, sense: str = "transmit") -> np.ndarray:
    """2D steering vector of a radar UPA (y-z plane), length M = My*Mz.

    Both radars share the same construction. ``sense='receive'`` evaluates
    the echo direction (pi - phi, pi + eta) and equals the conjugate of the
    transmit-sense vector exactly, value for value (only the signs of zeros
    may differ), so the power layer builds transmit vectors only.
    """
    if sense == "transmit":
        s = 1.0
    elif sense == "receive":
        s = -1.0
    else:
        raise ValueError(f"sense must be 'transmit' or 'receive', got {sense!r}")
    el, az = angles.elevation, angles.azimuth
    return _upa(spec, s * math.sin(el) * math.sin(az), s * math.cos(el))


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
    if kind not in COMPOSITE_KINDS:
        raise ValueError(f"kind must be one of {COMPOSITE_KINDS}, got {kind!r}")
    angles = {"L": angles_l, "U": angles_u}
    out_z = _irs_zetas(angles[_COMPOSITE_SIDES[kind][0]], "reflected")
    in_z = _irs_zetas(angles[_COMPOSITE_SIDES[kind][1]], "incident")
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
    if kind not in COMPOSITE_KINDS:
        raise ValueError(f"kind must be one of {COMPOSITE_KINDS}, got {kind!r}")
    return _composites(kind, angles_l, angles_u, irs_spec)[kind]


def _composites(
    kinds: str, angles_l: AnglePair, angles_u: AnglePair, irs_spec: ArraySpec
) -> dict[str, np.ndarray]:
    """The composites of ``kinds``, building each incident vector they use once.

    A reflected-sense vector is exactly the conjugate of the incident one, so
    each composite is the product of two conjugated incident vectors.
    """
    reflected, composites = {}, {}
    for kind in kinds:
        out_side, in_side = _COMPOSITE_SIDES[kind]
        for side in (out_side, in_side):
            if side not in reflected:
                v = steering_irs(irs_spec, angles_l if side == "L" else angles_u)
                reflected[side] = np.conj(v, out=v)
        composites[kind] = reflected[out_side] * reflected[in_side]
    return composites


def composite_vector_kron(
    kind: str, angles_l: AnglePair, angles_u: AnglePair, irs_spec: ArraySpec
) -> np.ndarray:
    """Closed Kronecker form d(Nx, dzeta_x) kron d(Ny, dzeta_y) of a composite."""
    return _upa(irs_spec, *composite_deltas(kind, angles_l, angles_u))


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

"""Received-power evaluation at the reflector and at both radars.

Production path: the closed forms in which every link power factors into
(received power at the reflector) x (reflection-domain array gain
|composite^H theta|^2). A matched beam's one-hop gain is abar^2 * M in
closed form, so ``_Steering`` builds, once per evaluation, only the
composites the call reads (from one incident vector per direction, see
:mod:`irsim.arrays`), and a radar's steering vector only for an explicit
beam; ``_LINK_TABLE`` gives each link its composite and its per-watt
factor. Every power evaluation goes through the two. The entry points
check their arguments once; below them, nothing is checked again: the
one-hop amplitude abar is :func:`irsim.channel.path_gain`'s expression on
the geometry's already-validated distance and wavelength. Guard path:
:func:`bilinear_link_power` evaluates the full beamformer/channel-matrix
product over the private hop matrices of :mod:`irsim.channel` and must
agree with the closed forms to machine precision; it exists to catch
element-ordering bugs.

All powers are evaluated at in-pulse (peak) time, where the chirp envelope
carries its full transmit power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .arrays import _composites, matched_beamformer, steering_radar
from .channel import ScenarioGeometry, _hop_matrices, path_gain

__all__ = [
    "ReflectionVector",
    "PowerReport",
    "irs_received_powers",
    "link_power",
    "power_report",
    "bilinear_link_power",
]

# link -> (composite kind, per-watt factor of the one-hop gains k_l, k_u);
# per-source powers written so a silent radar (p = 0) degrades cleanly
_LINK_TABLE = {
    "LL": ("U", lambda k_l, k_u, p_l, p_u: k_l**2 * p_l),
    "LU": ("V", lambda k_l, k_u, p_l, p_u: k_l * k_u * p_l),
    "UL": ("R", lambda k_l, k_u, p_l, p_u: k_l * k_u * p_u),
    "UU": ("G", lambda k_l, k_u, p_l, p_u: k_u**2 * p_u),
}
LINKS = tuple(_LINK_TABLE)


@dataclass(frozen=True)
class ReflectionVector:
    """Per-element reflection coefficients: on/off amplitude and phase shift.

    All three arrays are read-only; the coefficients are computed once.
    Two vectors are equal when their amplitudes and phases are.
    """

    amplitudes: np.ndarray  # each entry 0 or 1
    phases: np.ndarray  # radians

    def __post_init__(self):
        amp = np.array(self.amplitudes, dtype=float)
        ph = np.array(self.phases, dtype=float)
        if amp.shape != ph.shape or amp.ndim != 1:
            raise ValueError("amplitudes and phases must be 1D arrays of equal length")
        if not np.all((amp == 0.0) | (amp == 1.0)):
            raise ValueError("amplitudes must be 0 or 1")
        if not np.isfinite(ph).all():
            raise ValueError("phases must be finite")
        amp.flags.writeable = ph.flags.writeable = False
        object.__setattr__(self, "amplitudes", amp)
        object.__setattr__(self, "phases", ph)

    @classmethod
    def on(cls, phases: np.ndarray) -> "ReflectionVector":
        """All elements reflecting, with the given phase shifts."""
        phases = np.asarray(phases, dtype=float)
        return cls(np.ones_like(phases), phases)

    @classmethod
    def off(cls, n: int) -> "ReflectionVector":
        """All elements absorbing (step-I state)."""
        return cls(np.zeros(n), np.zeros(n))

    @cached_property
    def coefficients(self) -> np.ndarray:
        coeff = self.amplitudes * np.exp(1j * self.phases)
        coeff.flags.writeable = False
        return coeff

    def __len__(self) -> int:
        return self.amplitudes.shape[0]

    # by value, element for element: the generated methods would compare and
    # hash the arrays as objects
    def __eq__(self, other) -> bool:
        if not isinstance(other, ReflectionVector):
            return NotImplemented
        return np.array_equal(self.amplitudes, other.amplitudes) and np.array_equal(self.phases, other.phases)

    def __hash__(self) -> int:
        return hash((tuple(self.amplitudes.tolist()), tuple(self.phases.tolist())))


@dataclass(frozen=True)
class PowerReport:
    """All received-power figures for one reflection vector and scenario.

    ``q_ls``/``q_us`` are the powers arriving at the reflector from each
    radar; ``q_ll`` .. ``q_uu`` the single-source link powers at the radar
    receivers (first letter: source, second: destination); ``q_ol``/``q_ou``
    the expected overlapped-case powers, which decompose exactly as
    q_ol = q_ll + q_ul and q_ou = q_lu + q_uu because the random reference
    phases kill the cross terms in expectation.
    """

    q_ls: float
    q_us: float
    q_ll: float
    q_lu: float
    q_ul: float
    q_uu: float
    q_ol: float
    q_ou: float


class _Steering:
    """The steering vectors of one geometry that one power evaluation reads.

    ``kinds`` names the composites it reads. A matched beam needs no radar
    vector: its gain is abar^2 |b^H b / sqrt(M)|^2 = abar^2 M. A radar's
    transmit vector b is built on the first explicit beam, once; receive is
    its exact conjugate.
    """

    def __init__(self, geom: ScenarioGeometry, kinds: str = ""):
        self.geom = geom
        self.composites = _composites(kinds, geom.angles_l, geom.angles_u, geom.irs_spec)
        self.radar = {}  # side -> the vector its beams meet, built on its first explicit beam

    def gain(self, side: str, w=None) -> float:
        """One-hop power gain per watt, abar^2 |array response|^2, of a radar's beam (matched if None)."""
        g = self.geom
        if side == "L":
            spec, angles, dist = g.lrs_spec, g.angles_l, g.dist_li
        else:
            spec, angles, dist = g.urs_spec, g.angles_u, g.dist_ui
        abar = g.irs_spec.wavelength / (4.0 * np.pi * dist)  # path_gain's expression
        if w is None:
            return float(abar**2 * spec.size)
        if side not in self.radar:
            b = steering_radar(spec, angles)
            # the unauthorized radar's echo goes through the receive-sense vector conj(b)
            self.radar[side] = b if side == "L" else np.conj(b)
        w = np.asarray(w, dtype=complex)
        response = np.vdot(self.radar[side], w) if side == "L" else w @ self.radar[side]
        return float(abs(abar * response) ** 2)

    def array_gain(self, kind: str, coeff: np.ndarray) -> float:
        """|composite^H theta|^2 for one composite kind."""
        return abs(np.vdot(self.composites[kind], coeff)) ** 2

    def report(self, gains: dict, p_l: float, p_u: float) -> PowerReport:
        """The matched-beam power report whose array gain for composite kind k is ``gains[k]``."""
        k_l, k_u = self.gain("L"), self.gain("U")
        q_ll, q_lu, q_ul, q_uu = [factor(k_l, k_u, p_l, p_u) * gains[kind] for kind, factor in _LINK_TABLE.values()]
        return PowerReport(
            q_ls=float(k_l * p_l), q_us=float(k_u * p_u),
            q_ll=float(q_ll), q_lu=float(q_lu), q_ul=float(q_ul), q_uu=float(q_uu),
            q_ol=float(q_ll + q_ul), q_ou=float(q_lu + q_uu),
        )

    def reflection_report(self, coeff: np.ndarray, p_l: float, p_u: float) -> PowerReport:
        """The matched-beam power report of one reflection's coefficients."""
        return self.report({kind: self.array_gain(kind, coeff) for kind in "UVRG"}, p_l, p_u)


def _check_inputs(geom: ScenarioGeometry, p_l, p_u, w_l=None, w_u=None) -> None:
    """Reject an argument that would give a negative or non-finite power; p = 0 is a silent radar."""
    if not (math.isfinite(p_l) and p_l >= 0):
        raise ValueError(f"p_l must be finite and >= 0, got {p_l}")
    if not (math.isfinite(p_u) and p_u >= 0):
        raise ValueError(f"p_u must be finite and >= 0, got {p_u}")
    if w_l is not None or w_u is not None:
        for name, w, spec in (("w_l", w_l, geom.lrs_spec), ("w_u", w_u, geom.urs_spec)):
            if w is not None and (np.shape(w) != (spec.size,) or not np.all(np.isfinite(w))):
                raise ValueError(f"{name} must be a finite vector of length {spec.size}")


def _check_theta(geom: ScenarioGeometry, theta) -> None:
    """Reject a reflection that is not a ReflectionVector of the reflector's length."""
    if not isinstance(theta, ReflectionVector):
        raise ValueError(f"theta must be a ReflectionVector, got {type(theta).__name__}")
    if len(theta) != geom.irs_spec.size:
        raise ValueError(f"theta has {len(theta)} elements, the reflector {geom.irs_spec.size}")


def irs_received_powers(
    geom: ScenarioGeometry, p_l: float, p_u: float, w_l=None, w_u=None
) -> tuple[float, float]:
    """In-pulse powers received at the reflector from each radar.

    Beamformers must be unit norm; they default to the match for the true
    target direction, which yields the coherent values abar^2 * M * P.
    """
    _check_inputs(geom, p_l, p_u, w_l=w_l, w_u=w_u)
    steering = _Steering(geom)
    return steering.gain("L", w_l) * p_l, steering.gain("U", w_u) * p_u


def link_power(
    link: str,
    theta: ReflectionVector,
    geom: ScenarioGeometry,
    p_l: float,
    p_u: float,
    w_l=None,
    w_u=None,
) -> float:
    """Closed-form received power of one single-source link, in watts.

    ``link`` names source and destination: "LL", "LU", "UL" or "UU".
    """
    if link not in LINKS:
        raise ValueError(f"link must be one of {LINKS}, got {link!r}")
    _check_inputs(geom, p_l, p_u, w_l, w_u)
    _check_theta(geom, theta)
    kind, factor = _LINK_TABLE[link]
    steering = _Steering(geom, kind)
    k_l, k_u = steering.gain("L", w_l), steering.gain("U", w_u)
    return float(factor(k_l, k_u, p_l, p_u) * steering.array_gain(kind, theta.coefficients))


def power_report(
    theta: ReflectionVector, geom: ScenarioGeometry, p_l: float, p_u: float
) -> PowerReport:
    """Evaluate every power figure for one reflection vector, with matched beamformers."""
    _check_inputs(geom, p_l, p_u)
    _check_theta(geom, theta)
    return _Steering(geom, "UVRG").reflection_report(theta.coefficients, p_l, p_u)


def bilinear_link_power(
    link: str,
    theta: ReflectionVector,
    geom: ScenarioGeometry,
    p_l: float,
    p_u: float,
    w_l=None,
    w_u=None,
    nu_l: float = 0.0,
    nu_u: float = 0.0,
) -> float:
    """Guard path: the same link power via the full channel-matrix product.

    Builds the rank-1 hop matrices explicitly and evaluates
    |w_dst^T H_dst,I diag(theta) H_I,src w_src|^2 * P_src, applying
    diag(theta) entrywise. Must equal :func:`link_power` to within
    floating-point error for every input; kept to protect the closed forms
    against element-ordering mistakes.
    """
    if link not in LINKS:
        raise ValueError(f"link must be one of {LINKS}, got {link!r}")
    _check_inputs(geom, p_l, p_u, w_l, w_u)
    _check_theta(geom, theta)
    for name, nu in (("nu_l", nu_l), ("nu_u", nu_u)):
        if not math.isfinite(nu):
            raise ValueError(f"{name} must be finite, got {nu}")
    w_l = np.asarray(matched_beamformer(geom.lrs_spec, geom.angles_l) if w_l is None else w_l, dtype=complex)
    w_u = np.asarray(matched_beamformer(geom.urs_spec, geom.angles_u) if w_u is None else w_u, dtype=complex)
    # each phase wrapped to [0, 2 pi) first: exp of the raw phase differs in the last bits
    h_li, h_il, h_ui, h_iu = _hop_matrices(
        geom,
        path_gain(geom.dist_li, geom.wavelength) * np.exp(1j * (nu_l % (2 * np.pi))),
        path_gain(geom.dist_ui, geom.wavelength) * np.exp(1j * (nu_u % (2 * np.pi))),
    )
    src, dst = link[0], link[1]
    h_in = h_il @ w_l if src == "L" else h_iu @ w_u
    p_src = p_l if src == "L" else p_u
    h_out = h_li if dst == "L" else h_ui
    w_dst = w_l if dst == "L" else w_u
    amp = w_dst @ (h_out @ (theta.coefficients * h_in))
    return float(abs(amp) ** 2 * p_src)

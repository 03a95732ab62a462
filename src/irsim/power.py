"""Received-power evaluation at the reflector and at both radars.

Production path: the closed forms in which every link power factors into
(received power at the reflector) x (reflection-domain array gain
|composite^H theta|^2). One table, ``_LINK_TABLE``, gives each link its
composite and its per-watt factor; link powers (beam scans), power reports
(CPIs) and the random-phase baseline all evaluate through it. Guard path:
:func:`bilinear_link_power` evaluates the full beamformer/channel-matrix
product and must agree with the closed forms to machine precision; it
exists to catch element-ordering bugs.

All powers are evaluated at in-pulse (peak) time, where the chirp envelope
carries its full transmit power.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import composite_vector, matched_beamformer, steering_radar
from .channel import LinkGain, ScenarioGeometry, build_channels, path_gain

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
    """Per-element reflection coefficients: on/off amplitude and phase shift."""

    amplitudes: np.ndarray  # each entry 0 or 1
    phases: np.ndarray  # radians

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=float)
        ph = np.asarray(self.phases, dtype=float)
        if amp.shape != ph.shape or amp.ndim != 1:
            raise ValueError("amplitudes and phases must be 1D arrays of equal length")
        if not np.all((amp == 0.0) | (amp == 1.0)):
            raise ValueError("amplitudes must be 0 or 1")
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

    @property
    def coefficients(self) -> np.ndarray:
        return self.amplitudes * np.exp(1j * self.phases)

    def __len__(self) -> int:
        return self.amplitudes.shape[0]


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


def _beamformers(geom: ScenarioGeometry, w_l, w_u) -> tuple[np.ndarray, np.ndarray]:
    if w_l is None:
        w_l = matched_beamformer(geom.lrs_spec, geom.angles_l)
    if w_u is None:
        w_u = matched_beamformer(geom.urs_spec, geom.angles_u)
    return np.asarray(w_l, dtype=complex), np.asarray(w_u, dtype=complex)


def _unit_power_gains(geom: ScenarioGeometry, w_l, w_u) -> tuple[float, float]:
    """One-hop power gains per watt transmitted: abar^2 |array response|^2."""
    w_l, w_u = _beamformers(geom, w_l, w_u)
    abar_l = path_gain(geom.dist_li, geom.wavelength)
    abar_u = path_gain(geom.dist_ui, geom.wavelength)
    b_tx = steering_radar(geom.lrs_spec, geom.angles_l, "transmit")
    c_rx = steering_radar(geom.urs_spec, geom.angles_u, "receive")
    return (
        float(abs(abar_l * np.vdot(b_tx, w_l)) ** 2),
        float(abs(abar_u * (w_u @ c_rx)) ** 2),
    )


def irs_received_powers(
    geom: ScenarioGeometry, p_l: float, p_u: float, w_l=None, w_u=None
) -> tuple[float, float]:
    """In-pulse powers received at the reflector from each radar.

    Beamformers must be unit norm; they default to the match for the true
    target direction, which yields the coherent values abar^2 * M * P.
    """
    k_l, k_u = _unit_power_gains(geom, w_l, w_u)
    return k_l * p_l, k_u * p_u


def _array_gain(kind: str, geom: ScenarioGeometry, coeff: np.ndarray) -> float:
    """|composite^H theta|^2 for one composite kind ("U", "V", "R" or "G")."""
    comp = composite_vector(kind, geom.angles_l, geom.angles_u, geom.irs_spec)
    return abs(np.vdot(comp, coeff)) ** 2


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
    kind, factor = _LINK_TABLE[link]
    k_l, k_u = _unit_power_gains(geom, w_l, w_u)
    return float(factor(k_l, k_u, p_l, p_u) * _array_gain(kind, geom, theta.coefficients))


def _report_from_gains(gains: dict, geom: ScenarioGeometry, p_l, p_u) -> PowerReport:
    """The matched-beam power report whose array gain for composite kind k is ``gains[k]``."""
    k_l, k_u = _unit_power_gains(geom, None, None)
    q_ll, q_lu, q_ul, q_uu = (
        factor(k_l, k_u, p_l, p_u) * gains[kind] for kind, factor in _LINK_TABLE.values()
    )
    return PowerReport(
        q_ls=float(k_l * p_l), q_us=float(k_u * p_u),
        q_ll=float(q_ll), q_lu=float(q_lu), q_ul=float(q_ul), q_uu=float(q_uu),
        q_ol=float(q_ll + q_ul), q_ou=float(q_lu + q_uu),
    )


def power_report(
    theta: ReflectionVector, geom: ScenarioGeometry, p_l: float, p_u: float
) -> PowerReport:
    """Evaluate every power figure for one reflection vector, with matched beamformers."""
    coeff = theta.coefficients
    gains = {kind: _array_gain(kind, geom, coeff) for kind in "UVRG"}
    return _report_from_gains(gains, geom, p_l, p_u)


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
    |w_dst^T H_dst,I diag(theta) H_I,src w_src|^2 * P_src. Must equal
    :func:`link_power` to within floating-point error for every input; kept
    to protect the closed forms against element-ordering mistakes.
    """
    if link not in LINKS:
        raise ValueError(f"link must be one of {LINKS}, got {link!r}")
    w_l, w_u = _beamformers(geom, w_l, w_u)
    gains = (
        LinkGain(path_gain(geom.dist_li, geom.wavelength), nu_l),
        LinkGain(path_gain(geom.dist_ui, geom.wavelength), nu_u),
    )
    ch = build_channels(geom, gains)
    d = np.diag(theta.coefficients)
    src, dst = link[0], link[1]
    h_in = ch.h_il @ w_l if src == "L" else ch.h_iu @ w_u
    p_src = p_l if src == "L" else p_u
    h_out = ch.h_li if dst == "L" else ch.h_ui
    w_dst = w_l if dst == "L" else w_u
    amp = w_dst @ (h_out @ (d @ h_in))
    return float(abs(amp) ** 2 * p_src)

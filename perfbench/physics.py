"""The benchmark's own reference physics, written in plain numpy.

Nothing here imports irsim. The checks compare the program's outputs with
these independent computations: the full channel-matrix product of a link
power, the coherent (uncapped) energy bound, the bare-target radar-range
baseline and the timing-case durations. They follow the conventions stated
in the repository README (one-way gain wavelength / (4 pi d) per hop, first
array axis is the outer Kronecker factor, matched unit-norm beamformers).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Array:
    """Uniform planar array: element counts per axis, spacing, wavelength."""

    count_a: int
    count_b: int
    spacing: float
    wavelength: float

    @property
    def size(self) -> int:
        return self.count_a * self.count_b


@dataclass(frozen=True)
class Scene:
    """Both radars seen from the reflector: (elevation, azimuth) and distance."""

    angles_l: tuple[float, float]
    angles_u: tuple[float, float]
    dist_l: float
    dist_u: float
    lrs: Array
    urs: Array
    irs: Array

    @property
    def wavelength(self) -> float:
        return self.irs.wavelength


def _steer(count: int, spacing: float, wavelength: float, zeta: float) -> np.ndarray:
    return np.exp(2j * np.pi * (spacing / wavelength) * zeta * np.arange(count))


def irs_steering(arr: Array, angles, sign: float) -> np.ndarray:
    """Reflector steering vector; sign +1 incident, -1 reflected (specular)."""
    elev, azim = angles
    zx = sign * np.sin(elev) * np.cos(azim)
    zy = sign * np.sin(elev) * np.sin(azim)
    return np.kron(
        _steer(arr.count_a, arr.spacing, arr.wavelength, zx),
        _steer(arr.count_b, arr.spacing, arr.wavelength, zy),
    )


def radar_steering(arr: Array, angles, sign: float) -> np.ndarray:
    """Radar steering vector; sign +1 transmit, -1 receive."""
    elev, azim = angles
    zy = sign * np.sin(elev) * np.sin(azim)
    zz = sign * np.cos(elev)
    return np.kron(
        _steer(arr.count_a, arr.spacing, arr.wavelength, zy),
        _steer(arr.count_b, arr.spacing, arr.wavelength, zz),
    )


def path_gain(dist: float, wavelength: float) -> float:
    return wavelength / (4.0 * np.pi * dist)


def composite(scene: Scene, kind: str) -> np.ndarray:
    """Effective per-element channel of one source -> reflector -> destination hop."""
    dst, src = {"U": ("l", "l"), "V": ("u", "l"), "R": ("l", "u"), "G": ("u", "u")}[kind]
    ang = {"l": scene.angles_l, "u": scene.angles_u}
    return irs_steering(scene.irs, ang[dst], -1.0) * np.conj(irs_steering(scene.irs, ang[src], 1.0))


class FullProduct:
    """Link powers from explicit rank-1 hop matrices and matched beamformers.

    ``power(link, thetas)`` evaluates |w_dst^T H_dst,I diag(theta) H_I,src w_src|^2 P_src
    for every row of ``thetas`` at zero reference phases.
    """

    def __init__(self, scene: Scene, p_l: float, p_u: float):
        a_l = path_gain(scene.dist_l, scene.wavelength)
        a_u = path_gain(scene.dist_u, scene.wavelength)
        b_tx = radar_steering(scene.lrs, scene.angles_l, 1.0)
        c_tx = radar_steering(scene.urs, scene.angles_u, 1.0)
        b_rx = radar_steering(scene.lrs, scene.angles_l, -1.0)
        c_rx = radar_steering(scene.urs, scene.angles_u, -1.0)
        self.w = {"L": b_tx / np.sqrt(scene.lrs.size), "U": c_tx / np.sqrt(scene.urs.size)}
        self.p = {"L": p_l, "U": p_u}
        self.h_in = {
            "L": a_l * np.outer(irs_steering(scene.irs, scene.angles_l, 1.0), np.conj(b_tx)),
            "U": a_u * np.outer(irs_steering(scene.irs, scene.angles_u, 1.0), np.conj(c_tx)),
        }
        self.h_out = {
            "L": a_l * np.outer(b_rx, np.conj(irs_steering(scene.irs, scene.angles_l, -1.0))),
            "U": a_u * np.outer(c_rx, np.conj(irs_steering(scene.irs, scene.angles_u, -1.0))),
        }

    def power(self, link: str, thetas: np.ndarray) -> np.ndarray:
        src, dst = link[0], link[1]
        incoming = self.h_in[src] @ self.w[src]  # field arriving at each element
        outgoing = self.w[dst] @ self.h_out[dst]  # row vector back to the receiver
        amps = np.atleast_2d(thetas) @ (outgoing * incoming)
        return np.abs(amps) ** 2 * self.p[src]


def unit_gains(scene: Scene) -> tuple[float, float]:
    """One-hop power gain per watt with a matched beam: abar^2 * element count."""
    k_l = path_gain(scene.dist_l, scene.wavelength) ** 2 * scene.lrs.size
    k_u = path_gain(scene.dist_u, scene.wavelength) ** 2 * scene.urs.size
    return k_l, k_u


def case_durations(lrs: tuple[float, float], urs: tuple[float, float]):
    """(t_case1, t_case2, t_overlap) for (start, duration) pulses inside one PRI (no wrap)."""
    (s_l, d_l), (s_u, d_u) = lrs, urs
    t3 = max(0.0, min(s_l + d_l, s_u + d_u) - max(s_l, s_u))
    return d_l - t3, d_u - t3, t3


def coherent_energy_bound(scene: Scene, p_l: float, p_u: float, durations, n_pris: int) -> float:
    """LRS step-II energy with every case coherently aligned and no cap.

    Each link gain |c^H theta|^2 is at most N^2 for a unit-modulus theta, so
    no reflection schedule can collect more.
    """
    k_l, k_u = unit_gains(scene)
    n2 = float(scene.irs.size) ** 2
    own, cross = k_l**2 * p_l * n2, k_l * k_u * p_u * n2
    t1, t2, t3 = durations
    return n_pris * (t1 * own + t2 * cross + t3 * (own + cross))


def bare_target_power(scene: Scene, p_l: float, echo_ratio: float) -> float:
    """Monostatic radar-range echo of the bare target at the LRS (a plate of the reflector's size)."""
    area = echo_ratio * scene.irs.size * scene.irs.spacing**2
    rcs = 4.0 * np.pi * area**2 / scene.wavelength**2
    return p_l * scene.lrs.size**2 * scene.wavelength**2 * rcs / ((4.0 * np.pi) ** 3 * scene.dist_l**4)


def close(a: float, b: float, rtol: float, scale: float = 0.0) -> bool:
    """|a - b| within rtol of the larger magnitude (or of ``scale`` for near-zero values)."""
    return abs(a - b) <= rtol * max(abs(a), abs(b), scale)

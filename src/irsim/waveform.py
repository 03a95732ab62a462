"""Pulse waveforms and PRI timing.

Both radars transmit one linear-FM (chirp) pulse per PRI. Within a PRI the
two pulse supports partition the active time into three cases: legitimate
signal only (case 1), unauthorized signal only (case 2), and overlapped
(case 3, duration ``t_overlap``). All power metrics downstream are closed
form, so waveforms are evaluated analytically; no sample grid exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

__all__ = ["PulseSpec", "TimingPlan", "pulse_sample", "segment_pri"]

Interval = tuple[float, float]


@dataclass(frozen=True)
class PulseSpec:
    """One radar chirp pulse: power, duration, bandwidth, start within the PRI."""

    power: float
    duration: float
    bandwidth: float
    start_offset: float = 0.0

    def __post_init__(self):
        # every message reads "field rule": the configuration maps the field
        # to the INI key it came from
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if self.power <= 0:
            raise ValueError("power must be positive")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.bandwidth < 0:
            raise ValueError("bandwidth must be >= 0")
        if self.start_offset < 0:
            raise ValueError("start_offset must be >= 0")

    @property
    def support(self) -> Interval:
        return (self.start_offset, self.start_offset + self.duration)


@dataclass(frozen=True)
class TimingPlan:
    """Shared PRI, pulses per coherent-processing interval, and both pulses.

    Both radars must use the same PRI; unequal PRIs are rejected where the
    configuration is parsed. Pulses must fit inside the PRI without wrap.
    """

    pri: float
    pulses_per_cpi: int
    lrs: PulseSpec
    urs: PulseSpec

    def __post_init__(self):
        # every message reads "[radar] field rule", as PulseSpec's do
        if not math.isfinite(self.pri):
            raise ValueError("pri must be finite")
        if self.pri <= 0:
            raise ValueError("pri must be positive")
        if self.pulses_per_cpi < 1:
            raise ValueError("pulses_per_cpi must be >= 1")
        for name, pulse in (("lrs", self.lrs), ("urs", self.urs)):
            if pulse.duration >= self.pri:
                raise ValueError(f"{name} duration must be < pri")
            if pulse.start_offset + pulse.duration > self.pri:
                raise ValueError(f"{name} start_offset must be <= pri - duration")


def pulse_sample(spec: PulseSpec, t):
    """Complex chirp value sqrt(P) exp(j pi B (t - start)^2 / duration) in-pulse, else 0.

    Accepts a scalar or an ndarray of times.
    """
    t = np.asarray(t, dtype=float)
    start, stop = spec.support
    tau = t - start
    inside = (t >= start) & (t < stop)
    phase = np.pi * spec.bandwidth * tau**2 / spec.duration
    out = np.where(inside, np.sqrt(spec.power) * np.exp(1j * phase), 0.0 + 0.0j)
    return out[()] if out.ndim == 0 else out


def segment_pri(plan: TimingPlan) -> tuple[float, float, float]:
    """Durations (t_case1, t_case2, t_overlap) of the three reflection cases.

    The overlap is the intersection of the two pulse supports (possibly
    empty); case 1 and case 2 are the rest of the legitimate and of the
    unauthorized pulse.
    """
    (a0, a1), (b0, b1) = plan.lrs.support, plan.urs.support
    lo, hi = max(a0, b0), min(a1, b1)
    if hi <= lo:
        return a1 - a0, b1 - b0, 0.0
    return max(lo - a0, 0.0) + max(a1 - hi, 0.0), max(lo - b0, 0.0) + max(b1 - hi, 0.0), hi - lo

"""Pulse waveforms and PRI timing.

Both radars transmit one linear-FM (chirp) pulse per PRI. Within a PRI the
two pulse supports partition the active time into three cases: legitimate
signal only (case 1), unauthorized signal only (case 2), and overlapped
(case 3, duration ``t_overlap``). All power metrics downstream are closed
form, so waveforms are evaluated analytically; no sample grid exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["PulseSpec", "TimingPlan", "CaseSegments", "pulse_sample", "segment_pri"]

Interval = tuple[float, float]


@dataclass(frozen=True)
class PulseSpec:
    """One radar chirp pulse: power, duration, bandwidth, start within the PRI."""

    power: float
    duration: float
    bandwidth: float
    start_offset: float = 0.0

    def __post_init__(self):
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
        if self.pri <= 0:
            raise ValueError("pri must be positive")
        if self.pulses_per_cpi < 1:
            raise ValueError("pulses_per_cpi must be >= 1")
        for name, pulse in (("lrs", self.lrs), ("urs", self.urs)):
            if pulse.duration >= self.pri:
                raise ValueError(f"{name} pulse duration must be < pri")
            if pulse.start_offset >= self.pri:
                raise ValueError(f"{name} start_offset must be < pri")
            if pulse.start_offset + pulse.duration > self.pri:
                raise ValueError(f"{name} pulse must not wrap past the end of the pri")


@dataclass(frozen=True)
class CaseSegments:
    """Disjoint time intervals of the three reflection cases within one PRI."""

    case1: list[Interval] = field(default_factory=list)  # legitimate only
    case2: list[Interval] = field(default_factory=list)  # unauthorized only
    case3: list[Interval] = field(default_factory=list)  # overlapped
    t_overlap: float = 0.0

    @staticmethod
    def _measure(intervals: list[Interval]) -> float:
        return float(sum(b - a for a, b in intervals))

    @property
    def t_case1(self) -> float:
        return self._measure(self.case1)

    @property
    def t_case2(self) -> float:
        return self._measure(self.case2)


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


def _intersect(a: Interval, b: Interval) -> Interval | None:
    lo, hi = max(a[0], b[0]), min(a[1], b[1])
    return (lo, hi) if hi > lo else None


def _subtract(a: Interval, b: Interval) -> list[Interval]:
    """a \\ b as up to two intervals."""
    cut = _intersect(a, b)
    if cut is None:
        return [a]
    parts = []
    if cut[0] > a[0]:
        parts.append((a[0], cut[0]))
    if a[1] > cut[1]:
        parts.append((cut[1], a[1]))
    return parts


def segment_pri(plan: TimingPlan) -> CaseSegments:
    """Split the two pulse supports into the three reflection cases.

    case3 is the intersection of the supports (t_overlap = its measure,
    possibly 0), case1/case2 are the respective set differences.
    """
    lrs_sup, urs_sup = plan.lrs.support, plan.urs.support
    overlap = _intersect(lrs_sup, urs_sup)
    case3 = [overlap] if overlap else []
    return CaseSegments(
        case1=_subtract(lrs_sup, urs_sup),
        case2=_subtract(urs_sup, lrs_sup),
        case3=case3,
        t_overlap=(overlap[1] - overlap[0]) if overlap else 0.0,
    )

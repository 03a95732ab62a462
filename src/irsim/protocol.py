"""Two-step CPI protocol: sense with reflectors off, then reflect optimally.

Step I of every coherent-processing interval keeps all reflector elements
absorbing while the mounted sensors estimate angles, timing and received
powers (estimation itself is abstracted: true values plus a configurable
error). Step II applies optimized reflections: either one vector per
timing case within each PRI (short-term) or a single fixed vector for the
whole step (long-term). Reflections are designed from the estimated
parameters but all reported powers are evaluated with the true ones, one
power report per distinct reflection, all from one table of the true
geometry's steering vectors. One reduction, ``_step2_figures``,
turns a report into the step-II energy and URS peak, for CPIs and baselines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .channel import ScenarioGeometry
from .power import PowerReport, ReflectionVector, _check_inputs, _Steering
from .optimizer import (
    Infeasible,
    build_problem,
    pdd_solve_with_candidates,
)
from .waveform import TimingPlan, segment_pri

__all__ = [
    "ProtocolMode",
    "EstimationError",
    "CpiResult",
    "run_cpi",
    "no_irs_baseline_power",
    "default_rcs",
    "random_phase_baseline",
]

VARIANTS = ("short_term", "long_term")
# complex entries per block of random_phase_baseline draws
_BLOCK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class ProtocolMode:
    """Which reflection schedule step II ran, with the vectors it applied.

    Short-term carries (theta_1, theta_2, theta_3) for the three timing
    cases; long-term carries the single fixed (theta_0,).
    """

    variant: str
    reflections: tuple[ReflectionVector, ...]

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        want = 3 if self.variant == "short_term" else 1
        if len(self.reflections) != want:
            raise ValueError(f"{self.variant} carries {want} reflection vectors")


@dataclass(frozen=True)
class EstimationError:
    """Step-I estimation error model.

    ``angle_offset`` is added deterministically to every estimated angle
    component; ``angle_sigma`` adds an independent Gaussian draw per
    component per CPI; ``power_rel_error`` scales both measured reflector
    powers by (1 + err).
    """

    angle_offset: float = 0.0
    angle_sigma: float = 0.0
    power_rel_error: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if self.angle_sigma < 0:
            raise ValueError("angle_sigma must be >= 0")
        if abs(self.power_rel_error) >= 1:
            raise ValueError("power_rel_error must lie in (-1, 1)")


@dataclass(frozen=True)
class CpiResult:
    """Outcome of one CPI simulation."""

    lrs_energy: float  # joules collected at the legitimate radar over step II
    urs_peak_power: float  # largest per-case power seen at the unauthorized radar
    powers: PowerReport  # per-case powers as physically realized
    mode: ProtocolMode
    feasible: bool
    iterations: int  # summed solver outer iterations


def _perturb_angles(geom: ScenarioGeometry, err: EstimationError, rng) -> ScenarioGeometry:
    if err.angle_offset == 0 and err.angle_sigma == 0:
        return geom
    def shift(angles):
        d = np.full(2, err.angle_offset)
        if err.angle_sigma > 0:
            d = d + rng.normal(0.0, err.angle_sigma, size=2)
        elev = float(np.clip(angles.elevation + d[0], 0.0, np.pi))
        return replace(angles, elevation=elev, azimuth=angles.azimuth + d[1])
    return replace(geom, angles_l=shift(geom.angles_l), angles_u=shift(geom.angles_u))


def run_cpi(
    geom: ScenarioGeometry,
    plan: TimingPlan,
    variant: str,
    gamma: float,
    p_l: float,
    p_u: float,
    p_u_min: float | None = None,
    err: EstimationError = EstimationError(),
    rng: np.random.Generator | None = None,
    step1_pris: int = 1,
    warm: ProtocolMode | None = None,
) -> CpiResult:
    """Simulate one CPI of the two-step protocol.

    The reflection design sees the estimated (perturbed) angles and powers;
    energies and the unauthorized-side peak are then evaluated with the
    true scenario. The long-term vector is always solved and, in short-term
    mode, also offered as a feasible fallback candidate to every per-case
    problem (its cap constraint dominates each per-case cap), which makes
    the short-term energy dominate the long-term one by construction.

    ``warm`` carries the reflections of a related already-solved CPI (e.g.
    the previous point of a cap sweep); they are offered as additional
    candidates wherever they satisfy the current cap, which makes sweep
    results monotone in a growing cap.

    An infeasible cap level flags the result and shuts the reflector off
    for the whole CPI.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    _check_inputs(geom, p_l, p_u)
    if not 1 <= step1_pris < plan.pulses_per_cpi:
        raise ValueError("step1_pris must leave at least one step-II PRI")
    if p_u_min is None:
        # placeholder scale when the unauthorized radar is silent: the cap
        # vectors are all-zero then and the scale never enters
        p_u_min = p_u if p_u > 0 else 1.0
    rng = rng or np.random.default_rng(0)
    t1, t2, t3 = segment_pri(plan)
    n_pris = plan.pulses_per_cpi - step1_pris

    # step I: measurements (perturbed), reflectors absorbing
    est_geom = _perturb_angles(geom, err, rng)
    # one table of the true geometry serves step I and every report of step
    # II, and the design as well when the angles are estimated exactly
    true = _Steering(geom, "UVRG")
    design = true if est_geom is geom else _Steering(est_geom, "UVRG")
    k_l, k_u = true.gains()
    q_ls_est = k_l * p_l * (1.0 + err.power_rel_error)
    q_us_est = k_u * p_u * (1.0 + err.power_rel_error)
    comps_est = tuple(design.composites[k] for k in "UVRG")
    durations = (plan.lrs.duration, plan.urs.duration)
    urs_present = q_us_est > 0
    warm_coeff = [t.coefficients for t in warm.reflections] if warm is not None else []

    feasible = True
    iterations = 0
    off = ReflectionVector.off(geom.irs_spec.size)
    try:
        p4 = build_problem("P4", (q_ls_est, q_us_est), comps_est, durations, gamma, p_u_min)
        res4 = pdd_solve_with_candidates(p4, candidates=warm_coeff)
        iterations += res4.outer_iterations
        theta0 = res4.theta
        if variant == "long_term":
            reflections = (theta0,)
        else:
            def solve_case(case, warm_idx):
                cand = [theta0.coefficients]
                if warm is not None and warm.variant == "short_term":
                    cand.append(warm_coeff[warm_idx])
                prob = build_problem(case, (q_ls_est, q_us_est), comps_est, durations, gamma, p_u_min)
                res = pdd_solve_with_candidates(prob, candidates=cand)
                return res.theta, res.outer_iterations

            # design only the cases that actually occur; a zero-duration case
            # is vacuous and inherits the whole-window vector (at full overlap
            # the case-3 problem is the whole-window problem up to scale)
            th1, th2, th3 = theta0, theta0, theta0
            if t1 > 0:
                th1, it = solve_case("P1", 0)
                iterations += it
            if t2 > 0 and urs_present:
                th2, it = solve_case("P2", 1)
                iterations += it
            if t3 > 0 and urs_present and (t1 > 0 or t2 > 0):
                th3, it = solve_case("P3", 2)
                iterations += it
            if not urs_present:
                th2 = th3 = th1  # no unauthorized signal: cases 2/3 carry nothing
            reflections = (th1, th2, th3)
    except Infeasible:
        feasible = False
        reflections = (off, off, off) if variant == "short_term" else (off,)

    # step II evaluation at the true scenario, one report per distinct vector
    cases = reflections if variant == "short_term" else reflections * 3
    distinct = {id(th): th for th in cases}
    reports = {key: true.reflection_report(th.coefficients, p_l, p_u) for key, th in distinct.items()}
    r1, r2, r3 = (reports[id(th)] for th in cases)
    report = replace(r1, q_ul=r2.q_ul, q_uu=r2.q_uu, q_ol=r3.q_ol, q_ou=r3.q_ou)
    lrs_energy, urs_peak = _step2_figures(report, (t1, t2, t3), n_pris)
    return CpiResult(
        lrs_energy=lrs_energy,
        urs_peak_power=urs_peak,
        powers=report,
        mode=ProtocolMode(variant, reflections),
        feasible=feasible,
        iterations=iterations,
    )


def _step2_figures(
    report: PowerReport, case_durations: tuple[float, float, float], n_pris: int
) -> tuple[float, float]:
    """(LRS energy, URS peak) of step II; a case of zero duration sets no peak."""
    t1, t2, t3 = case_durations
    energy = n_pris * (t1 * report.q_ll + t2 * report.q_ul + t3 * report.q_ol)
    peaks = [q for t, q in ((t1, report.q_lu), (t2, report.q_uu), (t3, report.q_ou)) if t > 0]
    return float(energy), float(max(peaks, default=0.0))


def default_rcs(irs_spec, echo_ratio: float = 1.2) -> float:
    """Radar cross section of the bare target, tied to the reflector footprint.

    The echo surface is ``echo_ratio`` times the reflector area S = N d^2 and
    the RCS of a flat plate of area A is 4 pi A^2 / lambda^2.
    """
    if not (math.isfinite(echo_ratio) and echo_ratio > 0):
        raise ValueError(f"echo_ratio must be finite and positive, got {echo_ratio}")
    area = echo_ratio * irs_spec.size * irs_spec.spacing**2
    return float(4.0 * np.pi * area**2 / irs_spec.wavelength**2)


def no_irs_baseline_power(
    geom: ScenarioGeometry, rcs: float, p_l: float, p_u: float
) -> tuple[float, float]:
    """Monostatic radar-range-equation echo powers without the reflector.

    Array gain convention: G = element count at transmit and again at
    receive (G^2 total), i.e. both radars beamform coherently onto the
    target. Returns (power at legitimate radar, power at unauthorized
    radar) in watts.
    """
    _check_inputs(geom, p_l, p_u)
    if not (math.isfinite(rcs) and rcs >= 0):
        raise ValueError(f"rcs must be finite and >= 0, got {rcs}")
    lam = geom.wavelength
    def rr(p, count, dist):
        return p * count**2 * lam**2 * rcs / ((4.0 * np.pi) ** 3 * dist**4)
    return (
        float(rr(p_l, geom.lrs_spec.size, geom.dist_li)),
        float(rr(p_u, geom.urs_spec.size, geom.dist_ui)),
    )


def _random_phase_expectation(geom: ScenarioGeometry, p_l: float, p_u: float) -> PowerReport:
    """Exact mean power report over i.i.d. uniform phases.

    E|c^H theta|^2 = ||c||^2, which is the element count N for every
    composite c, because each of its entries has unit modulus.
    """
    n = float(geom.irs_spec.size)
    return _Steering(geom).report(dict.fromkeys("UVRG", n), p_l, p_u)


def random_phase_baseline(
    geom: ScenarioGeometry,
    rng: np.random.Generator,
    draws: int,
    p_l: float,
    p_u: float,
) -> PowerReport:
    """Average matched-beam power report over i.i.d. uniform-phase reflections.

    The draws are streamed in blocks of ``max(2, 2**16 // N)`` rows, so
    memory is O(block·N + draws) instead of O(draws·N). Each row keeps its
    own product with each composite and each mean runs once over all the
    draws, so the report equals, bit for bit, the single-array route
    ``exp(1j * rng.uniform(0, 2π, (draws, N)))``.
    """
    if isinstance(draws, bool) or not isinstance(draws, (int, np.integer)):
        raise ValueError(f"draws must be an integer, got {draws!r}")
    if draws < 1:
        raise ValueError("draws must be >= 1")
    _check_inputs(geom, p_l, p_u)
    steering = _Steering(geom, "UVRG")
    n = geom.irs_spec.size
    # a one-row product takes numpy's vector-dot path, whose sum differs from
    # the matrix-vector one in the last bit, so a block has at least two rows
    # and a lone last row joins the block before it
    block = max(2, _BLOCK_ENTRIES // n)
    conj = {k: np.conj(c) for k, c in steering.composites.items()}
    gains = {k: np.empty(draws) for k in conj}
    # the values of exp(j phases), without a complex temporary per block
    buffer = np.empty((min(block + 1, draws), n), dtype=complex)
    start = 0
    while start < draws:
        rows = min(block, draws - start)
        if draws - start - rows == 1:
            rows += 1
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(rows, n))
        thetas = buffer[:rows]
        np.cos(phases, out=thetas.real)
        np.sin(phases, out=thetas.imag)
        for k, c in conj.items():
            gains[k][start:start + rows] = np.abs(thetas @ c) ** 2
        start += rows
    mean_gain = {k: float(np.mean(g)) for k, g in gains.items()}
    return steering.report(mean_gain, p_l, p_u)

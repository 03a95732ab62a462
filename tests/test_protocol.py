from dataclasses import replace

import numpy as np
import pytest

from irsim import (
    AnglePair,
    ArraySpec,
    EstimationError,
    PowerReport,
    ProtocolMode,
    PulseSpec,
    ReflectionVector,
    ScenarioConfig,
    ScenarioGeometry,
    TimingPlan,
    composite_vector,
    default_rcs,
    no_irs_baseline_power,
    power_report,
    random_phase_baseline,
    run_cpi,
)
from irsim import protocol

from conftest import random_angles

P = 0.03


def small_geometry(rng, n_axis=16):
    return ScenarioGeometry(
        angles_l=random_angles(rng, 0.2, np.pi / 2),
        angles_u=random_angles(rng, 0.2, np.pi / 2),
        dist_li=float(rng.uniform(15, 60)),
        dist_ui=float(rng.uniform(15, 60)),
        lrs_spec=ArraySpec(16, 1, 0.1, 0.2),
        urs_spec=ArraySpec(16, 1, 0.1, 0.2),
        irs_spec=ArraySpec(n_axis, 1, 0.02, 0.2),
    )


def make_plan(t_l=25e-6, t_u=30e-6, urs_start=15e-6, pulses=4):
    return TimingPlan(
        pri=100e-6,
        pulses_per_cpi=pulses,
        lrs=PulseSpec(P, t_l, 100e6, 0.0),
        urs=PulseSpec(P, t_u, 100e6, urs_start),
    )


def gamma_for(geom, frac, rng):
    """A cap at ``frac`` of the cap value of the plain alignment solution."""
    from irsim import build_problem, composite_vector, irs_received_powers, problem_constraint

    comps = tuple(composite_vector(k, geom.angles_l, geom.angles_u, geom.irs_spec) for k in "UVRG")
    q = irs_received_powers(geom, P, P)
    prob = build_problem("P3", q, comps, None, 1.0, P)
    cap = problem_constraint(prob, np.exp(1j * np.angle(prob.Q[:, 0])))
    return float(max(cap * frac, 1e-30))


def test_energy_ordering_random_scenarios(rng):
    # whole-window reflection never beats per-case reflection
    for trial in range(25):
        geom = small_geometry(rng)
        urs_start = float(rng.uniform(0, 60e-6))
        plan = make_plan(urs_start=urs_start)
        gamma = gamma_for(geom, float(rng.uniform(0.05, 2.0)), rng)
        short = run_cpi(geom, plan, "short_term", gamma, P, P)
        long_ = run_cpi(geom, plan, "long_term", gamma, P, P)
        assert short.lrs_energy >= long_.lrs_energy - 1e-9


def test_energy_equality_at_full_overlap(rng):
    for trial in range(5):
        geom = small_geometry(rng)
        plan = make_plan(t_l=30e-6, t_u=30e-6, urs_start=0.0)
        gamma = gamma_for(geom, 0.3, rng)
        short = run_cpi(geom, plan, "short_term", gamma, P, P)
        long_ = run_cpi(geom, plan, "long_term", gamma, P, P)
        if short.lrs_energy > 0:
            gap = abs(short.lrs_energy - long_.lrs_energy) / short.lrs_energy
            assert gap <= 1e-6


def test_security_cap_holds(rng):
    for trial in range(10):
        geom = small_geometry(rng)
        plan = make_plan()
        gamma = gamma_for(geom, float(rng.uniform(0.05, 0.5)), rng)
        for variant in ("short_term", "long_term"):
            cpi = run_cpi(geom, plan, variant, gamma, P, P)
            if cpi.feasible:
                assert cpi.urs_peak_power <= gamma * (1 + 1e-6)


def test_infeasible_cap_shuts_reflector_off(rng):
    # a single-element reflector has a fixed cap value: provably infeasible
    geom = small_geometry(rng, n_axis=1)
    cpi = run_cpi(geom, make_plan(), "short_term", 1e-35, P, P)
    assert not cpi.feasible
    assert cpi.lrs_energy == 0.0
    assert cpi.urs_peak_power == 0.0
    for theta in cpi.mode.reflections:
        assert np.all(theta.amplitudes == 0)


def test_estimation_error_reduces_energy_on_sensitive_geometry(rng):
    # broadside-of-axis geometry: direction cosines respond linearly to azimuth
    geom = ScenarioGeometry(
        angles_l=AnglePair(np.pi / 2, np.pi / 2),
        angles_u=AnglePair(np.pi / 2, np.pi / 2 + 0.3),
        dist_li=30.0,
        dist_ui=20.0,
        lrs_spec=ArraySpec(16, 1, 0.1, 0.2),
        urs_spec=ArraySpec(16, 1, 0.1, 0.2),
        irs_spec=ArraySpec(32, 1, 0.02, 0.2),
    )
    plan = make_plan()
    clean = run_cpi(geom, plan, "short_term", 1.0, P, P)
    noisy = run_cpi(
        geom, plan, "short_term", 1.0, P, P,
        err=EstimationError(angle_offset=np.deg2rad(3.0)),
        rng=np.random.default_rng(0),
    )
    assert noisy.lrs_energy < clean.lrs_energy


def test_estimation_error_gaussian_reproducible(rng):
    geom = small_geometry(rng)
    plan = make_plan()
    err = EstimationError(angle_sigma=np.deg2rad(0.5))
    a = run_cpi(geom, plan, "short_term", 1.0, P, P, err=err, rng=np.random.default_rng(3))
    b = run_cpi(geom, plan, "short_term", 1.0, P, P, err=err, rng=np.random.default_rng(3))
    assert a.lrs_energy == b.lrs_energy


def test_identical_cpi_results_compare_equal(rng):
    # results compare and hash by value, reflection vectors included
    geom = small_geometry(rng)
    plan = make_plan()
    gamma = gamma_for(geom, 0.3, rng)
    results = {}
    for variant in ("short_term", "long_term"):
        a, b = (run_cpi(geom, plan, variant, gamma, P, P) for _ in range(2))
        assert a == b and a.mode == b.mode
        assert hash(a) == hash(b)
        results[variant] = a
    assert results["short_term"] != results["long_term"]


def test_power_measurement_error_applied(rng):
    geom = small_geometry(rng)
    plan = make_plan()
    # a pure power error rescales the design problem; the aligned solution is
    # scale-invariant, so the realized energy must be unchanged without a cap
    clean = run_cpi(geom, plan, "short_term", 1.0, P, P)
    scaled = run_cpi(geom, plan, "short_term", 1.0, P, P,
                     err=EstimationError(power_rel_error=0.2))
    np.testing.assert_allclose(scaled.lrs_energy, clean.lrs_energy, rtol=1e-6)


def test_estimation_error_validation():
    with pytest.raises(ValueError):
        EstimationError(angle_sigma=-0.1)
    with pytest.raises(ValueError):
        EstimationError(power_rel_error=1.0)


def test_protocol_mode_validation():
    off = ReflectionVector.off(4)
    with pytest.raises(ValueError):
        ProtocolMode("short_term", (off,))
    with pytest.raises(ValueError):
        ProtocolMode("weekly", (off,))
    mode = ProtocolMode("long_term", (off,))
    assert mode.variant == "long_term"


def test_baseline_inverse_fourth_power(rng):
    geom = small_geometry(rng)
    rcs = default_rcs(geom.irs_spec)
    near, _ = no_irs_baseline_power(geom, rcs, P, P)
    far_geom = ScenarioGeometry(
        angles_l=geom.angles_l, angles_u=geom.angles_u,
        dist_li=2 * geom.dist_li, dist_ui=geom.dist_ui,
        lrs_spec=geom.lrs_spec, urs_spec=geom.urs_spec, irs_spec=geom.irs_spec,
    )
    far, _ = no_irs_baseline_power(far_geom, rcs, P, P)
    np.testing.assert_allclose(near / far, 16.0, rtol=1e-12)


def test_default_rcs_reference_value():
    # hand evaluation: S = 64 * 0.02^2 = 0.0256, A = 1.2 S = 0.03072,
    # rcs = 4 pi A^2 / 0.2^2
    spec = ArraySpec(64, 1, 0.02, 0.2)
    expect = 4 * np.pi * 0.03072**2 / 0.04
    np.testing.assert_allclose(default_rcs(spec), expect, rtol=1e-12)
    np.testing.assert_allclose(default_rcs(spec), 0.29648, rtol=1e-4)


def test_baseline_zero_rcs():
    cfg = ScenarioConfig.default()
    assert no_irs_baseline_power(cfg.geometry, 0.0, P, P) == (0.0, 0.0)
    with pytest.raises(ValueError):
        no_irs_baseline_power(cfg.geometry, -1.0, P, P)


def test_baseline_rejects_bad_arguments():
    # the power entry points' rule for p_l/p_u, and a finite rcs >= 0
    geom = ScenarioConfig.default().geometry
    good = {"rcs": default_rcs(geom.irs_spec), "p_l": P, "p_u": P}
    bad = [("p_l", -P), ("p_l", np.nan), ("p_u", -P), ("p_u", np.inf), ("rcs", np.nan), ("rcs", np.inf)]
    for name, value in bad:
        with pytest.raises(ValueError, match=name):
            no_irs_baseline_power(geom, **{**good, name: value})


def test_default_rcs_rejects_bad_echo_ratio():
    spec = ArraySpec(64, 1, 0.02, 0.2)
    for ratio in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="echo_ratio"):
            default_rcs(spec, ratio)


def test_random_phase_baseline_statistics(rng):
    geom = small_geometry(rng, n_axis=32)
    rep = random_phase_baseline(geom, np.random.default_rng(5), 10**4, P, P)
    n = geom.irs_spec.size
    # mean reflected gain is N, versus N^2 when aligned
    coherent = rep.q_ls**2 / P * n**2
    assert 0.95 * coherent / n <= rep.q_ll <= 1.05 * coherent / n


@pytest.mark.parametrize("n_axis", [16, 64])
def test_exact_random_phase_report_within_monte_carlo_error(rng, n_axis):
    # every figure of the report is affine in the four array gains, so each
    # figure has a per-draw value; the exact report (gains ||c||^2) lies within
    # 4 standard errors of the Monte-Carlo mean, with the errors computed from
    # the estimator's own draws
    from irsim.power import _Steering
    from irsim.protocol import _random_phase_expectation

    def report(geom, k):
        # each figure's offset (k None) or its value at a unit gain k
        return _Steering(geom).report({j: float(j == k) for j in "UVRG"}, P, P)

    draws = 10**4
    names = list(PowerReport.__dataclass_fields__)
    for trial in range(3):
        geom = small_geometry(rng, n_axis=n_axis)
        seed = 100 + trial
        mc = random_phase_baseline(geom, np.random.default_rng(seed), draws, P, P)
        exact = _random_phase_expectation(geom, P, P)
        thetas = np.exp(1j * np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, (draws, n_axis)))
        comps = {k: composite_vector(k, geom.angles_l, geom.angles_u, geom.irs_spec) for k in "UVRG"}
        gains = {k: np.abs(thetas @ np.conj(c)) ** 2 for k, c in comps.items()}
        zero, unit = report(geom, None), {k: report(geom, k) for k in "UVRG"}
        for name in names:
            base = getattr(zero, name)
            per_draw = base + sum((getattr(unit[k], name) - base) * gains[k] for k in "UVRG")
            se = np.std(per_draw, ddof=1) / np.sqrt(draws)
            assert getattr(mc, name) == pytest.approx(np.mean(per_draw), rel=1e-9)
            assert abs(getattr(exact, name) - getattr(mc, name)) <= 4 * se, name


@pytest.mark.parametrize(
    "p_l, p_u, zero, kept",
    [(P, 0.0, ("q_ul", "q_uu"), ("q_ll", "q_lu")), (0.0, P, ("q_ll", "q_lu"), ("q_ul", "q_uu"))],
    ids=["silent_urs", "silent_lrs"],
)
def test_random_phase_baseline_silent_radar(rng, p_l, p_u, zero, kept):
    # a silent radar zeroes the links it sources and leaves the other two as they were
    geom = small_geometry(rng)
    both = random_phase_baseline(geom, np.random.default_rng(3), 200, P, P)
    rep = random_phase_baseline(geom, np.random.default_rng(3), 200, p_l, p_u)
    assert all(np.isfinite(getattr(rep, f)) for f in rep.__dataclass_fields__)
    for name in zero:
        assert getattr(rep, name) == 0.0
    for name in kept:
        assert getattr(rep, name) == getattr(both, name) > 0.0


def test_short_term_powers_come_from_their_case_reflections(rng):
    # q_ll/q_lu from theta_1, q_ul/q_uu from theta_2, q_ol/q_ou from theta_3
    for trial in range(20):
        geom = small_geometry(rng)
        gamma = gamma_for(geom, 0.3, rng)
        cpi = run_cpi(geom, make_plan(), "short_term", gamma, P, P)
        if cpi.feasible and len({th.phases.tobytes() for th in cpi.mode.reflections}) == 3:
            break
    else:
        pytest.fail("no feasible CPI with three distinct reflections")
    r1, r2, r3 = (power_report(th, geom, P, P) for th in cpi.mode.reflections)
    want = (r1.q_ls, r1.q_us, r1.q_ll, r1.q_lu, r2.q_ul, r2.q_uu, r3.q_ol, r3.q_ou)
    got = cpi.powers
    assert (got.q_ls, got.q_us, got.q_ll, got.q_lu, got.q_ul, got.q_uu, got.q_ol, got.q_ou) == want


def _exp_route_report(geom, seed, draws):
    # the baseline as one draws-by-N array of exp(j phases)
    from irsim.power import _Steering

    n = geom.irs_spec.size
    thetas = np.exp(1j * np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, (draws, n)))
    comps = {k: composite_vector(k, geom.angles_l, geom.angles_u, geom.irs_spec) for k in "UVRG"}
    gains = {k: float(np.mean(np.abs(thetas @ np.conj(c)) ** 2)) for k, c in comps.items()}
    return _Steering(geom).report(gains, P, P)


def _upa_geometry(rng, n_x, n_y):
    return replace(small_geometry(rng), irs_spec=ArraySpec(n_x, n_y, 0.02, 0.2))


def test_random_phase_baseline_equals_the_exp_route(rng):
    # the draws are filled block by block as cos + j sin, which gives the
    # values of exp(j phases); 64 and 256 elements give blocks of 1,024 and
    # 256 draws, so the larger counts cross block edges and end in a tail
    cases = [(small_geometry(rng, n_axis=n), draws) for n, draws in ((1, 1), (16, 1), (16, 3), (64, 500))]
    cases += [(small_geometry(rng, n_axis=64), 2 * 1024 + 3), (_upa_geometry(rng, 16, 16), 3 * 256 + 17)]
    cases += [(small_geometry(rng, n_axis=1024), 64 + 1), (_upa_geometry(rng, 32, 32), 2 * 64 + 2)]
    for geom, draws in cases:
        got = random_phase_baseline(geom, np.random.default_rng(9), draws, P, P)
        assert got == _exp_route_report(geom, 9, draws)


@pytest.mark.parametrize("block", [2, 3])
@pytest.mark.parametrize("n_x, n_y", [(1, 1), (4, 1), (3, 3)])
def test_random_phase_baseline_small_blocks_equal_the_exp_route(rng, monkeypatch, block, n_x, n_y):
    # blocks of 2 and 3 draws cover 1 ... 7 draws, through every kind of tail
    monkeypatch.setattr(protocol, "_BLOCK_ENTRIES", block * n_x * n_y)
    for draws in range(1, 8):
        geom = _upa_geometry(rng, n_x, n_y)
        got = random_phase_baseline(geom, np.random.default_rng(draws), draws, P, P)
        assert got == _exp_route_report(geom, draws, draws)


def test_random_phase_baseline_memory_does_not_grow_with_draws(rng):
    # one draws-by-N complex array at N = 256 and 20,000 draws would be 78 MB
    import tracemalloc

    geom = _upa_geometry(rng, 16, 16)
    tracemalloc.start()
    try:
        random_phase_baseline(geom, np.random.default_rng(2), 20_000, P, P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


@pytest.mark.parametrize("draws", [2.0, 2.5, True, "3", None])
def test_random_phase_baseline_rejects_non_integer_draws(rng, draws):
    with pytest.raises(ValueError, match="draws must be an integer"):
        random_phase_baseline(small_geometry(rng), np.random.default_rng(1), draws, P, P)


def test_random_phase_baseline_takes_numpy_integer_draws(rng):
    geom = small_geometry(rng)
    got = random_phase_baseline(geom, np.random.default_rng(4), np.int64(3), P, P)
    assert got == random_phase_baseline(geom, np.random.default_rng(4), 3, P, P)


def test_cpi_and_baseline_reject_bad_powers(rng):
    geom = small_geometry(rng)
    for p_l, p_u, name in ((-P, P, "p_l"), (np.nan, P, "p_l"), (P, np.inf, "p_u")):
        with pytest.raises(ValueError, match=name):
            random_phase_baseline(geom, np.random.default_rng(1), 10, p_l, p_u)
        with pytest.raises(ValueError, match=name):
            run_cpi(geom, make_plan(), "long_term", 1e-9, p_l, p_u)


def test_random_phase_baseline_deterministic(rng):
    geom = small_geometry(rng)
    a = random_phase_baseline(geom, np.random.default_rng(11), 100, P, P)
    b = random_phase_baseline(geom, np.random.default_rng(11), 100, P, P)
    assert a == b
    c = random_phase_baseline(geom, np.random.default_rng(11), 1, P, P)
    assert c.q_ll >= 0


def test_run_cpi_validation(rng):
    geom = small_geometry(rng)
    with pytest.raises(ValueError):
        run_cpi(geom, make_plan(), "weekly", 1.0, P, P)
    with pytest.raises(ValueError):
        run_cpi(geom, make_plan(pulses=2), "short_term", 1.0, P, P, step1_pris=2)


def test_urs_absent_reduces_to_alignment(rng):
    geom = small_geometry(rng)
    plan = make_plan()
    cpi = run_cpi(geom, plan, "short_term", 1.0, P, 0.0)
    n = geom.irs_spec.size
    from irsim import irs_received_powers

    q_ls, _ = irs_received_powers(geom, P, 0.0)
    pris = plan.pulses_per_cpi - 1
    expect = pris * plan.lrs.duration * (q_ls**2 / P) * n**2
    np.testing.assert_allclose(cpi.lrs_energy, expect, rtol=1e-6)
    # no unauthorized transmit power: nothing arrives FROM that radar,
    # though its receiver may still hear the reflected legitimate signal
    assert cpi.powers.q_uu == 0.0 and cpi.powers.q_ul == 0.0

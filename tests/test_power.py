import dataclasses

import numpy as np
import pytest

import irsim.power
from irsim import (
    AnglePair,
    ArraySpec,
    LinkGain,
    ReflectionVector,
    ScenarioConfig,
    ScenarioGeometry,
    SweepSpec,
    bilinear_link_power,
    build_channels,
    closed_form_urs_null,
    composite_vector,
    dft_codebook,
    irs_received_powers,
    link_power,
    matched_beamformer,
    path_gain,
    power_report,
    pulse_sample,
    random_phase_baseline,
    run_cpi,
    run_experiment,
    steering_radar,
)

from conftest import overlap_field_amplitudes, random_geometry, random_reflection

P = 0.03


def test_irs_received_powers_coherent(rng):
    geom = random_geometry(rng)
    q_ls, q_us = irs_received_powers(geom, P, P)
    al = path_gain(geom.dist_li, geom.wavelength)
    au = path_gain(geom.dist_ui, geom.wavelength)
    np.testing.assert_allclose(q_ls, al**2 * geom.lrs_spec.size * P, rtol=1e-10)
    np.testing.assert_allclose(q_us, au**2 * geom.urs_spec.size * P, rtol=1e-10)


def test_irs_received_power_orthogonal_beam_is_zero():
    # target on the DFT grid: any other codebook beam is exactly orthogonal
    geom = ScenarioGeometry(
        angles_l=AnglePair(np.pi / 2, 0.0),
        angles_u=AnglePair(np.pi / 2, 0.5),
        dist_li=30.0,
        dist_ui=20.0,
        lrs_spec=ArraySpec(8, 1, 0.1, 0.2),
        urs_spec=ArraySpec(8, 1, 0.1, 0.2),
        irs_spec=ArraySpec(8, 1, 0.02, 0.2),
    )
    zetas, W = dft_codebook(geom.lrs_spec)
    off_beam = W[:, np.argmin(np.abs(zetas - 0.5))]
    q_ls, _ = irs_received_powers(geom, P, P, w_l=off_beam)
    assert q_ls < 1e-30


def test_link_power_coherent_maximum(rng):
    geom = random_geometry(rng)
    n = geom.irs_spec.size
    u = composite_vector("U", geom.angles_l, geom.angles_u, geom.irs_spec)
    theta = ReflectionVector.on(np.angle(u))
    q_ls, _ = irs_received_powers(geom, P, P)
    np.testing.assert_allclose(
        link_power("LL", theta, geom, P, P), q_ls**2 / P * n**2, rtol=1e-10
    )


def test_link_power_all_off_is_zero(rng):
    geom = random_geometry(rng)
    theta = ReflectionVector.off(geom.irs_spec.size)
    for link in ("LL", "LU", "UL", "UU"):
        assert link_power(link, theta, geom, P, P) == 0.0
    rep = power_report(theta, geom, P, P)
    assert (rep.q_ll, rep.q_lu, rep.q_ul, rep.q_uu, rep.q_ol, rep.q_ou) == (0.0,) * 6


def test_link_power_null_reflection(rng):
    geom = random_geometry(rng)
    spec = ArraySpec(8, 8, 0.02, 0.2)
    geom = ScenarioGeometry(
        angles_l=geom.angles_l, angles_u=geom.angles_u, dist_li=30.0, dist_ui=20.0,
        lrs_spec=geom.lrs_spec, urs_spec=geom.urs_spec, irs_spec=spec,
    )
    theta = closed_form_urs_null(spec, geom.angles_u, (1, 1))
    best = ReflectionVector.on(
        np.angle(composite_vector("G", geom.angles_l, geom.angles_u, spec))
    )
    q_null = link_power("UU", theta, geom, P, P)
    q_max = link_power("UU", best, geom, P, P)
    assert q_null <= 1e-18 * q_max


def test_closed_form_matches_bilinear_oracle(rng):
    for _ in range(200):
        geom = random_geometry(rng)
        theta = random_reflection(rng, geom.irs_spec.size)
        for link in ("LL", "LU", "UL", "UU"):
            closed = link_power(link, theta, geom, P, P)
            oracle = bilinear_link_power(
                link, theta, geom, P, P,
                nu_l=float(rng.uniform(0, 2 * np.pi)),
                nu_u=float(rng.uniform(0, 2 * np.pi)),
            )
            np.testing.assert_allclose(closed, oracle, rtol=1e-9)


def test_overlap_decomposes_into_link_sums(rng):
    geom = random_geometry(rng)
    theta = random_reflection(rng, geom.irs_spec.size)
    rep = power_report(theta, geom, P, P)
    np.testing.assert_allclose(rep.q_ol, rep.q_ll + rep.q_ul, rtol=1e-12)
    np.testing.assert_allclose(rep.q_ou, rep.q_lu + rep.q_uu, rtol=1e-12)


def test_overlap_monte_carlo_oracle(rng):
    # average of the instantaneous overlapped power over the two random
    # reference phases must converge to the analytic two-term value
    geom = random_geometry(rng)
    theta = random_reflection(rng, geom.irs_spec.size)
    w_l = matched_beamformer(geom.lrs_spec, geom.angles_l)
    w_u = matched_beamformer(geom.urs_spec, geom.angles_u)
    a_own, a_cross = overlap_field_amplitudes(geom, theta, w_l, w_u, P, P)
    nu = rng.uniform(0, 2 * np.pi, size=(10**5, 2))
    field = np.exp(2j * nu[:, 0]) * a_own + np.exp(1j * (nu[:, 0] + nu[:, 1])) * a_cross
    mc = np.mean(np.abs(field) ** 2)
    analytic = power_report(theta, geom, P, P).q_ol
    np.testing.assert_allclose(mc, analytic, rtol=0.01)


def test_overlap_field_split_matches_full_rebuild(rng):
    # validate the phase factorization itself against per-draw channel rebuilds
    geom = random_geometry(rng)
    theta = random_reflection(rng, geom.irs_spec.size)
    w_l = matched_beamformer(geom.lrs_spec, geom.angles_l)
    w_u = matched_beamformer(geom.urs_spec, geom.angles_u)
    a_own, a_cross = overlap_field_amplitudes(geom, theta, w_l, w_u, P, P)
    for _ in range(20):
        nu_l, nu_u = rng.uniform(0, 2 * np.pi, 2)
        gains = (
            LinkGain(path_gain(geom.dist_li, geom.wavelength), nu_l),
            LinkGain(path_gain(geom.dist_ui, geom.wavelength), nu_u),
        )
        ch = build_channels(geom, gains)
        d = np.diag(theta.coefficients)
        full = (w_l @ ch.h_li @ d @ ch.h_il @ w_l) * np.sqrt(P) + (
            w_l @ ch.h_li @ d @ ch.h_iu @ w_u
        ) * np.sqrt(P)
        split = np.exp(2j * nu_l) * a_own + np.exp(1j * (nu_l + nu_u)) * a_cross
        np.testing.assert_allclose(full, split, rtol=1e-10)


def test_overlap_reduces_to_single_link_without_urs(rng):
    geom = random_geometry(rng)
    theta = random_reflection(rng, geom.irs_spec.size)
    # no unauthorized transmit power: the cross term carries nothing
    np.testing.assert_allclose(
        power_report(theta, geom, P, 0.0).q_ol,
        link_power("LL", theta, geom, P, 0.0),
        rtol=1e-12,
    )


def test_overlap_coincident_angles_coherent(rng):
    geom = random_geometry(rng)
    geom = ScenarioGeometry(
        angles_l=geom.angles_l, angles_u=geom.angles_l,
        dist_li=geom.dist_li, dist_ui=geom.dist_ui,
        lrs_spec=geom.lrs_spec, urs_spec=geom.urs_spec, irs_spec=geom.irs_spec,
    )
    n = geom.irs_spec.size
    u = composite_vector("U", geom.angles_l, geom.angles_u, geom.irs_spec)
    theta = ReflectionVector.on(np.angle(u))
    q_ls, q_us = irs_received_powers(geom, P, P)
    expect = (q_ls**2 / P + q_ls * q_us / P) * n**2
    np.testing.assert_allclose(power_report(theta, geom, P, P).q_ol, expect, rtol=1e-10)


def test_random_phase_gain_statistics(rng):
    geom = random_geometry(rng)
    n = geom.irs_spec.size
    if n < 4:
        geom = ScenarioGeometry(
            angles_l=geom.angles_l, angles_u=geom.angles_u,
            dist_li=geom.dist_li, dist_ui=geom.dist_ui,
            lrs_spec=geom.lrs_spec, urs_spec=geom.urs_spec,
            irs_spec=ArraySpec(4, 4, 0.02, 0.2),
        )
        n = 16
    u = composite_vector("U", geom.angles_l, geom.angles_u, geom.irs_spec)
    thetas = np.exp(1j * rng.uniform(0, 2 * np.pi, size=(10**4, n)))
    gains = np.abs(thetas @ np.conj(u)) ** 2
    assert abs(np.mean(gains) - n) < 0.05 * n
    aligned = abs(np.vdot(u, np.exp(1j * np.angle(u)))) ** 2
    np.testing.assert_allclose(aligned, n**2, rtol=1e-12)
    assert np.max(gains) <= n**2 * (1 + 1e-12)


def test_power_report_nonnegative(rng):
    geom = random_geometry(rng)
    rep = power_report(random_reflection(rng, geom.irs_spec.size), geom, P, P)
    for name in ("q_ls", "q_us", "q_ll", "q_lu", "q_ul", "q_uu", "q_ol", "q_ou"):
        assert getattr(rep, name) >= 0


def test_reflection_vector_validation():
    with pytest.raises(ValueError):
        ReflectionVector(np.array([0.5, 1.0]), np.zeros(2))
    with pytest.raises(ValueError):
        ReflectionVector(np.ones(3), np.zeros(2))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="phases"):
            ReflectionVector.on(np.array([0.0, bad, 1.0]))


def test_reflection_coefficients_are_computed_once_and_read_only(rng):
    phases = rng.uniform(0.0, 2.0 * np.pi, 8)
    theta = ReflectionVector.on(phases)
    coeff = theta.coefficients
    assert theta.coefficients is coeff
    np.testing.assert_array_equal(coeff, np.exp(1j * phases))
    for array in (coeff, theta.phases, theta.amplitudes):
        with pytest.raises(ValueError):
            array[0] = 0.0
    # the phases are a copy: changing the caller's array leaves the coefficients right
    phases[0] += 1.0
    np.testing.assert_array_equal(theta.coefficients, np.exp(1j * theta.phases))


def test_reflection_vector_compares_and_hashes_by_value(rng):
    phases = rng.uniform(0.0, 2.0 * np.pi, 6)
    a, b = ReflectionVector.on(phases), ReflectionVector.on(phases.copy())
    assert a == b and not a != b
    assert hash(a) == hash(b) and len({a, b}) == 1
    # -0.0 == 0.0 as a phase, so the two hash alike as well
    zero, signed = ReflectionVector.on(np.zeros(2)), ReflectionVector.on(np.array([-0.0, 0.0]))
    assert zero == signed and hash(zero) == hash(signed)
    others = (
        ReflectionVector.on(np.r_[phases[:5], phases[5] + 1e-9]),
        ReflectionVector(np.r_[0.0, np.ones(5)], phases),
        ReflectionVector.on(phases[:5]),
        ReflectionVector.off(6),
        tuple(phases),
        None,
    )
    for other in others:
        assert a != other and not a == other


def test_matched_beams_build_no_radar_vector(monkeypatch):
    # a matched beam's one-hop gain is abar^2 M in closed form, so only an
    # explicit beam needs a radar's steering vector, built once per evaluation
    built = []

    def counted(*args):
        built.append(args)
        return steering_radar(*args)

    monkeypatch.setattr(irsim.power, "steering_radar", counted)
    cfg = ScenarioConfig.default()
    cfg = cfg.replace(geometry=dataclasses.replace(
        cfg.geometry,
        lrs_spec=ArraySpec(8, 2, 0.1, 0.2),
        urs_spec=ArraySpec(4, 3, 0.1, 0.2),
        irs_spec=ArraySpec(4, 2, 0.02, 0.2),
    ))
    geom, plan = cfg.geometry, cfg.timing
    theta = random_reflection(np.random.default_rng(0), geom.irs_spec.size)
    for link in ("LL", "LU", "UL", "UU"):
        link_power(link, theta, geom, P, P)
    power_report(theta, geom, P, P)
    irs_received_powers(geom, P, P)
    for variant in ("short_term", "long_term"):
        run_cpi(geom, plan, variant, cfg.gamma, P, P)
    random_phase_baseline(geom, np.random.default_rng(1), 16, P, P)
    assert built == []
    link_power("LU", theta, geom, P, P, w_u=matched_beamformer(geom.urs_spec, geom.angles_u))
    assert built == [(geom.urs_spec, geom.angles_u)]
    for experiment, spec, angles in (("beam_scan_lrs", geom.lrs_spec, geom.angles_l),
                                     ("beam_scan_urs", geom.urs_spec, geom.angles_u)):
        built.clear()
        run_experiment(cfg, SweepSpec((-0.5, 0.0, 0.25, 0.5), experiment))
        assert built == [(spec, angles)]


def test_power_entry_points_reject_bad_arguments(rng):
    geom = random_geometry(rng)
    n, m_l, m_u = geom.irs_spec.size, geom.lrs_spec.size, geom.urs_spec.size
    # (the arguments each entry point takes, the call)
    calls = (
        (("theta", "p_l", "p_u", "w_l", "w_u"),
         lambda theta, p_l, p_u, w_l, w_u: link_power("LL", theta, geom, p_l, p_u, w_l, w_u)),
        (("theta", "p_l", "p_u", "w_l", "w_u"),
         lambda theta, p_l, p_u, w_l, w_u: bilinear_link_power("UU", theta, geom, p_l, p_u, w_l, w_u)),
        (("p_l", "p_u", "w_l", "w_u"),
         lambda p_l, p_u, w_l, w_u: irs_received_powers(geom, p_l, p_u, w_l, w_u)),
        (("theta", "p_l", "p_u"), lambda theta, p_l, p_u: power_report(theta, geom, p_l, p_u)),
    )
    good = {"theta": random_reflection(rng, n), "p_l": P, "p_u": P, "w_l": None, "w_u": None}
    bad = [
        ("theta", random_reflection(rng, n + 1)),
        ("p_l", -P), ("p_l", np.nan), ("p_l", np.inf), ("p_u", -P), ("p_u", np.nan),
        ("w_l", np.ones(m_l + 1) / np.sqrt(m_l + 1)), ("w_l", np.full(m_l, np.nan)),
        ("w_u", np.ones((m_u, 1))), ("w_u", np.full(m_u, np.inf)),
    ]
    for names, call in calls:
        for name, value in bad:
            if name in names:
                with pytest.raises(ValueError, match=name):
                    call(**{**{k: good[k] for k in names}, name: value})
    # a silent radar is a valid input
    assert link_power("LL", good["theta"], geom, 0.0, 0.0) == 0.0
    assert irs_received_powers(geom, 0.0, P)[0] == 0.0


def test_pulse_scaling_consistency():
    # in-pulse envelope carries the full transmit power used by the closed forms
    from irsim import PulseSpec

    p = PulseSpec(P, 25e-6, 100e6, 0.0)
    assert abs(pulse_sample(p, 10e-6)) ** 2 == pytest.approx(P, rel=1e-12)

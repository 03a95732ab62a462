import numpy as np
import pytest

from irsim import (
    AnglePair,
    ArraySpec,
    LinkGain,
    ScenarioGeometry,
    build_channels,
    composite_vector,
    path_gain,
    sample_reference_phases,
    steering_radar,
)

from conftest import random_geometry


def test_path_gain_normalization_point():
    lam = 0.2
    np.testing.assert_allclose(path_gain(lam / (4 * np.pi), lam), 1.0, rtol=1e-12)


def test_path_gain_frozen_value():
    # 0.2 / (4 pi 30), evaluated independently
    np.testing.assert_allclose(path_gain(30.0, 0.2), 5.305164769729845e-4, rtol=1e-12)


def test_path_gain_inverse_distance():
    assert path_gain(15.0, 0.2) == pytest.approx(2 * path_gain(30.0, 0.2), rel=1e-12)


def test_path_gain_rejects_nonpositive():
    with pytest.raises(ValueError):
        path_gain(0.0, 0.2)
    with pytest.raises(ValueError):
        path_gain(-1.0, 0.2)


def test_reference_phases_deterministic():
    a = sample_reference_phases(np.random.default_rng(123))
    b = sample_reference_phases(np.random.default_rng(123))
    assert a == b
    assert 0 <= a[0] < 2 * np.pi and 0 <= a[1] < 2 * np.pi


def test_reference_phases_zero_mean_phasor():
    rng = np.random.default_rng(7)
    nus = rng.uniform(0, 2 * np.pi, 10**5)
    assert abs(np.mean(np.exp(1j * nus))) < 0.02


def test_channel_entry_modulus_and_rank(rng):
    for _ in range(10):
        geom = random_geometry(rng)
        abar_l = path_gain(geom.dist_li, geom.wavelength)
        abar_u = path_gain(geom.dist_ui, geom.wavelength)
        nu_l, nu_u = sample_reference_phases(rng)
        ch = build_channels(geom, (LinkGain(abar_l, nu_l), LinkGain(abar_u, nu_u)))
        np.testing.assert_allclose(np.abs(ch.h_li), abar_l, rtol=1e-12)
        np.testing.assert_allclose(np.abs(ch.h_iu), abar_u, rtol=1e-12)
        for mat in (ch.h_li, ch.h_il, ch.h_ui, ch.h_iu):
            s = np.linalg.svd(mat, compute_uv=False)
            if s.size > 1:
                assert s[1] <= 1e-9 * s[0]


def test_channel_reciprocal_moduli(rng):
    geom = random_geometry(rng)
    g = path_gain(geom.dist_li, geom.wavelength)
    ch = build_channels(geom, (LinkGain(g, 0.3), LinkGain(g, 1.1)))
    np.testing.assert_allclose(np.abs(ch.h_li), np.abs(ch.h_il).T, rtol=1e-12)


def test_channel_matched_product_magnitude(rng):
    # w^T H_LI diag(u) H_IL w with the matched beam collapses to abar^2 M N
    for _ in range(10):
        geom = random_geometry(rng)
        abar = path_gain(geom.dist_li, geom.wavelength)
        ch = build_channels(geom, (LinkGain(abar, 0.0), LinkGain(abar, 0.0)))
        m = geom.lrs_spec.size
        n = geom.irs_spec.size
        w = steering_radar(geom.lrs_spec, geom.angles_l, "transmit") / np.sqrt(m)
        u = composite_vector("U", geom.angles_l, geom.angles_u, geom.irs_spec)
        val = w @ ch.h_li @ np.diag(u) @ ch.h_il @ w
        np.testing.assert_allclose(abs(val), abar**2 * m * n, rtol=1e-10)


def test_channel_gain_scaling_power_quartic(rng):
    # scaling the amplitude by s scales the two-hop power by s^4
    geom = random_geometry(rng)
    w = steering_radar(geom.lrs_spec, geom.angles_l, "transmit")
    w = w / np.linalg.norm(w)
    u = composite_vector("U", geom.angles_l, geom.angles_u, geom.irs_spec)

    def power(scale):
        ch = build_channels(geom, (LinkGain(scale, 0.0), LinkGain(scale, 0.0)))
        return abs(w @ ch.h_li @ np.diag(u) @ ch.h_il @ w) ** 2

    np.testing.assert_allclose(power(3.0), 81.0 * power(1.0), rtol=1e-9)


def test_geometry_rejects_mixed_wavelengths():
    with pytest.raises(ValueError):
        ScenarioGeometry(
            angles_l=AnglePair(0.5, 0.0),
            angles_u=AnglePair(0.5, 0.5),
            dist_li=30.0,
            dist_ui=20.0,
            lrs_spec=ArraySpec(4, 1, 0.1, 0.2),
            urs_spec=ArraySpec(4, 1, 0.1, 0.3),
            irs_spec=ArraySpec(4, 1, 0.02, 0.2),
        )


def test_link_gain_validation():
    with pytest.raises(ValueError):
        LinkGain(-1.0, 0.0)
    g = LinkGain(2.0, 2 * np.pi + 0.5)
    assert 0 <= g.reference_phase < 2 * np.pi

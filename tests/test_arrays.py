import numpy as np
import pytest

from irsim import (
    AnglePair,
    ArraySpec,
    composite_vector,
    composite_vector_kron,
    dft_codebook,
    matched_beamformer,
    steering_1d,
    steering_irs,
    steering_radar,
)

from conftest import random_angles

IRS22 = ArraySpec(2, 2, 0.02, 0.2)
IRS43 = ArraySpec(4, 3, 0.02, 0.2)


def test_steering_1d_single_element():
    np.testing.assert_array_equal(steering_1d(1, 0.02, 0.2, 3.7), [1.0 + 0.0j])


def test_steering_1d_broadside_all_ones():
    np.testing.assert_array_equal(steering_1d(4, 0.02, 0.2, 0.0), np.ones(4))


def test_steering_1d_analytic_phase():
    # phase step 2*pi*0.1*2.5 = pi/2
    v = steering_1d(2, 0.02, 0.2, 2.5)
    np.testing.assert_allclose(v, [1.0, 1.0j], atol=1e-12)


def test_steering_1d_periodic(rng):
    for _ in range(20):
        count = int(rng.integers(1, 9))
        spacing, wavelength = 0.02, 0.2
        zeta = float(rng.uniform(-3, 3))
        a = steering_1d(count, spacing, wavelength, zeta)
        b = steering_1d(count, spacing, wavelength, zeta + wavelength / spacing)
        np.testing.assert_allclose(a, b, atol=1e-9)


def test_steering_first_entry_is_one(rng):
    for _ in range(10):
        v = steering_irs(IRS43, random_angles(rng), "incident")
        assert v[0] == 1.0 + 0.0j
        assert np.max(np.abs(np.abs(v) - 1.0)) < 1e-12


def test_irs_broadside_all_ones():
    v = steering_irs(IRS43, AnglePair(0.0, 1.3), "incident")
    np.testing.assert_allclose(v, np.ones(12), atol=1e-12)


def test_irs_reflected_is_conjugate(rng):
    for _ in range(30):
        a = random_angles(rng)
        inc = steering_irs(IRS43, a, "incident")
        ref = steering_irs(IRS43, a, "reflected")
        np.testing.assert_array_equal(ref, np.conj(inc))


def test_irs_2x2_hand_value():
    # zeta_x = sin(pi/2)cos(0) = 1, zeta_y = 0; x-major ordering
    v = steering_irs(IRS22, AnglePair(np.pi / 2, 0.0), "incident")
    w = np.exp(0.2j * np.pi)
    np.testing.assert_allclose(v, [1.0, 1.0, w, w], atol=1e-12)


def test_radar_receive_is_conjugate(rng):
    spec = ArraySpec(4, 2, 0.1, 0.2)
    for _ in range(10):
        a = random_angles(rng)
        tx = steering_radar(spec, a, "transmit")
        rx = steering_radar(spec, a, "receive")
        np.testing.assert_array_equal(rx, np.conj(tx))


def test_radar_broadside_all_ones():
    spec = ArraySpec(4, 2, 0.1, 0.2)
    v = steering_radar(spec, AnglePair(np.pi / 2, 0.0), "transmit")
    np.testing.assert_allclose(v, np.ones(8), atol=1e-12)


def test_radar_hand_value():
    # zeta_y = sin(pi/2)sin(pi/6) = 0.5, half-wavelength spacing -> step pi/2
    spec = ArraySpec(2, 1, 0.1, 0.2)
    v = steering_radar(spec, AnglePair(np.pi / 2, np.pi / 6), "transmit")
    np.testing.assert_allclose(v, [1.0, 1.0j], atol=1e-12)


@pytest.mark.parametrize("counts", [(1, 1), (4, 3), (1, 8), (8, 1), (5, 7), (16, 16)])
def test_steering_builders_bit_equal_to_kron(rng, counts):
    # the 2D builders are the Kronecker product of their 1D factors, bit for bit
    spec = ArraySpec(*counts, 0.02, 0.2)
    for _ in range(10):
        a = random_angles(rng)
        zx = np.sin(a.elevation) * np.cos(a.azimuth)
        zy = np.sin(a.elevation) * np.sin(a.azimuth)
        zz = np.cos(a.elevation)
        for sense, s in (("incident", 1.0), ("reflected", -1.0)):
            kron = np.kron(steering_1d(counts[0], 0.02, 0.2, s * zx),
                           steering_1d(counts[1], 0.02, 0.2, s * zy))
            np.testing.assert_array_equal(steering_irs(spec, a, sense), kron)
        for sense, s in (("transmit", 1.0), ("receive", -1.0)):
            kron = np.kron(steering_1d(counts[0], 0.02, 0.2, s * zy),
                           steering_1d(counts[1], 0.02, 0.2, s * zz))
            np.testing.assert_array_equal(steering_radar(spec, a, sense), kron)


def test_composite_u_broadside_all_ones(rng):
    v = composite_vector("U", AnglePair(0.0, 0.7), random_angles(rng), IRS43)
    np.testing.assert_allclose(v, np.ones(12), atol=1e-12)


def test_composite_hadamard_equals_kron(rng):
    for _ in range(50):
        al, au = random_angles(rng), random_angles(rng)
        for kind in "UVRG":
            had = composite_vector(kind, al, au, IRS43)
            kron = composite_vector_kron(kind, al, au, IRS43)
            np.testing.assert_allclose(had, kron, atol=1e-10)


def test_composite_g_kron_identity(rng):
    # the echo-direction composite factors exactly into the two 1D shifts
    for _ in range(20):
        au = random_angles(rng)
        g = composite_vector("G", random_angles(rng), au, IRS43)
        gk = composite_vector_kron("G", AnglePair(0.3, 0.1), au, IRS43)
        np.testing.assert_allclose(g, gk, atol=1e-12)


def test_composite_v_equals_r(rng):
    # both cross composites pair the same direction-cosine differences:
    # the forward and reverse hops through the reflector are reciprocal
    for _ in range(20):
        al, au = random_angles(rng), random_angles(rng)
        v = composite_vector("V", al, au, IRS43)
        r = composite_vector("R", al, au, IRS43)
        np.testing.assert_allclose(v, r, atol=1e-12)


def test_composite_coincident_angles_match_u(rng):
    for _ in range(10):
        a = random_angles(rng)
        u = composite_vector("U", a, a, IRS43)
        v = composite_vector("V", a, a, IRS43)
        np.testing.assert_allclose(v, u, atol=1e-12)


def test_composite_unit_modulus(rng):
    for _ in range(10):
        for kind in "UVRG":
            v = composite_vector(kind, random_angles(rng), random_angles(rng), IRS43)
            assert np.max(np.abs(np.abs(v) - 1.0)) < 1e-12


def test_composite_kind_validation(rng):
    with pytest.raises(ValueError):
        composite_vector("X", random_angles(rng), random_angles(rng), IRS43)


def test_anglepair_wraps_azimuth():
    a = AnglePair(0.5, np.pi + 0.25)
    assert -np.pi <= a.azimuth < np.pi
    np.testing.assert_allclose(a.azimuth, -np.pi + 0.25, atol=1e-12)


def test_anglepair_rejects_bad_elevation():
    with pytest.raises(ValueError):
        AnglePair(-0.1, 0.0)
    with pytest.raises(ValueError):
        AnglePair(np.pi + 0.1, 0.0)


def test_arrayspec_validation():
    with pytest.raises(ValueError):
        ArraySpec(0, 1, 0.02, 0.2)
    with pytest.raises(ValueError):
        ArraySpec(2, 1, -0.02, 0.2)


def test_matched_beamformer_unit_norm(rng):
    spec = ArraySpec(8, 1, 0.1, 0.2)
    w = matched_beamformer(spec, random_angles(rng))
    np.testing.assert_allclose(np.linalg.norm(w), 1.0, atol=1e-12)


def test_matched_beamformer_is_transmit_over_sqrt_m(rng):
    # exact, value for value: the power layer builds the matched beam this way
    for spec in (ArraySpec(1, 1, 0.1, 0.2), ArraySpec(8, 1, 0.1, 0.2), ArraySpec(4, 3, 0.1, 0.2)):
        for _ in range(10):
            a = random_angles(rng)
            b = steering_radar(spec, a, "transmit")
            np.testing.assert_array_equal(matched_beamformer(spec, a), b / np.sqrt(b.size))


def test_dft_codebook_orthonormal():
    spec = ArraySpec(8, 1, 0.1, 0.2)
    zetas, W = dft_codebook(spec)
    np.testing.assert_allclose(W.conj().T @ W, np.eye(8), atol=1e-10)
    assert np.all(np.diff(zetas) > 0)
    assert zetas[0] >= -1.0 and zetas[-1] < 1.0


def test_dft_codebook_beam_matches_steering():
    spec = ArraySpec(8, 1, 0.1, 0.2)
    zetas, W = dft_codebook(spec)
    for m in (0, 3, 7):
        beam = steering_1d(8, 0.1, 0.2, zetas[m]) / np.sqrt(8)
        np.testing.assert_allclose(W[:, m], beam, atol=1e-10)

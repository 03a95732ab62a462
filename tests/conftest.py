import numpy as np
import pytest

from irsim import AnglePair, ArraySpec, LinkGain, ScenarioGeometry, build_channels, path_gain


def random_angles(rng, elev_lo=0.05, elev_hi=None):
    hi = np.pi - 0.05 if elev_hi is None else elev_hi
    return AnglePair(rng.uniform(elev_lo, hi), rng.uniform(-np.pi, np.pi))


def random_geometry(rng, wavelength=0.2, max_radar=8, max_irs_axis=4):
    """Small random scenario for closed-form/oracle cross checks."""
    def radar_spec():
        return ArraySpec(
            int(rng.integers(1, max_radar + 1)),
            int(rng.integers(1, 3)),
            wavelength / 2,
            wavelength,
        )

    irs_spec = ArraySpec(
        int(rng.integers(1, max_irs_axis + 1)),
        int(rng.integers(1, max_irs_axis + 1)),
        wavelength / 10,
        wavelength,
    )
    return ScenarioGeometry(
        angles_l=random_angles(rng),
        angles_u=random_angles(rng),
        dist_li=float(rng.uniform(10.0, 100.0)),
        dist_ui=float(rng.uniform(10.0, 100.0)),
        lrs_spec=radar_spec(),
        urs_spec=radar_spec(),
        irs_spec=irs_spec,
    )


def random_reflection(rng, n):
    from irsim import ReflectionVector

    return ReflectionVector.on(rng.uniform(0.0, 2.0 * np.pi, n))


def overlap_field_amplitudes(geom, theta, w_l, w_u, p_l, p_u, side="L"):
    """Case-3 received amplitude at one radar, split by source.

    Full matrix path at zero reference phases. The random reference phases
    multiply the two returned terms as exp(2j nu_own) for the same-radar
    echo and exp(j(nu_l + nu_u)) for the cross echo.
    """
    gains = (
        LinkGain(path_gain(geom.dist_li, geom.wavelength), 0.0),
        LinkGain(path_gain(geom.dist_ui, geom.wavelength), 0.0),
    )
    ch = build_channels(geom, gains)
    d = np.diag(theta.coefficients)
    if side == "L":
        a_own = (w_l @ ch.h_li @ d @ ch.h_il @ w_l) * np.sqrt(p_l)
        a_cross = (w_l @ ch.h_li @ d @ ch.h_iu @ w_u) * np.sqrt(p_u)
    else:
        a_own = (w_u @ ch.h_ui @ d @ ch.h_iu @ w_u) * np.sqrt(p_u)
        a_cross = (w_u @ ch.h_ui @ d @ ch.h_il @ w_l) * np.sqrt(p_l)
    return a_own, a_cross


def overlap_monte_carlo(geom, theta, p_l, p_u, draws, rng, side="L"):
    """Empirical mean overlapped-case power over the two reference phases."""
    from irsim import matched_beamformer

    w_l = matched_beamformer(geom.lrs_spec, geom.angles_l)
    w_u = matched_beamformer(geom.urs_spec, geom.angles_u)
    a_own, a_cross = overlap_field_amplitudes(geom, theta, w_l, w_u, p_l, p_u, side)
    nu = rng.uniform(0.0, 2.0 * np.pi, size=(draws, 2))
    nu_own = nu[:, 0] if side == "L" else nu[:, 1]
    field = np.exp(2j * nu_own) * a_own + np.exp(1j * (nu[:, 0] + nu[:, 1])) * a_cross
    return float(np.mean(np.abs(field) ** 2))


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)

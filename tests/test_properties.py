"""Physics invariants of the solver, checked as properties over random problems."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from irsim import (
    ArraySpec,
    PowerReport,
    PulseSpec,
    ReflectionVector,
    TimingPlan,
    bilinear_link_power,
    build_problem,
    composite_vector,
    irs_received_powers,
    link_power,
    matched_beamformer,
    path_gain,
    pdd_solve,
    power_report,
    problem_constraint,
    run_cpi,
    steering_irs,
    steering_radar,
)

from conftest import random_geometry, random_reflection
from test_optimizer import kkt_residual, random_problem

# a fixed example set, so the gate is deterministic; about 2 s at these sizes
SOLVER_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True, database=None)

P = 0.03  # transmit powers of both radars, watts


@SOLVER_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(4, 16),
    case=st.sampled_from(["P3", "P4"]),
    gamma_frac=st.floats(0.05, 0.9),
)
def test_pdd_solve_unit_modulus_under_cap(seed, n, case, gamma_frac):
    # the cap is a fraction of its value at the reflection aligned with the
    # legitimate objective vector, so it binds
    problem = random_problem(np.random.default_rng(seed), n=n, case=case, gamma_frac=gamma_frac)
    theta = pdd_solve(problem).theta
    assert np.all(theta.amplitudes == 1.0)
    assert np.max(np.abs(np.abs(theta.coefficients) - 1.0)) <= 4 * np.finfo(float).eps
    assert problem_constraint(problem, theta.coefficients) <= problem.gamma * (1.0 + 1e-6)


# Median stationarity residual of pdd_solve over the fixed problem set of the
# test below, measured with the plain (unaccelerated) inner alternation of the
# penalty-dual loop at commit 4955744: 2.19704e-3. A ceiling, never to be raised.
KKT_MEDIAN_CEILING = 2.19704e-3
# The finish takes Newton steps on the KKT conditions, so every solve of the
# same set ends stationary to rounding level: the largest residual was 8.2e-15.
KKT_MAX_CEILING = 1e-12


def test_pdd_solve_stationarity_residual_does_not_grow():
    residuals = []
    for i in range(32):
        rng = np.random.default_rng(1000 + i)
        problem = random_problem(rng, n=(4, 8, 16)[i % 3], case=("P3", "P4")[(i // 3) % 2])
        residuals.append(kkt_residual(problem, pdd_solve(problem).theta.coefficients))
    assert np.median(residuals) <= KKT_MEDIAN_CEILING
    assert max(residuals) <= KKT_MAX_CEILING


@SOLVER_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    link=st.sampled_from(["LL", "LU", "UL", "UU"]),
    p_l=st.floats(1e-3, 10.0),
    p_u=st.floats(1e-3, 10.0),
    nu_l=st.floats(0.0, 2 * np.pi),
    nu_u=st.floats(0.0, 2 * np.pi),
)
def test_link_power_equals_bilinear_guard(seed, link, p_l, p_u, nu_l, nu_u):
    # the closed form and the full channel-matrix product, over random
    # geometries and reflections; the reference phases drop out of the power
    rng = np.random.default_rng(seed)
    geom = random_geometry(rng)
    theta = random_reflection(rng, geom.irs_spec.size)
    closed = link_power(link, theta, geom, p_l, p_u)
    guard = bilinear_link_power(link, theta, geom, p_l, p_u, nu_l=nu_l, nu_u=nu_u)
    np.testing.assert_allclose(closed, guard, rtol=1e-9, atol=0)


def written_out_powers(theta, geom, p_l, p_u, w_l, w_u):
    """(link powers, reflector powers) from the public vector builders, each vector
    built from scratch in its own sense and each product in the closed forms' order.
    A matched beam's one-hop gain is abar^2 M, since |b^H (b / sqrt(M))|^2 = M."""
    if w_l is None:
        k_l = float(path_gain(geom.dist_li, geom.wavelength) ** 2 * geom.lrs_spec.size)
    else:
        b_tx = steering_radar(geom.lrs_spec, geom.angles_l, "transmit")
        k_l = float(abs(path_gain(geom.dist_li, geom.wavelength) * np.vdot(b_tx, w_l)) ** 2)
    if w_u is None:
        k_u = float(path_gain(geom.dist_ui, geom.wavelength) ** 2 * geom.urs_spec.size)
    else:
        c_rx = steering_radar(geom.urs_spec, geom.angles_u, "receive")
        k_u = float(abs(path_gain(geom.dist_ui, geom.wavelength) * (w_u @ c_rx)) ** 2)
    g = {k: abs(np.vdot(composite_vector(k, geom.angles_l, geom.angles_u, geom.irs_spec),
                        theta.coefficients)) ** 2 for k in "UVRG"}
    links = {
        "LL": k_l**2 * p_l * g["U"], "LU": k_l * k_u * p_l * g["V"],
        "UL": k_l * k_u * p_u * g["R"], "UU": k_u**2 * p_u * g["G"],
    }
    return links, (k_l * p_l, k_u * p_u)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    irs_shape=st.one_of(
        st.just((1, 1)),
        st.tuples(st.integers(2, 32), st.just(1)),
        st.tuples(st.integers(2, 8), st.integers(2, 8)),
    ),
    link=st.sampled_from(["LL", "LU", "UL", "UU"]),
    p_l=st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
    p_u=st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
    explicit_beams=st.booleans(),
)
def test_power_evaluation_equals_the_formulas_written_out(seed, irs_shape, link, p_l, p_u, explicit_beams):
    # value for value, not to a tolerance: the builder takes receive = conj(transmit),
    # reflected = conj(incident) and a matched beam's gain abar^2 M, all exact
    rng = np.random.default_rng(seed)
    geom = replace(random_geometry(rng), irs_spec=ArraySpec(*irs_shape, 0.02, 0.2))
    n = geom.irs_spec.size
    theta = ReflectionVector(rng.integers(0, 2, n).astype(float), rng.uniform(0.0, 2 * np.pi, n))
    w_l = w_u = None
    if explicit_beams:
        w_l, w_u = (z / np.linalg.norm(z) for z in (
            rng.normal(size=s.size) + 1j * rng.normal(size=s.size) for s in (geom.lrs_spec, geom.urs_spec)))
    for kind, (out, inc) in zip("UVRG", ((geom.angles_l, geom.angles_l), (geom.angles_u, geom.angles_l),
                                         (geom.angles_l, geom.angles_u), (geom.angles_u, geom.angles_u))):
        np.testing.assert_array_equal(
            composite_vector(kind, geom.angles_l, geom.angles_u, geom.irs_spec),
            steering_irs(geom.irs_spec, out, "reflected") * np.conj(steering_irs(geom.irs_spec, inc, "incident")))
    links, reflector = written_out_powers(theta, geom, p_l, p_u, w_l, w_u)
    assert link_power(link, theta, geom, p_l, p_u, w_l, w_u) == float(links[link])
    assert irs_received_powers(geom, p_l, p_u, w_l, w_u) == reflector
    links, (q_ls, q_us) = written_out_powers(theta, geom, p_l, p_u, None, None)
    q_ll, q_lu, q_ul, q_uu = (links[k] for k in ("LL", "LU", "UL", "UU"))
    assert power_report(theta, geom, p_l, p_u) == PowerReport(
        float(q_ls), float(q_us), float(q_ll), float(q_lu), float(q_ul), float(q_uu),
        float(q_ll + q_ul), float(q_lu + q_uu))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    lrs_shape=st.tuples(st.integers(1, 16), st.integers(2, 16)),
    urs_shape=st.tuples(st.integers(1, 16), st.integers(2, 16)),
)
def test_matched_beam_gain_closed_form_agrees_with_the_beam_product(seed, lrs_shape, urs_shape):
    # b has unit-modulus entries, so |b^H (b / sqrt(M))|^2 = M and the matched
    # one-hop gain abar^2 M matches the product to rounding
    geom = replace(random_geometry(np.random.default_rng(seed)),
                   lrs_spec=ArraySpec(*lrs_shape, 0.1, 0.2), urs_spec=ArraySpec(*urs_shape, 0.1, 0.2))
    closed = irs_received_powers(geom, 1.0, 1.0)
    for k, spec, angles, dist in zip(closed, (geom.lrs_spec, geom.urs_spec),
                                     (geom.angles_l, geom.angles_u), (geom.dist_li, geom.dist_ui)):
        b = steering_radar(spec, angles, "transmit")
        product = abs(path_gain(dist, geom.wavelength) * np.vdot(b, matched_beamformer(spec, angles))) ** 2
        assert abs(k - product) <= 16 * np.spacing(k)


@SOLVER_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from("UVRG"))
def test_composite_norm_is_element_count(seed, kind):
    # every composite entry has unit modulus, so the exact random-phase gain
    # E|c^H theta|^2 = ||c||^2 is the element count N
    geom = random_geometry(np.random.default_rng(seed), max_irs_axis=16)
    c = composite_vector(kind, geom.angles_l, geom.angles_u, geom.irs_spec)
    n = geom.irs_spec.size
    assert abs(np.vdot(c, c).real - n) <= 1e-12 * n


def random_cpi(rng, urs_start):
    """A small random scenario, its timing plan and its principal cap value.

    The cap value is the overlapped-case cap at the reflection aligned with
    the legitimate objective vector; the properties scale it.
    """
    geom = random_geometry(rng)
    plan = TimingPlan(
        pri=100e-6, pulses_per_cpi=3,
        lrs=PulseSpec(P, 25e-6, 100e6, 0.0),
        urs=PulseSpec(P, 30e-6, 100e6, urs_start),
    )
    comps = tuple(composite_vector(k, geom.angles_l, geom.angles_u, geom.irs_spec) for k in "UVRG")
    prob = build_problem("P3", irs_received_powers(geom, P, P), comps, None, 1.0, P)
    return geom, plan, problem_constraint(prob, np.exp(1j * np.angle(prob.Q[:, 0])))


@SOLVER_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    urs_start=st.floats(0.0, 60e-6),
    cap_frac=st.floats(0.05, 2.0),
)
@example(seed=30, urs_start=0.0, cap_frac=1.0)  # a one-element reflector, finished on the cap
def test_short_term_energy_at_least_long_term(seed, urs_start, cap_frac):
    # at zero estimation error the short-term schedule is offered the
    # long-term reflection in every case, so it never collects less
    geom, plan, cap = random_cpi(np.random.default_rng(seed), urs_start)
    gamma = max(cap * cap_frac, 1e-30)
    short = run_cpi(geom, plan, "short_term", gamma, P, P)
    long_ = run_cpi(geom, plan, "long_term", gamma, P, P)
    assert short.feasible == long_.feasible
    assert short.lrs_energy >= long_.lrs_energy * (1.0 - 1e-9)


@pytest.mark.parametrize("cap_frac", [1.0, 1.0 - 2.0**-51])
def test_cpi_with_a_cap_a_rounding_below_the_one_element_cap(cap_frac):
    # a one-element reflector has one cap value; a gamma within rounding of it
    # left the projection's first step exactly 0 and divided by its norm
    geom, plan, cap = random_cpi(np.random.default_rng(30), 0.0)
    assert geom.irs_spec.size == 1
    gamma = cap * cap_frac
    for variant in ("short_term", "long_term"):
        cpi = run_cpi(geom, plan, variant, gamma, P, P)
        if cpi.feasible:
            assert cpi.urs_peak_power <= gamma * (1.0 + 1e-6)


@SOLVER_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    urs_start=st.floats(0.0, 60e-6),
    first_frac=st.floats(0.02, 1.0),
    ratios=st.lists(st.floats(1.1, 4.0), min_size=2, max_size=2),
    variant=st.sampled_from(["short_term", "long_term"]),
)
def test_energy_monotone_in_cap_with_warm_starts(seed, urs_start, first_frac, ratios, variant):
    # an ascending cap sweep in which each CPI is warm-started from the last
    # feasible mode, as the cap-sweep experiment runs it
    geom, plan, cap = random_cpi(np.random.default_rng(seed), urs_start)
    gamma = max(cap * first_frac, 1e-30)
    warm, energies = None, []
    for ratio in [1.0] + ratios:
        gamma *= ratio
        cpi = run_cpi(geom, plan, variant, gamma, P, P, warm=warm)
        if cpi.feasible:
            warm = cpi.mode
        energies.append(cpi.lrs_energy)
    assert all(b >= a * (1.0 - 1e-9) for a, b in zip(energies, energies[1:])), energies

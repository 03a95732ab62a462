"""Physics invariants of the solver, checked as properties over random problems."""

import numpy as np
from hypothesis import given, settings, strategies as st

from irsim import (
    PulseSpec,
    TimingPlan,
    bilinear_link_power,
    build_problem,
    composite_vector,
    irs_received_powers,
    link_power,
    pdd_solve,
    problem_constraint,
    run_cpi,
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


def test_pdd_solve_stationarity_residual_does_not_grow():
    residuals = []
    for i in range(32):
        rng = np.random.default_rng(1000 + i)
        problem = random_problem(rng, n=(4, 8, 16)[i % 3], case=("P3", "P4")[(i // 3) % 2])
        residuals.append(kkt_residual(problem, pdd_solve(problem).theta.coefficients))
    assert np.median(residuals) <= KKT_MEDIAN_CEILING


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
    return geom, plan, problem_constraint(prob, np.exp(1j * np.angle(prob.q1)))


@SOLVER_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    urs_start=st.floats(0.0, 60e-6),
    cap_frac=st.floats(0.05, 2.0),
)
def test_short_term_energy_at_least_long_term(seed, urs_start, cap_frac):
    # at zero estimation error the short-term schedule is offered the
    # long-term reflection in every case, so it never collects less
    geom, plan, cap = random_cpi(np.random.default_rng(seed), urs_start)
    gamma = max(cap * cap_frac, 1e-30)
    short = run_cpi(geom, plan, "short_term", gamma, P, P)
    long_ = run_cpi(geom, plan, "long_term", gamma, P, P)
    assert short.feasible == long_.feasible
    assert short.lrs_energy >= long_.lrs_energy * (1.0 - 1e-9)


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

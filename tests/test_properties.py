"""Physics invariants of the solver, checked as properties over random problems."""

import numpy as np
from hypothesis import given, settings, strategies as st

from irsim import bilinear_link_power, link_power, pdd_solve, problem_constraint

from conftest import random_geometry, random_reflection
from test_optimizer import random_problem

# a fixed example set, so the gate is deterministic; about 2 s at these sizes
SOLVER_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True, database=None)


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

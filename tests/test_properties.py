"""Physics invariants of the solver, checked as properties over random problems."""

import numpy as np
from hypothesis import given, settings, strategies as st

from irsim import pdd_solve, problem_constraint

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

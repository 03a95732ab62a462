import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize

from irsim import (
    AnglePair,
    ArraySpec,
    BudgetExceeded,
    Infeasible,
    NoNullAvailable,
    ProblemData,
    ProjectionError,
    ReflectionVector,
    brute_force_oracle,
    build_problem,
    closed_form_lrs_only,
    closed_form_urs_null,
    composite_vector,
    minimize_unit_modulus_quadratic,
    pdd_solve,
    pdd_solve_with_candidates,
    problem_constraint,
    problem_objective,
)
from irsim import optimizer
from irsim.optimizer import _CapDual, _p9_dual, _top_sigma_sq, _unit_phases

from conftest import random_angles

IRS22 = ArraySpec(2, 2, 0.02, 0.2)


def _clip_disk(x):
    """Radial projection of every entry onto the closed unit disk."""
    return x / np.maximum(np.abs(x), 1.0)


def random_problem(rng, n=4, case="P3", gamma_frac=None):
    """Random constrained instance built from a physical scenario."""
    nx = 2 if n == 4 else n
    spec = ArraySpec(nx, n // nx, 0.02, 0.2)
    comps = tuple(
        composite_vector(k, random_angles(rng), random_angles(rng), spec) for k in "UVRG"
    )
    q_ls = float(10 ** rng.uniform(-8, -5))
    q_us = float(10 ** rng.uniform(-8, -5))
    loose = build_problem(case, (q_ls, q_us), comps, (25e-6, 30e-6), 1.0, 0.03)
    if gamma_frac is None:
        gamma_frac = float(rng.uniform(0.05, 0.8))
    cap_at_align = problem_constraint(loose, np.exp(1j * np.angle(loose.Q[:, 0])))
    gamma = max(cap_at_align * gamma_frac, 1e-300)
    return build_problem(case, (q_ls, q_us), comps, (25e-6, 30e-6), gamma, 0.03)


# ---------------------------------------------------------------------------
# problem construction


def test_build_problem_p1_unit_mapping(rng):
    comps = tuple(composite_vector(k, random_angles(rng), random_angles(rng), IRS22) for k in "UVRG")
    u, v, r, g = comps
    prob = build_problem("P1", (1.0, 1.0), comps, None, gamma=1.0, p_u_min=1.0)
    np.testing.assert_allclose(prob.Q, u[:, None], atol=1e-15)
    np.testing.assert_allclose(prob.B, v[:, None], atol=1e-15)


@pytest.mark.parametrize("case", ["P1", "P2", "P3", "P4"])
def test_build_problem_columns(rng, case):
    comps = tuple(composite_vector(k, random_angles(rng), random_angles(rng), IRS22) for k in "UVRG")
    u, v, r, g = comps
    q_ls, q_us, p_u_min, t_l, t_u = 2.0, 3.0, 0.5, 25e-6, 30e-6
    prob = build_problem(case, (q_ls, q_us), comps, (t_l, t_u), gamma=1.0, p_u_min=p_u_min)
    a_l, a_r = q_ls * u, np.sqrt(q_ls * q_us) * r
    c_g, c_v = q_us / np.sqrt(p_u_min) * g, np.sqrt(q_ls * q_us / p_u_min) * v
    Q, B = {
        "P1": ([a_l], [c_v]),
        "P2": ([a_r], [c_g]),
        "P3": ([a_l, a_r], [c_g, c_v]),
        "P4": ([np.sqrt(t_l) * a_l, np.sqrt(t_u) * a_r], [c_g, c_v]),
    }[case]
    np.testing.assert_allclose(prob.Q, np.stack(Q, axis=1), rtol=1e-15, atol=0)
    np.testing.assert_allclose(prob.B, np.stack(B, axis=1), rtol=1e-15, atol=0)
    assert prob.gamma == 1.0 and prob.n == 4


def test_build_problem_silent_urs_drops_columns(rng):
    # q_us = 0: the cap of P1 and the second objective column of P3/P4 vanish
    comps = tuple(composite_vector(k, random_angles(rng), random_angles(rng), IRS22) for k in "UVRG")
    u = comps[0]
    assert build_problem("P1", (2.0, 0.0), comps, None, gamma=1.0, p_u_min=1.0).B is None
    p3 = build_problem("P3", (2.0, 0.0), comps, None, gamma=1.0, p_u_min=1.0)
    p4 = build_problem("P4", (2.0, 0.0), comps, (25e-6, 30e-6), gamma=1.0, p_u_min=1.0)
    np.testing.assert_allclose(p3.Q, 2.0 * u[:, None], rtol=1e-15)
    np.testing.assert_allclose(p4.Q, np.sqrt(25e-6) * 2.0 * u[:, None], rtol=1e-15)
    assert p3.B is None and p4.B is None


def test_build_problem_p4_scales_p3(rng):
    comps = tuple(composite_vector(k, random_angles(rng), random_angles(rng), IRS22) for k in "UVRG")
    t = 25e-6
    p3 = build_problem("P3", (2.0, 3.0), comps, None, gamma=1.0, p_u_min=1.0)
    p4 = build_problem("P4", (2.0, 3.0), comps, (t, t), gamma=1.0, p_u_min=1.0)
    for _ in range(10):
        theta = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
        np.testing.assert_allclose(
            problem_objective(p4, theta), t * problem_objective(p3, theta), rtol=1e-12
        )
        np.testing.assert_allclose(
            problem_constraint(p4, theta), problem_constraint(p3, theta), rtol=1e-12
        )


def test_build_problem_rejects_degenerate(rng):
    comps = tuple(composite_vector(k, random_angles(rng), random_angles(rng), IRS22) for k in "UVRG")
    with pytest.raises(ValueError):
        build_problem("P2", (1.0, 0.0), comps, None, gamma=1.0, p_u_min=1.0)
    with pytest.raises(ValueError):
        build_problem("P1", (0.0, 1.0), comps, None, gamma=1.0, p_u_min=1.0)
    with pytest.raises(ValueError):
        build_problem("P1", (1.0, 1.0), comps, None, gamma=0.0, p_u_min=1.0)
    with pytest.raises(ValueError):
        build_problem("P5", (1.0, 1.0), comps, None, gamma=1.0, p_u_min=1.0)


def test_problem_data_invariants():
    z = np.zeros((3, 2), dtype=complex)
    with pytest.raises(ValueError, match="objective vector must be nonzero"):
        ProblemData(Q=z, B=None, gamma=1.0)
    with pytest.raises(ValueError, match="gamma must be positive"):
        ProblemData(Q=np.ones((3, 1)), B=None, gamma=-1.0)
    with pytest.raises(ValueError, match="at most 2"):
        ProblemData(Q=np.ones((3, 3)), B=None, gamma=1.0)
    with pytest.raises(ValueError, match="at most 2"):
        ProblemData(Q=np.ones((3, 1)), B=np.ones((3, 3)), gamma=1.0)
    with pytest.raises(ValueError, match="N shared by Q and B"):
        ProblemData(Q=np.ones((3, 1)), B=np.ones((4, 1)), gamma=1.0)
    with pytest.raises(ValueError, match="N x k array"):
        ProblemData(Q=np.ones(3), B=None, gamma=1.0)


def test_problem_data_drops_zero_columns():
    q, b = np.array([1.0, 2.0j, -1.0]), np.array([0.5, 0.0, 1.0j])
    z = np.zeros(3)
    prob = ProblemData(Q=np.stack([z, q], axis=1), B=np.stack([z, z], axis=1), gamma=2.0)
    assert prob.Q.shape == (3, 1) and prob.B is None
    np.testing.assert_array_equal(prob.Q[:, 0], q)
    capped = ProblemData(Q=q[:, None], B=np.stack([b, z], axis=1), gamma=2.0)
    np.testing.assert_array_equal(capped.B, b[:, None])
    # replace re-runs the checks and keeps the layout
    looser = replace(capped, gamma=5.0)
    assert looser.gamma == 5.0
    np.testing.assert_array_equal(looser.Q, capped.Q)
    np.testing.assert_array_equal(looser.B, capped.B)
    with pytest.raises(ValueError, match="gamma must be finite"):
        replace(capped, gamma=np.inf)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_problem_data_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="gamma must be finite"):
        ProblemData(Q=np.ones((3, 1)), B=None, gamma=bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_build_problem_rejects_non_finite(rng, bad):
    comps = tuple(composite_vector(k, random_angles(rng), random_angles(rng), IRS22) for k in "UVRG")
    good = {"scenario_powers": (1.0, 1.0), "gamma": 1.0, "p_u_min": 1.0}
    for key, value in (
        ("gamma", bad),
        ("p_u_min", bad),
        ("q_ls", (bad, 1.0)),
        ("q_us", (1.0, bad)),
    ):
        kwargs = dict(good)
        kwargs["scenario_powers" if key.startswith("q_") else key] = value
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            build_problem(case="P3", composites=comps, durations=None, **kwargs)


# ---------------------------------------------------------------------------
# the surrogate projection (P9 analogue)


def p9_numeric_oracle(b, B, gamma):
    """Projection of b onto disks + cap via SLSQP on stacked real coordinates."""
    n = b.shape[0]

    def unpack(x):
        return x[:n] + 1j * x[n:]

    def fun(x):
        return float(np.sum(np.abs(unpack(x) - b) ** 2))

    cons = [
        {"type": "ineq", "fun": lambda x, k=k: 1.0 - abs(unpack(x)[k]) ** 2}
        for k in range(n)
    ]
    if B is not None:
        cons.append(
            {
                "type": "ineq",
                "fun": lambda x: gamma - float(np.sum(np.abs(B.conj().T @ unpack(x)) ** 2)),
            }
        )
    x0 = np.concatenate([np.real(b), np.imag(b)]) * 0.5
    res = minimize(fun, x0, constraints=cons, method="SLSQP",
                   options={"maxiter": 400, "ftol": 1e-14})
    return unpack(res.x), res.fun


def p9_multiplier(w, dual):
    """Multiplier mu of ||B^H x||^2 <= gamma for the dual point w of _p9_dual.

    mu = ||y|| / (2 sqrt(gamma)) for y = w[:k] + i w[k:], and 0 when the
    projection returned no dual point (no cap, or clip(b) already under it).
    """
    return 0.0 if w is None else float(np.linalg.norm(w)) / (2.0 * dual.root_gamma)


def p9_residual(theta, b, B, mu, sig2):
    """Projected-gradient fixed-point residual of a P9 candidate solution."""
    L = 1.0 + (0.0 if B is None else 2.0 * mu * sig2)
    grad = theta - b
    if B is not None and mu > 0:
        grad = grad + (2.0 * mu) * (B @ (B.conj().T @ theta))
    return float(np.max(np.abs(theta - _clip_disk(theta - grad / L))))


def kkt_residual(problem, theta):
    """Stationarity residual of a unit-modulus theta for the capped problem.

    r = ||Im(conj(theta) * (Q Q^H theta - mu B B^H theta))|| / ||Q Q^H theta||
    with mu >= 0 fitted by least squares: 0 at a KKT point of the maximization
    of ||Q^H theta||^2 over the torus under ||B^H theta||^2 <= gamma.
    """
    Q, B = problem.Q, problem.B
    grad = Q @ (Q.conj().T @ theta)
    cap = np.zeros_like(theta) if B is None else B @ (B.conj().T @ theta)
    a, b = (np.conj(theta) * grad).imag, (np.conj(theta) * cap).imag
    mu = max(0.0, float(a @ b) / float(b @ b)) if b.any() else 0.0
    return float(np.linalg.norm(a - mu * b) / np.linalg.norm(grad))


def p9_solve(b, B, gamma, w0=None):
    """(x, mu) of the P9 projection of b under the cap ||B^H x||^2 <= gamma."""
    dual = _CapDual(B, gamma)
    x, w = _p9_dual(b, dual, w0)
    return x, p9_multiplier(w, dual)


def test_p9_unconstrained_is_clipped_minimum(rng):
    # hand-derived stationary point: clip the free minimum into the disks
    for _ in range(10):
        n = 5
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        theta, w = _p9_dual(b, None, None)
        assert w is None
        np.testing.assert_allclose(theta, _clip_disk(b), atol=1e-14)


def test_p9_matches_numeric_solver(rng):
    for trial in range(8):
        n = 5
        b = 2.0 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        B = (rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))) / np.sqrt(n)
        gamma = float(rng.uniform(0.05, 0.5))
        theta, mu = p9_solve(b, B, gamma)
        ref, ref_val = p9_numeric_oracle(b, B, gamma)
        val = float(np.sum(np.abs(theta - b) ** 2))
        # same optimum up to the oracle's own accuracy (the projection is
        # solved exactly in its dual), and strictly feasible
        assert val <= ref_val + 5e-5 * max(1.0, ref_val)
        assert np.sum(np.abs(B.conj().T @ theta) ** 2) <= gamma * (1 + 1e-9)
        assert np.max(np.abs(theta)) <= 1 + 1e-9


def test_p9_kkt_residual_small(rng):
    n = 6
    b = 2.0 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    B = (rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))) / np.sqrt(n)
    theta, mu = p9_solve(b, B, 0.2)
    assert p9_residual(theta, b, B, mu, _top_sigma_sq(B)) < 1e-7


def assert_p9_exact(theta, mu, b, B, gamma):
    """Feasible, optimal against the numeric oracle, and a KKT point."""
    sig2 = _top_sigma_sq(B)
    assert np.sum(np.abs(B.conj().T @ theta) ** 2) <= gamma
    assert np.max(np.abs(theta)) <= 1 + 1e-12
    _, ref_val = p9_numeric_oracle(b, B, gamma)
    assert float(np.sum(np.abs(theta - b) ** 2)) <= ref_val + 5e-5 * max(1.0, ref_val)
    assert p9_residual(theta, b, B, mu, sig2) < 1e-7


def test_p9_barely_over_cap_from_unrelated_warm_start(rng):
    # one cap column, every |b_n| > 1 and clip(b) only 3% over the cap: the
    # dual maximizer sits close to the kink of ||y|| at 0, and the warm start
    # (the dual point y = 2 mu B^H x of an unrelated projection) points elsewhere
    n = 6
    B = (rng.normal(size=(n, 1)) + 1j * rng.normal(size=(n, 1))) / np.sqrt(n)
    other = 3.0 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    other_dual = _CapDual(B, 0.05)
    _, warm_w = _p9_dual(other, other_dual, None)
    assert p9_multiplier(warm_w, other_dual) > 0
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    b = phases * rng.uniform(1.1, 2.0, n)
    gamma = float(np.sum(np.abs(B.conj().T @ phases) ** 2)) / 1.03
    theta, mu = p9_solve(b, B, gamma, warm_w)
    assert mu > 0
    assert_p9_exact(theta, mu, b, B, gamma)


def test_p9_tight_cap_two_columns(rng):
    # the cap is 1e-5 of the cap value of clip(b): the point must land on the
    # cap from below, not a rounding step above it
    n = 6
    b = 2.0 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    B = (rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))) / np.sqrt(n)
    gamma = 1e-5 * float(np.sum(np.abs(B.conj().T @ _clip_disk(b)) ** 2))
    theta, mu = p9_solve(b, B, gamma)
    assert mu > 0
    assert_p9_exact(theta, mu, b, B, gamma)


def test_p9_unconverged_over_cap_raises(rng, monkeypatch):
    # with no Newton step allowed the first iterate is still over the cap; it
    # must be reported, not handed back as a projection
    n = 6
    b = 2.0 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    B = (rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))) / np.sqrt(n)
    gamma = 1e-5 * float(np.sum(np.abs(B.conj().T @ _clip_disk(b)) ** 2))
    monkeypatch.setattr(optimizer, "_P9_MAX_STEPS", 0)
    with pytest.raises(ProjectionError):
        p9_solve(b, B, gamma)


def test_identical_solves_compare_equal(rng):
    problem = random_problem(rng, n=6, case="P3", gamma_frac=0.3)
    a, b = pdd_solve(problem), pdd_solve(problem)
    assert a == b and a.theta == b.theta


@pytest.mark.parametrize("k", [1, 2])
def test_p9_over_cap_by_rounding_pulls_clip_under_the_cap(rng, k):
    # gamma is the double below the cap value ||p||^2 of clip(b), p = Re(C^H clip(b)),
    # and sqrt(gamma) == ||p||: the first step from y = 0, scaled by
    # 1 - sqrt(gamma) / ||p||, is exactly 0, so there is no first trial point
    n, cases = 5, 0
    for _ in range(40):
        b = 2.0 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        B = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
        x = _clip_disk(b)
        p = x.view(float) @ _CapDual(B).Cr
        B = B * np.sqrt(1.5 / (p @ p))  # the cap value near 1.5, where sqrt often rounds the two alike
        p = x.view(float) @ _CapDual(B).Cr
        gamma = float(np.nextafter(p @ p, 0.0))
        if np.sqrt(gamma) != np.sqrt(p @ p):
            continue
        cases += 1
        dual = _CapDual(B, gamma)
        theta, w = _p9_dual(b, dual, None)
        assert w is None
        assert dual.quad(theta) <= gamma
        np.testing.assert_allclose(theta, x, rtol=0, atol=1e-9)
    assert cases >= 10


def random_spd(rng, m, cond=None, scaled=False):
    """Random symmetric positive definite m x m matrix.

    ``cond`` spreads the eigenvalues over [1/cond, 1]; ``scaled`` instead
    conditions a benign matrix by a diagonal scaling spanning sqrt(cond).
    """
    if scaled:
        M = rng.normal(size=(m, m))
        d = np.logspace(0, -0.5 * np.log10(cond), m)
        A = d[:, None] * (M @ M.T + m * np.eye(m)) * d
    else:
        Q, _ = np.linalg.qr(rng.normal(size=(m, m)))
        lam = rng.uniform(0.1, 1.0, m) if cond is None else np.logspace(0, -np.log10(cond), m)
        A = (Q * lam) @ Q.T
    return 0.5 * (A + A.T)


@pytest.mark.parametrize("m", [2, 4])
def test_spd_solve_matches_numpy(rng, m):
    for cond, scaled in ((None, False), (1e10, True), (1e10, False)):
        for _ in range(200):
            A = random_spd(rng, m, cond, scaled)
            b = rng.normal(size=m)
            x = np.array(optimizer._spd_solve(A.ravel().tolist(), b.tolist()))
            ref = np.linalg.solve(A, b)
            if cond is None or scaled:
                # a diagonal scaling leaves both solvers accurate to rounding
                assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
            else:
                # with eigenvalues spread over 1e10 any two backward-stable
                # solves differ by up to cond * eps; compare backward errors
                scale = np.linalg.norm(A, 2)
                assert np.linalg.norm(A @ x - b) <= 1e-12 * scale * np.linalg.norm(x)
                assert np.linalg.norm(A @ ref - b) <= 1e-12 * scale * np.linalg.norm(ref)


def test_spd_solve_reports_non_positive_pivot(rng):
    rhs2, rhs4 = [1.0, 2.0], [1.0, 2.0, 3.0, 4.0]
    assert optimizer._spd_solve([1.0, 2.0, 2.0, 1.0], rhs2) is None  # eigenvalues 3, -1
    assert optimizer._spd_solve([-1.0, 0.0, 0.0, 2.0], rhs2) is None
    assert optimizer._spd_solve([0.0] * 4, rhs2) is None
    for _ in range(20):
        Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        A = (Q * np.array([1.0, 0.5, -0.2, 2.0])) @ Q.T
        assert optimizer._spd_solve((0.5 * (A + A.T)).ravel().tolist(), rhs4) is None
    # exactly zero pivots, which a division would turn into an exception
    assert optimizer._spd_solve([0.0] * 16, rhs4) is None
    singular = np.outer([1.0, 2.0, 0.0, 1.0], [1.0, 2.0, 0.0, 1.0]) + np.diag([0.0, 0.0, 1.0, 1.0])
    assert optimizer._spd_solve(singular.ravel().tolist(), rhs4) is None
    nan = np.eye(4)
    nan[2, 2] = np.nan
    assert optimizer._spd_solve(nan.ravel().tolist(), rhs4) is None


def over_cap_projection(rng, k, n=6, frac=0.3):
    b = 2.0 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    B = (rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))) / np.sqrt(n)
    gamma = frac * float(np.sum(np.abs(B.conj().T @ _clip_disk(b)) ** 2))
    return b, optimizer._CapDual(B, gamma)


@pytest.mark.parametrize("k", [1, 2])
def test_p9_indefinite_newton_matrix_falls_back_to_steepest_ascent(rng, k, monkeypatch):
    b, dual = over_cap_projection(rng, k)
    x_ref, _ = optimizer._p9_dual(b, dual, None)
    solves = []
    spd_solve, clip_gram = optimizer._spd_solve, optimizer._CapDual.clip_gram

    def recorded_solve(a, rhs):
        out = spd_solve(a, rhs)
        solves.append(out)
        return out

    def indefinite_first(self, x, m):
        # the first three Newton matrices are made negative definite
        gram = clip_gram(self, x, m)
        return -gram - 10.0 * np.eye(2 * self.k).ravel() if len(solves) < 3 else gram

    monkeypatch.setattr(optimizer, "_spd_solve", recorded_solve)
    monkeypatch.setattr(optimizer._CapDual, "clip_gram", indefinite_first)
    x, w = optimizer._p9_dual(b, dual, None)
    assert len(solves) > 3 and all(out is None for out in solves[:3])
    assert dual.quad(x) <= dual.gamma
    assert np.max(np.abs(x)) <= 1 + 1e-12
    np.testing.assert_allclose(x, x_ref, rtol=0, atol=1e-9)


@pytest.mark.parametrize("k", [1, 2])
def test_p9_bad_warm_start_reaches_the_cold_solution(rng, k):
    # the projection is unique, so a warm start moves the path, not the answer
    for _ in range(5):
        b, dual = over_cap_projection(rng, k)
        x_cold, w_cold = optimizer._p9_dual(b, dual, None)
        assert w_cold is not None and dual.quad(x_cold) <= dual.gamma
        y = w_cold[:k] + 1j * w_cold[k:]
        for y_bad in (-10.0 * y, 1j * y):  # far off, and in the wrong quadrant
            x, w = optimizer._p9_dual(b, dual, np.concatenate([y_bad.real, y_bad.imag]))
            assert dual.quad(x) <= dual.gamma
            np.testing.assert_allclose(x, x_cold, rtol=0, atol=1e-9)


# ---------------------------------------------------------------------------
# the solver blocks


def quad_block_residual(x, c, B, rho):
    """Projected-gradient fixed-point residual of min ||B^H x||^2 + ||x - c||^2 / (2 rho)."""
    L = 2.0 * _top_sigma_sq(B) + 1.0 / rho
    grad = 2.0 * (B @ (B.conj().T @ x)) + (x - c) / rho
    return float(np.max(np.abs(x - _clip_disk(x - grad / L))))


def quad_block_reference(c, B, rho, steps=5000):
    """The same minimizer by plain projected gradient, run far past convergence."""
    L = 2.0 * _top_sigma_sq(B) + 1.0 / rho
    x = _clip_disk(c)
    for _ in range(steps):
        x = _clip_disk(x - (2.0 * (B @ (B.conj().T @ x)) + (x - c) / rho) / L)
    return x


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("c_scale", [1.0, 1e3])
@pytest.mark.parametrize("rho", [1.0, 0.1, 1e-4])
def test_cap_minimizer_block_solves_its_disk_problem(rng, k, c_scale, rho):
    # the disk block of the cap minimizer, solved in its rank-k dual; with
    # |c| >> 1 nearly every entry ends up clipped
    n = 8
    for _ in range(3):
        B = (rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))) / np.sqrt(n)
        c = c_scale * (rng.normal(size=n) + 1j * rng.normal(size=n))
        x, w = optimizer._quad_dual(c, optimizer._CapDual(B), rho, None)
        assert w.shape == (2 * k,)
        assert np.max(np.abs(x)) <= 1.0 + 1e-15
        assert quad_block_residual(x, c, B, rho) < 1e-9
        np.testing.assert_allclose(x, quad_block_reference(c, B, rho), atol=1e-9)
        # a warm start from the solution of a nearby problem lands on the same point
        c2 = c + 1e-3 * c_scale * (rng.normal(size=n) + 1j * rng.normal(size=n))
        x2, _ = optimizer._quad_dual(c2, optimizer._CapDual(B), rho, w)
        x2_cold, _ = optimizer._quad_dual(c2, optimizer._CapDual(B), rho, None)
        assert quad_block_residual(x2, c2, B, rho) < 1e-9
        np.testing.assert_allclose(x2, x2_cold, atol=1e-9)



def clip_gram_direct(C, z, x):
    """Re(C^H J C) for the Jacobian J of x = clip(z), formed row by row."""
    r = np.abs(z)
    free = (r <= 1.0).astype(float)
    tang = (x.conj()[:, None] * C).imag
    gram = ((C.conj().T * free) @ C).real
    gram += (tang.T * ((1.0 - free) / np.maximum(r, 1.0))) @ tang
    return gram


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("mix", ["free", "clipped", "mixed"])
def test_clip_gram_matches_direct_formula(rng, k, mix):
    n = 12
    on_circle = np.array([1.0, -1.0, 1j, -1j])  # |z_n| exactly 1: still inside the disk
    for _ in range(5):
        B = (rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))) / np.sqrt(n)
        dual = optimizer._CapDual(B, float(rng.uniform(0.01, 1.0)))
        z = np.exp(2j * np.pi * rng.random(n))
        size = {"free": rng.uniform(0.0, 1.0, n), "clipped": rng.uniform(1.0, 1e3, n),
                "mixed": rng.uniform(0.0, 3.0, n)}[mix]
        z *= size
        if mix != "clipped":
            z[:4] = on_circle
            z[4] = 0.0
        r = np.abs(z)
        assert mix == "clipped" or np.all(r[:4] == 1.0)
        x = _clip_disk(z)
        want = clip_gram_direct(dual.C, z, x)
        got = dual.clip_gram(x, np.maximum(r, 1.0))
        assert got.shape == (4 * k * k,)  # flat and row-major
        got = got.reshape(2 * k, 2 * k)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        # the P9 Newton matrix: the gram, the ||w|| term and the trace ridge
        w = rng.normal(size=2 * k)
        nw = np.linalg.norm(w)
        want_hess = want + (dual.root_gamma / nw) * (np.eye(2 * k) - np.outer(w, w) / nw**2)
        want_hess += 1e-12 * np.trace(want_hess) * np.eye(2 * k)
        got_hess = np.array(dual.newton_matrix(x, np.maximum(r, 1.0), w, nw)).reshape(2 * k, 2 * k)
        assert np.max(np.abs(got_hess - want_hess)) <= 1e-13 * np.max(np.abs(want_hess))


def p9_reference(b, dual, w0):
    """Reference for _p9_dual: the same damped Newton iteration, written out.

    The gram is formed row by row (clip_gram_direct), the ||w|| term and the
    ridge are added as matrices, the system is solved by numpy, and every
    trial point is computed afresh from w.
    """
    C, Ch, root_gamma, gamma, k = dual.C, dual.C.conj().T, dual.root_gamma, dual.gamma, dual.k
    x = _clip_disk(b)
    if dual.quad(x) <= gamma:
        return x, None

    def at(w):
        z = b - C @ w
        x = _clip_disk(z)
        return z, x, (Ch @ x).real - (root_gamma / np.linalg.norm(w)) * w

    tol = 1e-10 * root_gamma + 1e-13 * float(dual.row_norms @ (1.0 + np.abs(b)))
    if w0 is not None and w0.any():
        w = w0
    else:
        grad0 = (Ch @ x).real
        w = grad0 * ((1.0 - root_gamma / np.linalg.norm(grad0)) / dual.sig2)
    z, x, grad = at(w)
    converged = False
    for _ in range(100):
        if np.linalg.norm(grad) <= tol:
            converged = True
            break
        nw = np.linalg.norm(w)
        hess = clip_gram_direct(C, z, x)
        hess += (root_gamma / nw) * (np.eye(2 * k) - np.outer(w, w) / nw**2)
        hess += 1e-12 * np.trace(hess) * np.eye(2 * k)
        if np.all(np.linalg.eigvalsh(hess) > 0):
            d = np.linalg.solve(hess, grad)
        else:
            d = grad
        slope0 = float(grad @ d)
        if not slope0 > 0:
            d, slope0 = grad, float(grad @ grad)
        t = 1.0
        z_t, x_t, grad_t = at(w + d)
        slope = float(grad_t @ d)
        if slope < 0:
            lo, s_lo, hi, s_hi, side = 0.0, slope0, 1.0, slope, 0
            for _ in range(60):
                t = lo + (hi - lo) * s_lo / (s_lo - s_hi)
                z_t, x_t, grad_t = at(w + t * d)
                slope = float(grad_t @ d)
                if slope < 0:
                    hi, s_hi = t, slope
                    if side < 0:
                        s_lo *= 0.5
                    side = -1
                elif slope > 0.5 * slope0:
                    lo, s_lo = t, slope
                    if side > 0:
                        s_hi *= 0.5
                    side = 1
                else:
                    break
            else:
                if lo == 0.0:
                    break
                t = lo
                z_t, x_t, grad_t = at(w + t * d)
        if (w + t * d == w).all():
            break
        w = w + t * d
        z, x, grad = z_t, x_t, grad_t
    cap, margin = dual.quad(x), 1e-12
    while converged and cap > gamma and margin < 1e-6:
        x = x * (np.sqrt(gamma / cap) * (1.0 - margin))
        cap, margin = dual.quad(x), margin * 10.0
    assert cap <= gamma, "the reference stopped over the cap"
    return x, w


def quad_reference(c, dual, rho, w0):
    """Reference for _quad_dual: the same Newton iteration, written out as p9_reference."""
    C, Ch, k = dual.C, dual.C.conj().T, dual.k

    def at(w):
        z = c - 2.0 * rho * (C @ w)
        x = _clip_disk(z)
        return z, x, w - (Ch @ x).real

    w = np.zeros(2 * k) if w0 is None else w0
    z, x, F = at(w)
    tol = 1e-13 * float(dual.row_norms @ (1.0 + np.abs(c)))
    for _ in range(50):
        if np.linalg.norm(F) <= tol:
            break
        d = -np.linalg.solve(np.eye(2 * k) + 2.0 * rho * clip_gram_direct(C, z, x), F)
        t = 1.0
        for _ in range(40):
            z_t, x_t, F_t = at(w + t * d)
            if np.linalg.norm(F_t) < np.linalg.norm(F):
                break
            t *= 0.5
        else:
            break
        w = w + t * d
        z, x, F = z_t, x_t, F_t
    return x, w


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("frac", [0.3, 1e-5, 0.97])
def test_p9_matches_reference_loop(rng, k, frac):
    # the cold solve and a warm start from a nearby projection's dual point
    for _ in range(5):
        b, dual = over_cap_projection(rng, k, frac=frac)
        x_ref, w_ref = p9_reference(b, dual, None)
        x, w = _p9_dual(b, dual, None)
        assert dual.quad(x) <= dual.gamma
        np.testing.assert_allclose(x, x_ref, rtol=0, atol=1e-9)
        b2 = b + 0.05 * (rng.normal(size=b.shape) + 1j * rng.normal(size=b.shape))
        x2_ref, _ = p9_reference(b2, dual, w_ref)
        x2, _ = _p9_dual(b2, dual, w)
        np.testing.assert_allclose(x2, x2_ref, rtol=0, atol=1e-9)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("c_scale", [1.0, 1e3])
@pytest.mark.parametrize("rho", [1.0, 1e-4])
def test_cap_minimizer_block_matches_reference_loop(rng, k, c_scale, rho):
    n = 8
    for _ in range(3):
        B = (rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))) / np.sqrt(n)
        dual = optimizer._CapDual(B)
        c = c_scale * (rng.normal(size=n) + 1j * rng.normal(size=n))
        x_ref, w_ref = quad_reference(c, dual, rho, None)
        x, w = optimizer._quad_dual(c, dual, rho, None)
        np.testing.assert_allclose(x, x_ref, rtol=0, atol=1e-9)
        c2 = c + 1e-3 * c_scale * (rng.normal(size=n) + 1j * rng.normal(size=n))
        np.testing.assert_allclose(optimizer._quad_dual(c2, dual, rho, w)[0],
                                   quad_reference(c2, dual, rho, w_ref)[0], rtol=0, atol=1e-9)


def test_unit_phases_zero_convention_and_bits(rng):
    x = rng.normal(size=40) + 1j * rng.normal(size=40)
    x *= 10.0 ** rng.uniform(-300, 300, 40)
    x[::7] = 0.0
    x[3] = complex(-0.0, -0.0)
    x[5] = complex(0.0, -2.5)
    out = optimizer._unit_phases(x)
    zero = x == 0
    np.testing.assert_array_equal(out[zero], np.ones(zero.sum()))
    np.testing.assert_array_equal(out[~zero], x[~zero] / np.abs(x[~zero]))


def test_unit_phases_without_zeros_is_the_division(rng):
    x = rng.normal(size=40) + 1j * rng.normal(size=40)
    x *= 10.0 ** rng.uniform(-300, 300, 40)
    x[5] = complex(0.0, -2.5)
    x[6] = complex(-3.0, 0.0)
    np.testing.assert_array_equal(optimizer._unit_phases(x), x / np.abs(x))


def test_unit_phases_subnormal_entries(rng):
    # 1/|x| can overflow below the normal range; those entries still get their
    # phase, and the normal entries keep the bits of the plain division
    np.testing.assert_array_equal(
        optimizer._unit_phases(np.array([-1e-310 + 0j, 1e-310j])), [-1.0, 1j]
    )
    x = rng.normal(size=40) + 1j * rng.normal(size=40)
    x *= 10.0 ** rng.uniform(-300, 300, 40)
    x[::5] = x[::5] / np.abs(x[::5]) * 10.0 ** rng.uniform(-322, -309, 8)
    x[2] = complex(5e-324, -5e-324)
    x[4] = 0.0
    x[6] = complex(3e-310, 1e-320)
    before = x.copy()
    out = optimizer._unit_phases(x)
    np.testing.assert_array_equal(x, before)  # the input is left alone
    sub = (np.abs(x) < np.finfo(float).tiny) & (x != 0)
    assert sub.sum() == 10
    normal = ~sub & (x != 0)
    np.testing.assert_array_equal(out[normal], x[normal] / np.abs(x[normal]))
    assert out[4] == 1.0
    np.testing.assert_allclose(out[sub], np.exp(1j * np.angle(x[sub])), rtol=0, atol=4e-16)


def test_vartheta_update_is_phase_projection(rng):
    n = 6
    theta = rng.normal(size=n) + 1j * rng.normal(size=n)
    lam = rng.normal(size=n) + 1j * rng.normal(size=n)
    arg = theta + 0.7 * lam
    np.testing.assert_allclose(_unit_phases(arg), arg / np.abs(arg), atol=1e-12)


def test_vartheta_update_real_positive_gives_ones():
    np.testing.assert_array_equal(_unit_phases(np.array([0.5 + 0j, 2.0 + 0j])), np.ones(2))


def test_vartheta_update_zero_argument_convention():
    np.testing.assert_array_equal(_unit_phases(np.array([0.0 + 0j])), [1.0 + 0j])


def theta_update(prob, theta, vartheta, lam, rho):
    """One disk-block update of a fresh _ThetaBlock at the full inner tolerance."""
    block = optimizer._ThetaBlock(prob, optimizer._cap_dual(prob))
    theta, _, objectives = block.update(theta, vartheta - rho * lam, rho, optimizer._INNER_TOL)
    return theta, objectives


def test_theta_update_unconstrained_closed_form(rng, monkeypatch):
    # with a vanishing objective gradient the first surrogate step is the
    # clipped penalty center
    n = 4
    q1 = rng.normal(size=n) + 1j * rng.normal(size=n)
    prob = ProblemData(Q=q1[:, None], B=None, gamma=1.0)
    # start orthogonal to q1 so the linearization term vanishes
    theta0 = np.zeros(n, dtype=complex)
    theta0[0], theta0[1] = np.conj(q1[1]), -np.conj(q1[0])
    theta0 = theta0 / np.linalg.norm(theta0)
    assert abs(np.vdot(q1, theta0)) < 1e-12
    vartheta = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    lam = 0.1 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    monkeypatch.setattr(optimizer, "_MAX_SCA", 1)
    theta, objs = theta_update(prob, theta0, vartheta, lam, 0.8)
    np.testing.assert_allclose(theta, _clip_disk(vartheta - 0.8 * lam), atol=1e-12)


def test_theta_update_monotone_descent(rng):
    for _ in range(10):
        prob = random_problem(rng)
        n = prob.n
        theta0 = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        _, objs = theta_update(prob, theta0, theta0, np.zeros(n, complex), 1.0)
        for a, b in zip(objs, objs[1:]):
            assert b <= a + 1e-9 * max(1.0, abs(a))


def test_theta_update_fixed_point(rng):
    # an unconstrained optimum with matching copies stays put
    n = 4
    q1 = rng.normal(size=n) + 1j * rng.normal(size=n)
    prob = ProblemData(Q=q1[:, None], B=None, gamma=1.0)
    res = pdd_solve(prob)
    theta_star = res.theta.coefficients
    theta, _ = theta_update(prob, theta_star, theta_star, np.zeros(n, complex), 1e-6)
    np.testing.assert_allclose(theta, theta_star, atol=1e-4)


def test_dual_update_identity_when_copies_match(rng):
    n = 3
    theta = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    lam0 = np.full(n, 0.5 + 0.5j)
    lam, rho = optimizer._dual_step(lam0, theta, np.array(theta), 1.0, 0.5)
    np.testing.assert_allclose(lam, lam0, atol=1e-15)
    assert rho == 0.5


def test_dual_update_scales_rho():
    ones = np.ones(2, complex)
    _, rho = optimizer._dual_step(np.zeros(2, complex), ones, ones, 1.0, 0.5)
    assert rho == pytest.approx(0.5)


def test_dual_step_clamps_lambda_keeping_its_phase(rng):
    # a copy gap far above rho * _LAMBDA_CAP drives the dual step past the
    # clamp on some entries; only those are pulled back onto it
    n = 8
    cap = optimizer._LAMBDA_CAP
    rho = 1e-9  # |theta - vartheta| ~ 1 gives a step of ~1e9 >> cap
    lam0 = rng.normal(size=n) + 1j * rng.normal(size=n)
    vartheta = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    theta = _clip_disk(2.0 * (rng.normal(size=n) + 1j * rng.normal(size=n)))
    small = np.arange(n) % 2 == 0
    theta[small] = vartheta[small]  # matching copies: these entries stay put
    unclamped = lam0 + (theta - vartheta) / rho
    assert np.all(np.abs(unclamped[~small]) > 100 * cap)
    lam, rho_new = optimizer._dual_step(lam0, theta, vartheta, rho, 0.7)
    np.testing.assert_allclose(np.abs(lam[~small]), cap, rtol=1e-15)
    np.testing.assert_allclose(lam[~small] / np.abs(lam[~small]),
                               unclamped[~small] / np.abs(unclamped[~small]), rtol=0, atol=1e-15)
    np.testing.assert_array_equal(lam[small], lam0[small])
    assert np.all(np.abs(lam0[small]) < cap)
    assert rho_new == 0.7 * rho


# ---------------------------------------------------------------------------
# the accelerated inner loop of the penalty-dual loop


def unit_problem(rng, n=16, frac=0.1):
    """O(1) random P3-shaped problem whose cap binds at the aligned reflection."""
    q1, q2, h1, h2 = ((rng.normal(size=n) + 1j * rng.normal(size=n)) / np.sqrt(n) for _ in range(4))
    loose = ProblemData(Q=np.stack([q1, q2], axis=1), B=np.stack([h1, h2], axis=1), gamma=1.0)
    gamma = frac * problem_constraint(loose, np.exp(1j * np.angle(q1)))
    return replace(loose, gamma=gamma)


def traced_penalty_dual(monkeypatch, problem, theta0, block=None):
    """Run the solver's penalty-dual loop once, recording every block call.

    Returns the loop's result, the block calls as (theta in, trial, rho,
    shift, theta out, f), the dual steps' (lambda, theta, vartheta, rho) and
    the memories handed to _anderson. trial = center + shift is the copy the
    block was called with, shift = rho lambda.
    """
    inner = block or optimizer._ThetaBlock(problem, optimizer._cap_dual(problem)).update
    calls, steps, memories = [], [], []
    state = {"lam": np.zeros(problem.n, complex)}
    dual_step, anderson = optimizer._dual_step, optimizer._anderson

    def spy_block(theta, center, rho, tol):
        theta_out, f, *rest = inner(theta, center, rho, tol)
        shift = rho * state["lam"]
        calls.append((theta, center + shift, rho, shift, theta_out, f))
        return (theta_out, f, *rest)

    def spy_step(lam, theta, vartheta, rho, c):
        steps.append((lam, theta, vartheta, rho))
        state["lam"], rho_new = dual_step(lam, theta, vartheta, rho, c)
        return state["lam"], rho_new

    def spy_anderson(memory):
        memories.append((len(calls), list(memory)))
        return anderson(memory)

    monkeypatch.setattr(optimizer, "_dual_step", spy_step)
    monkeypatch.setattr(optimizer, "_anderson", spy_anderson)

    def score(theta):  # as pdd_solve rates a copy
        feasible = problem_constraint(problem, theta) <= problem.gamma
        return problem_objective(problem, theta) if feasible else None

    out = optimizer._penalty_dual(theta0, spy_block, score)
    return out, calls, steps, memories


def merit(theta, f, rho, shift):
    """f(theta) + ||theta + shift - phase(theta + shift)||^2 / (2 rho)."""
    r = theta + shift - _unit_phases(theta + shift)
    return f + float(np.vdot(r, r).real) / (2.0 * rho)


def accepted_calls(calls, steps, history):
    """Indices of the block calls whose result the loop went on from."""
    later = {id(c[0]) for c in calls} | {id(s[1]) for s in steps} | {id(h[0]) for h in history}
    return [k for k, c in enumerate(calls) if id(c[4]) in later]


def test_penalty_dual_merit_never_rises_over_accepted_iterates(rng, monkeypatch):
    extrapolated_kept = rejected = 0
    for _ in range(4):
        problem = unit_problem(rng)
        theta0 = np.exp(1j * rng.uniform(0, 2 * np.pi, problem.n))
        (_, _, history, _), calls, steps, _ = traced_penalty_dual(monkeypatch, problem, theta0)
        kept = accepted_calls(calls, steps, history)
        rejected += len(calls) - len(kept)
        last = None  # (rho, merit) of the last accepted iterate
        for k in kept:
            theta_in, trial, rho, shift, theta_out, f = calls[k]
            phi = merit(theta_out, f, rho, shift)
            if last is not None and last[0] == rho:  # same outer iteration
                assert phi <= last[1] + 1e-12 * max(1.0, abs(last[1]))
                plain = _unit_phases(theta_in + shift)
                extrapolated_kept += not np.allclose(trial, plain, rtol=0, atol=1e-12)
            last = (rho, phi)
    # the check covered kept extrapolations, and the safeguard did fire
    assert extrapolated_kept > 0 and rejected > 0


def test_penalty_dual_rejected_extrapolation_takes_plain_step(rng, monkeypatch):
    # the block reports a raised objective for the first extrapolated copy:
    # the loop must drop it, take the plain step from the same theta, and
    # extrapolate next from images made after the rejection only
    problem = unit_problem(rng)
    # a first loop tolerance of 0.03 c^2 = 3e-8 keeps the alternation going
    # for several images after the rejection, however fast it would settle
    monkeypatch.setattr(optimizer, "_INNER_TOL", 1e-15)
    monkeypatch.setattr(optimizer, "_C", 1e-3)
    real = optimizer._ThetaBlock(problem, optimizer._cap_dual(problem)).update
    seen = {"calls": 0, "extrapolated": None}
    anderson = optimizer._anderson

    def block(theta, center, rho, tol):
        theta_out, f, objs = real(theta, center, rho, tol)
        seen["calls"] += 1
        if seen["extrapolated"] == seen["calls"] - 1:
            f += 1e6
        return theta_out, f, objs

    def first_extrapolation(memory):
        out = anderson(memory)
        if seen["extrapolated"] is None and out is not memory[-1][0]:
            seen["extrapolated"] = seen["calls"]  # index of the next block call
        return out

    monkeypatch.setattr(optimizer, "_anderson", first_extrapolation)
    theta0 = np.exp(1j * rng.uniform(0, 2 * np.pi, problem.n))
    (_, _, history, _), calls, steps, memories = traced_penalty_dual(
        monkeypatch, problem, theta0, block
    )
    k = seen["extrapolated"]
    assert k is not None and k + 4 < len(calls)
    theta_in, trial, rho, shift, _, _ = calls[k]
    assert not np.allclose(trial, _unit_phases(theta_in + shift), rtol=0, atol=1e-12)
    assert k not in accepted_calls(calls, steps, history)
    # the plain step from the same theta
    retry_in, retry_trial, retry_rho, retry_shift, retry_out, _ = calls[k + 1]
    assert retry_in is theta_in and retry_rho == rho
    np.testing.assert_allclose(retry_trial, _unit_phases(theta_in + shift), rtol=0, atol=1e-15)
    # memory cleared: the next extrapolation comes three images later, the
    # oldest of them the plain step's
    after = [(at, memory) for at, memory in memories if at > k]
    at, memory = after[0]
    assert at == k + 4 and len(memory) == 3
    np.testing.assert_array_equal(memory[0][0], _unit_phases(retry_out + retry_shift))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_penalty_dual_exit_state_is_the_phase_of_theta_plus_shift(monkeypatch, seed):
    # after every inner loop vartheta is the unit-modulus block's image of the
    # last kept theta, never an extrapolated copy: the copy gap, the dual step
    # and the kept copies read the plain alternation's state
    rng = np.random.default_rng(seed)
    problem = unit_problem(rng)
    theta0 = np.exp(1j * rng.uniform(0, 2 * np.pi, problem.n))
    # the copies merge to this outer tolerance only with a gap of exactly 0, so
    # every outer iteration ends in a dual step, and the loop tolerance 0.03 c^2
    # = 3e-8 of the first outer iteration keeps its alternation going past the
    # three images an extrapolation needs
    for name, value in (("_INNER_TOL", 1e-15), ("_C", 1e-3), ("_OUTER_TOL", 5e-324), ("_MAX_OUTER", 3)):
        monkeypatch.setattr(optimizer, name, value)
    (_, _, history, _), calls, steps, memories = traced_penalty_dual(monkeypatch, problem, theta0)
    assert memories and steps
    for lam, theta, vartheta, rho in steps:
        np.testing.assert_array_equal(vartheta, _unit_phases(theta + rho * lam))
    for theta, gap, rho in history:  # the shift each outer iteration's block calls saw
        shift = [call[3] for call in calls if call[2] == rho][-1]
        assert gap == float(np.abs(theta - _unit_phases(theta + shift)).max())


@pytest.mark.parametrize("shape", [(4, 4), (8, 8), (64, 1)])
def test_pdd_uncapped_rank_one_reaches_closed_form(rng, shape):
    # the coherent maximum N^2 of closed_form_lrs_only, from the aligned start
    # and from random starts, which the loop has to climb out of
    spec = ArraySpec(*shape, 0.02, 0.2)
    u = composite_vector("U", random_angles(rng), random_angles(rng), spec)
    n = spec.size
    prob = ProblemData(Q=u[:, None], B=None, gamma=1.0)
    best = abs(np.vdot(u, closed_form_lrs_only(u).coefficients)) ** 2
    np.testing.assert_allclose(best, n**2, rtol=1e-12)
    for init in [None] + [np.exp(1j * rng.uniform(0, 2 * np.pi, n)) for _ in range(3)]:
        res = pdd_solve(prob, init=init)
        np.testing.assert_allclose(res.objective, best, rtol=1e-9)
        assert problem_objective(prob, res.theta.coefficients) == pytest.approx(best, rel=1e-9)


# ---------------------------------------------------------------------------
# full solves


def test_pdd_unconstrained_alignment_n64():
    spec = ArraySpec(64, 1, 0.02, 0.2)
    u = composite_vector("U", AnglePair(np.pi / 2, 0.0), AnglePair(np.pi / 2, 0.5), spec)
    prob = ProblemData(Q=u[:, None], B=None, gamma=1.0)
    res = pdd_solve(prob)
    assert res.converged
    np.testing.assert_allclose(res.objective, 64.0**2, rtol=1e-4)


def test_pdd_n1_problem():
    prob = ProblemData(Q=np.array([[2.0 + 1.0j, 0.5j]]), B=np.array([[0.1 + 0.0j]]), gamma=1.0)
    res = pdd_solve(prob)
    np.testing.assert_allclose(res.objective, abs(2 + 1j) ** 2 + 0.25, rtol=1e-9)
    with pytest.raises(Infeasible):
        pdd_solve(ProblemData(Q=np.ones((1, 1)), B=np.ones((1, 1)), gamma=0.5))


def test_pdd_feasibility_and_convergence(rng):
    for _ in range(10):
        prob = random_problem(rng)
        res = pdd_solve(prob)
        coeff = res.theta.coefficients
        np.testing.assert_allclose(np.abs(coeff), 1.0, atol=1e-12)
        assert problem_constraint(prob, coeff) <= prob.gamma * (1 + 1e-6)
        if res.converged:
            assert res.trace[-1].gap < optimizer._OUTER_TOL


def test_pdd_beats_grid_oracle(rng):
    for _ in range(10):
        prob = random_problem(rng)
        res = pdd_solve(prob)
        _, best = brute_force_oracle(prob, 16)
        assert res.objective >= 0.95 * best


def test_pdd_deterministic(rng):
    prob = random_problem(rng)
    r1 = pdd_solve(prob)
    r2 = pdd_solve(prob)
    assert r1.objective == r2.objective
    np.testing.assert_array_equal(r1.theta.phases, r2.theta.phases)


def test_pdd_trace_is_recorded(rng):
    prob = random_problem(rng)
    res = pdd_solve(prob)
    # the trace belongs to the winning start; iteration counts sum all starts
    assert 1 <= len(res.trace) <= res.outer_iterations
    for point in res.trace:
        assert point.objective >= 0 and point.constraint >= 0 and point.rho > 0


def test_pdd_with_candidates_keeps_best(rng):
    prob = random_problem(rng, gamma_frac=0.3)
    res = pdd_solve(prob)
    # feeding the solution back can only keep or improve the objective
    res2 = pdd_solve_with_candidates(prob, candidates=[res.theta.coefficients])
    assert res2.objective >= res.objective * (1 - 1e-12)


def test_pdd_repeat_solves_identical_on_binding_cap(rng):
    # a binding cap runs the cap minimizer, the finish, the restart screen and
    # the restarts it keeps, which share the problem's cap constants: no state
    # may carry from one solve to the next. The screen keeps no restart of the
    # first problem; oracle instance 23 runs them.
    for prob, restarts in ((random_problem(rng, n=16, gamma_frac=0.05), False),
                           (oracle_instance(23), True)):
        r1 = pdd_solve(prob)
        r2 = pdd_solve(prob)
        if restarts:
            assert r1.outer_iterations > len(r1.trace)  # more than one start ran
        assert r1.objective == r2.objective
        np.testing.assert_array_equal(r1.theta.phases, r2.theta.phases)


def oracle_instance(index):
    """The problem of that index in the draw order of the acceptance
    criterion test_criterion_pdd_vs_oracle (N = 4, P3)."""
    rng = np.random.default_rng(42)
    for _ in range(index + 1):
        comps = tuple(composite_vector(k, random_angles(rng), random_angles(rng), IRS22) for k in "UVRG")
        q_ls = float(10 ** rng.uniform(-8, -5))
        q_us = float(10 ** rng.uniform(-8, -5))
        loose = build_problem("P3", (q_ls, q_us), comps, None, 1.0, 0.03)
        cap = problem_constraint(loose, np.exp(1j * np.angle(loose.Q[:, 0])))
        gamma = float(max(cap * rng.uniform(0.05, 0.8), 1e-300))
    return build_problem("P3", (q_ls, q_us), comps, None, gamma, 0.03)


def spy_solver_runs(monkeypatch):
    """Record (theta0, result) of every penalty-dual run of pdd_solve's own
    starts, in order: the first start, then each restart that runs. The cap
    minimizer's runs, which take a stop level, are left out."""
    runs = []
    penalty_dual = optimizer._penalty_dual

    def spy(theta0, block, score, stop=None):
        out = penalty_dual(theta0, block, score, stop)
        if stop is None:
            runs.append((theta0, out))
        return out

    monkeypatch.setattr(optimizer, "_penalty_dual", spy)
    return runs


def spy_finishes(monkeypatch):
    """Record (theta, value, finished theta, finished value) of every finish
    of pdd_solve, in order: the first start's, then a winning restart's."""
    finishes = []
    finish = optimizer._finish

    def spy(Q, dual, theta, value, score):
        out = finish(Q, dual, theta, value, score)
        finishes.append((theta, value, *out))
        return out

    monkeypatch.setattr(optimizer, "_finish", spy)
    return finishes


# the ratio to the 16-level grid optimum that oracle instance 23 reached before
# the restart screen, rounded down: 1.06311888265999
ORACLE_23_RATIO = 1.0631188826


def test_screen_runs_the_restarts_of_oracle_instance_23(monkeypatch):
    # the finished first start ends near 0.79 of the grid optimum; only a
    # restart reaches the better basin, so the screen must let one run
    prob = oracle_instance(23)
    runs = spy_solver_runs(monkeypatch)
    finishes = spy_finishes(monkeypatch)
    res = pdd_solve(prob)
    _, best = brute_force_oracle(prob, 16)
    sq2 = max(np.linalg.norm(q) for q in prob.Q.T) ** 2  # pdd_solve scores on Q / sq
    finished = sq2 * finishes[0][3]
    assert finished < 0.8 * best
    assert len(runs) > 1  # a restart ran
    assert res.objective / best >= ORACLE_23_RATIO


def test_winning_restart_of_oracle_instance_23_is_finished(monkeypatch):
    # a restart wins on this instance, and gets the same finish as the first
    # start: from its kept copy, kept if it scores higher
    runs = spy_solver_runs(monkeypatch)
    finishes = spy_finishes(monkeypatch)
    res = pdd_solve(oracle_instance(23))
    winner = max((out for _, out in runs[1:]), key=lambda out: out[1])
    assert winner[1] > finishes[0][3]  # it beats the finished first start
    assert len(finishes) == 2
    start, value, _, finished = finishes[1]
    assert start is winner[0] and value == winner[1]
    sq2 = max(np.linalg.norm(q) for q in oracle_instance(23).Q.T) ** 2
    assert finished >= value and res.objective == sq2 * finished


def screened(Q, B, theta_ref, starts):
    """Reference of the restart screen, one column at a time: the least-squares
    multiplier mu >= 0 at theta_ref, the ascent theta <- phase((Q Q^H - mu B B^H
    + mu sig2 I) theta) of every column until no entry moves 1e-6 (at most 50
    steps), and L = ||Q^H theta||^2 - mu ||B^H theta||^2 at the reference and
    at each screened column."""
    grad, cap = Q @ (Q.conj().T @ theta_ref), B @ (B.conj().T @ theta_ref)
    a, b = (np.conj(theta_ref) * grad).imag, (np.conj(theta_ref) * cap).imag
    mu = max(0.0, float(a @ b) / float(b @ b))
    kappa = mu * np.linalg.norm(B, 2) ** 2

    def L(theta):
        return np.linalg.norm(Q.conj().T @ theta) ** 2 - mu * np.linalg.norm(B.conj().T @ theta) ** 2

    columns = list(starts.T)
    for _ in range(50):
        new = [np.exp(1j * np.angle(Q @ (Q.conj().T @ t) - mu * (B @ (B.conj().T @ t)) + kappa * t))
               for t in columns]
        moved = max(np.abs(n - t).max() for n, t in zip(new, columns))
        ascent = [L(n) - L(t) for n, t in zip(new, columns)]
        assert min(ascent) >= -1e-12 * abs(L(theta_ref))  # no step lowers L
        columns = new
        if moved < 1e-6:
            break
    return L(theta_ref), [L(t) for t in columns]


def test_screened_out_restarts_never_reach_the_penalty_dual_loop(rng, monkeypatch):
    screen = optimizer._screen_starts
    screens = []

    def screen_spy(Q, dual, theta_ref, starts):
        keep = screen(Q, dual, theta_ref, starts)
        screens.append((Q, dual.B, theta_ref, starts, keep))
        return keep

    monkeypatch.setattr(optimizer, "_screen_starts", screen_spy)
    runs = spy_solver_runs(monkeypatch)
    finishes = spy_finishes(monkeypatch)
    counts = {"kept": 0, "skipped": 0}
    problems = [random_problem(rng, n=(4, 8, 16)[i % 3], case=("P3", "P4")[i % 2], gamma_frac=0.1)
                for i in range(12)] + [oracle_instance(23)]
    for prob in problems:
        screens.clear()
        runs.clear()
        finishes.clear()
        pdd_solve(prob)
        if not screens:
            continue  # the cap does not bind at the finished first start
        Q, B, theta_ref, starts, keep = screens[0]
        ref, values = screened(Q, B, theta_ref, starts)
        for value, kept in zip(values, keep):
            margin = value - ref - 1e-9 * abs(ref)
            assert kept == (margin > 0) or abs(margin) < 1e-9 * abs(ref)
        # the first start, then one run per kept restart; the first start's
        # finish, then the finish of a restart that beats the finished first start
        kept = int(np.sum(keep))
        won = [out for _, out in runs[1:] if out[1] > finishes[0][3]]
        assert len(runs) == 1 + kept
        assert len(finishes) == 1 + (1 if won else 0)
        if won:
            assert finishes[-1][0] is max(won, key=lambda out: out[1])[0]
        for start in starts.T[~keep]:
            assert not any(np.array_equal(theta0, start) for theta0, _ in runs)
        counts["kept"] += int(np.sum(keep))
        counts["skipped"] += int(np.sum(~keep))
    assert min(counts.values()) > 0, counts


def test_finish_never_lowers_the_first_start(rng, monkeypatch):
    runs = spy_solver_runs(monkeypatch)
    finishes = spy_finishes(monkeypatch)
    problems = [random_problem(rng, n=(4, 8, 16)[i % 3], case=("P3", "P4")[i % 2]) for i in range(12)]
    problems.append(ProblemData(Q=problems[0].Q, B=None, gamma=1.0))
    raised = 0
    for prob in problems:
        runs.clear()
        finishes.clear()
        res = pdd_solve(prob)
        first = runs[0][1]
        start, value, finished_theta, finished = finishes[0]
        assert start is first[0] and value == first[1]  # it starts at the first start's kept copy
        assert finished >= value
        raised += finished > value and finished_theta is not start
        sq2 = max(np.linalg.norm(q) for q in prob.Q.T) ** 2
        assert res.objective >= sq2 * first[1]
    assert raised > 0  # the finish does move the copy


def spy_newton(monkeypatch):
    """Record (dual, theta, result) of every Newton solve of the finish."""
    calls = []
    newton = optimizer._kkt_newton

    def spy(Q, dual, theta):
        out = newton(Q, dual, theta)
        calls.append((dual, theta, out))
        return out

    monkeypatch.setattr(optimizer, "_kkt_newton", spy)
    return calls


def finish_once(problem, theta):
    """The finish of ``theta`` on ``problem``, scored as pdd_solve scores."""
    dual = optimizer._cap_dual(problem)

    def score(x):
        if dual is not None and dual.quad(x) > problem.gamma * (1 + 0.1 * optimizer.FEAS_RTOL):
            return None
        return problem_objective(problem, x)

    return optimizer._finish(problem.Q, dual, theta, score(theta), score)


def test_finish_edge_cases_keep_the_copy_or_hold_the_cap(monkeypatch):
    # each case ends in the kept copy or in the result with the cap held,
    # and raises nothing and warns nothing
    calls = spy_newton(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # N = 1 on the cap: the cap's gradient vanishes identically
        theta = np.ones(1, dtype=complex)
        prob = ProblemData(Q=np.array([[2.0 + 1.0j]]), B=np.array([[1.0 + 0.0j]]), gamma=1.0)
        out = finish_once(prob, theta)
        assert out[0] is theta and len(calls) == 1
        assert calls[0][0] is not None and calls[0][2] is None
        # a zero row of Q makes the diagonal of the Newton matrix 0: no finite step
        calls.clear()
        theta = np.ones(2, dtype=complex)
        out = finish_once(ProblemData(Q=np.array([[1.0], [0.0]]), B=None, gamma=1.0), theta)
        assert out[0] is theta and len(calls) == 1 and calls[0][2] is None
        # no cap: Newton runs once, without it, back to a stationary point
        base = random_problem(np.random.default_rng(3), n=8)
        prob = ProblemData(Q=base.Q / max(np.linalg.norm(q) for q in base.Q.T), B=None, gamma=1.0)
        theta = pdd_solve(prob).theta.coefficients * np.exp(0.1j * np.random.default_rng(0).normal(size=8))
        calls.clear()
        out = finish_once(prob, theta)
        assert len(calls) == 1 and calls[0][0] is None
        assert out[1] > problem_objective(prob, theta) and kkt_residual(prob, out[0]) <= 1e-12
        # a kept copy just under the cap, from which Newton without the cap
        # lands far over it: the finish holds the cap instead
        calls.clear()
        rng = np.random.default_rng(5)
        prob = [random_problem(rng, n=1024, gamma_frac=0.3) for _ in range(2)][1]
        res = pdd_solve(prob)
    (free, start, over), (held, held_start, capped) = calls
    assert free is None and held is not None and held_start is start
    assert 1 - 1e-5 < problem_constraint(prob, start) / prob.gamma < 1 - optimizer._CAP_ACTIVE_RTOL
    assert problem_constraint(prob, over) > 10 * prob.gamma
    np.testing.assert_array_equal(res.theta.phases, np.angle(capped))
    assert problem_constraint(prob, res.theta.coefficients) <= prob.gamma * (1 + optimizer.FEAS_RTOL)


def test_cap_minimizer_stop_level_keeps_infeasible_decisions(rng, monkeypatch):
    # pdd_solve stops its cap minimizer at the first unit-modulus point under
    # gamma. The minimizer must either end under gamma or run exactly as the
    # full minimizer does, and pdd_solve must raise Infeasible exactly when
    # the full minimizer, from the same start, ends above gamma (1 + 1e-6).
    core = optimizer._minimize_quad_core
    calls = []

    def spy(dual, ref, stop=None):
        out = core(dual, ref, stop)
        calls.append((dual, ref, out))
        return out

    class Decided(Exception):
        pass

    def stop_solving(*args, **kwargs):
        raise Decided  # the start is chosen: the decision is made

    monkeypatch.setattr(optimizer, "_minimize_quad_core", spy)
    monkeypatch.setattr(optimizer._ThetaBlock, "update", stop_solving)

    def solve(problem):
        calls.clear()
        try:
            pdd_solve(problem)
        except Infeasible:
            return True
        except Decided:
            return False
        raise AssertionError("pdd_solve ran no theta update")

    seen = {"raised": 0, "kept": 0, "stopped": 0}
    for trial in range(24):
        n = 2 + trial % 3  # two cap vectors: no unit-modulus null at N = 2, 3
        case = "P3" if trial % 2 else "P4"
        base = random_problem(rng, n=n, case=case)
        sh2 = max(np.linalg.norm(b) for b in base.B.T) ** 2
        # probe with a cap far below the first start, to get its cap minimizer
        solve(replace(base, gamma=1e-12 * sh2))
        dual, ref, _ = calls[0]
        full_val = core(dual, ref)[1]
        if full_val <= 1e-10:
            continue  # N = 4 can have a unit-modulus null
        for frac in (0.5, 1 - 1e-3, 1 - 1e-7, 1 + 1e-7, 1 + 1e-3, 2.0, 8.0):
            problem = replace(base, gamma=frac * full_val * sh2)
            raised = solve(problem)
            if not calls:  # the first start was under the cap
                assert not raised
                continue
            dual, ref, (theta, val) = calls[0]
            full_theta, full_val_k = core(dual, ref)
            assert raised == (full_val_k > dual.gamma * (1 + 1e-6))
            early = val != full_val_k or not np.array_equal(theta.phases, full_theta.phases)
            if early:
                assert val <= dual.gamma
            seen["raised" if raised else "kept"] += 1
            seen["stopped"] += early
    assert min(seen.values()) > 0, seen


def spy_cap_minimizer_loop(monkeypatch):
    """Record (theta0, result) of every penalty-dual run of the cap minimizer."""
    runs = []
    penalty_dual = optimizer._penalty_dual

    def spy(theta0, block, score, stop=None, **kwargs):
        out = penalty_dual(theta0, block, score, stop, **kwargs)
        runs.append((theta0, out))
        return out

    monkeypatch.setattr(optimizer, "_penalty_dual", spy)
    return runs


def cap_minimizer_inputs(rng, count):
    """(dual, ref) of ``count`` random N = 2, 3, 4, 8 problems, as cap_minimum builds them."""
    out = []
    for trial in range(count):
        problem = random_problem(rng, n=(2, 3, 4, 8)[trial % 4], case="P3" if trial % 2 else "P4")
        sh = float(max(np.linalg.norm(b) for b in problem.B.T))
        out.append((_CapDual(problem.B / sh), _unit_phases(problem.Q[:, 0])))
    return out


def test_cap_minimizer_returns_its_loop_copy_at_the_stop_level(rng, monkeypatch):
    # a loop that reaches the stop level hands back its kept copy unpolished
    inputs = cap_minimizer_inputs(rng, 8)
    runs = spy_cap_minimizer_loop(monkeypatch)
    for dual, ref in inputs:
        runs.clear()
        optimizer._minimize_quad_core(dual, ref)
        stop = -2.0 * runs[0][1][1]  # twice the value of the full loop's kept copy
        runs.clear()
        theta, val = optimizer._minimize_quad_core(dual, ref, stop)
        ((theta0, (kept, score, history, _)),) = runs
        assert history and dual.quad(theta0) > stop  # the loop ran until it reached the level
        np.testing.assert_array_equal(theta.phases, np.angle(kept))
        assert val == -score <= stop


def test_cap_minimizer_without_stop_level_polishes(rng, monkeypatch):
    # minimize_unit_modulus_quadratic takes no stop level: the polish runs
    # after the loop, and never raises the loop's value
    inputs = cap_minimizer_inputs(rng, 8)
    runs = spy_cap_minimizer_loop(monkeypatch)
    lowered = 0
    for dual, ref in inputs:
        runs.clear()
        val = optimizer._minimize_quad_core(dual, ref)[1]
        ((_, (_, score, _, _)),) = runs
        assert val <= -score
        lowered += val < -score
    assert lowered > 0


def test_pdd_solve_near_threshold_cap_is_met_or_infeasible(monkeypatch):
    # the 16th problem drawn in the order of the stop-level test above (N = 2,
    # P3), at caps within 1e-7 of its cap minimizer's value: there the P9 dual
    # has a plateau that Newton's method crawls over, and a projection stops a
    # hair over the cap; the solve must still meet the cap within its slack,
    # or report Infeasible, not raise ProjectionError
    rng = np.random.default_rng(20240811)
    for trial in range(16):
        base = random_problem(rng, n=2 + trial % 3, case="P3" if trial % 2 else "P4")
    core, calls = optimizer._minimize_quad_core, []

    def spy(dual, ref, stop=None):
        calls.append((dual, ref))
        return core(dual, ref, stop)

    monkeypatch.setattr(optimizer, "_minimize_quad_core", spy)
    sh2 = max(np.linalg.norm(b) for b in base.B.T) ** 2
    with pytest.raises(Infeasible):
        pdd_solve(replace(base, gamma=1e-12 * sh2))
    full_val = core(*calls[0])[1] * sh2  # the cap minimizer run to its end, unscaled
    solved = 0
    for frac in (1 - 1e-7, 1 + 1e-7):
        problem = replace(base, gamma=frac * full_val)
        try:
            res = pdd_solve(problem)
        except Infeasible:
            continue
        solved += 1
        coeff = res.theta.coefficients
        np.testing.assert_allclose(np.abs(coeff), 1.0, atol=1e-12)
        assert problem_constraint(problem, coeff) <= problem.gamma * (1 + optimizer.FEAS_RTOL)
    assert solved > 0


def test_pdd_solve_at_cap_rounding_floor_returns_under_cap(rng, monkeypatch):
    # the 15th problem drawn in the order of the stop-level test above (N = 4,
    # P4) has a unit-modulus near-null: its cap minimizer ends near the
    # rounding floor of the cap form, where rebuilding a reflection from its
    # angles moves the cap value by percents. At each cap fraction of that
    # test, a solve either returns a reflection under the cap or raises.
    for trial in range(15):
        base = random_problem(rng, n=2 + trial % 3, case="P3" if trial % 2 else "P4")
    core, calls = optimizer._minimize_quad_core, []

    def spy(dual, ref, stop=None):
        calls.append((dual, ref))
        return core(dual, ref, stop)

    monkeypatch.setattr(optimizer, "_minimize_quad_core", spy)
    sh2 = max(np.linalg.norm(b) for b in base.B.T) ** 2
    with pytest.raises(Infeasible):
        pdd_solve(replace(base, gamma=1e-40 * sh2))
    full_val = core(*calls[0])[1] * sh2
    for frac in (0.5, 1 - 1e-3, 1 - 1e-7, 1 + 1e-7, 1 + 1e-3, 2.0, 8.0):
        problem = replace(base, gamma=frac * full_val)
        for solve in (pdd_solve, pdd_solve_with_candidates):
            try:
                coeff = solve(problem).theta.coefficients
            except Infeasible:
                continue
            np.testing.assert_allclose(np.abs(coeff), 1.0, atol=1e-12)
            assert problem_constraint(problem, coeff) <= problem.gamma * (1 + optimizer.FEAS_RTOL)


def test_cap_violating_returns_raise_infeasible(rng, monkeypatch):
    # an iterate or a candidate that meets the cap only through its shrunken
    # magnitude: the unit-modulus reflection rebuilt from its angles is
    # 1/0.3 times over the cap, and neither solver may return it
    problem = random_problem(rng, n=8, case="P4", gamma_frac=0.3)
    aligned = np.exp(1j * np.angle(problem.Q[:, 0]))
    assert problem_constraint(problem, aligned) > 3 * problem.gamma

    penalty_dual = optimizer._penalty_dual

    def shrunken_run(theta0, update, score, *stop):
        if stop:  # the cap minimizer's own loop runs as before
            return penalty_dual(theta0, update, score, *stop)
        return 1e-3 * aligned, 1.0, [], True  # the first start

    def no_finish(Q, dual, theta, value, score):
        return theta, value

    with monkeypatch.context() as m:
        m.setattr(optimizer, "_penalty_dual", shrunken_run)
        m.setattr(optimizer, "_finish", no_finish)
        with pytest.raises(Infeasible, match="exceeds gamma"):
            pdd_solve(problem)

    weak = optimizer.PddResult(theta=ReflectionVector.off(problem.n), objective=0.0)
    monkeypatch.setattr(optimizer, "pdd_solve", lambda *args, **kwargs: weak)
    monkeypatch.setattr(optimizer, "_unit_phases", lambda x: 1e-3 * x / np.abs(x))
    with pytest.raises(Infeasible, match="exceeds gamma"):
        pdd_solve_with_candidates(problem, candidates=[aligned])


# ---------------------------------------------------------------------------
# caps close to the least reachable one


def cap_minimum(problem):
    """The full cap minimizer's value on B scaled to a largest column of 1,
    from the phase of the first objective vector, and that scale."""
    sh = float(max(np.linalg.norm(b) for b in problem.B.T))
    dual = _CapDual(problem.B / sh)
    return optimizer._minimize_quad_core(dual, _unit_phases(problem.Q[:, 0]))[1], sh


# what the two instances below reach with the outer loop; cut to one outer
# iteration, they reach 2.82e-15 (0.187 of it) and 1.73e-3
OUTER_LOOP_MAXIMUM = 1.509140105380026e-14
OUTER_LOOP_CAP_MINIMUM = 5.043269250340793e-05


def test_maximizer_near_the_least_cap_needs_the_outer_loop():
    # the cap at twice the least value the cap minimizer reaches
    base = random_problem(np.random.default_rng(1), n=4, case="P3")
    value, sh = cap_minimum(base)
    res = pdd_solve(replace(base, gamma=2 * value * sh**2))
    assert res.objective >= 0.99 * OUTER_LOOP_MAXIMUM


def test_cap_minimizer_needs_the_outer_loop():
    base = random_problem(np.random.default_rng(17), n=4, case="P3")
    assert cap_minimum(base)[0] <= 1.01 * OUTER_LOOP_CAP_MINIMUM


def test_p9_stops_where_its_slope_overflows():
    # at twice its least cap, a restart's P9 dual iterate on this instance
    # collapses to ||w|| ~ 1e-308, where sqrt(gamma) / ||w|| overflows: the
    # projection stops there, with no NaN step, and the solve ends promptly
    base = random_problem(np.random.default_rng(26), n=16, case="P4")
    value, sh = cap_minimum(base)
    problem = replace(base, gamma=2 * value * sh**2)
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            coeff = pdd_solve(problem).theta.coefficients
            assert problem_constraint(problem, coeff) <= problem.gamma * (1 + optimizer.FEAS_RTOL)
        except ProjectionError:
            pass
    assert time.perf_counter() - t0 < 10.0


def test_minimize_quadratic_two_vectors_reaches_null(rng):
    spec = ArraySpec(4, 4, 0.02, 0.2)
    vecs = [composite_vector(kind, random_angles(rng), random_angles(rng), spec) for kind in "GV"]
    theta, val = minimize_unit_modulus_quadratic(vecs)
    assert val <= 1e-10 * spec.size**2
    coeff = theta.coefficients
    assert val == pytest.approx(sum(abs(np.vdot(v, coeff)) ** 2 for v in vecs), rel=1e-6, abs=1e-20)
    np.testing.assert_allclose(np.abs(coeff), 1.0, atol=1e-12)


def test_minimize_quadratic_reaches_structured_null(rng):
    spec = ArraySpec(4, 4, 0.02, 0.2)
    g = composite_vector("G", random_angles(rng), random_angles(rng), spec)
    theta, val = minimize_unit_modulus_quadratic([g])
    assert val <= 1e-10 * spec.size**2
    np.testing.assert_allclose(np.abs(theta.coefficients), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# closed forms


def test_closed_form_alignment_phases(rng):
    u = composite_vector("U", random_angles(rng), random_angles(rng), IRS22)
    theta = closed_form_lrs_only(u)
    np.testing.assert_allclose(theta.phases, np.angle(u), atol=1e-12)
    np.testing.assert_allclose(abs(np.vdot(u, theta.coefficients)) ** 2, 16.0, rtol=1e-12)


def test_closed_form_alignment_dominates(rng):
    u = composite_vector("U", random_angles(rng), random_angles(rng), IRS22)
    n = u.shape[0]
    for _ in range(50):
        other = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        assert abs(np.vdot(u, other)) ** 2 <= n**2 * (1 + 1e-12)


def test_urs_null_all_indices(rng):
    # a nonzero index on either axis zeroes that axis factor of the echo gain,
    # so ULAs have nulls too
    for shape in ((8, 8), (8, 1), (1, 8)):
        spec = ArraySpec(*shape, 0.02, 0.2)
        for _ in range(5):
            au = random_angles(rng)
            g = composite_vector("G", au, au, spec)
            for ix in range(shape[0]):
                for iy in range(shape[1]):
                    if ix == iy == 0:
                        continue
                    theta = closed_form_urs_null(spec, au, (ix, iy))
                    assert abs(np.vdot(g, theta.coefficients)) ** 2 <= 1e-18 * spec.size**2


def test_urs_null_unavailable_on_single_element():
    with pytest.raises(NoNullAvailable):
        closed_form_urs_null(ArraySpec(1, 1, 0.02, 0.2), AnglePair(0.5, 0.5), (0, 0))


def test_urs_null_index_range():
    au = AnglePair(0.5, 0.5)
    for shape, bad in (((4, 4), [(0, 0), (4, 1), (1, 4), (-1, 1)]),
                       ((8, 1), [(0, 0), (1, 1), (8, 0)]),
                       ((1, 8), [(0, 0), (1, 1), (0, 8)])):
        spec = ArraySpec(*shape, 0.02, 0.2)
        for index in bad:
            with pytest.raises(IndexError):
                closed_form_urs_null(spec, au, index)
    # the axis index may be 0 when the other one is not
    closed_form_urs_null(ArraySpec(4, 4, 0.02, 0.2), au, (0, 1))
    closed_form_urs_null(ArraySpec(4, 4, 0.02, 0.2), au, (3, 0))


# ---------------------------------------------------------------------------
# the brute-force oracle


def test_oracle_n1_enumerates_roots():
    prob = ProblemData(Q=np.array([[1.0 + 1.0j]]), B=None, gamma=1.0)
    theta, best = brute_force_oracle(prob, 4)
    roots = np.exp(2j * np.pi * np.arange(4) / 4)
    np.testing.assert_allclose(best, max(abs(np.conj(1 + 1j) * r) ** 2 for r in roots), rtol=1e-12)


def test_oracle_alignment_within_quantization(rng):
    u = composite_vector("U", random_angles(rng), random_angles(rng), IRS22)
    prob = ProblemData(Q=u[:, None], B=None, gamma=1.0)
    _, best = brute_force_oracle(prob, 16)
    assert best >= 0.96 * 16.0


def test_oracle_reports_infeasible(rng):
    h = np.array([1.0, 0.3 + 0.2j, -0.5j, 0.8])
    prob = ProblemData(Q=np.ones((4, 1)), B=h[:, None], gamma=1e-30)
    with pytest.raises(Infeasible):
        brute_force_oracle(prob, 3)


def test_oracle_budget():
    prob = ProblemData(Q=np.ones((16, 1)), B=None, gamma=1.0)
    with pytest.raises(BudgetExceeded):
        brute_force_oracle(prob, 16)

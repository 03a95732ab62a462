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
    PddParams,
    ProblemData,
    ProjectionError,
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
from irsim.optimizer import _CapDual, _clip_disk, _p9_dual, _top_sigma_sq, _unit_phases

from conftest import random_angles

IRS22 = ArraySpec(2, 2, 0.02, 0.2)


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
    cap_at_align = problem_constraint(loose, np.exp(1j * np.angle(loose.q1)))
    gamma = max(cap_at_align * gamma_frac, 1e-300)
    return build_problem(case, (q_ls, q_us), comps, (25e-6, 30e-6), gamma, 0.03)


# ---------------------------------------------------------------------------
# problem construction


def test_build_problem_p1_unit_mapping(rng):
    comps = tuple(composite_vector(k, random_angles(rng), random_angles(rng), IRS22) for k in "UVRG")
    u, v, r, g = comps
    prob = build_problem("P1", (1.0, 1.0), comps, None, gamma=1.0, p_u_min=1.0)
    np.testing.assert_allclose(prob.q1, u, atol=1e-15)
    np.testing.assert_allclose(prob.h1, v, atol=1e-15)
    assert np.all(prob.q2 == 0) and np.all(prob.h2 == 0)


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
    z = np.zeros(3, dtype=complex)
    with pytest.raises(ValueError):
        ProblemData(q1=z, q2=z, h1=z, h2=z, gamma=1.0, p_u_min=1.0)
    with pytest.raises(ValueError):
        ProblemData(q1=np.ones(3), q2=z, h1=z, h2=z, gamma=-1.0, p_u_min=1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_problem_data_rejects_non_finite(bad):
    z = np.zeros(3, dtype=complex)
    with pytest.raises(ValueError, match="gamma must be finite"):
        ProblemData(q1=np.ones(3), q2=z, h1=z, h2=z, gamma=bad, p_u_min=1.0)
    with pytest.raises(ValueError, match="p_u_min must be finite"):
        ProblemData(q1=np.ones(3), q2=z, h1=z, h2=z, gamma=1.0, p_u_min=bad)


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
    grad = problem.q1 * np.vdot(problem.q1, theta) + problem.q2 * np.vdot(problem.q2, theta)
    cap = problem.h1 * np.vdot(problem.h1, theta) + problem.h2 * np.vdot(problem.h2, theta)
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

    def indefinite_first(self, x, r):
        # the first three Newton matrices are made negative definite
        gram = clip_gram(self, x, r)
        return -gram - 10.0 * np.eye(2 * self.k) if len(solves) < 3 else gram

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
        dual = optimizer._CapDual(B)
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
        got = dual.clip_gram(x, r)
        assert got.shape == (2 * k, 2 * k)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


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


def theta_update(prob, theta, vartheta, lam, rho, params=None):
    """One disk-block update of a fresh _ThetaBlock at the full inner tolerance."""
    params = params or PddParams()
    block = optimizer._ThetaBlock(prob, params, optimizer._cap_dual(prob))
    theta, _, objectives = block.update(theta, vartheta - rho * lam, rho, params.inner_tol)
    return theta, objectives


def test_theta_update_unconstrained_closed_form(rng):
    # with a vanishing objective gradient the first surrogate step is the
    # clipped penalty center
    n = 4
    q1 = rng.normal(size=n) + 1j * rng.normal(size=n)
    prob = ProblemData(q1=q1, q2=np.zeros(n), h1=np.zeros(n), h2=np.zeros(n),
                       gamma=1.0, p_u_min=1.0)
    # start orthogonal to q1 so the linearization term vanishes
    theta0 = np.zeros(n, dtype=complex)
    theta0[0], theta0[1] = np.conj(q1[1]), -np.conj(q1[0])
    theta0 = theta0 / np.linalg.norm(theta0)
    assert abs(np.vdot(q1, theta0)) < 1e-12
    vartheta = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    lam = 0.1 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    theta, objs = theta_update(prob, theta0, vartheta, lam, 0.8, PddParams(max_sca=1))
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
    prob = ProblemData(q1=q1, q2=np.zeros(n), h1=np.zeros(n), h2=np.zeros(n),
                       gamma=1.0, p_u_min=1.0)
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
    loose = ProblemData(q1=q1, q2=q2, h1=h1, h2=h2, gamma=1.0, p_u_min=1.0)
    gamma = frac * problem_constraint(loose, np.exp(1j * np.angle(q1)))
    return replace(loose, gamma=gamma)


def traced_penalty_dual(monkeypatch, problem, theta0, block=None):
    """Run the solver's penalty-dual loop once, recording every block call.

    Returns the loop's result, the block calls as (theta in, trial, rho,
    shift, theta out, f), the dual steps' (lambda, theta, vartheta, rho) and
    the memories handed to _anderson. trial = center + shift is the copy the
    block was called with, shift = rho lambda.
    """
    params = PddParams()
    inner = block or optimizer._ThetaBlock(problem, params, optimizer._cap_dual(problem)).update
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

    out = optimizer._penalty_dual(theta0, spy_block, score, params)
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
    real = optimizer._ThetaBlock(problem, PddParams(), optimizer._cap_dual(problem)).update
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
    (_, _, history, _), calls, steps, memories = traced_penalty_dual(monkeypatch, problem, theta0)
    assert memories and steps
    for lam, theta, vartheta, rho in steps:
        np.testing.assert_array_equal(vartheta, _unit_phases(theta + rho * lam))
    for theta, gap, rho in history:  # the last outer iteration takes no dual step
        shift = [call[3] for call in calls if call[2] == rho][-1]
        assert gap == float(np.abs(theta - _unit_phases(theta + shift)).max())


@pytest.mark.parametrize("shape", [(4, 4), (8, 8), (64, 1)])
def test_pdd_uncapped_rank_one_reaches_closed_form(rng, shape):
    # the coherent maximum N^2 of closed_form_lrs_only, from the aligned start
    # and from random starts, which the loop has to climb out of
    spec = ArraySpec(*shape, 0.02, 0.2)
    u = composite_vector("U", random_angles(rng), random_angles(rng), spec)
    n = spec.size
    z = np.zeros(n)
    prob = ProblemData(q1=u, q2=z, h1=z, h2=z, gamma=1.0, p_u_min=1.0)
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
    prob = ProblemData(q1=u, q2=np.zeros(64), h1=np.zeros(64), h2=np.zeros(64),
                       gamma=1.0, p_u_min=1.0)
    res = pdd_solve(prob)
    assert res.converged
    np.testing.assert_allclose(res.objective, 64.0**2, rtol=1e-4)


def test_pdd_n1_problem():
    prob = ProblemData(q1=np.array([2.0 + 1.0j]), q2=np.array([0.5j]),
                       h1=np.array([0.1 + 0.0j]), h2=np.zeros(1),
                       gamma=1.0, p_u_min=1.0)
    res = pdd_solve(prob)
    np.testing.assert_allclose(res.objective, abs(2 + 1j) ** 2 + 0.25, rtol=1e-9)
    with pytest.raises(Infeasible):
        pdd_solve(ProblemData(q1=np.array([1.0 + 0j]), q2=np.zeros(1),
                              h1=np.array([1.0 + 0j]), h2=np.zeros(1),
                              gamma=0.5, p_u_min=1.0))


def test_pdd_feasibility_and_convergence(rng):
    for _ in range(10):
        prob = random_problem(rng)
        res = pdd_solve(prob)
        coeff = res.theta.coefficients
        np.testing.assert_allclose(np.abs(coeff), 1.0, atol=1e-12)
        assert problem_constraint(prob, coeff) <= prob.gamma * (1 + 1e-6)
        if res.converged:
            assert res.trace[-1].gap < PddParams().outer_tol


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
    # a binding cap runs the cap minimizer and the extra starts, which share
    # the problem's cap constants: no state may carry from one solve to the next
    prob = random_problem(rng, n=16, gamma_frac=0.05)
    r1 = pdd_solve(prob)
    r2 = pdd_solve(prob)
    assert r1.outer_iterations > len(r1.trace)  # more than one start ran
    assert r1.objective == r2.objective
    np.testing.assert_array_equal(r1.theta.phases, r2.theta.phases)


def test_cap_minimizer_stop_level_keeps_infeasible_decisions(rng, monkeypatch):
    # pdd_solve stops its cap minimizer at the first unit-modulus point under
    # gamma. The minimizer must either end under gamma or run exactly as the
    # full minimizer does, and pdd_solve must raise Infeasible exactly when
    # the full minimizer, from the same start, ends above gamma (1 + 1e-6).
    core = optimizer._minimize_quad_core
    calls = []

    def spy(dual, params, ref, stop=None):
        out = core(dual, params, ref, stop)
        calls.append((dual, params, ref, out))
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
        sh2 = max(np.linalg.norm(base.h1), np.linalg.norm(base.h2)) ** 2
        # probe with a cap far below the first start, to get its cap minimizer
        solve(replace(base, gamma=1e-12 * sh2))
        dual, params, ref, _ = calls[0]
        full_val = core(dual, params, ref)[1]
        if full_val <= 1e-10:
            continue  # N = 4 can have a unit-modulus null
        for frac in (0.5, 1 - 1e-3, 1 - 1e-7, 1 + 1e-7, 1 + 1e-3, 2.0, 8.0):
            problem = replace(base, gamma=frac * full_val * sh2)
            raised = solve(problem)
            if not calls:  # the first start was under the cap
                assert not raised
                continue
            dual, params, ref, (theta, val) = calls[0]
            full_theta, full_val_k = core(dual, params, ref)
            assert raised == (full_val_k > dual.gamma * (1 + 1e-6))
            early = val != full_val_k or not np.array_equal(theta.phases, full_theta.phases)
            if early:
                assert val <= dual.gamma
            seen["raised" if raised else "kept"] += 1
            seen["stopped"] += early
    assert min(seen.values()) > 0, seen


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
    spec = ArraySpec(8, 8, 0.02, 0.2)
    for _ in range(5):
        au = random_angles(rng)
        g = composite_vector("G", au, au, spec)
        for ix in (1, 3, 7):
            for iy in (1, 4, 7):
                theta = closed_form_urs_null(spec, au, (ix, iy))
                assert abs(np.vdot(g, theta.coefficients)) ** 2 <= 1e-18 * 64.0**2


def test_urs_null_unavailable_on_ula():
    with pytest.raises(NoNullAvailable):
        closed_form_urs_null(ArraySpec(1, 8, 0.02, 0.2), AnglePair(0.5, 0.5), (1, 1))
    with pytest.raises(NoNullAvailable):
        closed_form_urs_null(ArraySpec(8, 1, 0.02, 0.2), AnglePair(0.5, 0.5), (1, 1))


def test_urs_null_index_range():
    spec = ArraySpec(4, 4, 0.02, 0.2)
    with pytest.raises(IndexError):
        closed_form_urs_null(spec, AnglePair(0.5, 0.5), (0, 1))
    with pytest.raises(IndexError):
        closed_form_urs_null(spec, AnglePair(0.5, 0.5), (1, 4))


# ---------------------------------------------------------------------------
# the brute-force oracle


def test_oracle_n1_enumerates_roots():
    prob = ProblemData(q1=np.array([1.0 + 1.0j]), q2=np.zeros(1),
                       h1=np.zeros(1), h2=np.zeros(1), gamma=1.0, p_u_min=1.0)
    theta, best = brute_force_oracle(prob, 4)
    roots = np.exp(2j * np.pi * np.arange(4) / 4)
    np.testing.assert_allclose(best, max(abs(np.conj(1 + 1j) * r) ** 2 for r in roots), rtol=1e-12)


def test_oracle_alignment_within_quantization(rng):
    u = composite_vector("U", random_angles(rng), random_angles(rng), IRS22)
    prob = ProblemData(q1=u, q2=np.zeros(4), h1=np.zeros(4), h2=np.zeros(4),
                       gamma=1.0, p_u_min=1.0)
    _, best = brute_force_oracle(prob, 16)
    assert best >= 0.96 * 16.0


def test_oracle_reports_infeasible(rng):
    h = np.array([1.0, 0.3 + 0.2j, -0.5j, 0.8])
    prob = ProblemData(q1=np.ones(4), q2=np.zeros(4), h1=h, h2=np.zeros(4),
                       gamma=1e-30, p_u_min=1.0)
    with pytest.raises(Infeasible):
        brute_force_oracle(prob, 3)


def test_oracle_budget():
    prob = ProblemData(q1=np.ones(16), q2=np.zeros(16), h1=np.zeros(16),
                       h2=np.zeros(16), gamma=1.0, p_u_min=1.0)
    with pytest.raises(BudgetExceeded):
        brute_force_oracle(prob, 16)

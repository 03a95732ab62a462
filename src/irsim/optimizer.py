"""Reflection-phase optimization under a destination power cap.

The unified problem: maximize ||Q^H theta||^2 over unit-modulus theta
subject to ||B^H theta||^2 <= gamma, Q and B of at most two columns. Solved
by a penalty-dual scheme: the unit-modulus constraint is split onto an
auxiliary copy of the variable, the copies are tied by an
augmented-Lagrangian penalty, and the inner loop alternates between

* a theta block over the relaxed set {|theta_n| <= 1, power cap}, handled by
  successive convex approximation (the concave part is linearized, and each
  surrogate is a projection onto that set, solved exactly by Newton's method
  in its Lagrangian dual, whose variable has at most 4 real entries because
  the cap has at most 2 vectors), and
* a closed-form unit-modulus projection for the auxiliary block,

followed by an outer dual update and geometric shrinking of the penalty
parameter. The alternation, a fixed-point iteration on the auxiliary copy,
is sped up by Anderson extrapolation, kept only where it does not raise a
merit that the plain alternation never raises; the exit test and exit state
stay those of the plain alternation. A start that violates the cap is
blended toward a cap minimizer, found by the same penalty-dual loop with the
roles swapped: its disk block, min ||B^H x||^2 + ||x - c||^2 / (2 rho), is
convex and is also solved exactly by Newton's method in a dual variable with
at most 4 real entries. Both dual solves share the cap constants, built once
per problem.

The outer loop is kept for caps close to the least reachable one. On the
reference inputs every run ends after one outer iteration, but near that
cap the cap minimizer runs 2-16 of them, and cut to one it ends 2.7-34
times higher on N = 4 instances; at twice that cap, the maximizer cut to
one outer iteration falls below 0.9 of its value on 38 seeded N = 4
instances. Two tests pin one instance of each. The loop's settings are
the private constants ``_RHO0`` to ``_MAX_SCA``.

The winning start is finished by Newton's method on the KKT conditions of
the phase problem, with the cap held as an equality when the start ends on
it. The phase Hessian is a diagonal plus a matrix of rank at most 9, so
each step is an O(N) Woodbury solve, and the finish ends stationary to
rounding level, where the penalty-dual loop stops at its loop tolerance.
The random restarts of a binding-cap solve are first screened by the
unit-modulus fixed-point map of the Lagrangian (Soltanalian & Stoica, IEEE
TSP 2014), and only those whose screened point beats the finished first
start run the penalty-dual loop; a restart that then wins gets the same
finish. Closed-form solutions exist for the two single-radar special
cases, and a phase-grid exhaustive search serves as a small-size oracle.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from itertools import product

import numpy as np

from .arrays import ArraySpec, AnglePair, composite_deltas, steering_1d
from .power import ReflectionVector

__all__ = [
    "Infeasible",
    "ProjectionError",
    "NoNullAvailable",
    "BudgetExceeded",
    "ProblemData",
    "PddTracePoint",
    "PddResult",
    "build_problem",
    "problem_objective",
    "problem_constraint",
    "pdd_solve",
    "pdd_solve_with_candidates",
    "minimize_unit_modulus_quadratic",
    "closed_form_lrs_only",
    "closed_form_urs_null",
    "brute_force_oracle",
]

FEAS_RTOL = 1e-6  # relative slack accepted on the power-cap constraint
_LAMBDA_CAP = 1e6
# the penalty-dual settings, on problems scaled to O(1) vectors
_RHO0 = 1.0  # initial penalty parameter
_C = 0.7  # penalty shrink factor per outer iteration
_INNER_TOL = 1e-7  # tightest loop tolerance on the copies' movement
_OUTER_TOL = 1e-6  # copy gap at which a run counts as converged
_MAX_OUTER = 50  # outer iterations per run
_MAX_INNER = 100  # block calls per outer iteration
_MAX_SCA = 200  # convex-approximation steps per disk-block solve
# starts a binding-cap solve tries in all: binding caps are the regime where
# the nonconvex landscape splits into distinct basins
_RESTARTS = 4


class Infeasible(Exception):
    """No unit-modulus reflection under the power cap was found.

    :func:`pdd_solve` raises it when the cap minimizer, run from this
    solve's start, or the reflection to be returned ends above gamma: what
    the solve showed, not a proof that no reflection meets the cap.
    :func:`brute_force_oracle` raises it when no grid point does.
    """


class NoNullAvailable(Exception):
    """The closed-form null family is empty for this array shape."""


class BudgetExceeded(Exception):
    """Exhaustive enumeration would exceed the allowed candidate budget."""


class ProjectionError(ArithmeticError):
    """A projection onto the capped unit disks stopped at a point over the cap."""


def _check_positive(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")
        if value <= 0:
            raise ValueError(f"{name} must be positive")


def _nonzero_columns(name: str, M, rows: int | None) -> np.ndarray | None:
    """``M`` as a C-contiguous complex array without its all-zero columns,
    or None when none is left; ``rows`` is the row count it must have."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or (rows is not None and M.shape[0] != rows):
        raise ValueError(f"{name} must be an N x k array, N shared by Q and B")
    if M.shape[1] > 2:
        raise ValueError(f"{name} has {M.shape[1]} columns; the dual solves take at most 2")
    keep = [j for j in range(M.shape[1]) if np.linalg.norm(M[:, j]) > 0]
    return np.ascontiguousarray(M[:, keep]) if keep else None


def _column_power(M: np.ndarray | None, coeff: np.ndarray) -> float:
    """sum_j |m_j^H coeff|^2 over the columns m_j of M (0 without columns).

    One np.vdot per contiguous copy of a column: a strided vdot adds in
    another order, which moves the last bits.
    """
    if M is None:
        return 0.0
    return float(sum(abs(np.vdot(m, coeff)) ** 2 for m in M.T.copy()))


@dataclass(frozen=True)
class ProblemData:
    """One instance of the unified cap-constrained maximization:
    maximize ||Q^H theta||^2 over unit-modulus theta s.t. ||B^H theta||^2 <= gamma.

    ``Q`` holds the objective vectors as the columns of an N x k array and
    ``B`` the cap vectors, or is None without a cap; both have at most two
    columns. All-zero columns, which a silent radar gives, are dropped, and
    a cap left without columns becomes None; an objective left without
    columns is rejected.
    """

    Q: np.ndarray
    B: np.ndarray | None
    gamma: float

    def __post_init__(self):
        _check_positive(gamma=self.gamma)
        Q = _nonzero_columns("Q", self.Q, None)
        if Q is None:
            raise ValueError("at least one objective vector must be nonzero")
        object.__setattr__(self, "Q", Q)
        if self.B is not None:
            object.__setattr__(self, "B", _nonzero_columns("B", self.B, Q.shape[0]))

    @property
    def n(self) -> int:
        return self.Q.shape[0]


@dataclass(frozen=True)
class PddTracePoint:
    outer: int
    objective: float
    constraint: float
    gap: float
    rho: float


@dataclass(frozen=True)
class PddResult:
    theta: ReflectionVector
    objective: float
    trace: list[PddTracePoint] = field(default_factory=list)
    converged: bool = True
    outer_iterations: int = 0


def build_problem(
    case: str,
    scenario_powers: tuple[float, float],
    composites: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    durations: tuple[float, float] | None,
    gamma: float,
    p_u_min: float,
) -> ProblemData:
    """Assemble the unified problem for one of the four design cases.

    ``case`` is "P1" (legitimate-only segment), "P2" (unauthorized-only
    segment), "P3" (overlapped segment) or "P4" (one fixed reflection for
    the whole window, which weights the two objective terms by the pulse
    durations). ``scenario_powers`` is (q_ls, q_us), ``composites`` the
    (u, v, r, g) reflection-domain vectors.
    """
    q_ls, q_us = scenario_powers
    u, v, r, g = (np.asarray(x, dtype=complex) for x in composites)
    _check_positive(gamma=gamma, p_u_min=p_u_min, q_ls=q_ls)
    if not math.isfinite(q_us):
        raise ValueError("q_us must be finite")
    if q_us < 0:
        raise ValueError("q_us must be >= 0")
    if case == "P1":
        Q, B = [q_ls * u], [np.sqrt(q_ls * q_us / p_u_min) * v]
    elif case == "P2":
        if q_us <= 0:
            raise ValueError("P2 is degenerate without unauthorized power")
        Q, B = [np.sqrt(q_ls * q_us) * r], [(q_us / np.sqrt(p_u_min)) * g]
    elif case in ("P3", "P4"):
        Q = [q_ls * u, np.sqrt(q_ls * q_us) * r]
        B = [(q_us / np.sqrt(p_u_min)) * g, np.sqrt(q_ls * q_us / p_u_min) * v]
        if case == "P4":
            if durations is None:
                raise ValueError("P4 requires pulse durations")
            t_l, t_u = durations
            if t_l <= 0 or t_u <= 0:
                raise ValueError("durations must be positive")
            Q = [np.sqrt(t_l) * Q[0], np.sqrt(t_u) * Q[1]]
    else:
        raise ValueError(f"case must be P1..P4, got {case!r}")
    return ProblemData(Q=np.stack(Q, axis=1), B=np.stack(B, axis=1), gamma=gamma)


def problem_objective(problem: ProblemData, coeff: np.ndarray) -> float:
    """||Q^H theta||^2 for a complex coefficient vector."""
    return _column_power(problem.Q, coeff)


def problem_constraint(problem: ProblemData, coeff: np.ndarray) -> float:
    """||B^H theta||^2 for a complex coefficient vector (0 without a cap)."""
    return _column_power(problem.B, coeff)


# ---------------------------------------------------------------------------
# low-level pieces


_TINY = float(np.finfo(float).tiny)


def _unit_phases(x: np.ndarray) -> np.ndarray:
    """Nearest unit-modulus vector; zero entries map to 1 by convention.

    The complex division overflows for a magnitude below the normal range,
    so those entries alone are first scaled by 2^1000, which is exact.
    """
    mag = np.abs(x)
    if mag.min() >= _TINY:
        return x / mag
    sub = mag < _TINY
    if sub.any():
        x = x.astype(complex)  # a copy
        x[sub] *= 2.0**1000
        mag[sub] = np.abs(x[sub])
    return np.divide(x, mag, out=np.ones(x.shape, dtype=complex), where=mag != 0)


def _spd_solve(a: list[float], b: list[float]) -> list[float] | None:
    """Solve a x = b for a symmetric positive definite 2x2 or 4x4 matrix.

    ``a`` is flat and row-major, and only its lower triangle is read. Cramer's
    rule for 2x2, an unrolled LDL^T for 4x4; None when a pivot is not positive.
    """
    if len(b) == 2:
        det = a[0] * a[3] - a[2] * a[2]
        if not (a[0] > 0 and det > 0):
            return None
        return [(a[3] * b[0] - a[2] * b[1]) / det, (a[0] * b[1] - a[2] * b[0]) / det]
    a00, _, _, _, a10, a11, _, _, a20, a21, a22, _, a30, a31, a32, a33 = a
    try:  # pivots a00, d1, d2, d3 and unit lower factor l_ij, with e_ij = l_ij d_j
        l10, l20, l30 = a10 / a00, a20 / a00, a30 / a00
        d1 = a11 - l10 * a10
        e21, e31 = a21 - l20 * a10, a31 - l30 * a10
        l21, l31 = e21 / d1, e31 / d1
        d2 = a22 - l20 * a20 - l21 * e21
        e32 = a32 - l30 * a20 - l31 * e21
        l32 = e32 / d2
        d3 = a33 - l30 * a30 - l31 * e31 - l32 * e32
    except ZeroDivisionError:
        return None
    if not (a00 > 0 and d1 > 0 and d2 > 0 and d3 > 0):
        return None
    b0, b1, b2, b3 = b
    z1 = b1 - l10 * b0
    z2 = b2 - l20 * b0 - l21 * z1
    x3 = (b3 - l30 * b0 - l31 * z1 - l32 * z2) / d3
    x2 = z2 / d2 - l32 * x3
    x1 = z1 / d1 - l21 * x2 - l31 * x3
    return [b0 / a00 - l10 * x1 - l20 * x2 - l30 * x3, x1, x2, x3]


def _top_sigma_sq(B: np.ndarray) -> float:
    """Largest eigenvalue of B B^H via the small Gram matrix."""
    gram = B.conj().T @ B
    return float(np.max(np.linalg.eigvalsh(gram)))


def _real_rows(M: np.ndarray) -> np.ndarray:
    """The rows of [M, iM] split into real and imaginary parts (2N x 2k, real):
    x viewed as floats times it is (Re M^H x, Im M^H x), and it times (a, b),
    viewed as complex, is M (a + ib)."""
    C = np.concatenate([M, 1j * M], axis=1)
    return np.stack([C.real, C.imag], axis=1).reshape(-1, C.shape[1])


class _CapDual:
    """Per-problem constants of the two rank-<=2 dual solves.

    Both disk blocks (the P9 projection and the cap minimizer's block) are
    solved in a dual variable y in C^k, k = B.shape[1] <= 2, handled in the
    real coordinates w = (Re y, Im y) through C = [B, iB], so that B y = C w
    and Re(C^H x) = (Re B^H x, Im B^H x); both are real products with the
    rows ``Cr`` of C. Built once per problem and shared by every start.

    Both Newton matrices need Re(C^H J C) for the Jacobian J of x = clip(z).
    With G_n = Re(C_n^H C_n) and S_n = C_n^T C_n for the rows C_n of C, an
    entry inside the disk adds G_n, and a clipped one, where |x_n| = 1, its
    tangential part (G_n - Re(conj(x_n)^2 S_n)) / (2 r_n), r_n = |z_n|. So
    the matrix is one product of the per-row weights (1 / max(r_n, 1), v_n,
    Re(x_n^2) v_n, Im(x_n^2) v_n), v_n = 1/r_n clipped and 0 inside, with
    the tables of G_n, -G_n / 2, -Re(S_n) / 2 and -Im(S_n) / 2 built here.
    """

    def __init__(self, B: np.ndarray, gamma: float = 0.0):
        self.B, self.Bh, self.k = B, B.conj().T, B.shape[1]
        self.C = np.concatenate([B, 1j * B], axis=1)
        self.Cr = _real_rows(B)
        self.row_norms = np.linalg.norm(B, axis=1)
        self.gamma = gamma
        self.root_gamma = math.sqrt(gamma)
        self.sig2 = _top_sigma_sq(B)
        n, m = B.shape[0], 2 * self.k
        self.eye = np.eye(m).ravel().tolist()  # flat and row-major, as _spd_solve takes matrices
        herm = (self.C.conj()[:, :, None] * self.C[:, None, :]).real.reshape(n, -1)
        sym = (self.C[:, :, None] * self.C[:, None, :]).reshape(n, 1, -1)
        # Re and Im rows interleave, as the complex weights x^2 v viewed as floats
        tangential = -0.5 * np.concatenate([sym.real, sym.imag], axis=1).reshape(2 * n, -1)
        self.tables = np.concatenate([herm, -0.5 * herm, tangential])
        self._weights = np.empty(4 * n)  # scratch, laid out as the tables' rows
        self._u, self._v = self._weights[: 2 * n].reshape(2, n)
        self._x2v = self._weights[2 * n :].view(complex)

    def quad(self, x: np.ndarray) -> float:
        """||B^H x||^2."""
        v = self.Bh @ x
        return float(np.vdot(v, v).real)

    def clip_gram(self, x: np.ndarray, m: np.ndarray) -> np.ndarray:
        """Re(C^H J C), flat and row-major, for x = clip(z) and m = max(|z|, 1).

        1/m is exactly 1 inside the disk and below 1 outside, so its
        fractional part is the weight v.
        """
        np.divide(1.0, m, out=self._u)
        np.fmod(self._u, 1.0, out=self._v)
        np.multiply(x, x, out=self._x2v)
        self._x2v *= self._v
        return self._weights @ self.tables

    def newton_matrix(self, x: np.ndarray, m: np.ndarray, w: np.ndarray, nw: float) -> list[float]:
        """Negated Hessian of the P9 dual at w, ||w|| = nw, as a flat row-major list:
        clip_gram + (sqrt(gamma) / nw) (I - u u^T), u = w / nw, plus a 1e-12 trace ridge."""
        scale, u = self.root_gamma / nw, [v / nw for v in w.tolist()]
        parts = zip(self.clip_gram(x, m).tolist(), self.eye, product(u, u))
        hess = [h + scale * (e - a * b) for h, e, (a, b) in parts]
        diagonal = range(0, len(hess), 2 * self.k + 1)
        ridge = 1e-12 * sum(hess[i] for i in diagonal)
        for i in diagonal:
            hess[i] += ridge
        return hess


def _cap_dual(problem: ProblemData) -> _CapDual | None:
    return None if problem.B is None else _CapDual(problem.B, problem.gamma)


_P9_MAX_STEPS = 100


def _p9_dual(
    b: np.ndarray, dual: _CapDual | None, w0: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Projection of b onto {unit disks} intersect {||B^H x||^2 <= gamma}, exactly.

    Works in the Lagrangian dual of the second-order-cone form of the cap,
    whose variable y lives in C^k with k = B.shape[1] <= 2:
    x(y) = clip(b - B y) and, up to a constant,
    g(y) = -sum_n huber(|b_n - (B y)_n|) - sqrt(gamma) ||y||
    with huber(r) = r^2 / 2 inside the unit disk and r - 1/2 outside. g is
    concave in at most 4 real variables, with gradient
    B^H x(y) - sqrt(gamma) y / ||y||; when clip(b) is over the cap its
    maximizer is nonzero and x there lies on the cap.

    g is maximized by damped semismooth Newton. Along a Newton direction g
    is concave, so its slope decreases; a step is accepted where the slope
    is still >= 0, which guarantees ascent and needs no difference of two
    nearly equal values of g. The full step is taken when it keeps the
    slope >= 0, else an Illinois regula falsi on the slope finds a step
    with slope in [0, slope(0) / 2]. Both cases are common: a full step
    that lands on the maximizer can show a slope a rounding error below 0,
    and Huber terms outside the disk give g no curvature along their
    radius, so a full step can be orders of magnitude too long. The Newton
    matrix (:meth:`_CapDual.newton_matrix`) is solved by :func:`_spd_solve`,
    and replaced by steepest ascent where rounding leaves it indefinite;
    trial points along a direction d reuse z = b - C w and C d. The first
    iterate is the warm start ``w0`` (real coordinates of y) when it is
    nonzero, else a proximal gradient step from y = 0 (step 1 / sig2,
    sig2 >= ||B||^2), which ascends and keeps off the kink of ||y|| at 0.

    Returns x and the real coordinates w of y, with w = None when there is
    no cap (``dual`` is None) or clip(b) already meets it, or misses it by
    so little that the first step from y = 0 is exactly 0. The returned x
    never exceeds the cap: a point a hair over it is pulled toward x = 0,
    which is feasible for any gamma > 0, when the iteration converged or
    stalled within ``FEAS_RTOL`` of the cap; it stalls so when gamma is
    within rounding of the least cap of the unit-modulus points, and the
    maximizer lies far across a plateau of g. Raises
    :class:`ProjectionError` when it stops short of convergence, at the
    step limit or at the rounding floor, further over the cap. A trial
    point whose slope is not finite, as when y collapses toward 0 and
    sqrt(gamma) / ||y|| overflows, counts as the rounding floor.
    """
    r = np.abs(b)
    x = b / np.maximum(r, 1.0)
    if dual is None:
        return x, None
    Cr, root_gamma, gamma = dual.Cr, dual.root_gamma, dual.gamma
    p = x.view(float) @ Cr  # Re(C^H x)
    if p @ p <= gamma:
        return x, None

    def at(t: float) -> tuple[tuple, float]:
        """(z, w, m, x, gradient, ||w||) at w + t d, m = max(|z|, 1) and x = clip(z),
        and the slope of g along d there."""
        z_t, w_t = (z - Cd, w + d) if t == 1.0 else (z - t * Cd, w + t * d)
        m_t = np.maximum(np.abs(z_t), 1.0)
        x_t = z_t / m_t
        nw_t = math.hypot(*w_t.tolist())
        grad_t = x_t.view(float) @ Cr - (root_gamma / nw_t) * w_t
        return (z_t, w_t, m_t, x_t, grad_t, nw_t), float(grad_t @ d)

    # relative tolerance, floored above the rounding of B^H x(y): an entry of
    # z = b - B y carries an error of order eps (1 + |b_n|) near the optimum
    tol = 1e-10 * root_gamma + 1e-13 * float(dual.row_norms @ (1.0 + r))
    z, w = b, np.zeros(2 * dual.k)  # the first iterate is a step from y = 0
    d = w0 if w0 is not None and w0.any() else p * ((1 - root_gamma / math.sqrt(p @ p)) / dual.sig2)
    if not d.any():
        # ||p|| rounds to sqrt(gamma): clip(b) is over the cap by less than
        # rounding, and y = 0 maximizes g to rounding
        return _pull_under_cap(x, dual, True), None
    Cd = (Cr @ d).view(complex)
    (z, w, m, x, grad, nw), _ = at(1.0)
    converged = False
    for _ in range(_P9_MAX_STEPS):
        g = grad.tolist()
        if math.hypot(*g) <= tol:
            converged = True
            break
        d = _spd_solve(dual.newton_matrix(x, m, w, nw), g)
        d = grad if d is None else np.array(d)
        slope0 = float(grad @ d)
        if not slope0 > 0:  # rounding made the model indefinite: steepest ascent
            d, slope0 = grad, float(grad @ grad)
        Cd = (Cr @ d).view(complex)
        state, slope = at(1.0)
        if slope < 0:  # overshoot: Illinois regula falsi on the slope
            lo, s_lo, hi, s_hi, side = 0.0, slope0, 1.0, slope, 0
            for _ in range(60):
                t = lo + (hi - lo) * s_lo / (s_lo - s_hi)
                state, slope = at(t)
                if slope < 0:
                    hi, s_hi = t, slope
                    if side < 0:
                        s_lo *= 0.5
                    side = -1
                elif 0.5 * slope0 < slope < math.inf:
                    lo, s_lo = t, slope
                    if side > 0:
                        s_hi *= 0.5
                    side = 1
                else:
                    break
            else:
                if lo == 0.0:
                    break  # rounding floor: every step along d descends
                state, _ = at(lo)
        if not math.isfinite(slope) or state[1].tolist() == w.tolist():
            break  # rounding floor: the slope overflows, or the step no longer moves y
        z, w, m, x, grad, nw = state
    return _pull_under_cap(x, dual, converged), w


def _pull_under_cap(x: np.ndarray, dual: _CapDual, converged: bool) -> np.ndarray:
    """x, pulled toward 0 when it is a hair over the cap (see :func:`_p9_dual`).

    Raises :class:`ProjectionError` when x is over the cap and the projection
    neither converged nor stalled within ``FEAS_RTOL`` of it.
    """
    gamma = dual.gamma
    cap = dual.quad(x)  # as the callers measure it; |Re(C^H x)|^2 rounds apart from it
    margin = 1e-12
    while (converged or cap <= gamma * (1.0 + FEAS_RTOL)) and cap > gamma and margin < 1e-6:
        # the computed cap carries rounding of relative size up to
        # eps ||B|| ||x|| / sqrt(gamma), so the margin grows until it clears it
        x = x * (np.sqrt(gamma / cap) * (1.0 - margin))
        cap = dual.quad(x)
        margin *= 10.0
    if cap > gamma:
        raise ProjectionError(f"P9 projection stopped at cap {cap:.17g} over gamma {gamma:.17g}")
    return x


_QUAD_MAX_STEPS = 50


def _quad_dual(
    c: np.ndarray, dual: _CapDual, rho: float, w0: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """Minimize ||B^H x||^2 + ||x - c||^2 / (2 rho) over the unit-disk product.

    With ||B^H x||^2 = max_y 2 Re<y, B^H x> - ||y||^2 the disk problem
    separates for fixed y into x(y) = clip(c - 2 rho B y), and the optimal
    y solves F(y) = y - B^H x(y) = 0. F is -1/2 the gradient of a smooth,
    strongly concave dual in at most 4 real variables, and is solved by
    semismooth Newton with Newton matrix I + 2 rho Re(C^H J C), J the
    Jacobian of the clip (:meth:`_CapDual.clip_gram`), by
    :func:`_spd_solve`; a step is halved until ||F|| decreases, its trial
    points reusing z and C d as in :func:`_p9_dual`. The iteration starts
    from ``w0`` (real coordinates of y, zero when None) and stops at a
    relative tolerance or at the rounding floor, where no step along the
    Newton direction decreases ||F||.

    Returns x(y) and the real coordinates w of y, the warm start of the
    next call on a nearby c.
    """
    two_rho, Cr = 2.0 * rho, dual.Cr

    def at(t: float) -> tuple:
        """(z, w, m, x, F, ||F||) at w + t d, m = max(|z|, 1) and x = clip(z)."""
        z_t, w_t = z - t * Cd, w + t * d
        m_t = np.maximum(np.abs(z_t), 1.0)
        x_t = z_t / m_t
        F_t = w_t - x_t.view(float) @ Cr
        return z_t, w_t, m_t, x_t, F_t, math.sqrt(F_t @ F_t)

    z, w = c, np.zeros(2 * dual.k)  # the first iterate is a step from y = 0
    d = w if w0 is None else w0
    Cd = two_rho * (Cr @ d).view(complex)
    z, w, m, x, F, size = at(1.0)
    # above the rounding of B^H x(y), as in _p9_dual
    tol = 1e-13 * float(dual.row_norms @ (1.0 + np.abs(c)))
    for _ in range(_QUAD_MAX_STEPS):
        if size <= tol:
            break
        newton = [e + two_rho * v for e, v in zip(dual.eye, dual.clip_gram(x, m).tolist())]
        d = _spd_solve(newton, F.tolist())
        if d is None:
            break  # I + 2 rho Re(C^H J C) >= I: only non-finite entries get here
        d, t = -np.array(d), 1.0
        Cd = two_rho * (Cr @ d).view(complex)
        for _ in range(40):
            state = at(t)
            if state[-1] < size:
                break
            t *= 0.5
        else:
            break  # rounding floor
        z, w, m, x, F, size = state
    return x, w


def _principal_phases(Q: np.ndarray) -> np.ndarray:
    """Unit-modulus phase alignment with the dominant objective direction.

    For a single objective vector this is exactly its entrywise phase; for
    two it uses the principal eigenvector of the rank-2 objective form,
    found in the 2D span.
    """
    gram = Q.conj().T @ Q
    w, V = np.linalg.eigh(gram)
    v = Q @ V[:, -1]
    if np.linalg.norm(v) == 0:
        v = Q[:, 0]
    return _unit_phases(v)


# ---------------------------------------------------------------------------
# the solver blocks


class _ThetaBlock:
    """Reusable solver for the disk-constrained block of one problem.

    Caches the stacked objective matrix, shares the problem's cap constants
    ``dual`` (None without a cap) and carries the dual variable of the
    projection across calls, so each surrogate projection starts its Newton
    iteration from the previous one's dual solution. Setting ``w`` to None
    forgets it, which a new start does.
    """

    def __init__(self, problem: ProblemData, dual: _CapDual | None):
        self.Qr = _real_rows(problem.Q)
        self.dual = dual
        self.w: np.ndarray | None = None

    def update(
        self, theta: np.ndarray, center: np.ndarray, rho: float, tol: float
    ) -> tuple[np.ndarray, float, list[float]]:
        """Successive convex approximation on the penalized block problem.

        Minimizes -||Q^H x||^2 + ||x - center||^2 / (2 rho) over the capped
        unit disks from ``theta``, re-linearizing the (negated) objective at
        each surrogate solution until the penalized objective stalls to the
        relative tolerance ``tol``; a safeguard keeps the previous iterate
        whenever a surrogate step fails to descend (only possible through
        subsolver tolerance). Returns the new theta, -||Q^H theta||^2 there,
        and the penalized objective after every surrogate solve, a
        non-increasing sequence because each surrogate majorizes the true
        objective at its expansion point.
        """
        Qr, dual, two_rho = self.Qr, self.dual, 2.0 * rho

        def penalized(theta: np.ndarray) -> tuple[float, np.ndarray]:
            """-||Q^H theta||^2 + ||theta - center||^2 / (2 rho), and Q^H theta as real pairs."""
            p, d = theta.view(float) @ Qr, theta - center
            return float(np.vdot(d, d).real / two_rho - p @ p), p

        prev, p = penalized(theta)
        objectives: list[float] = []
        for _ in range(_MAX_SCA):
            theta_new, self.w = _p9_dual(center + two_rho * (Qr @ p).view(complex), dual, self.w)
            obj, p_new = penalized(theta_new)
            if obj > prev:
                objectives.append(prev)
                break
            theta, p = theta_new, p_new
            objectives.append(obj)
            if prev - obj <= tol * max(1.0, abs(prev)):
                break
            prev = obj
        return theta, -float(p @ p), objectives


def _dual_step(
    lam: np.ndarray, theta: np.ndarray, vartheta: np.ndarray, rho: float, c: float
) -> tuple[np.ndarray, float]:
    """Outer step: ascend the dual of theta = vartheta, then shrink rho by c.

    Shrinking rho enlarges the penalty weight 1/(2 rho), so the two copies
    are tied progressively harder. Entries of lambda whose magnitude exceeds
    ``_LAMBDA_CAP`` are scaled back onto it, keeping their phase.
    """
    lam = lam + (theta - vartheta) / rho
    mag = np.abs(lam)
    big = mag > _LAMBDA_CAP
    if big.any():
        lam = np.where(big, lam * (_LAMBDA_CAP / np.maximum(mag, 1e-300)), lam)
    return lam, c * rho


_ANDERSON_MEMORY = 2  # residual differences per extrapolation; _spd_solve takes 2 or 4


def _anderson(memory: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Anderson step from the (image, residual) pairs of the last inner map evaluations.

    Combines the image differences with the real coefficients that make
    the newest residual smallest in least squares over the residual
    differences (normal equations on Python floats), and puts the result
    back on the unit circle; the newest image itself if they are singular.
    """
    (g, f), pairs = memory[-1], list(zip(memory, memory[1:]))
    df = [b[1] - a[1] for a, b in pairs]
    coef = _spd_solve([float(np.vdot(u, v).real) for u in df for v in df],
                      [float(np.vdot(u, f).real) for u in df])
    if coef is None:
        return g
    return _unit_phases(g - sum(c * (b[0] - a[0]) for c, (a, b) in zip(coef, pairs)))


def _penalty_dual(
    theta0: np.ndarray,
    block: Callable[[np.ndarray, np.ndarray, float, float], tuple],
    score: Callable[[np.ndarray], float | None],
    stop: float | None = None,
) -> tuple[np.ndarray | None, float, list[tuple[np.ndarray, float, float]], bool]:
    """The penalty-dual loop, shared by the solver and the cap minimizer.

    Starts both copies at ``theta0`` with lambda = 0 and rho = ``_RHO0``. Each
    outer iteration alternates between the disk block,
    ``block(theta, center, rho, tol)``, which returns the new theta and the
    block objective f there (center = vartheta - rho lambda), and the
    unit-modulus block, the phase of theta + rho lambda; then it takes a
    dual step. The alternation is the map vartheta -> phase(block(theta,
    vartheta - rho lambda) + rho lambda); from its third image on, vartheta
    is extrapolated by :func:`_anderson`, and kept only if the block result
    from it does not raise the merit Phi(theta) = f(theta) + ||theta +
    rho lambda - phase(theta + rho lambda)||^2 / (2 rho), which the plain
    alternation never raises; else the plain step follows and the memory
    is cleared. Every block call counts toward ``_MAX_INNER``. The
    alternation stops once an image moves less than a loop tolerance that
    shrinks with the outer index to ``_INNER_TOL``, and leaves vartheta =
    phase(theta + rho lambda).

    ``score`` rates a unit-modulus copy, higher being better, or returns
    None for a copy that may not be returned; the best-rated copy seen,
    ``theta0`` included, is kept. The loop ends when the copies merge to
    ``_OUTER_TOL`` with a copy kept (converged), after ``_MAX_OUTER`` outer
    iterations, or, with a ``stop`` score, as soon as the kept copy scores
    at least that, checked before every outer iteration. The solver's
    finish is not a run of this loop but Newton's method on the KKT
    conditions (:func:`_finish`).

    Returns the kept copy (None if none), its score (-inf if none), the
    (theta, gap, rho) of every outer iteration and the converged flag.
    """
    theta = vartheta = theta0
    lam = np.zeros(theta0.shape, dtype=complex)
    rho = _RHO0
    first = score(theta0)
    best, best_score = (None, -math.inf) if first is None else (theta0, first)
    history: list[tuple[np.ndarray, float, float]] = []
    for outer in range(1, _MAX_OUTER + 1):
        if stop is not None and best_score >= stop:
            break
        # solve the inner problem inexactly at first, tightly once rho is small
        tol = max(_INNER_TOL, 0.03 * _C ** (2 * outer))
        shift = rho * lam
        trial, merit, memory = vartheta, math.inf, []
        for _ in range(_MAX_INNER):
            theta_new, f = block(theta, trial - shift, rho, tol)[:2]
            image = theta_new + shift
            vartheta_new = _unit_phases(image)
            r = image - vartheta_new
            merit_new = f + float(np.vdot(r, r).real) / (2.0 * rho)
            if trial is not vartheta and merit_new > merit:
                trial, memory = vartheta, []  # extrapolation rejected: plain step
                continue
            residual = vartheta_new - trial
            delta = max(np.abs(theta_new - theta).max(), np.abs(residual).max())
            theta, vartheta, merit = theta_new, vartheta_new, merit_new
            if delta < tol:
                break
            memory = (memory + [(vartheta, residual)])[-_ANDERSON_MEMORY - 1 :]
            trial = _anderson(memory) if len(memory) > _ANDERSON_MEMORY else vartheta
        gap = float(np.abs(theta - vartheta).max())
        value = score(vartheta)
        if value is not None and value > best_score:
            best, best_score = vartheta, value
        history.append((theta, gap, rho))
        if gap < _OUTER_TOL and best is not None:
            return best, best_score, history, True
        lam, rho = _dual_step(lam, theta, vartheta, rho, _C)
    return best, best_score, history, False


def minimize_unit_modulus_quadratic(vectors) -> tuple[ReflectionVector, float]:
    """Minimize sum_i |h_i^H theta|^2 over unit-modulus theta.

    ``vectors`` is a sequence of the h_i (1D complex arrays). The same
    penalty-dual machinery with the roles swapped: here the quadratic form
    is the (convex) objective of the disk block, so no linearization is
    needed. This is the cap minimizer that :func:`pdd_solve` runs to find a
    point under the cap, here on the vectors scaled to unit largest norm.
    All-zero vectors give the zero-phase reflection.
    """
    B = np.stack([np.asarray(v, dtype=complex) for v in vectors], axis=1)
    scale = float(np.max(np.linalg.norm(B, axis=0)))
    if scale == 0:
        return ReflectionVector.on(np.zeros(B.shape[0])), 0.0
    theta, val = _minimize_quad_core(_CapDual(B / scale), None)
    return theta, val * scale**2


def _minimize_quad_core(
    dual: _CapDual, ref: np.ndarray | None, stop: float | None = None
) -> tuple[ReflectionVector, float]:
    """Penalty-dual minimization of ||B^H theta||^2 over unit-modulus theta.

    Runs :func:`_penalty_dual` from the reference projected onto the null
    space of the cap form, scoring a copy by -||B^H theta||^2. The disk
    block, min ||B^H x||^2 + ||x - center||^2 / (2 rho) over the unit disks,
    is solved exactly by :func:`_quad_dual`, warm-started from the previous
    inner iteration's dual solution. The best unit-modulus copy seen is
    polished by projected gradient with phase retraction.

    With a stop level, the penalty loop ends as soon as its best copy has
    ||B^H theta||^2 <= stop, and that copy is returned as it is, with no
    polish. A loop that never reaches the level is polished, and neither the
    best copy nor the polish ever raises the value, so a run that never
    reaches the level is exactly the run without one.
    """
    B, Bh = dual.B, dual.Bh
    n = B.shape[0]
    # start from the reference projected onto the null space of the cap form
    gram_pinv = np.linalg.pinv(Bh @ B)
    for cand in ([] if ref is None else [ref]) + [np.ones(n, dtype=complex)]:
        cand = np.asarray(cand, dtype=complex)
        proj = cand - B @ (gram_pinv @ (Bh @ cand))
        if np.linalg.norm(proj) > 1e-9 * np.sqrt(n):
            theta0 = _unit_phases(proj)
            break
    else:
        theta0 = _unit_phases(cand)  # every candidate lies in the span of B: all ones
    w = None

    def disk_block(theta, center, rho, tol):
        nonlocal w
        x, w = _quad_dual(center, dual, rho, w)
        return x, dual.quad(x)

    best, score, _, _ = _penalty_dual(
        theta0, disk_block, lambda x: -dual.quad(x), None if stop is None else -stop
    )
    x, val = best, -score
    if stop is not None and val <= stop:
        return ReflectionVector.on(np.angle(x)), val
    # polish on the unit-modulus manifold: projected gradient with retraction,
    # step 1 / (2 sig2) along the gradient 2 B B^H x = 2 C p, p = Re(C^H x)
    Cr = dual.Cr
    descent = Cr / dual.sig2
    p = x.view(float) @ Cr
    for _ in range(400):
        x_new = _unit_phases(x - (descent @ p).view(complex))
        p_new = x_new.view(float) @ Cr
        new_val = float(p_new @ p_new)
        if new_val >= val:
            break
        x, p, val = x_new, p_new, new_val
    return ReflectionVector.on(np.angle(x)), val


def _wrap_pm_pi(x: np.ndarray) -> np.ndarray:
    return (x + np.pi) % (2.0 * np.pi) - np.pi


def _blend_feasible(theta_obj: np.ndarray, theta_feas: np.ndarray, dual: _CapDual) -> np.ndarray:
    """Phase-geodesic warm start: as close to theta_obj as stays under the cap."""
    psi0 = np.angle(theta_feas)
    dpsi = _wrap_pm_pi(np.angle(theta_obj) - psi0)
    lo, hi = 0.0, 1.0
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if dual.quad(np.exp(1j * (psi0 + mid * dpsi))) <= dual.gamma:
            lo = mid
        else:
            hi = mid
    return np.exp(1j * (psi0 + lo * dpsi))


def _under_cap(problem: ProblemData, theta: np.ndarray) -> ReflectionVector:
    """The reflection on the phases of ``theta``; raises Infeasible if it is over the cap."""
    rv = ReflectionVector.on(np.angle(theta))
    cap = problem_constraint(problem, rv.coefficients)
    if cap > problem.gamma * (1.0 + FEAS_RTOL):
        raise Infeasible(f"returned cap value {cap:.6g} exceeds gamma {problem.gamma:.6g} "
                         f"by {cap / problem.gamma - 1.0:.3g} relative")
    return rv


_SCREEN_STEPS = 50  # fixed-point steps of the restart screen at most
_SCREEN_MOVE_TOL = 1e-6  # the screen stops once no entry moves this much
_SCREEN_RTOL = 1e-9  # a screened start runs in full only if it beats the reference by this


def _cap_multiplier(Q: np.ndarray, dual: _CapDual, theta: np.ndarray) -> float:
    """The cap multiplier mu >= 0 that fits stationarity at ``theta`` best:
    Im(conj(theta) (Q Q^H theta - mu B B^H theta)) smallest in least squares."""
    grad, cap = Q @ (Q.conj().T @ theta), dual.B @ (dual.Bh @ theta)
    a, b = (np.conj(theta) * grad).imag, (np.conj(theta) * cap).imag
    return max(0.0, float(a @ b) / float(b @ b)) if b.any() else 0.0


def _screen_starts(Q: np.ndarray, dual: _CapDual, theta_ref: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Which columns of ``starts`` may reach a better basin than ``theta_ref``.

    Fits the cap multiplier mu >= 0 at ``theta_ref`` (:func:`_cap_multiplier`)
    and ascends L(theta) = ||Q^H theta||^2 - mu ||B^H theta||^2 from every column
    at once by the unit-modulus fixed-point map theta <- phase(M theta),
    M = Q Q^H - mu B B^H + kappa I with kappa = mu sig2, for which M is
    positive semidefinite, so that no step lowers L (Soltanalian & Stoica,
    IEEE TSP 2014). It takes ``_SCREEN_STEPS`` steps at most and stops once
    no entry moves ``_SCREEN_MOVE_TOL``. A column is kept when its L beats
    L(theta_ref) by more than ``_SCREEN_RTOL`` relative.
    """
    B, Qh, Bh = dual.B, Q.conj().T, dual.Bh
    mu = _cap_multiplier(Q, dual, theta_ref)

    def lagrangian(T: np.ndarray) -> np.ndarray:
        return (np.abs(Qh @ T) ** 2).sum(axis=0) - mu * (np.abs(Bh @ T) ** 2).sum(axis=0)

    M = Q @ Qh - mu * (B @ Bh)
    M[np.diag_indices_from(M)] += mu * dual.sig2
    T = starts
    for _ in range(_SCREEN_STEPS):
        T, prev = _unit_phases(M @ T), T
        if np.abs(T - prev).max() < _SCREEN_MOVE_TOL:
            break
    ref = float(lagrangian(theta_ref[:, None])[0])
    return lagrangian(T) > ref + _SCREEN_RTOL * abs(ref)


_NEWTON_STEPS = 20  # Newton steps of the finish at most
_NEWTON_STEP_TOL = 1e-13  # the finish stops once no phase moves this much
_CAP_ACTIVE_RTOL = 1e-6  # the finish holds the cap from a copy over gamma (1 - this)


def _kkt_newton(Q: np.ndarray, dual: _CapDual | None, theta: np.ndarray) -> np.ndarray | None:
    """Newton's method on the KKT conditions of max ||Q^H theta||^2 over the
    phases phi of theta = exp(i phi), from ``theta``; with ``dual``, the cap
    is held at ||B^H theta||^2 = gamma with its multiplier mu.

    Stationarity reads F(phi) = Im(conj(theta) A theta) = 0 for A = Q Q^H -
    mu B B^H, with Jacobian J = Re(diag(conj(theta)) A diag(theta)) -
    diag(Re(conj(theta) A theta)). With W = [Q, B], S = diag(1, -mu) on
    their columns and P = diag(conj(theta)) W, the first term is
    Re(P S P^H) = [Re P, Im P] diag(S, S) [Re P, Im P]^T, so J is a diagonal
    plus a matrix of rank at most 2 (k_Q + k_B). J has the global phase,
    the all-ones vector, in its null space, and F is orthogonal to it; J +
    11^T / N fixes that phase, and its systems are solved in O(N) by the
    Woodbury identity. With the cap, the step (d phi, d mu) solves the
    bordered system J d phi - b d mu = -F, 2 b^T d phi = gamma -
    ||B^H theta||^2, b = Im(conj(theta) B B^H theta) being half the cap's
    gradient, by two solves with J in one application: d phi = x1 + d mu
    x2, J x1 = -F, J x2 = b. mu starts from :func:`_cap_multiplier`.

    Stops after ``_NEWTON_STEPS`` steps or once a step moves no phase by
    ``_NEWTON_STEP_TOL``. Returns None when a step is not finite, as where
    the cap's gradient vanishes (N = 1).
    """
    k = Q.shape[1]
    W = Q if dual is None else np.concatenate([Q, dual.B], axis=1)
    Wh = W.conj().T
    mu = 0.0 if dual is None else _cap_multiplier(Q, dual, theta)
    signs = np.ones(W.shape[1])
    phi = np.angle(theta)
    n = len(phi)
    ones = np.ones((n, 1))
    with np.errstate(all="ignore"):
        for _ in range(_NEWTON_STEPS):
            theta = np.exp(1j * phi)
            p = Wh @ theta
            signs[k:] = -mu
            P = np.conj(theta)[:, None] * W
            t = P @ (signs * p)  # conj(theta) A theta
            e = np.concatenate([signs, signs, [1.0 / n]])
            V = np.concatenate([P.real, P.imag, ones], axis=1)
            # J + 11^T / N = -diag(d) + V diag(e) V^T, d = Re(conj(theta) A theta)
            neg_inv_d = -1.0 / t.real
            rhs = -t.imag[:, None]
            if dual is not None:
                b = (P[:, k:] @ p[k:]).imag
                rhs = np.concatenate([rhs, b[:, None]], axis=1)
            DR, DV = rhs * neg_inv_d[:, None], V * neg_inv_d[:, None]
            small = np.eye(len(e)) + e[:, None] * (V.T @ DV)
            try:
                X = DR - DV @ np.linalg.solve(small, e[:, None] * (V.T @ DR))
            except np.linalg.LinAlgError:
                return None
            step = X[:, 0]
            if dual is not None:
                cap = float(np.vdot(p[k:], p[k:]).real)
                dmu = (0.5 * (dual.gamma - cap) - b @ step) / (b @ X[:, 1])
                step = step + dmu * X[:, 1]
                mu += dmu
            if not (np.isfinite(step).all() and math.isfinite(mu)):
                return None
            phi = phi + step
            if np.abs(step).max() < _NEWTON_STEP_TOL:
                break
    return np.exp(1j * phi)


def _finish(
    Q: np.ndarray, dual: _CapDual | None, theta: np.ndarray, value: float,
    score: Callable[[np.ndarray], float | None],
) -> tuple[np.ndarray, float]:
    """A run's kept copy ``theta``, rated ``value`` by ``score``, finished by
    :func:`_kkt_newton`, or the copy itself where that scores no higher.

    The cap is held when the copy is over gamma (1 - ``_CAP_ACTIVE_RTOL``);
    below that Newton runs without it, and once more with it when that
    lands over gamma.
    """
    if dual is not None and dual.quad(theta) > dual.gamma * (1.0 - _CAP_ACTIVE_RTOL):
        point = _kkt_newton(Q, dual, theta)
    else:
        point = _kkt_newton(Q, None, theta)
        if point is not None and dual is not None and dual.quad(point) > dual.gamma:
            point = _kkt_newton(Q, dual, theta)
    new = None if point is None else score(point)
    return (point, new) if new is not None and new > value else (theta, value)


def pdd_solve(problem: ProblemData, init: np.ndarray | None = None) -> PddResult:
    """Solve the cap-constrained unit-modulus maximization.

    Deterministic given (problem, init). The returned reflection is
    exactly unit modulus, satisfies the cap within ``FEAS_RTOL`` relative,
    and carries the best feasible objective seen across the outer
    iterations; ``converged=False`` flags a run that hit the outer
    iteration cap before the two variable copies merged.

    The first start aligns with the dominant objective direction (or uses
    the explicit ``init``), blended toward a cap-suppressing reflection
    when that start violates the cap. A run's single outer iteration
    usually stops at a loose loop tolerance, so the finish
    (:func:`_finish`) takes Newton steps on the KKT conditions from its
    kept copy, holding the cap when the copy ends on it, and keeps the
    result only if it scores higher.

    When the cap is binding at the finished point, ``_RESTARTS - 1``
    deterministic random starts guard the other basins that binding-cap
    instances can have. They are screened first (:func:`_screen_starts`,
    all at once), and the penalty-dual loop runs only from those whose
    screened point beats the finished one; without a kept first copy every
    restart runs. The best feasible result wins, and a restart that wins is
    finished too, so the finish always applies to the winning run.

    ``outer_iterations`` counts the outer iterations of every run: the
    first start's, one for each finish and those of each restart that
    runs; a screened-out restart adds nothing. ``trace`` follows the
    winning run, with one more point (gap 0, rho ``_RHO0``) for its finish
    when the finish scored higher. ``converged`` is the winning run's flag.

    A start over the cap is blended toward the point of the cap minimizer
    (:func:`_minimize_quad_core`), run once per solve with gamma as its
    stop level: its penalty loop ends at the first unit-modulus copy under
    gamma, which is then used unpolished, and runs to its end and its
    polish only when it finds none.

    Raises :class:`Infeasible` when the cap minimizer, or the returned
    reflection itself, ends above gamma (1 + ``FEAS_RTOL``). The stop level
    cannot change the first decision: a stopped run ends under gamma, and
    the full run from the same start would end lower still. Raises
    :class:`ProjectionError` when a projection onto the capped disks fails
    to reach a point under the cap.
    """
    n = problem.n
    # scale objective and cap to O(1) vectors so _RHO0 is problem-independent
    Q, B = problem.Q, problem.B
    sq = float(max(np.linalg.norm(q) for q in Q.T))
    sh = 1.0 if B is None else float(max(np.linalg.norm(b) for b in B.T))
    scaled = replace(problem, Q=Q / sq, B=None if B is None else B / sh, gamma=problem.gamma / sh**2)
    dual = _cap_dual(scaled)  # cap constants shared by every start
    gamma = scaled.gamma
    feas_cap = gamma * (1.0 + 0.1 * FEAS_RTOL)
    feas_ref: dict[str, np.ndarray] = {}  # cap minimizer, computed at most once
    block = _ThetaBlock(scaled, dual)

    def feasible(theta: np.ndarray) -> bool:
        return dual is None or dual.quad(theta) <= feas_cap

    def score(theta: np.ndarray) -> float | None:
        return problem_objective(scaled, theta) if feasible(theta) else None

    def feasible_start(theta0: np.ndarray) -> np.ndarray:
        """Blend an infeasible start toward the cap minimizer."""
        if feasible(theta0):
            return theta0
        if "theta" not in feas_ref:
            # any point under the cap will do, so stop there
            rv, min_val = _minimize_quad_core(dual, ref=theta0, stop=gamma)
            if min_val > gamma * (1.0 + FEAS_RTOL):
                raise Infeasible(f"the cap minimizer from this solve's start ended at "
                                 f"{min_val:.6g}, which exceeds gamma {gamma:.6g}")
            feas_ref["theta"] = rv.coefficients
        theta_feas = feas_ref["theta"]
        if not feasible(theta_feas):
            return theta_feas  # near-threshold: start at the minimizer itself
        return _blend_feasible(theta0, theta_feas, dual)

    def single_run(theta0: np.ndarray):
        theta0 = feasible_start(theta0)
        block.w = None  # every start follows its own trajectory
        return _penalty_dual(theta0, block.update, score)

    def finish(theta, obj, history, converged):
        """The run's result with its kept copy finished (:func:`_finish`): one
        outer iteration, traced when it scores higher."""
        nonlocal total_outer
        total_outer += 1
        theta_f, obj_f = _finish(scaled.Q, dual, theta, obj, score)
        if theta_f is theta:
            return theta, obj, history, converged
        return theta_f, obj_f, history + [(theta_f, 0.0, _RHO0)], converged

    if init is not None:
        theta0 = _unit_phases(np.asarray(init, dtype=complex))
    else:
        theta0 = _principal_phases(scaled.Q)
    best_theta, best_obj, history, converged = single_run(theta0)
    total_outer = len(history)
    if best_theta is not None:
        best_theta, best_obj, history, converged = finish(best_theta, best_obj, history, converged)

    cap_binding = best_theta is not None and dual is not None and dual.quad(best_theta) > gamma / 2
    if best_theta is None or cap_binding:
        starts = np.exp(1j * np.random.default_rng(0x5EED).uniform(0.0, 2.0 * np.pi, (_RESTARTS - 1, n)))
        if best_theta is None:
            keep = np.ones(len(starts), dtype=bool)
        else:
            keep = _screen_starts(scaled.Q, dual, best_theta, starts.T)
        restart_won = False
        for extra in starts[keep]:
            theta_k, obj_k, history_k, conv_k = single_run(extra)
            total_outer += len(history_k)
            if theta_k is not None and obj_k > best_obj:
                best_theta, best_obj, history, converged = theta_k, obj_k, history_k, conv_k
                restart_won = True
        if restart_won:
            best_theta, best_obj, history, converged = finish(best_theta, best_obj, history, converged)

    if best_theta is None:
        # never produced a unit-modulus iterate under the cap: settle at the
        # cap minimizer, which the infeasible first start already computed
        best_theta = feas_ref["theta"]
        best_obj = problem_objective(scaled, best_theta)
        converged = False
    trace = [
        PddTracePoint(outer=outer, objective=sq**2 * problem_objective(scaled, theta),
                      constraint=problem_constraint(problem, theta), gap=gap, rho=rho)
        for outer, (theta, gap, rho) in enumerate(history, 1)
    ]
    return PddResult(theta=_under_cap(problem, best_theta), objective=sq**2 * best_obj,
                     trace=trace, converged=converged, outer_iterations=total_outer)


def pdd_solve_with_candidates(
    problem: ProblemData, candidates: list[np.ndarray] | None = None
) -> PddResult:
    """Solve, then keep the best of the solver output and any feasible candidate.

    Candidates are unit-modulus coefficient vectors known to be feasible
    here (e.g. the whole-window reflection evaluated on a per-segment
    problem, or the previous point of a cap sweep); seeding and comparing
    against them makes the per-segment and sweep results monotone by
    construction without touching the solver itself.
    """
    feasible: list[tuple[float, np.ndarray]] = []
    for cand in candidates or []:
        coeff = _unit_phases(np.asarray(cand, dtype=complex))
        if problem_constraint(problem, coeff) <= problem.gamma * (1.0 + 0.1 * FEAS_RTOL):
            feasible.append((problem_objective(problem, coeff), coeff))
    best_cand = max(feasible, key=lambda t: t[0]) if feasible else None
    result = pdd_solve(problem, init=None if best_cand is None else best_cand[1])
    if best_cand is not None and best_cand[0] > result.objective:
        return replace(result, theta=_under_cap(problem, best_cand[1]), objective=best_cand[0])
    return result


# ---------------------------------------------------------------------------
# closed forms and the oracle


def closed_form_lrs_only(u: np.ndarray) -> ReflectionVector:
    """Optimal reflection when only the legitimate radar matters: align with u.

    Achieves the coherent maximum |u^H theta|^2 = N^2; no other unit-modulus
    reflection can do better (Cauchy-Schwarz).
    """
    return ReflectionVector.on(np.angle(np.asarray(u, dtype=complex)))


def closed_form_urs_null(
    irs_spec: ArraySpec, angles_u: AnglePair, index: tuple[int, int]
) -> ReflectionVector:
    """Closed-form reflection that exactly nulls the unauthorized echo.

    The echo gain is the product of one factor per reflector axis. Steering
    an axis to a shifted grid point (shift lambda/(N_axis d) times its
    index) zeroes its factor when the index is nonzero, so any index with
    0 <= ix < count_a and 0 <= iy < count_b except (0, 0) gives a null. A
    one-element reflector has none: every phase gives it the same echo.
    """
    nx, ny = irs_spec.count_a, irs_spec.count_b
    if irs_spec.size < 2:
        raise NoNullAvailable("a one-element reflector has no closed-form null")
    ix, iy = index
    if not (0 <= ix < nx and 0 <= iy < ny) or ix == iy == 0:
        raise IndexError(f"null index {index} outside 0..{nx - 1} x 0..{ny - 1} without (0, 0)")
    dzx, dzy = composite_deltas("G", angles_u, angles_u)
    shift = irs_spec.wavelength / irs_spec.spacing
    sx = dzx + shift * ix / nx
    sy = dzy + shift * iy / ny
    tx = steering_1d(nx, irs_spec.spacing, irs_spec.wavelength, sx)
    ty = steering_1d(ny, irs_spec.spacing, irs_spec.wavelength, sy)
    return ReflectionVector.on(np.angle(np.kron(tx, ty)))


def brute_force_oracle(
    problem: ProblemData, phase_levels: int, budget: int = 1 << 24
) -> tuple[ReflectionVector, float]:
    """Exhaustively enumerate a uniform phase grid; test-only reference.

    Every element takes one of ``phase_levels`` equispaced phases; all
    phase_levels**N combinations are scored and the best feasible one is
    returned. Raises :class:`BudgetExceeded` past the candidate budget and
    :class:`Infeasible` when no grid point satisfies the cap.
    """
    if phase_levels < 1:
        raise ValueError("phase_levels must be >= 1")
    n = problem.n
    total = phase_levels**n
    if total > budget:
        raise BudgetExceeded(f"{phase_levels}^{n} = {total} exceeds budget {budget}")
    roots = np.exp(2j * np.pi * np.arange(phase_levels) / phase_levels)
    place = phase_levels ** np.arange(n)
    best_obj = -np.inf
    best = None
    cap = problem.gamma * (1.0 + 1e-12)
    objective = [np.conj(q) for q in problem.Q.T]
    cap_vectors = [] if problem.B is None else [np.conj(b) for b in problem.B.T]
    chunk = 1 << 16
    for start in range(0, total, chunk):
        codes = np.arange(start, min(start + chunk, total))
        digits = (codes[:, None] // place[None, :]) % phase_levels
        thetas = roots[digits]
        objs = sum(np.abs(thetas @ q) ** 2 for q in objective)
        if cap_vectors:
            objs[sum(np.abs(thetas @ b) ** 2 for b in cap_vectors) > cap] = -np.inf
        k = int(np.argmax(objs))
        if objs[k] > best_obj:
            best_obj = float(objs[k])
            best = thetas[k]
    if best is None or not np.isfinite(best_obj):
        raise Infeasible("no grid point satisfies the cap")
    return ReflectionVector.on(np.angle(best)), best_obj


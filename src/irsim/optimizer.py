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
blended toward a point of the cap minimizer, a batched unit-modulus
descent of ||B^H theta||^2 finished by Newton's method.

The outer loop is kept for caps close to the least reachable one. On the
reference inputs every run ends after one outer iteration, but with the
cap at twice the least value a penalty-dual cap minimizer reaches on 38
seeded N = 4 instances, the maximizer cut to one outer iteration falls
below 0.9 of its value. A test pins one of them. The loop's settings are
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
finish. The screen first tests the diagonal dual certificate of the
finished start (the tightness condition of the SDP relaxation; Bandeira,
Boumal & Singer, Math. Program. 2017) in O(N): where it holds, no restart
can beat that start on the Lagrangian, and the screen keeps none without
iterating. The finish holds the cap at equality, so the certificate holds
at most binding solves. The solver builds no N x N matrix. Closed-form
solutions exist for the two single-radar special cases, and a phase-grid
exhaustive search serves as a small-size oracle.

Every problem is first tried by one certified route (:func:`_certified`):
one cold P9 dual solve along the principal objective direction q gives the
cap dual y of the disk relaxation of max Re(q^H theta), Newton's method
takes phase(q - B y) to a KKT point, and the diagonal dual certificate
proves that point the global maximum. With one objective vector (the
single-radar segments P1 and P2) phase(q - B y) is the maximizer itself,
and where phase(q) meets the cap it is returned with no Newton step; with
two (P3, P4) it is a start that the certificate judges, and a refused
point held on the cap gets one Newton run without it, for a maximum inside
the cap. Only a certified result is returned; every other problem runs the
penalty-dual loop, bit for bit. The route's eigen-problems, all of size 2
at most (the principal direction, sigma_1^2 of the cap), are solved in
closed form on Python numbers; the only linear solve it hands to
numpy.linalg is the Woodbury system of each Newton step.

:func:`pdd_solve` scales the problem once (:func:`_scaled`: the objective
matrix, its scale and the scaled cap's constants). The route and the loop
each hand back a run record (:class:`_Run`), and :func:`pdd_solve` alone
assembles the result from it: the trace in the problem's own units and the
reflection checked against its cap. A run of the loop
(:func:`_penalty_dual`) is a plain function of the scaled problem and its
start, and one rule (:func:`_score`) rates every copy the solver keeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import product
from typing import NamedTuple

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
    or None when none is left; ``rows`` is the row count it must have.
    Rejects a non-finite entry and a column whose squared norm overflows."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or (rows is not None and M.shape[0] != rows):
        raise ValueError(f"{name} must be an N x k array, N shared by Q and B")
    if M.shape[1] > 2:
        raise ValueError(f"{name} has {M.shape[1]} columns; the dual solves take at most 2")
    with np.errstate(over="ignore"):  # an overflow reads inf, as a non-finite entry does
        power = [float(np.vdot(m, m).real) for m in M.T]  # squared column norms
    if not all(map(math.isfinite, power)):
        raise ValueError(f"{name} must be finite, squared column norms included")
    keep = [j for j, p in enumerate(power) if p > 0]
    return np.ascontiguousarray(M[:, keep]) if keep else None


def _finite_vector(name: str, x, n: int) -> np.ndarray:
    """``x`` as a complex array; raises ValueError unless it is a finite vector of length n."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (n,) or not np.isfinite(x).all():
        raise ValueError(f"{name} must be a finite vector of length {n}")
    return x


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
    columns, finite entries and finite squared column norms. All-zero
    columns, which a silent radar gives, are dropped, and a cap left without
    columns becomes None; an objective left without columns is rejected.
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
    trace: tuple[PddTracePoint, ...] = ()
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
            for t in durations:
                _check_positive(durations=t)
            t_l, t_u = durations
            Q = [np.sqrt(t_l) * Q[0], np.sqrt(t_u) * Q[1]]
    else:
        raise ValueError(f"case must be P1..P4, got {case!r}")
    return ProblemData(Q=np.stack(Q, axis=1), B=np.stack(B, axis=1), gamma=gamma)


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


def _top_eigenpair(gram: list[list[complex]]) -> tuple[float, tuple[float, complex]]:
    """The largest eigenvalue of a positive semidefinite Hermitian matrix of
    size 1 or 2, given as nested lists of Python numbers, and a unit
    eigenvector of it whose first entry is real and nonnegative.

    For [[a, b], [conj(b), c]] the eigenvalue is (a + c) / 2 + r, r =
    hypot((a - c) / 2, |b|), and the eigenvector is along (r + (a - c) / 2,
    conj(b)) when a >= c and along (|b|, (r - (a - c) / 2) conj(b) / |b|)
    otherwise: each adds numbers of one sign, so nothing cancels. With b = 0
    it is the unit vector of the larger diagonal entry.
    """
    if len(gram) == 1:
        return gram[0][0].real, (1.0, 0j)
    (a, b), (_, c) = gram
    a, c = a.real, c.real
    half = 0.5 * (a - c)
    root = math.hypot(half, abs(b))
    top = 0.5 * (a + c) + root
    if b == 0:
        return top, ((1.0, 0j) if half >= 0 else (0.0, 1 + 0j))
    phase = b.conjugate() / abs(b)
    v0, v1 = (half + root, abs(b) * phase) if half >= 0 else (abs(b), (root - half) * phase)
    norm = math.hypot(v0, abs(v1))
    return top, (v0 / norm, v1 / norm)


def _top_sigma_sq(B: np.ndarray) -> float:
    """Largest eigenvalue of B B^H: that of the Gram matrix B^H B, in closed
    form (:func:`_top_eigenpair`)."""
    return _top_eigenpair((B.conj().T @ B).tolist())[0]


def _real_rows(M: np.ndarray) -> np.ndarray:
    """The rows of [M, iM] split into real and imaginary parts (2N x 2k, real):
    x viewed as floats times it is (Re M^H x, Im M^H x), and it times (a, b),
    viewed as complex, is M (a + ib)."""
    C = np.concatenate([M, 1j * M], axis=1)
    return np.stack([C.real, C.imag], axis=1).reshape(-1, C.shape[1])


class _CapDual:
    """Per-problem constants of the cap and of the P9 projection's dual solve.

    The P9 projection is solved in a dual variable y in C^k, k = B.shape[1]
    <= 2, handled in the real coordinates w = (Re y, Im y) through C = [B,
    iB], so that B y = C w and Re(C^H x) = (Re B^H x, Im B^H x); both are
    real products with the rows ``Cr`` of C. Built once per problem and
    shared by every start and the cap minimizer.

    Its Newton matrix needs Re(C^H J C) for the Jacobian J of x = clip(z).
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
    radius, so a full step can be orders of magnitude too long. A full step
    whose gradient already meets the tolerance is taken whatever its
    slope: it has converged, and the regula falsi would only trade it for
    a point no better. The Newton
    matrix (:meth:`_CapDual.newton_matrix`) is solved by :func:`_spd_solve`,
    and replaced by steepest ascent where rounding leaves it indefinite;
    trial points along a direction d reuse z = b - C w and C d. The first
    iterate is the warm start ``w0`` (real coordinates of y) when it is
    nonzero and sqrt(gamma) / ||w0|| is finite, else a proximal gradient
    step from y = 0 (step 1 / sig2, sig2 >= ||B||^2), which ascends and
    keeps off the kink of ||y|| at 0.

    Returns x and the real coordinates w of y, with w = None when there is
    no cap (``dual`` is None) or clip(b) already meets it, or misses it by
    so little that the first step from y = 0 is exactly 0. The returned x
    never exceeds the cap: a point over it is pulled toward x = 0, which is
    feasible for any gamma > 0, when the iteration converged (over by
    rounding) or stalled within ``FEAS_RTOL`` of the cap; it stalls so when
    gamma is within rounding of the least cap of the unit-modulus points,
    and the maximizer lies far across a plateau of g. Further over, short of
    convergence (at the step limit or the rounding floor), a warm start runs
    again from y = 0 and a cold one raises :class:`ProjectionError`. A trial
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
    # a warm start so small that sqrt(gamma) / ||w0|| overflows counts as none
    warm = w0 is not None and w0.any() and math.isfinite(root_gamma / math.hypot(*w0.tolist()))
    z, w = b, np.zeros(2 * dual.k)  # the first iterate is a step from y = 0
    d = w0 if warm else p * ((1 - root_gamma / math.sqrt(p @ p)) / dual.sig2)
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
        if slope < 0 and math.hypot(*state[4].tolist()) > tol:  # overshoot: Illinois regula falsi on the slope
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
                # at lo = 0 (every step along d descends) this is w itself,
                # and the stop below ends the loop
                state, _ = at(lo)
        if not math.isfinite(slope) or state[1].tolist() == w.tolist():
            break  # rounding floor: the slope overflows, or the step no longer moves y
        z, w, m, x, grad, nw = state
    if not converged and warm and dual.quad(x) > gamma * (1.0 + FEAS_RTOL):
        return _p9_dual(b, dual, None)  # the warm start led astray: once more from y = 0
    return _pull_under_cap(x, dual, converged), w


def _pull_under_cap(x: np.ndarray, dual: _CapDual, converged: bool) -> np.ndarray:
    """x, pulled toward 0 when it is over the cap (see :func:`_p9_dual`).

    Raises :class:`ProjectionError` when x is over the cap and the projection
    neither converged nor stalled within ``FEAS_RTOL`` of it.
    """
    gamma = dual.gamma
    cap = dual.quad(x)  # as the callers measure it; |Re(C^H x)|^2 rounds apart from it
    margin = 1e-12
    while (converged or cap <= gamma * (1.0 + FEAS_RTOL)) and cap > gamma and margin < 1.0:
        # the computed cap carries rounding of relative size up to eps ||B||
        # ||x|| / sqrt(gamma), so the margin grows until it clears it, at most
        # to 1 less a rounding, which takes x to within rounding of 0
        x = x * (np.sqrt(gamma / cap) * (1.0 - margin))
        cap = dual.quad(x)
        margin *= 10.0
    if cap > gamma:
        raise ProjectionError(f"P9 projection stopped at cap {cap:.17g} over gamma {gamma:.17g}")
    return x


def _principal(Q: np.ndarray) -> np.ndarray:
    """The dominant objective direction Q c, c the principal eigenvector of
    Q^H Q in closed form (:func:`_top_eigenpair`): the objective vector
    itself when there is one."""
    if Q.shape[1] == 1:
        return Q[:, 0]
    _, c = _top_eigenpair((Q.conj().T @ Q).tolist())
    return Q @ np.array(c)


# ---------------------------------------------------------------------------
# the solver blocks


def _disk_block(
    Qr: np.ndarray, dual: _CapDual | None, w: np.ndarray | None, theta: np.ndarray, center: np.ndarray,
    rho: float, tol: float,
) -> tuple[np.ndarray, float, np.ndarray | None, list[float]]:
    """Successive convex approximation on the penalized disk-block problem.

    Minimizes -||Q^H x||^2 + ||x - center||^2 / (2 rho) over the unit disks
    under the cap ``dual`` (None without a cap) from ``theta``, Q given as
    its real rows ``Qr`` (:func:`_real_rows`). Each surrogate re-linearizes
    the (negated) objective at the previous solution and is a P9 projection
    (:func:`_p9_dual`) warm-started from the dual point ``w`` of the one
    before it (None: cold), until the penalized objective stalls to the
    relative tolerance ``tol``; a safeguard keeps the previous iterate
    whenever a surrogate step fails to descend (only possible through
    subsolver tolerance). Returns the new theta, -||Q^H theta||^2 there,
    the last projection's dual point, and the penalized objective after
    every surrogate solve, a non-increasing sequence because each surrogate
    majorizes the true objective at its expansion point.
    """
    two_rho = 2.0 * rho

    def penalized(theta: np.ndarray) -> tuple[float, np.ndarray]:
        """-||Q^H theta||^2 + ||theta - center||^2 / (2 rho), and Q^H theta as real pairs."""
        p, d = theta.view(float) @ Qr, theta - center
        return float(np.vdot(d, d).real / two_rho - p @ p), p

    prev, p = penalized(theta)
    objectives: list[float] = []
    for _ in range(_MAX_SCA):
        theta_new, w = _p9_dual(center + two_rho * (Qr @ p).view(complex), dual, w)
        obj, p_new = penalized(theta_new)
        if obj > prev:
            objectives.append(prev)
            break
        theta, p = theta_new, p_new
        objectives.append(obj)
        if prev - obj <= tol * max(1.0, abs(prev)):
            break
        prev = obj
    return theta, -float(p @ p), w, objectives


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


class _Run(NamedTuple):
    """A run of the solver on its scaled problem: the kept copy (None if
    none), its objective (-inf if none), the (theta, gap, rho) of each traced
    outer iteration, the converged flag and the outer iterations counted."""

    theta: np.ndarray | None
    objective: float
    history: list[tuple[np.ndarray, float, float]]
    converged: bool
    outer: int


def _feasible(dual: _CapDual | None, theta: np.ndarray) -> bool:
    """Whether a copy is under the scaled cap as the solver rates copies:
    within ``FEAS_RTOL`` / 10 relative."""
    return dual is None or dual.quad(theta) <= dual.gamma * (1.0 + 0.1 * FEAS_RTOL)


def _score(Q: np.ndarray, dual: _CapDual | None, theta: np.ndarray) -> float | None:
    """The solver's rating of a unit-modulus copy, higher being better:
    ||Q^H theta||^2 under the cap (:func:`_feasible`), None over it."""
    return _column_power(Q, theta) if _feasible(dual, theta) else None


def _penalty_dual(Q: np.ndarray, dual: _CapDual | None, theta0: np.ndarray) -> _Run:
    """A run of the solver's penalty-dual loop from ``theta0`` on the scaled
    objective ``Q`` and cap ``dual``.

    Starts both copies at ``theta0`` with lambda = 0 and rho = ``_RHO0``. Each
    outer iteration alternates between the disk block (:func:`_disk_block`
    with center = vartheta - rho lambda), which returns the new theta and
    the block objective f there, and the unit-modulus block, the phase of
    theta + rho lambda; then it takes a dual step. The alternation is the
    map vartheta -> phase(block(theta, vartheta - rho lambda) + rho lambda);
    from its third image on, vartheta is extrapolated by :func:`_anderson`,
    and kept only if the block result from it does not raise the merit
    Phi(theta) = f(theta) + ||theta + rho lambda - phase(theta + rho
    lambda)||^2 / (2 rho), which the plain alternation never raises; else
    the plain step follows and the memory is cleared. Every block call
    counts toward ``_MAX_INNER``. The alternation stops once an image moves
    less than a loop tolerance that shrinks with the outer index to
    ``_INNER_TOL``, and leaves vartheta = phase(theta + rho lambda). The
    run's first projection starts cold (w = None), every later one from the
    dual point of the one before it, a rejected extrapolation's included.

    The copies are rated by :func:`_score`; the best-rated copy seen,
    ``theta0`` included, is kept. The loop ends when the copies merge to
    ``_OUTER_TOL`` with a copy kept (converged) or after ``_MAX_OUTER``
    outer iterations.

    Returns the run: the kept copy and its score, and the (theta, gap, rho)
    of every outer iteration, which it counts.
    """
    Qr, w = _real_rows(Q), None
    theta = vartheta = theta0
    lam = np.zeros(theta0.shape, dtype=complex)
    rho = _RHO0
    first = _score(Q, dual, theta0)
    best, best_score = (None, -math.inf) if first is None else (theta0, first)
    history: list[tuple[np.ndarray, float, float]] = []
    for outer in range(1, _MAX_OUTER + 1):
        # solve the inner problem inexactly at first, tightly once rho is small
        tol = max(_INNER_TOL, 0.03 * _C ** (2 * outer))
        shift = rho * lam
        trial, merit, memory = vartheta, math.inf, []
        for _ in range(_MAX_INNER):
            theta_new, f, w, _ = _disk_block(Qr, dual, w, theta, trial - shift, rho, tol)
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
        value = _score(Q, dual, vartheta)
        if value is not None and value > best_score:
            best, best_score = vartheta, value
        history.append((theta, gap, rho))
        if gap < _OUTER_TOL and best is not None:
            return _Run(best, best_score, history, True, outer)
        lam, rho = _dual_step(lam, theta, vartheta, rho, _C)
    return _Run(best, best_score, history, False, _MAX_OUTER)


def minimize_unit_modulus_quadratic(vectors) -> tuple[ReflectionVector, float]:
    """Minimize sum_i |h_i^H theta|^2 over unit-modulus theta.

    ``vectors`` is a sequence of the h_i (1D complex arrays), scaled to unit
    largest norm for the cap minimizer of :func:`pdd_solve`
    (:func:`_minimize_quad_core`), run with no stop level. All-zero vectors
    give the zero-phase reflection.
    """
    B = np.stack([np.asarray(v, dtype=complex) for v in vectors], axis=1)
    scale = float(np.max(np.linalg.norm(B, axis=0)))
    if scale == 0:
        return ReflectionVector.on(np.zeros(B.shape[0])), 0.0
    theta, val = _minimize_quad_core(_CapDual(B / scale), None)
    return theta, val * scale**2


def _cap_step(dual: _CapDual, T: np.ndarray) -> np.ndarray:
    """The cap minimizer's map on the rows t of T: the phases of (sig2 I - B B^H) t."""
    return np.angle(dual.sig2 * T - (T @ dual.B.conj()) @ dual.B.T)


_CAP_STARTS = 8  # the null-space start and seeded random starts, mapped as one batch
_CAP_STEPS = 3000  # map steps of the cap minimizer at most
_CAP_MOVE_TOL = 1e-10  # the map stops once no entry moves this much
_CAP_FINISHES = 3  # lowest rows finished by Newton's method when none meets the stop level


def _minimize_quad_core(
    dual: _CapDual, ref: np.ndarray | None, stop: float | None = None
) -> tuple[ReflectionVector, float]:
    """Minimization of ||B^H theta||^2 over unit-modulus theta.

    A point is rated, and returned, with the value of its reflection rebuilt
    from its phases, ``dual.quad(rv.coefficients)``: near a null, rebuilding
    moves the value by percents. The reference projected onto the null space
    of the cap form is returned when it meets the stop level; else it and
    ``_CAP_STARTS - 1`` seeded random starts are mapped as one batch by
    theta <- phase((sig2 I - B B^H) theta), which never raises the value
    (majorization-minimization; Soltanalian & Stoica, IEEE TSP 2014), until
    a row meets the level (the lowest-indexed one is returned), for
    ``_CAP_STEPS`` steps or until no entry moves ``_CAP_MOVE_TOL``. Then
    :func:`_kkt_newton` finishes the ``_CAP_FINISHES`` lowest rows, and the
    lowest point is returned. A run that never meets the level is the run
    without one, and a stopped row would only have gone lower, so the level
    changes no decision.
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

    def rebuilt(phases: np.ndarray) -> tuple[ReflectionVector, float]:
        rv = ReflectionVector.on(phases)
        return rv, dual.quad(rv.coefficients)

    start = rebuilt(np.angle(theta0))
    if stop is not None and start[1] <= stop:
        return start
    draws = np.random.default_rng(0x5EED).uniform(0.0, 2.0 * np.pi, (_CAP_STARTS - 1, n))
    T = np.exp(1j * np.concatenate([start[0].phases[None], draws]))  # rebuilt as rebuilt() does
    for _ in range(_CAP_STEPS):
        phases = _cap_step(dual, T)
        T, prev = np.exp(1j * phases), T
        values = [dual.quad(t) for t in T]
        under = [j for j, value in enumerate(values) if stop is not None and value <= stop]
        if under:
            return rebuilt(phases[under[0]])
        if np.abs(T - prev).max() < _CAP_MOVE_TOL:
            break
    order = np.argsort(values, kind="stable")
    finished = [_kkt_newton(B, None, T[j]) for j in order[:_CAP_FINISHES]]
    points = [rebuilt(phases[order[0]])] + [rebuilt(np.angle(p)) for p in finished if p is not None]
    return min(points, key=lambda point: point[1])  # a finished row only where it is lower


def _blend_feasible(theta_obj: np.ndarray, theta_feas: np.ndarray, dual: _CapDual) -> np.ndarray:
    """Phase-geodesic warm start: as close to theta_obj as stays under the cap."""
    psi0 = np.angle(theta_feas)
    dpsi = (np.angle(theta_obj) - psi0 + np.pi) % (2.0 * np.pi) - np.pi  # wrapped to [-pi, pi)
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


_CERT_SLACK = 1e-11  # the certificate's slack tau, relative to |L(theta_ref)| / N


def _pivots(h: list[list[complex]]) -> list[float]:
    """The pivots of Gaussian elimination without row exchanges of a small
    Hermitian matrix, as nested lists of Python numbers, up to the first
    zero one. Past the first j, they are the pivots of the Schur complement
    of the leading j x j block."""
    h = [row[:] for row in h]
    pivots = []
    for j, row in enumerate(h):
        pivots.append(row[j].real)
        if pivots[-1] == 0:
            break
        for lower in h[j + 1 :]:
            f = lower[j] / pivots[-1]
            for k in range(j + 1, len(h)):
                lower[k] -= f * row[k]
    return pivots


def _lagrangian_certified(Q: np.ndarray, dual: _CapDual | None, mu: float, theta_ref: np.ndarray) -> bool:
    """Whether a diagonal dual certificate proves that no unit-modulus x has
    L(x) = x^H A x, A = Q Q^H - mu B B^H (Q Q^H without a cap, ``dual``
    None), above L(theta_ref) + tau N.

    With d = Re(conj(theta_ref) A theta_ref), sum(d) = L(theta_ref), and every
    unit-modulus x has L(x) = sum(d) - x^H (diag(d) - A) x. So diag(d) - A +
    tau I positive semidefinite bounds L(x) by L(theta_ref) + tau N, for tau =
    ``_CERT_SLACK`` |L(theta_ref)| / N: the dual certificate of the
    unit-modulus quadratic program, the tightness condition of its SDP
    relaxation (Bandeira, Boumal & Singer, Math. Program. 2017).

    The test is O(N) and builds no N x N matrix. It needs D = diag(d + tau)
    positive, else it certifies nothing. Then E - Q Q^H, E = D + mu B B^H, is
    positive definite if and only if I - Q^H E^-1 Q is, and by Woodbury
    Q^H E^-1 Q = Q^H D^-1 Q - mu Q^H D^-1 B (I + mu B^H D^-1 B)^-1 B^H D^-1 Q.
    So -(I - Q^H E^-1 Q) is the Schur complement of the leading block in the
    Hermitian matrix [I + mu B^H D^-1 B, sqrt(mu) B^H D^-1 Q; sqrt(mu) Q^H
    D^-1 B, Q^H D^-1 Q - I] of size k_B + k_Q <= 4, and it is negative
    definite when the pivots of the trailing k_Q rows (:func:`_pivots`, on
    Python numbers) are all negative.
    """
    if dual is None:
        a, V, k = Q @ (Q.conj().T @ theta_ref), Q, 0
    else:
        a = Q @ (Q.conj().T @ theta_ref) - mu * (dual.B @ (dual.Bh @ theta_ref))
        V, k = np.concatenate([math.sqrt(mu) * dual.B, Q], axis=1), dual.k
    d = (np.conj(theta_ref) * a).real
    w = d + _CERT_SLACK * abs(float(d.sum())) / len(d)
    if not w.min() > 0:
        return False
    g = ((V.conj().T / w) @ V).tolist()
    for i, row in enumerate(g):
        row[i] += 1.0 if i < k else -1.0
    pivots = _pivots(g)
    return len(pivots) == len(g) and max(pivots[k:]) < 0


def _screen_starts(Q: np.ndarray, dual: _CapDual, theta_ref: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Which columns of ``starts`` may reach a better basin than ``theta_ref``.

    Fits the cap multiplier mu >= 0 at ``theta_ref`` (:func:`_cap_multiplier`).
    Where the diagonal dual certificate (:func:`_lagrangian_certified`)
    proves that theta_ref is the global maximum of L(theta) = ||Q^H theta||^2
    - mu ||B^H theta||^2 over unit-modulus theta, up to a slack far inside
    ``_SCREEN_RTOL``, no column can pass the test below, and none is kept
    without iterating. Otherwise it ascends L from every column at once by
    the unit-modulus fixed-point map theta <- phase(M theta), M = Q Q^H - mu
    B B^H + kappa I with kappa = mu sig2, for which M is positive
    semidefinite, so that no step lowers L (Soltanalian & Stoica, IEEE TSP
    2014). M is applied through Q and B, never formed. It takes
    ``_SCREEN_STEPS`` steps at most and stops once no entry moves
    ``_SCREEN_MOVE_TOL``. A column is kept when its L beats L(theta_ref) by
    more than ``_SCREEN_RTOL`` relative.
    """
    B, Qh, Bh = dual.B, Q.conj().T, dual.Bh
    mu = _cap_multiplier(Q, dual, theta_ref)
    if _lagrangian_certified(Q, dual, mu, theta_ref):
        return np.zeros(starts.shape[1], dtype=bool)

    def lagrangian(T: np.ndarray) -> np.ndarray:
        return (np.abs(Qh @ T) ** 2).sum(axis=0) - mu * (np.abs(Bh @ T) ** 2).sum(axis=0)

    kappa = mu * dual.sig2
    T = starts
    for _ in range(_SCREEN_STEPS):
        T, prev = _unit_phases(Q @ (Qh @ T) - mu * (B @ (Bh @ T)) + kappa * T), T
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

    The Woodbury system lives in arrays allocated once per run and
    refilled every step: V = [Re P, Im P, 1], e = (S, S, 1 / N) and the
    right-hand sides. With D = -diag(d), V^T D^-1 rhs is formed as (D^-1
    V)^T rhs and the solution as (rhs - V sol) D^-1, so that only the
    small system of size 2 (k_Q + k_B) + 1 <= 9 goes to numpy.linalg.

    Stops after ``_NEWTON_STEPS`` steps or once a step moves no phase by
    ``_NEWTON_STEP_TOL``. Returns None when a step is not finite, as where
    the cap's gradient vanishes (N = 1).
    """
    k = Q.shape[1]
    W = Q if dual is None else np.concatenate([Q, dual.B], axis=1)
    Wh, m = W.conj().T, W.shape[1]
    mu = 0.0 if dual is None else _cap_multiplier(Q, dual, theta)
    phi = np.angle(theta)
    n = len(phi)
    # J + 11^T / N = -diag(d) + V diag(e) V^T, d = Re(conj(theta) A theta),
    # V = [Re P, Im P, 1] and e = (S, S, 1 / N), filled in place every step
    V, e = np.ones((n, 2 * m + 1)), np.full(2 * m + 1, 1.0 / n)
    e[:m] = e[m : 2 * m] = 1.0
    rhs = np.empty((n, 1 if dual is None else 2))  # -F, and b with the cap
    eye = np.eye(2 * m + 1)
    with np.errstate(all="ignore"):
        for _ in range(_NEWTON_STEPS):
            theta = np.exp(1j * phi)
            p = Wh @ theta
            e[k:m] = e[m + k : 2 * m] = -mu
            P = np.conj(theta)[:, None] * W
            t = P @ (e[:m] * p)  # conj(theta) A theta
            V[:, :m], V[:, m : 2 * m] = P.real, P.imag
            neg_inv_d = -1.0 / t.real
            np.negative(t.imag, out=rhs[:, 0])
            if dual is not None:
                rhs[:, 1] = b = (P[:, k:] @ p[k:]).imag
            DV = V * neg_inv_d[:, None]
            try:
                sol = np.linalg.solve(eye + e[:, None] * (V.T @ DV), e[:, None] * (DV.T @ rhs))
            except np.linalg.LinAlgError:
                return None
            X = (rhs - V @ sol) * neg_inv_d[:, None]
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


def _newton_point(Q: np.ndarray, dual: _CapDual | None, theta: np.ndarray) -> tuple[np.ndarray | None, bool]:
    """:func:`_kkt_newton` from ``theta`` under the finish's cap rule, and
    whether the cap was held.

    The cap is held when ``theta`` is over gamma (1 - ``_CAP_ACTIVE_RTOL``);
    below that Newton runs without it, and once more with it when that
    lands over gamma. The point is None where a step is not finite.
    """
    if dual is not None and dual.quad(theta) > dual.gamma * (1.0 - _CAP_ACTIVE_RTOL):
        return _kkt_newton(Q, dual, theta), True
    point = _kkt_newton(Q, None, theta)
    if point is not None and dual is not None and dual.quad(point) > dual.gamma:
        return _kkt_newton(Q, dual, theta), True
    return point, False


def _finish(Q: np.ndarray, dual: _CapDual | None, run: _Run) -> _Run:
    """``run`` finished: its kept copy taken to its Newton point
    (:func:`_newton_point`) where that rates higher by :func:`_score`, with
    one more trace point (gap 0, rho ``_RHO0``), and kept otherwise. Either
    way the finish counts as one outer iteration."""
    point, _ = _newton_point(Q, dual, run.theta)
    new = None if point is None else _score(Q, dual, point)
    if new is None or not new > run.objective:
        return run._replace(outer=run.outer + 1)
    return _Run(point, new, run.history + [(point, 0.0, _RHO0)], run.converged, run.outer + 1)


def _scaled(problem: ProblemData) -> tuple[np.ndarray, float, _CapDual | None]:
    """The objective matrix scaled to a largest column norm of 1, so that
    ``_RHO0`` is problem-independent; its scale sq; and the constants of the
    cap scaled the same way, shared by every start (None without a cap)."""
    Q, B = problem.Q, problem.B
    sq = float(np.linalg.norm(Q, axis=0).max())
    if B is None:
        return Q / sq, sq, None
    sh = float(np.linalg.norm(B, axis=0).max())
    return Q / sq, sq, _CapDual(B / sh, problem.gamma / sh**2)


_DUAL_SCALE = 1e8  # P9 projects this multiple of q: its dual is then the cap dual, Huber-smoothed
_ROUTE_GAP = 1e-9  # the certified route returns at a certified gap this small


def _certified(Q: np.ndarray, dual: _CapDual | None) -> _Run | None:
    """The maximizer of the problem reached through the cap dual along its
    principal objective direction and certified to ``_ROUTE_GAP``, as a run
    of one finish: one outer iteration, one trace point (gap 0, rho
    ``_RHO0``), converged. None where the certificate fails.

    q = Q c for the principal eigenvector c of Q^H Q (c = 1 for one
    objective vector). Relaxed to |theta_n| <= 1, max Re(q^H theta) has the
    dual D(y) = sum_n |q_n - (B y)_n| + sqrt(gamma) ||y|| over y in C^k,
    k = B.shape[1], and its maximizer at the dual optimum y* is theta_n =
    phase(q_n - (B y*)_n), unit modulus wherever no entry vanishes (the
    fixed-rank view of unit-modulus quadratic programs; Karystinos &
    Liavas, IEEE Trans. Inf. Theory 2010): for one objective vector the
    maximizer of the problem itself, for two only a start.

    y is w / t for the dual point w of the cold P9 projection of t q, t =
    ``_DUAL_SCALE``: its entries t q_n - (B w)_n lie outside the unit disk
    unless y nears an anchor, where (B y)_n = q_n, so its Huber terms are
    |.| - 1/2 and its dual is -t D(w / t) up to a constant.

    Where P9 returns w = None (clip(t q) meets the cap) and Q has one
    column, phase(q) is returned as it is wherever :func:`_score` rates it:
    by Cauchy-Schwarz it maximizes ||Q^H x||^2 = |q^H x|^2 over all
    unit-modulus x, at ||q||_1^2, so it needs no Newton step and no
    certificate. A zero entry of q gets phase 1 there, which can break the
    cap; then, as with two columns, phase(q) is the start.

    Otherwise the start is phase(q - B y), or phase(q) where w = None.
    :func:`_newton_point` takes it to a KKT point under the finish's cap
    rule, and :func:`_proved` returns it when :func:`_score` rates it
    (under the cap) and the diagonal dual certificate
    (:func:`_lagrangian_certified`) proves it the maximum of ||Q^H x||^2 -
    mu ||B^H x||^2 over unit-modulus x, with mu from :func:`_cap_multiplier`
    where the cap is held and 0 where it is not. Weak duality then bounds
    every x under the cap by ||Q^H theta||^2 + mu (gamma - ||B^H theta||^2)
    + tau N, and that gap, relative to the value, must be at most
    ``_ROUTE_GAP``.

    A start on the cap makes the finish's rule hold the cap, even where
    the maximum lies inside it. So where the held point is refused and its
    fitted multiplier is clipped at 0 (the cap pushes the wrong way there),
    :func:`_kkt_newton` runs once more from the same start without the cap,
    and that point is returned where it is under gamma and certified at mu
    = 0. A projection that raises :class:`ProjectionError` or a non-finite
    Newton step returns None.
    """
    q = _principal(Q)
    try:
        _, w = _p9_dual(_DUAL_SCALE * q, dual, None)
    except ProjectionError:
        return None
    if w is None:
        start = _unit_phases(q)
        value = _score(Q, dual, start) if Q.shape[1] == 1 else None
        if value is not None:  # Cauchy-Schwarz: the maximum of ||Q^H x||^2 = ||q||_1^2
            return _Run(start, value, [(start, 0.0, _RHO0)], True, 1)
    else:
        start = _unit_phases(q - dual.C @ (w / _DUAL_SCALE))  # phase(q - B y)
    theta, held = _newton_point(Q, dual, start)
    run = _proved(Q, dual, theta, held)
    if run is None and held and theta is not None and _cap_multiplier(Q, dual, theta) == 0.0:
        # the cap pushes the wrong way at the held point (its fitted
        # multiplier is clipped at 0), so the maximum can lie inside it
        theta = _kkt_newton(Q, None, start)
        if theta is not None and dual.quad(theta) <= dual.gamma:
            run = _proved(Q, dual, theta, False)
    return run


def _proved(Q: np.ndarray, dual: _CapDual | None, theta: np.ndarray | None, held: bool) -> _Run | None:
    """The route's run of one finish at the Newton point ``theta``, or None
    unless :func:`_score` rates it and the diagonal dual certificate proves
    it the maximum to ``_ROUTE_GAP``: at mu = 0 where the cap is not
    ``held``, else at the fitted mu, after the explicit gap of the slack to
    the cap (see :func:`_certified`)."""
    value = None if theta is None else _score(Q, dual, theta)
    if value is None:
        return None
    mu = 0.0  # without the cap held, the gap is _CERT_SLACK, inside _ROUTE_GAP
    if held:
        mu, cap = _cap_multiplier(Q, dual, theta), dual.quad(theta)
        if mu * (dual.gamma - cap) + _CERT_SLACK * abs(value - mu * cap) > _ROUTE_GAP * value:
            return None
    if not _lagrangian_certified(Q, dual, mu, theta):
        return None
    return _Run(theta, value, [(theta, 0.0, _RHO0)], True, 1)


def pdd_solve(problem: ProblemData, init: np.ndarray | None = None) -> PddResult:
    """Solve the cap-constrained unit-modulus maximization.

    Deterministic given (problem, init); ``init``, when given, must be a
    finite vector of length N (ValueError otherwise). The returned
    reflection is exactly unit modulus, satisfies the cap within
    ``FEAS_RTOL`` relative, and carries the best feasible objective seen
    across the outer iterations; ``converged=False`` flags a run that hit
    the outer iteration cap before the two variable copies merged.

    The solve works on the problem as :func:`_scaled` gives it. Every
    problem, of one objective vector or two, is first tried by the route of
    :func:`_certified`: one P9 dual solve along the principal objective
    direction, the phases of the relaxed maximizer and Newton's method
    under the finish's cap rule. Its result is returned when it is under
    the cap and the diagonal dual certificate proves it the global maximum
    to ``_ROUTE_GAP``; it then reports one outer iteration (one finish),
    one trace point (gap 0, rho ``_RHO0``) and ``converged=True``, and
    ``init`` goes unused. Otherwise the solve is the penalty-dual loop
    (:func:`_pdd_loop`), bit for bit as without the route. Both hand back
    the same run record (:class:`_Run`), and the result is assembled from
    it here, and only here: the trace in the problem's own units and the
    reflection checked against its cap.

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
    restart runs. Where a diagonal dual certificate proves the finished
    point the global maximum of the screen's Lagrangian, the screen keeps
    no restart without iterating. The best feasible result wins, and a
    restart that wins is finished too, so the finish always applies to the
    winning run.

    In the loop, ``outer_iterations`` counts the outer iterations of every
    run: the first start's, one for each finish and those of each restart
    that runs; the screen, certified or not, and a screened-out restart add
    nothing. ``trace`` follows the winning run, with one more point (gap 0,
    rho ``_RHO0``) for its finish when the finish scored higher.
    ``converged`` is the winning run's flag.

    A start over the cap is blended toward the point of the cap minimizer
    (:func:`_minimize_quad_core`), run once per solve from that start with
    gamma as its stop level: it ends at its first reflection under gamma,
    and runs to its end only when it finds none.

    Raises :class:`Infeasible` when the cap minimizer, or the returned
    reflection itself, ends above gamma (1 + ``FEAS_RTOL``). The stop level
    cannot change the first decision: a stopped run ends under gamma, and
    the full run from the same start would end lower still. Raises
    :class:`ProjectionError` when a projection onto the capped disks fails
    to reach a point under the cap.
    """
    init = None if init is None else _finite_vector("init", init, problem.n)
    Q, sq, dual = _scaled(problem)
    run = _certified(Q, dual)
    if run is None:
        run = _pdd_loop(Q, dual, init)
    trace = tuple(
        PddTracePoint(outer=outer,
                      objective=sq**2 * (run.objective if point is run.theta else _column_power(Q, point)),
                      constraint=problem_constraint(problem, point), gap=gap, rho=rho)
        for outer, (point, gap, rho) in enumerate(run.history, 1)
    )
    return PddResult(theta=_under_cap(problem, run.theta), objective=sq**2 * run.objective,
                     trace=trace, converged=run.converged, outer_iterations=run.outer)


def _pdd_loop(Q: np.ndarray, dual: _CapDual | None, init: np.ndarray | None) -> _Run:
    """The penalty-dual loop of :func:`pdd_solve`, its restarts and finishes,
    on the scaled objective ``Q`` and cap ``dual`` of :func:`_scaled`: the
    winning run, counting the outer iterations of every run. The caller
    assembles the result."""
    cap_point = None  # the cap minimizer's point, computed at most once

    def single_run(theta0: np.ndarray) -> _Run:
        """A run from ``theta0``, blended toward the cap minimizer's point when
        it is over the cap."""
        nonlocal cap_point
        if not _feasible(dual, theta0):
            if cap_point is None:
                # any point under the cap will do, so stop there
                rv, min_val = _minimize_quad_core(dual, ref=theta0, stop=dual.gamma)
                if min_val > dual.gamma * (1.0 + FEAS_RTOL):
                    raise Infeasible(f"the cap minimizer from this solve's start ended at "
                                     f"{min_val:.6g}, which exceeds gamma {dual.gamma:.6g}")
                cap_point = rv.coefficients
            # near the threshold that point is over the cap too: start there
            theta0 = _blend_feasible(theta0, cap_point, dual) if _feasible(dual, cap_point) else cap_point
        return _penalty_dual(Q, dual, theta0)

    best = single_run(_unit_phases(_principal(Q) if init is None else init))
    if best.theta is not None:
        best = _finish(Q, dual, best)
    if best.theta is None or dual is not None and dual.quad(best.theta) > dual.gamma / 2:
        starts = np.exp(1j * np.random.default_rng(0x5EED).uniform(0.0, 2.0 * np.pi, (_RESTARTS - 1, len(Q))))
        if best.theta is None:
            keep = np.ones(len(starts), dtype=bool)
        else:
            keep = _screen_starts(Q, dual, best.theta, starts.T)
        outer, restart_won = best.outer, False
        for extra in starts[keep]:
            run = single_run(extra)
            outer += run.outer
            if run.theta is not None and run.objective > best.objective:
                best, restart_won = run, True
        best = best._replace(outer=outer)
        if restart_won:
            best = _finish(Q, dual, best)
    if best.theta is None:
        # never produced a unit-modulus iterate under the cap: settle at the
        # cap minimizer, which the infeasible first start already computed
        best = best._replace(theta=cap_point, objective=_column_power(Q, cap_point), converged=False)
    return best


def pdd_solve_with_candidates(
    problem: ProblemData, candidates: list[np.ndarray] | None = None
) -> PddResult:
    """Solve, then keep the best of the solver output and any feasible candidate.

    Candidates are unit-modulus coefficient vectors known to be feasible
    here (e.g. the whole-window reflection evaluated on a per-segment
    problem, or the previous point of a cap sweep); seeding and comparing
    against them makes the per-segment and sweep results monotone by
    construction without touching the solver itself. Each candidate must
    be a finite vector of length N (ValueError otherwise, before any solve).
    """
    feasible: list[tuple[float, np.ndarray]] = []
    for i, cand in enumerate(candidates or []):
        coeff = _unit_phases(_finite_vector(f"candidates[{i}]", cand, problem.n))
        if problem_constraint(problem, coeff) <= problem.gamma * (1.0 + 0.1 * FEAS_RTOL):
            feasible.append((_column_power(problem.Q, coeff), coeff))
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


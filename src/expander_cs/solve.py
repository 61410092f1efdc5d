"""Estimators: one l1 path for the lasso and basis pursuit, and a dense LP core.

The l1 estimators share one scaling convention: the lasso objective is
||y - X b||_2^2 + lam ||b||_1 with no 1/2 and no 1/n factor. Under that
scaling the solution is identically zero exactly when
lam >= 2 ||X^T y||_inf; most library lassos scale differently, which is
why the solvers live here.

The lasso and basis pursuit are one path solver, ``_l1_path``: the
piecewise-linear lasso path of Osborne, Presnell and Turlach (IMA J.
Numer. Anal. 2000), followed in t = lam/2 from ||X^T y||_inf down to
lam/2 for the lasso and to 0 for basis pursuit. Each segment solves the
active Gram system, with entries |N(i) ∩ N(j)| / d^2 counted from
``X.rows``, and moves t to the next event: an inactive column's
correlation reaching the boundary (a join) or an active coefficient
reaching zero (a drop). Under the conditions of Donoho and Tsaig (IEEE
Trans. Inf. Theory 2008) an s-sparse target is reached in s + 1 segments,
and the end point is exact, not iterated to a tolerance. Basis pursuit is certified on the way out: its residual
must vanish, and z = X_A G_AA^{-1} s_A of the last segment must be a dual
certificate, ||X^T z||_inf <= 1 and y^T z = ||b||_1. Both checks cost
O(nnz). No n x p array is built.

The Dantzig selector and the nullspace-property oracle solve linear
programs by a dense two-phase simplex with Bland's smallest-index
anti-cycling rule. Instances are desk scale (a few hundred variables),
where the dense tableau is fast enough and every pivot is auditable.
Optimality means all reduced costs >= -1e-10. The simplex state is
(T, zrow, basis): the tableau, its reduced costs and each row's basic
column. No basis mask is kept, because every basic column of T is an
exact unit vector with reduced cost exactly 0. Phase 2 runs on the real
LP, without phase 1's artificial columns or redundant rows. Pricing and
the crash basis are numpy scans; the ratio test loops over the eligible
rows only, because its tie rule is sequential. The Dantzig selector
builds its LP per call, and only when b = 0 is infeasible.

Every solver failure (phase 1 reported unbounded, a pivot or step limit,
a singular active Gram matrix, a failed certificate) raises
SolverStatusError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import DesignMatrix
from .errors import SolverStatusError
from .graphs import check_table

RC_TOL = 1e-10   # reduced-cost optimality tolerance
PIV_TOL = 1e-9   # smallest acceptable pivot magnitude


# ---------------------------------------------------------------------------
# linear programming
# ---------------------------------------------------------------------------

@dataclass
class LinearProgram:
    """min c^T x subject to A x = b, x >= 0."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=np.float64)
        self.A = np.asarray(self.A, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        if self.A.ndim != 2 or self.c.ndim != 1 or self.b.ndim != 1:
            raise ValueError("c and b must be vectors, A a matrix")
        m, n = self.A.shape
        if self.c.shape != (n,) or self.b.shape != (m,):
            raise ValueError(f"inconsistent LP dimensions: A is {m}x{n}, "
                             f"c has {self.c.shape[0]}, b has {self.b.shape[0]}")


@dataclass
class LpResult:
    status: str          # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    objective: float | None
    iterations: int


def _pivot(T: np.ndarray, zrow: np.ndarray, basis: np.ndarray,
           prow: int, pcol: int) -> None:
    """Pivot on (prow, pcol). The entering column is written as an exact
    unit vector with reduced cost exactly 0; every other basic column has a
    0 in the pivot row and so is left untouched. Crash and artificial
    columns start in that form, so every basic column keeps it: pricing
    (zrow < -RC_TOL) and the drive-out test (|T[i, :n]| > PIV_TOL) skip
    basic columns without a basis mask."""
    T[prow] /= T[prow, pcol]
    factor = T[:, pcol].copy()
    factor[prow] = 0.0
    T -= np.outer(factor, T[prow])
    zrow -= zrow[pcol] * T[prow]
    T[:, pcol] = 0.0
    T[prow, pcol] = 1.0
    zrow[pcol] = 0.0
    basis[prow] = pcol


def _simplex(T: np.ndarray, zrow: np.ndarray, basis: np.ndarray,
             max_iter: int) -> tuple[str, int]:
    """Bland-rule simplex on the state (T, zrow, basis): a canonical
    tableau whose last column is the right side, reduced costs with
    -objective in the last slot, and the basic column of each row.

    Pricing takes the smallest column index with a negative reduced cost
    (basic columns have exactly 0). The ratio test visits the rows with a
    positive pivot entry in ascending order and keeps the first minimum,
    breaking ties within PIV_TOL by the smaller basic index; the tie rule
    chains through the visit order, so that loop stays sequential."""
    it = 0
    while True:
        entering = zrow[:-1] < -RC_TOL
        pcol = int(np.argmax(entering))
        if not entering[pcol]:
            return "optimal", it
        col = T[:, pcol]
        rows = np.flatnonzero(col > PIV_TOL)
        best_ratio = math.inf
        prow = best_basic = -1
        for i, ratio, basic in zip(rows.tolist(), (T[rows, -1] / col[rows]).tolist(),
                                   basis[rows].tolist()):
            if (ratio < best_ratio - PIV_TOL
                    or (abs(ratio - best_ratio) <= PIV_TOL
                        and (prow < 0 or basic < best_basic))):
                best_ratio, prow, best_basic = ratio, i, basic
        if prow < 0:
            return "unbounded", it
        _pivot(T, zrow, basis, prow, pcol)
        it += 1
        if it > max_iter:
            raise SolverStatusError(f"simplex exceeded {max_iter} pivots")


def _crash_basis(A: np.ndarray) -> np.ndarray:
    """Per row, the first column that is an exact unit vector there (a
    single nonzero, equal to 1.0), or -1 where no column is."""
    m, n = A.shape
    nonzero = A != 0
    row = np.argmax(nonzero, axis=0)
    unit = np.flatnonzero((nonzero.sum(axis=0) == 1) & (A[row, np.arange(n)] == 1.0))
    first = np.full(m, n, dtype=np.int64)
    np.minimum.at(first, row[unit], unit)
    return np.where(first < n, first, -1)


def _reduced_costs(cost: np.ndarray, T: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """zrow for ``cost`` against the basis, -objective in the last slot."""
    cost_b = cost[basis]
    zrow = np.empty(T.shape[1])
    zrow[:-1] = cost - cost_b @ T[:, :-1]
    zrow[-1] = -float(cost_b @ T[:, -1])
    return zrow


def lp_solve(lp: LinearProgram, max_iter: int = 200000) -> LpResult:
    """Two-phase dense simplex returning an optimal basic solution.

    Rows with negative right side are negated; unit columns seed the
    initial basis where possible and artificial variables fill the rest.
    Phase 1 minimises the artificials' sum; the artificials still basic
    after it are driven out, or their rows dropped as redundant. Phase 2
    then runs on the real LP alone: the kept rows, the n real columns and
    the right side. Raises SolverStatusError when phase 1 ends unbounded
    (which only lost accuracy can cause) or a phase passes ``max_iter``
    pivots.
    """
    A = lp.A.copy()
    b = lp.b.copy()
    c = lp.c
    m, n = A.shape
    if m == 0:
        if np.any(c < -RC_TOL):
            return LpResult("unbounded", None, None, 0)
        return LpResult("optimal", np.zeros(n), 0.0, 0)

    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0

    # crash basis: exact unit columns claim their rows, artificials fill in
    basis = _crash_basis(A)
    art_rows = np.flatnonzero(basis < 0)
    ncols = n + len(art_rows)
    basis[art_rows] = np.arange(n, ncols)

    T = np.zeros((m, ncols + 1))
    T[:, :n] = A
    T[art_rows, basis[art_rows]] = 1.0
    T[:, -1] = b

    iterations = 0
    if ncols > n:
        cost1 = np.zeros(ncols)
        cost1[n:] = 1.0
        zrow = _reduced_costs(cost1, T, basis)
        status, it = _simplex(T, zrow, basis, max_iter)
        iterations += it
        if status != "optimal":
            raise SolverStatusError("phase 1 cannot be unbounded: the tableau has lost accuracy")
        if -zrow[-1] > 1e-8 * (1.0 + float(np.abs(b).sum())):
            return LpResult("infeasible", None, None, iterations)
        # drive leftover artificials out; a row no real column can enter is redundant
        for i in np.flatnonzero(basis >= n).tolist():
            entering = np.abs(T[i, :n]) > PIV_TOL
            pcol = int(np.argmax(entering))
            if entering[pcol]:
                _pivot(T, zrow, basis, i, pcol)
                iterations += 1
        real = basis < n
        T = np.concatenate([T[real, :n], T[real, -1:]], axis=1)
        basis = basis[real]

    status, it = _simplex(T, _reduced_costs(c, T, basis), basis, max_iter)
    iterations += it
    if status == "unbounded":
        return LpResult("unbounded", None, None, iterations)

    x = np.zeros(n)
    x[basis] = T[:, -1]
    np.clip(x, 0.0, None, out=x)
    return LpResult("optimal", x, float(lp.c @ x), iterations)


# ---------------------------------------------------------------------------
# Dantzig selector as an LP
# ---------------------------------------------------------------------------

def _check_penalty(lam: float) -> None:
    """Reject a penalty outside [0, inf), NaN included."""
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"lam must be finite and >= 0, got {lam}")


def _observations(X: DesignMatrix, y) -> np.ndarray:
    """y as a float vector of length n; NaN and infinite entries are
    rejected, since no solver can report on them meaningfully."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (X.n,):
        raise ValueError(f"expected y of length {X.n}, got {y.shape}")
    if not np.isfinite(y).all():
        raise ValueError("y must be finite (no NaN or infinite entries)")
    return y


@dataclass
class DantzigSolution:
    beta: np.ndarray
    constraint_slack: float   # ||X^T (y - X beta)||_inf at the solution
    l1_norm: float
    status: str


def _dantzig_matrix(X: DesignMatrix) -> np.ndarray:
    """The Dantzig LP's 2p x 4p constraint matrix [[-G, G, I, 0], [G, -G, 0, I]]
    with G = X^T X; only the right side depends on y."""
    p = X.p
    check_table("Dantzig LP matrix 2p*4p", 2 * p, 4 * p)
    dense = X.to_dense()
    gram = dense.T @ dense
    A = np.zeros((2 * p, 4 * p))
    A[:p, :p] = -gram
    A[:p, p:2 * p] = gram
    A[:p, 2 * p:3 * p] = np.eye(p)
    A[p:, :p] = gram
    A[p:, p:2 * p] = -gram
    A[p:, 3 * p:] = np.eye(p)
    return A


def dantzig(X: DesignMatrix, y, lam: float) -> DantzigSolution:
    """min ||b||_1 subject to ||X^T (y - X b)||_inf <= lam.

    b = 0 is the unique optimum when ||X^T y||_inf <= lam, and is returned
    without an LP (the simplex would stop there, at its slack crash basis).
    Otherwise the LP is built for this call, in standard form with b = u - v
    and one slack block per inequality side; the deterministic pivot rule
    fixes which optimal vertex is returned.
    """
    _check_penalty(lam)
    y = _observations(X, y)
    p = X.p
    corr = X.transpose_matvec(y)
    beta = np.zeros(p)
    if np.max(np.abs(corr)) > lam:
        b = np.concatenate([lam - corr, lam + corr])
        c = np.concatenate([np.ones(2 * p), np.zeros(2 * p)])
        res = lp_solve(LinearProgram(c, _dantzig_matrix(X), b))
        if res.status == "unbounded":
            raise SolverStatusError("Dantzig LP cannot be unbounded: objective >= 0")
        if res.status != "optimal":
            raise SolverStatusError(f"Dantzig LP is {res.status}")
        beta = res.x[:p] - res.x[p:2 * p]
    slack = float(np.max(np.abs(X.transpose_matvec(y - X.matvec(beta)))))
    if slack > lam + 1e-8:
        raise SolverStatusError(
            f"Dantzig solution violates its constraint: {slack} > {lam} + 1e-8")
    return DantzigSolution(beta, slack, float(np.abs(beta).sum()), "optimal")


# ---------------------------------------------------------------------------
# lasso and basis pursuit by one l1 path
# ---------------------------------------------------------------------------

PATH_TOL = 1e-10        # event tolerance, relative to the path's start t
GRAM_TOL = 1e-10        # smallest squared Cholesky pivot of the overlap counts, per unit of d
BP_MAX_STEPS = 100000   # basis pursuit's path step limit


@dataclass
class LassoSolution:
    beta: np.ndarray
    kkt_residual: float
    iterations: int
    objective: float
    converged: bool


def _direction(X: DesignMatrix, active: list[int], signs: np.ndarray) -> np.ndarray:
    """G_AA^{-1} s_A, the active coefficients' change per unit decrease of t.

    G_AA = C / d^2, where C counts the rows two active columns share (an
    exact integer in floating point). A singular C shows as a vanishing
    Cholesky pivot and raises SolverStatusError."""
    incidence = np.zeros((len(active), X.n))
    incidence[np.arange(len(active))[:, None], X.rows[active]] = 1.0
    counts = incidence @ incidence.T
    try:
        smallest = float(np.diag(np.linalg.cholesky(counts)).min())
    except np.linalg.LinAlgError:
        smallest = 0.0
    if smallest**2 <= GRAM_TOL * X.d:
        raise SolverStatusError(
            f"the Gram matrix of the {len(active)} active columns is singular")
    return np.linalg.solve(counts, signs) * float(X.d) ** 2


def _l1_path(X: DesignMatrix, y: np.ndarray, t_stop: float,
             max_steps: int) -> tuple[np.ndarray, int, np.ndarray | None]:
    """Follow the minimisers of ||y - X b||^2 + 2t ||b||_1 from
    t = ||X^T y||_inf down to ``t_stop``.

    Returns (beta, steps, z): the coefficients at the last t reached, the
    number of segments taken, and z = X_A G_AA^{-1} s_A of the last
    segment (zeros when the path has none), or None for z when
    ``max_steps`` segments did not reach ``t_stop``.

    On a segment the active correlations stay at t s_A and the inactive
    ones c move by -gamma X^T z as t drops by gamma. Events within
    PATH_TOL t0 of each other go to the smallest column index, so runs
    repeat bit for bit. A column on the boundary that is moving out joins
    at once, with a zero-length step; a column moving along the boundary
    (a duplicate of an active column, say) never joins. An event within
    the tolerance of the remaining distance ends the path: on 1/d designs
    every inactive correlation reaches 0 together with t when y is fit
    exactly, and joining there moves nothing but can make the Gram matrix
    singular.
    """
    p = X.p
    c = X.transpose_matvec(y)
    t = float(np.max(np.abs(c)))
    beta = np.zeros(p)
    z = np.zeros(X.n)
    if t <= t_stop:
        return beta, 0, z
    tol = PATH_TOL * t
    first = int(np.argmax(np.abs(c) >= t - tol))
    active = [first]
    signs = [math.copysign(1.0, c[first])]
    for step in range(1, max_steps + 1):
        d_active = _direction(X, active, np.array(signs))
        direction = np.zeros(p)
        direction[active] = d_active
        z = X.matvec(direction)
        rate = X.transpose_matvec(z)

        inactive = np.ones(p, dtype=bool)
        inactive[active] = False
        joins = []
        for sign in (1.0, -1.0):
            closing = 1.0 - sign * rate
            moving = inactive & (closing > PATH_TOL)
            slack = t - sign * c[moving]
            slack[slack <= tol] = 0.0
            gap = np.full(p, math.inf)
            gap[moving] = slack / closing[moving]
            joins.append(gap)
        gap = np.minimum(*joins)
        idx = np.array(active)
        shrinking = beta[idx] * d_active < 0.0
        gap[idx[shrinking]] = -beta[idx[shrinking]] / d_active[shrinking]

        remaining = t - t_stop
        nearest = float(gap.min())
        if nearest >= remaining - tol:
            beta[active] += remaining * d_active
            return beta, step, z
        j = int(np.argmax(gap <= nearest + tol))
        beta[active] += gap[j] * d_active
        c -= gap[j] * rate
        t -= float(gap[j])
        if inactive[j]:
            active.append(j)
            signs.append(1.0 if joins[0][j] <= joins[1][j] else -1.0)
        else:
            k = active.index(j)
            del active[k], signs[k]
            beta[j] = 0.0
    return beta, max_steps, None


def lasso(X: DesignMatrix, y, lam: float, tol: float = 1e-8,
          max_iter: int = 100000) -> LassoSolution:
    """Minimize ||y - X b||_2^2 + lam ||b||_1 along the l1 path.

    The path stops at t = lam/2; ``iterations`` counts its segments, at
    most ``max_iter``. Convergence is declared when the KKT residual
    max_j |2 X_j^T (y - X b) - lam sign(b_j)| (nonzero b_j) resp.
    max(0, |2 X_j^T (y - X b)| - lam) (zero b_j), recomputed from the
    returned b, is at most ``tol``.
    """
    _check_penalty(lam)
    y = _observations(X, y)
    beta, steps, _ = _l1_path(X, y, lam / 2.0, max_iter)
    resid = y - X.matvec(beta)
    corr = 2.0 * X.transpose_matvec(resid)
    kkt = np.where(beta != 0.0, np.abs(corr - lam * np.sign(beta)),
                   np.maximum(np.abs(corr) - lam, 0.0))
    kkt_residual = float(kkt.max())
    objective = float(resid @ resid) + lam * float(np.abs(beta).sum())
    return LassoSolution(beta, kkt_residual, steps, objective, kkt_residual <= tol)


def basis_pursuit(X: DesignMatrix, y) -> np.ndarray:
    """min ||b||_1 subject to X b = y: the l1 path followed down to t = 0.

    Raises SolverStatusError when y is not in the range of X (the residual
    at t = 0 exceeds 1e-8 (1 + ||y||_inf)), when the active Gram matrix is
    singular, when the path takes more than BP_MAX_STEPS segments, and
    when the last segment's z = X_A G_AA^{-1} s_A is no dual certificate:
    ||X^T z||_inf <= 1 + 1e-9 and y^T z = ||b||_1 to 1e-9 relative prove
    b optimal, since ||b'||_1 >= z^T X b' = y^T z for every feasible b'.
    """
    y = _observations(X, y)
    beta, _, z = _l1_path(X, y, 0.0, BP_MAX_STEPS)
    if z is None:
        raise SolverStatusError(f"basis pursuit path exceeded {BP_MAX_STEPS} steps")
    scale = 1.0 + float(np.abs(y).max(initial=0.0))
    if float(np.max(np.abs(X.matvec(beta) - y))) > 1e-8 * scale:
        raise SolverStatusError("basis pursuit is infeasible: y is not in the range of X")
    l1 = float(np.abs(beta).sum())
    dual_norm = float(np.max(np.abs(X.transpose_matvec(z))))
    if dual_norm > 1.0 + 1e-9 or abs(float(y @ z) - l1) > 1e-9 * l1:
        raise SolverStatusError(
            f"basis pursuit's dual certificate fails: ||X^T z||_inf = {dual_norm}, "
            f"y^T z = {float(y @ z)}, ||b||_1 = {l1}")
    return beta


def ols_on_support(X: DesignMatrix, y, support) -> np.ndarray:
    """Least squares restricted to the given columns, zero elsewhere.

    Uses an SVD-based solve, so a rank-deficient column subset yields the
    minimum-norm coefficient vector (duplicate columns split evenly).
    """
    y = _observations(X, y)
    support = sorted(int(i) for i in support)
    for i in support:
        if not 0 <= i < X.p:
            raise ValueError(f"support index {i} outside [0, {X.p})")
    beta = np.zeros(X.p)
    if not support:
        return beta
    A = np.zeros((X.n, len(support)))
    A[X.rows[support].T, np.arange(len(support))] = 1.0 / X.d
    coef = np.linalg.lstsq(A, y, rcond=None)[0]
    beta[support] = coef
    return beta

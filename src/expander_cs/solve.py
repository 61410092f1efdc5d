"""Estimators and the dense LP core.

The three l1 estimators share one scaling convention: the lasso objective
is ||y - X b||_2^2 + lam ||b||_1 with no 1/2 and no 1/n factor. Under that
scaling the coordinate-descent soft threshold sits at lam/2 and the
all-zero solution appears exactly at lam >= 2 ||X^T y||_inf; most library
lassos scale differently, which is why the solver lives here.

Linear programs are solved by a dense two-phase simplex with Bland's
smallest-index anti-cycling rule. Instances are desk scale (a few hundred
variables), where the dense tableau is fast enough and every pivot is
auditable. Optimality means all reduced costs >= -1e-10. The simplex
state is (T, zrow, basis): the tableau, its reduced costs and each row's
basic column. No basis mask is kept, because every basic column of T is an
exact unit vector with reduced cost exactly 0. Phase 2 runs on the real LP,
without phase 1's artificial columns or redundant rows. Pricing and the
crash basis are numpy scans; the ratio test loops over the eligible rows
only, because its tie rule is sequential. A failed solve (phase 1 reported
unbounded, the pivot limit) raises SolverStatusError.

What the Dantzig selector and basis pursuit need of X alone is built once
per DesignMatrix and kept on it (``DesignMatrix._cached``): the Dantzig
constraint matrix from the Gram matrix, and for basis pursuit X's nonzero
rows, the dense submatrix on them, an independent row subset and the LP
matrix. A Monte Carlo experiment then pays per trial only for what depends
on y. No n x p array or factor of X is kept, so the state stays small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import DesignMatrix
from .errors import SolverStatusError

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
# lasso by cyclic coordinate descent
# ---------------------------------------------------------------------------

@dataclass
class LassoSolution:
    beta: np.ndarray
    kkt_residual: float
    iterations: int
    objective: float
    converged: bool


def _observations(X: DesignMatrix, y) -> np.ndarray:
    """y as a float vector of length n; NaN and infinite entries are
    rejected, since no solver can report on them meaningfully."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (X.n,):
        raise ValueError(f"expected y of length {X.n}, got {y.shape}")
    if not np.isfinite(y).all():
        raise ValueError("y must be finite (no NaN or infinite entries)")
    return y


def _soft(a: float, t: float) -> float:
    return math.copysign(max(abs(a) - t, 0.0), a)


def lasso(X: DesignMatrix, y, lam: float, tol: float = 1e-8,
          max_iter: int = 100000) -> LassoSolution:
    """Minimize ||y - X b||_2^2 + lam ||b||_1 by cyclic coordinate descent.

    Coordinate update: b_j <- soft(X_j^T (y - X b + X_j b_j), lam/2) / ||X_j||^2.
    Convergence is declared when the KKT residual
    max_j |2 X_j^T (y - X b) - lam sign(b_j)| (nonzero b_j) resp.
    max(0, |2 X_j^T (y - X b)| - lam) (zero b_j) drops to ``tol``.
    Coordinates cycle in index order; no randomization, so runs repeat.
    """
    if not lam >= 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    y = _observations(X, y)
    p, d = X.p, X.d
    colsq = 1.0 / d  # every column has squared l2 norm 1/d
    thresh = lam / 2.0
    cols = list(X.rows)  # a list of row views indexes faster in the inner loop
    beta = np.zeros(p)
    resid = y.copy()

    converged = False
    it = 0
    while it < max_iter:
        it += 1
        for j in range(p):
            rows = cols[j]
            bj = beta[j]
            rho = float(resid[rows].sum()) / d + bj * colsq
            bnew = _soft(rho, thresh) / colsq
            if bnew != bj:
                resid[rows] += (bj - bnew) / d
                beta[j] = bnew
        corr = X.transpose_matvec(resid)
        kkt = 0.0
        for j in range(p):
            if beta[j] != 0.0:
                r_j = abs(2.0 * corr[j] - lam * math.copysign(1.0, beta[j]))
            else:
                r_j = max(0.0, abs(2.0 * corr[j]) - lam)
            if r_j > kkt:
                kkt = r_j
        if kkt <= tol:
            converged = True
            break

    objective = float(resid @ resid) + lam * float(np.abs(beta).sum())
    return LassoSolution(beta, kkt, it, objective, converged)


# ---------------------------------------------------------------------------
# Dantzig selector and basis pursuit as LPs
# ---------------------------------------------------------------------------

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
    dense = X.to_dense()
    gram = dense.T @ dense
    A = np.zeros((2 * p, 4 * p))
    A[:p, :p] = -gram
    A[:p, p:2 * p] = gram
    A[:p, 2 * p:3 * p] = np.eye(p)
    A[p:, :p] = gram
    A[p:, p:2 * p] = -gram
    A[p:, 3 * p:] = np.eye(p)
    A.flags.writeable = False
    return A


def dantzig(X: DesignMatrix, y, lam: float) -> DantzigSolution:
    """min ||b||_1 subject to ||X^T (y - X b)||_inf <= lam.

    Solved in standard form with b = u - v and one slack block per
    inequality side. Any optimal vertex is acceptable; the deterministic
    pivot rule fixes which one is returned. The constraint matrix depends
    on X only and is built once per design; each call forms only the
    right side from X^T y.
    """
    if not lam >= 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    y = _observations(X, y)
    p = X.p
    corr = X.transpose_matvec(y)
    b = np.concatenate([lam - corr, lam + corr])
    c = np.concatenate([np.ones(2 * p), np.zeros(2 * p)])

    res = lp_solve(LinearProgram(c, X._cached(_dantzig_matrix), b))
    if res.status == "unbounded":
        raise SolverStatusError("Dantzig LP cannot be unbounded: objective >= 0")
    if res.status != "optimal":
        raise SolverStatusError(f"Dantzig LP is {res.status}")
    beta = res.x[:p] - res.x[p:2 * p]
    slack = float(np.max(np.abs(X.transpose_matvec(y - X.matvec(beta)))))
    if slack > lam + 1e-8:
        raise SolverStatusError(
            f"Dantzig solution violates its constraint: {slack} > {lam} + 1e-8")
    return DantzigSolution(beta, slack, float(np.abs(beta).sum()), res.status)


def _independent_rows(M: np.ndarray, tol: float = 1e-10) -> list[int]:
    """Indices of a maximal linearly independent row subset.

    Greedy Gram-Schmidt scan (orthogonalized twice for stability); stops as
    soon as the row space is exhausted, so heavily redundant systems cost
    about rank-many passes.
    """
    M = np.asarray(M, dtype=np.float64)
    m, n = M.shape
    limit = min(m, n)
    basis = np.empty((0, n))
    kept: list[int] = []
    for i in range(m):
        if len(kept) == limit:
            break
        r = M[i].copy()
        norm0 = float(np.linalg.norm(r))
        if norm0 <= tol:
            continue
        if kept:
            r -= basis.T @ (basis @ r)
            r -= basis.T @ (basis @ r)
        norm = float(np.linalg.norm(r))
        if norm > tol * max(1.0, norm0):
            kept.append(i)
            basis = np.vstack([basis, r / norm])
    return kept


@dataclass(frozen=True)
class _BasisPursuitState:
    """What basis pursuit needs of X alone, built once per design."""

    support: np.ndarray    # indices of X's nonzero rows, ascending
    dense: np.ndarray      # X restricted to those rows
    rows: np.ndarray       # a maximal independent row subset, full indices
    A: np.ndarray          # the LP matrix [X_rows, -X_rows]


def _basis_pursuit_state(X: DesignMatrix) -> _BasisPursuitState:
    support = np.flatnonzero(np.bincount(X.rows.reshape(-1), minlength=X.n))
    dense = X.to_dense()[support]
    # _independent_rows skips zero rows itself, so scanning only the
    # nonzero ones keeps the same rows and computes the same floats
    kept = _independent_rows(dense)
    A = np.concatenate([dense[kept], -dense[kept]], axis=1)
    state = _BasisPursuitState(support, dense, support[kept], A)
    for a in (state.support, state.dense, state.rows, state.A):
        a.flags.writeable = False
    return state


def basis_pursuit(X: DesignMatrix, y) -> np.ndarray:
    """min ||b||_1 subject to X b = y; raises when y is not in the range.

    X's nonzero rows, an independent subset of them and the LP matrix are
    computed once per design. Each call checks that y is in the range by
    least squares on the nonzero rows only: zero rows change neither the
    minimiser nor the singular values, and the cutoff is the one numpy
    uses for the full n x p matrix. The residual is then taken over all n
    rows, so y with mass on a zero row is still refused.
    """
    y = _observations(X, y)
    st = X._cached(_basis_pursuit_state)
    scale = 1.0 + float(np.max(np.abs(y))) if y.size else 1.0
    rcond = np.finfo(np.float64).eps * max(X.n, X.p)
    fit = np.linalg.lstsq(st.dense, y[st.support], rcond=rcond)[0]
    if float(np.max(np.abs(X.matvec(fit) - y))) > 1e-8 * scale:
        raise SolverStatusError("basis pursuit is infeasible: y is not in the range of X")

    res = lp_solve(LinearProgram(np.ones(2 * X.p), st.A, y[st.rows]))
    if res.status != "optimal":
        raise SolverStatusError(f"basis pursuit LP is {res.status}")
    beta = res.x[:X.p] - res.x[X.p:]
    if float(np.max(np.abs(X.matvec(beta) - y))) > 1e-7 * scale:
        raise SolverStatusError("basis pursuit solution fails the full equality system")
    return beta


def ols_on_support(X: DesignMatrix, y, support) -> np.ndarray:
    """Least squares restricted to the given columns, zero elsewhere.

    Uses an SVD-based solve, so a rank-deficient column subset yields the
    minimum-norm coefficient vector (duplicate columns split evenly).
    """
    y = np.asarray(y, dtype=np.float64)
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

"""Estimators: one l1 path for the lasso and basis pursuit, and a dense LP core.

The l1 estimators share one scaling convention: the lasso objective is
||y - X b||_2^2 + lam ||b||_1 with no 1/2 and no 1/n factor. Under that
scaling the solution is identically zero exactly when
lam >= 2 ||X^T y||_inf; most library lassos scale differently, which is
why the solvers live here.

Every estimator solves a stack of observation rows Y at once
(``lasso_rows``, ``dantzig_rows``, ``basis_pursuit_rows``; ``lasso``,
``dantzig`` and ``basis_pursuit`` are their one-row cases, validated by
the row function alone). C = X^T Y is one product, and ``_zero_rows``,
the one statement of the zero rule, settles every row whose estimate is
b = 0 from it, with no path and no LP. A Monte Carlo at the penalties the
oracle inequalities prescribe is mostly such rows. The other rows' fits
X b and residual correlations are one ``X.matvec`` and one
``X.transpose_matvec`` of the stack; no product is written here.

The lasso and basis pursuit are one path solver, ``_l1_path``: the
piecewise-linear lasso path of Osborne, Presnell and Turlach (IMA J.
Numer. Anal. 2000), followed in t = lam/2 from ||X^T y||_inf down to lam/2
for the lasso and to 0 for basis pursuit. Each segment solves the active
Gram system, with entries |N(i) ∩ N(j)| / d^2 counted from ``X.rows``, and
moves t to the next event: an inactive column's correlation reaching the
boundary (a join) or an active coefficient reaching zero (a drop); the
first segment's system is the 1 x 1 count [d], whose direction is known
without a solve. Under the conditions of Donoho and Tsaig (IEEE Trans.
Inf. Theory 2008) an s-sparse target is reached in s + 1 segments, and the
end point is exact, not iterated to a tolerance. The path follows all the
unsettled rows of a stack in lockstep, one segment of every row at a time,
so the fixed cost of a segment's numpy calls is shared; each row stays bit
for bit what its path alone gives. Basis pursuit is certified row by row
on the way out: its residual must vanish, and z = X_A G_AA^{-1} s_A of the
last segment must be a dual certificate, ||X^T z||_inf <= 1 and y^T z =
||b||_1. Both checks cost O(nnz). No n x p array is built.

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
builds its LP matrix once per call, and only when some row's b = 0 is
infeasible.

Every solver failure (phase 1 reported unbounded, a pivot or step limit,
a singular active Gram matrix, a failed certificate) raises
SolverStatusError; the row solvers put it in the failed row's place, so
one row's failure leaves the others' solutions standing, and ``solved``
raises it from there.
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


def _observations(X: DesignMatrix, y, ndim: int = 1) -> np.ndarray:
    """y as a float vector of length n, or with ``ndim`` = 2 a stack of
    such rows; NaN and infinite entries are rejected, since no solver can
    report on them meaningfully."""
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != ndim or y.shape[-1] != X.n:
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


def solved(sol):
    """An entry of ``lasso_rows`` or ``dantzig_rows``: the row's solution,
    or the SolverStatusError its solve put in the row's place, raised.
    Callers that record a failed row instead test the entry with
    isinstance(entry, SolverStatusError)."""
    if isinstance(sol, SolverStatusError):
        raise sol
    return sol


def dantzig(X: DesignMatrix, y, lam: float) -> DantzigSolution:
    """min ||b||_1 subject to ||X^T (y - X b)||_inf <= lam: the one-row
    case of ``dantzig_rows``."""
    return solved(dantzig_rows(X, np.asarray(y, dtype=np.float64)[None], lam)[0])


def dantzig_rows(X: DesignMatrix, Y, lam: float) -> list:
    """The Dantzig selector of each row y of Y: one DantzigSolution per
    row, or the SolverStatusError that row's LP raised, in its place
    (``solved`` raises it).

    C = X^T Y is one product. b = 0 is the unique optimum when
    ||X^T y||_inf <= lam (``_zero_rows``), with slack ||X^T y||_inf, and
    is returned without an LP (the simplex would stop there, at its slack
    crash basis). Every other row solves the LP in standard form, b = u - v
    with one slack block per inequality side, on a constraint matrix
    built once per call; the deterministic pivot rule fixes which optimal
    vertex is returned, and the slack is recomputed from it.
    """
    _check_penalty(lam)
    Y = _observations(X, Y, ndim=2)
    p = X.p
    C = X.transpose_matvec(Y)
    zero, top = _zero_rows(C, lam)
    out: list = [DantzigSolution(np.zeros(p), sup, 0.0, "optimal") if settled else None
                 for settled, sup in zip(zero.tolist(), top.tolist())]
    lp_rows = np.flatnonzero(~zero).tolist()
    if not lp_rows:
        return out
    A, cost = _dantzig_matrix(X), np.repeat([1.0, 0.0], 2 * p)
    B = np.zeros((len(lp_rows), p))
    for beta, r in zip(B, lp_rows):
        try:
            res = lp_solve(LinearProgram(cost, A, np.concatenate([lam - C[r], lam + C[r]])))
            if res.status == "unbounded":
                raise SolverStatusError("Dantzig LP cannot be unbounded: objective >= 0")
            if res.status != "optimal":
                raise SolverStatusError(f"Dantzig LP is {res.status}")
        except SolverStatusError as exc:
            out[r] = exc
            continue
        beta[:] = res.x[:p] - res.x[p:2 * p]
    residual_corr = X.transpose_matvec(Y[lp_rows] - X.matvec(B))
    for beta, r, corr in zip(B, lp_rows, residual_corr):
        if out[r] is not None:
            continue
        slack = float(np.max(np.abs(corr)))
        out[r] = (DantzigSolution(beta, slack, float(np.abs(beta).sum()), "optimal")
                  if slack <= lam + 1e-8 else SolverStatusError(
                      f"Dantzig solution violates its constraint: {slack} > {lam} + 1e-8"))
    return out


# ---------------------------------------------------------------------------
# lasso and basis pursuit by one l1 path
# ---------------------------------------------------------------------------

PATH_TOL = 1e-10        # event tolerance, relative to the path's start t
GRAM_TOL = 1e-10        # smallest squared Cholesky pivot of the overlap counts, per unit of d
BP_MAX_STEPS = 100000   # basis pursuit's path step limit
_COMPARED = 1 << 20     # table-entry pairs one overlap count compares at once: 1 MB of bools
_SIDES = np.array([1.0, -1.0])[:, None, None]   # the boundary's two signs, stacked


@dataclass
class LassoSolution:
    beta: np.ndarray
    kkt_residual: float
    iterations: int
    objective: float
    converged: bool


def _smallest_pivots(counts: np.ndarray) -> np.ndarray:
    """Per (a, a) system of a stack, its smallest Cholesky pivot, or 0.0
    where the factorization fails. Each system is factored as it would be
    alone; a stack that holds a failing system is factored one at a time."""
    try:
        return np.minimum.reduce(np.linalg.cholesky(counts).diagonal(0, 1, 2), axis=1)
    except np.linalg.LinAlgError:
        if len(counts) == 1:
            return np.zeros(1)
        return np.concatenate([_smallest_pivots(m[None]) for m in counts])


def _directions(X: DesignMatrix, idx: np.ndarray, signs: np.ndarray
                ) -> tuple[np.ndarray, list[int]]:
    """G_AA^{-1} s_A, the active coefficients' change per unit decrease of
    t, for a group of path rows with equally many active columns: row g's
    active columns idx[g] in the order they joined, and their signs
    signs[g]. Returns the directions and the rows whose Gram matrix is
    singular; a singular row's direction means nothing.

    G_AA = C / d^2, where C counts the rows two active columns share (an
    exact integer in floating point), compared from their table rows,
    O(a^2 d^2) per row. Each system is factored and solved as it would be
    alone, so a row's direction does not depend on the other rows. A
    singular C shows as a vanishing Cholesky pivot, and is replaced by the
    identity before the solve."""
    counts = _overlaps(X.rows.take(idx, axis=0))
    least = GRAM_TOL * X.d
    failed = [g for g, pivot in enumerate(_smallest_pivots(counts).tolist())
              if pivot * pivot <= least]
    if failed:
        counts[failed] = np.eye(idx.shape[1])
    return np.linalg.solve(counts, signs[:, :, None])[:, :, 0] * float(X.d) ** 2, failed


def _overlaps(R: np.ndarray) -> np.ndarray:
    """|N(i) ∩ N(j)| as floats for the (g, a, d) table rows R of g groups
    of a columns: a neighbor list holds no repeat, so the count of equal
    entry pairs. At most about _COMPARED entry pairs are compared at once:
    whole systems while they fit, else one system a block of its columns
    i at a time (at least one column, a d^2 pairs)."""
    g, a, d = R.shape
    cols = max(1, _COMPARED // (a * d * d))
    per = max(1, cols // a)
    counts = np.empty((g, a, a))
    for s in range(0, g, per):
        for i in range(0, a, cols):
            np.add.reduce(R[s:s + per, i:i + cols, None, :, None]
                          == R[s:s + per, None, :, None, :],
                          axis=(3, 4), out=counts[s:s + per, i:i + cols])
    return counts


def _zero_rows(C: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Which rows c = X^T y of C have the l1 estimate b = 0, and each
    row's ||c||_inf: the estimate is zero exactly when ||c||_inf <= t.

    That is the one zero rule of every estimator here. For the lasso
    t = lam/2: b = 0 meets the KKT conditions of ||y - X b||^2 + lam ||b||_1
    exactly when 2 ||X^T y||_inf <= lam, and the l1 path starts there
    (Osborne, Presnell and Turlach 2000; El Ghaoui, Viallon and Rabbani's
    lambda_max rule). For the Dantzig selector t = lam: b = 0 is then
    feasible, and no other b has l1 norm 0. For basis pursuit t = 0."""
    top = np.abs(C).max(axis=-1)
    return top <= t, top


def _l1_path(X: DesignMatrix, C: np.ndarray, t_stop: float, max_steps: int) -> list:
    """For each row c = X^T y of C, follow the minimisers of
    ||y - X b||^2 + 2t ||b||_1 from t = ||c||_inf down to ``t_stop``; the
    rows are ones ``_zero_rows`` did not settle (||c||_inf > t_stop). The
    path never writes C.

    Returns one entry per row: (beta, steps, z, X^T z), the coefficients
    at the last t reached, the number of segments taken, and
    z = X_A G_AA^{-1} s_A of the last segment with its product X^T z (the
    segment's rates), or None for both when ``max_steps`` segments did not
    reach ``t_stop``; or, in the row's place, the SolverStatusError of a
    singular active Gram matrix.

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

    The rows follow their paths in lockstep, one segment of every live row
    at a time: one stacked product gives the rates, and the event scans and
    the updates of beta, c and t are array operations over the stack. Every
    operation a row sees is the one its path alone would apply, so each
    row's entry is bit for bit that of a stack of one. A row leaves the
    stack when it reaches ``t_stop`` or fails; its entry holds rows of the
    stack's arrays, which the path no longer writes.

    A segment's directions are solved at the end of the segment before,
    once its joins and drops are known; the first segment's need no solve.
    Its Gram system is the 1 x 1 count [d] of the one column on the
    boundary: LAPACK's solve of it returns s / d, exact for s = +-1 whether
    it divides or multiplies by 1/d, and its Cholesky pivot sqrt(d) passes
    the GRAM_TOL check (which needs GRAM_TOL < 1). So the direction
    s / d * d^2 is the bits ``_directions`` would return, at no Cholesky and
    no solve for the one segment every path has.
    """
    k, p = C.shape
    out: list = [None] * k
    if not k:
        return out
    size = np.abs(C)
    t = np.maximum.reduce(size, axis=1, keepdims=True)     # t and tol are (rows, 1) columns
    tol = PATH_TOL * t
    first = (size >= t - tol).argmax(axis=1)
    at = np.arange(k)
    live = at.tolist()
    active = [[j] for j in first.tolist()]
    lead = [math.copysign(1.0, v) for v in C[at, first].tolist()]
    signs = [[s] for s in lead]
    mask = np.zeros((k, p), dtype=bool)
    mask[at, first] = True
    # D holds each row's direction, zero off its active columns; the first
    # segment's is s / d * d^2, as the solve of [d] rounds it (see above)
    D = np.zeros((k, p))
    D[at, first] = [s / X.d * float(X.d) ** 2 for s in lead]
    c, beta, joins = C, np.zeros((k, p)), np.empty((2, k, p))
    for step in range(1, max_steps + 1):
        rows = len(live)
        z = X.matvec(D)             # X_A d_A: D is zero off the active columns
        rate = X.transpose_matvec(z)

        # per sign (+1 then -1), the t at which each inactive column reaches
        # the boundary; the t at which each shrinking active coefficient
        # reaches zero. -1 * x is exact, so 1 - (-rate) and t - (-c) are the
        # floats 1 + rate and t + c. For bools, a > b is a and not b.
        closing = 1.0 - _SIDES * rate
        slack = t - _SIDES * c
        slack[slack <= tol] = 0.0
        sides = joins[:, :rows]
        sides.fill(math.inf)
        np.divide(slack, closing, out=sides, where=(closing > PATH_TOL) > mask)
        gap = np.minimum.reduce(sides)
        np.divide(-beta, D, out=gap, where=beta * D < 0.0)

        remaining = t - t_stop
        nearest = np.minimum.reduce(gap, axis=1, keepdims=True)
        done = nearest >= remaining - tol
        j = (gap <= nearest + tol).argmax(axis=1)
        move = np.where(done, remaining, gap[at, j, None])
        beta += move * D

        finished = []
        for r, jr, end in zip(range(rows), j.tolist(), done.ravel().tolist()):
            if end:
                out[live[r]] = (beta[r], step, z[r], rate[r])
                finished.append(r)
            elif mask[r, jr]:
                i = active[r].index(jr)
                del active[r][i], signs[r][i]
                beta[r, jr] = 0.0
                mask[r, jr] = False
            else:
                active[r].append(jr)
                signs[r].append(1.0 if sides[0, r, jr] <= sides[1, r, jr] else -1.0)
                mask[r, jr] = True
        if len(finished) == rows:
            return out
        t = t - move
        c = c - move * rate
        if finished:
            (c, t, tol, beta, mask), (live, active, signs) = _drop_rows(
                finished, (c, t, tol, beta, mask), (live, active, signs))
            rows = len(live)
            at = at[:rows]
        if step == max_steps:
            break

        # the next segment's directions, the Gram systems solved in groups
        # of one size
        D = np.zeros((rows, p))
        groups: dict[int, list[int]] = {}
        for r, cols in enumerate(active):
            groups.setdefault(len(cols), []).append(r)
        failed = []
        for members in groups.values():
            idx = np.array([active[r] for r in members])
            d_active, singular = _directions(X, idx, np.array([signs[r] for r in members]))
            D[at[members, None], idx] = d_active
            failed += [members[g] for g in singular]
        if failed:
            for r in failed:
                out[live[r]] = SolverStatusError(
                    f"the Gram matrix of the {len(active[r])} active columns is singular")
            if len(failed) == rows:
                return out
            (c, t, tol, beta, mask, D), (live, active, signs) = _drop_rows(
                failed, (c, t, tol, beta, mask, D), (live, active, signs))
            at = at[:len(live)]
    for r, row in enumerate(live):
        out[row] = (beta[r], max_steps, None, None)
    return out


def _drop_rows(gone: list[int], arrays: tuple, lists: tuple) -> tuple[tuple, tuple]:
    """``arrays`` and ``lists``, whose rows are the path's live rows, without
    the rows ``gone``."""
    keep = np.ones(len(lists[0]), dtype=bool)
    keep[gone] = False
    flags = keep.tolist()
    return (tuple(a[keep] for a in arrays),
            tuple([v for v, kept in zip(seq, flags) if kept] for seq in lists))


def lasso(X: DesignMatrix, y, lam: float, tol: float = 1e-8,
          max_iter: int = 100000) -> LassoSolution:
    """Minimize ||y - X b||_2^2 + lam ||b||_1 along the l1 path: the
    one-row case of ``lasso_rows``."""
    return solved(lasso_rows(X, np.asarray(y, dtype=np.float64)[None], lam, tol, max_iter)[0])


def lasso_rows(X: DesignMatrix, Y, lam: float, tol: float = 1e-8,
               max_iter: int = 100000) -> list:
    """The lasso of each row y of Y: one LassoSolution per row, or the
    SolverStatusError that row's path raised, in its place (``solved``
    raises it).

    The path stops at t = lam/2; ``iterations`` counts its segments, at
    most ``max_iter``. Convergence is declared when the KKT residual
    max_j |2 X_j^T (y - X b) - lam sign(b_j)| (nonzero b_j) resp.
    max(0, |2 X_j^T (y - X b)| - lam) (zero b_j) is at most ``tol``.

    C = X^T Y is one product. A row with 2 ||c||_inf <= lam
    (``_zero_rows``) is settled from it with no path: b = 0, no segments,
    KKT residual max_j (|2 c_j| - lam)_+ and objective y.y, which is what
    the KKT products give at b = 0, where the residual is y and
    2 X^T y is 2c. Every other row follows the path from its row of C, all
    of them in one lockstep call, and its KKT residual and objective are
    recomputed from the returned b.
    """
    _check_penalty(lam)
    Y = _observations(X, Y, ndim=2)
    C = X.transpose_matvec(Y)
    zero, _ = _zero_rows(C, lam / 2.0)
    zero_kkt = np.maximum(np.abs(2.0 * C) - lam, 0.0).max(axis=1).tolist()
    zeros = np.zeros((len(Y), X.p))
    out: list = [LassoSolution(zeros[r], zero_kkt[r], 0, float(y @ y), zero_kkt[r] <= tol)
                 if settled else None for r, (y, settled) in enumerate(zip(Y, zero.tolist()))]
    path_rows = np.flatnonzero(~zero).tolist()
    if not path_rows:
        return out
    paths = _l1_path(X, C[path_rows], lam / 2.0, max_iter)
    resids = Y[path_rows] - X.matvec(_estimates(paths, X.p))
    corrs = 2.0 * X.transpose_matvec(resids)
    for r, path, resid, corr in zip(path_rows, paths, resids, corrs):
        if isinstance(path, SolverStatusError):
            out[r] = path
            continue
        beta, steps = path[:2]
        kkt = np.where(beta != 0.0, np.abs(corr - lam * np.sign(beta)),
                       np.maximum(np.abs(corr) - lam, 0.0))
        kkt_residual = float(kkt.max())
        objective = float(resid @ resid) + lam * float(np.abs(beta).sum())
        out[r] = LassoSolution(beta, kkt_residual, steps, objective, kkt_residual <= tol)
    return out


def _estimates(entries: list, p: int) -> np.ndarray:
    """The (k, p) stack of ``_l1_path`` entries' coefficients, zero for a failed row."""
    return np.array([np.zeros(p) if isinstance(entry, SolverStatusError) else entry[0]
                     for entry in entries]).reshape(-1, p)


def basis_pursuit(X: DesignMatrix, y) -> np.ndarray:
    """min ||b||_1 subject to X b = y: the one-row case of
    ``basis_pursuit_rows``."""
    return solved(basis_pursuit_rows(X, np.asarray(y, dtype=np.float64)[None])[0])


def basis_pursuit_rows(X: DesignMatrix, Y) -> list:
    """min ||b||_1 subject to X b = y for each row y of Y: one coefficient
    vector per row, or the SolverStatusError of that row in its place
    (``solved`` raises it). Every row that ``_zero_rows`` does not settle
    at t = 0 follows the l1 path down to t = 0, all of them in one
    lockstep call.

    A row fails when y is not in the range of X (the residual at t = 0
    exceeds 1e-8 (1 + ||y||_inf)), when the active Gram matrix is
    singular, when the path takes more than BP_MAX_STEPS segments, and
    when the last segment's z = X_A G_AA^{-1} s_A is no dual certificate:
    ||X^T z||_inf <= 1 + 1e-9 and y^T z = ||b||_1 to 1e-9 relative prove
    b optimal, since ||b'||_1 >= z^T X b' = y^T z for every feasible b'.
    Each row is certified on its own.
    """
    Y = _observations(X, Y, ndim=2)
    C = X.transpose_matvec(Y)
    zero, _ = _zero_rows(C, 0.0)
    paths = iter(_l1_path(X, C[~zero], 0.0, BP_MAX_STEPS))
    entries = [(np.zeros(X.p), 0, np.zeros(X.n), np.zeros(X.p)) if settled else next(paths)
               for settled in zero.tolist()]
    return [entry if isinstance(entry, SolverStatusError) else _bp_certified(y, fit, *entry)
            for y, fit, entry in zip(Y, X.matvec(_estimates(entries, X.p)), entries)]


def _bp_certified(y: np.ndarray, fit: np.ndarray, beta: np.ndarray, steps: int,
                  z: np.ndarray | None, xtz: np.ndarray | None) -> np.ndarray | SolverStatusError:
    """``beta``, the path's end for y after ``steps`` segments, when its fit
    X b and the last segment's z and X^T z prove it the basis pursuit
    solution of y; else the SolverStatusError that says why not."""
    if z is None:
        return SolverStatusError(f"basis pursuit path exceeded {steps} steps")
    scale = 1.0 + float(np.abs(y).max(initial=0.0))
    if float(np.abs(fit - y).max()) > 1e-8 * scale:
        return SolverStatusError("basis pursuit is infeasible: y is not in the range of X")
    l1 = float(np.abs(beta).sum())
    dual_norm = float(np.abs(xtz).max())
    if dual_norm > 1.0 + 1e-9 or abs(float(y @ z) - l1) > 1e-9 * l1:
        return SolverStatusError(
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

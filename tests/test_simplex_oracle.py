"""Slow reference for the simplex's scans.

``reference_lp_solve`` is the loop-based two-phase simplex that the numpy
scans in ``solve.lp_solve`` replaced: Bland pricing over every column, a
ratio test over every row and a crash basis found with one ``np.nonzero``
per column. It also keeps the basis mask ``in_basis`` and the phase-2
``allowed`` mask that ``lp_solve`` does without, and runs phase 2 at
phase 1's full width. Both pivot through ``_pivot``, so on every LP here
the two must take the same pivots: same status, iteration count, basis
after each phase and bit-identical solution.
"""

import math
from collections import Counter

import numpy as np
import pytest

import expander_cs.solve as solve
from expander_cs import (DesignMatrix, LinearProgram, lp_solve,
                         random_left_regular)
from expander_cs.bench import sparse_target
from expander_cs.errors import SolverStatusError
from expander_cs.rng import gaussians
from expander_cs.solve import PIV_TOL, RC_TOL, _crash_basis, _pivot

EVENTS = Counter()   # what the reference saw: ties, competing unit columns


def reference_pivot(T, zrow, basis, in_basis, prow, pcol):
    """``_pivot`` plus the reference's own basis mask."""
    in_basis[basis[prow]] = False
    in_basis[pcol] = True
    _pivot(T, zrow, basis, prow, pcol)


def reference_simplex(T, zrow, basis, in_basis, allowed, max_iter):
    ncols = T.shape[1] - 1
    it = 0
    while True:
        pcol = -1
        for j in range(ncols):
            if allowed[j] and not in_basis[j] and zrow[j] < -RC_TOL:
                pcol = j
                break
        if pcol < 0:
            return "optimal", it
        col = T[:, pcol]
        best_ratio = math.inf
        prow = -1
        for i in range(T.shape[0]):
            if col[i] > PIV_TOL:
                ratio = T[i, -1] / col[i]
                if prow >= 0 and abs(ratio - best_ratio) <= PIV_TOL:
                    EVENTS["ratio tie"] += 1
                if (ratio < best_ratio - PIV_TOL
                        or (abs(ratio - best_ratio) <= PIV_TOL
                            and (prow < 0 or basis[i] < basis[prow]))):
                    best_ratio = ratio
                    prow = i
        if prow < 0:
            return "unbounded", it
        reference_pivot(T, zrow, basis, in_basis, prow, pcol)
        it += 1
        if it > max_iter:
            raise SolverStatusError(f"simplex exceeded {max_iter} pivots")


def reference_crash_basis(A):
    m, n = A.shape
    basis = np.full(m, -1, dtype=np.int64)
    claimed = np.zeros(m, dtype=bool)
    for j in range(n):
        col = A[:, j]
        nz = np.nonzero(col)[0]
        if len(nz) == 1 and col[nz[0]] == 1.0:
            if claimed[nz[0]]:
                EVENTS["unit column loses its row"] += 1
            else:
                basis[nz[0]] = j
                claimed[nz[0]] = True
    return basis


def reference_lp_solve(lp, bases, max_iter=200000):
    """The loop-based lp_solve; appends the basis after each phase to
    ``bases``. Returns (status, x, objective, iterations)."""
    A = lp.A.copy()
    b = lp.b.copy()
    c = lp.c
    m, n = A.shape
    if m == 0:
        if np.any(c < -RC_TOL):
            return "unbounded", None, None, 0
        return "optimal", np.zeros(n), 0.0, 0

    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0

    basis = reference_crash_basis(A)
    art_rows = [i for i in range(m) if basis[i] < 0]
    n_art = len(art_rows)
    ncols = n + n_art

    T = np.zeros((m, ncols + 1))
    T[:, :n] = A
    for t, i in enumerate(art_rows):
        T[i, n + t] = 1.0
        basis[i] = n + t
    T[:, -1] = b
    in_basis = np.zeros(ncols, dtype=bool)
    in_basis[basis] = True

    iterations = 0
    if n_art:
        cost1 = np.zeros(ncols)
        cost1[n:] = 1.0
        cost_b = cost1[basis]
        zrow = np.empty(ncols + 1)
        zrow[:ncols] = cost1 - cost_b @ T[:, :ncols]
        zrow[-1] = -float(cost_b @ T[:, -1])
        allowed = np.ones(ncols, dtype=bool)
        status, it = reference_simplex(T, zrow, basis, in_basis, allowed, max_iter)
        bases.append(basis.copy())
        iterations += it
        if status != "optimal":
            raise SolverStatusError("phase 1 cannot be unbounded")
        if -zrow[-1] > 1e-8 * (1.0 + float(np.abs(b).sum())):
            return "infeasible", None, None, iterations
        drop = []
        for i in range(m):
            if basis[i] >= n:
                pcol = -1
                for j in range(n):
                    if not in_basis[j] and abs(T[i, j]) > PIV_TOL:
                        pcol = j
                        break
                if pcol >= 0:
                    reference_pivot(T, zrow, basis, in_basis, i, pcol)
                    iterations += 1
                else:
                    drop.append(i)
        if drop:
            keep = [i for i in range(m) if i not in drop]
            for i in drop:
                in_basis[basis[i]] = False
            T = T[keep]
            basis = basis[keep]
            m = len(keep)

    cost2 = np.zeros(ncols)
    cost2[:n] = c
    cost_b = cost2[basis]
    zrow = np.empty(ncols + 1)
    zrow[:ncols] = cost2 - cost_b @ T[:, :ncols]
    zrow[-1] = -float(cost_b @ T[:, -1])
    allowed = np.zeros(ncols, dtype=bool)
    allowed[:n] = True
    status, it = reference_simplex(T, zrow, basis, in_basis, allowed, max_iter)
    bases.append(basis.copy())
    iterations += it
    if status == "unbounded":
        return "unbounded", None, None, iterations

    x = np.zeros(n)
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = T[i, -1]
    np.clip(x, 0.0, None, out=x)
    return "optimal", x, float(lp.c @ x), iterations


@pytest.fixture
def fast_bases(monkeypatch):
    """Records the basis after each phase of the numpy lp_solve."""
    bases = []
    fast = solve._simplex

    def recording(T, zrow, basis, max_iter):
        out = fast(T, zrow, basis, max_iter)
        bases.append(basis.copy())
        return out

    monkeypatch.setattr(solve, "_simplex", recording)
    return bases


def assert_same_pivots(lp, fast_bases, max_iter=200000):
    """Solve ``lp`` both ways and require identical outcomes; returns the
    status."""
    fast_bases.clear()
    ref_bases = []
    try:
        ref = reference_lp_solve(lp, ref_bases, max_iter)
    except SolverStatusError as exc:
        with pytest.raises(SolverStatusError, match=str(exc)):
            lp_solve(lp, max_iter)
        ref = None
    else:
        res = lp_solve(lp, max_iter)
    assert len(fast_bases) == len(ref_bases)
    for got, want in zip(fast_bases, ref_bases):
        np.testing.assert_array_equal(got, want)
    if ref is None:
        return "error"
    status, x, objective, iterations = ref
    assert (res.status, res.iterations, res.objective) == (status, iterations, objective)
    if x is None:
        assert res.x is None
    else:
        assert res.x.tobytes() == x.tobytes()
    A = lp.A * np.where(lp.b < 0, -1.0, 1.0)[:, None]
    np.testing.assert_array_equal(_crash_basis(A), reference_crash_basis(A))
    return status


# -- LP families -----------------------------------------------------------------

def random_dense(seed):
    """Continuous data: feasible by construction, costs of either sign, so
    optimal and unbounded both occur."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 6))
    n = int(rng.integers(m, 10))
    A = rng.uniform(-1.0, 1.0, (m, n))
    b = A @ rng.uniform(0.0, 1.0, n)
    c = rng.uniform(-0.3, 1.0, n)
    return LinearProgram(c, A, b)


def degenerate_integer(seed):
    """Small integer data with zero right sides and repeated rows: many
    exact ratio ties, redundant rows and degenerate pivots."""
    rng = np.random.default_rng(10_000 + seed)
    m = int(rng.integers(2, 6))
    n = int(rng.integers(m, 10))
    A = rng.integers(-1, 3, (m, n)).astype(float)
    if m > 2:
        A[-1] = A[0]
    x0 = rng.integers(0, 2, n).astype(float)
    b = A @ x0
    c = rng.integers(-1, 3, n).astype(float)
    return LinearProgram(c, A, b)


def competing_units(seed):
    """Unit columns, some duplicated and some at rows that get negated,
    mixed with integer columns: rows are claimed by the first unit column,
    the others compete, negated rows fall to artificials."""
    rng = np.random.default_rng(20_000 + seed)
    m = int(rng.integers(2, 6))
    k = int(rng.integers(1, 5))
    units = np.eye(m)[:, rng.integers(0, m, int(rng.integers(m, 2 * m + 1)))]
    A = np.concatenate([rng.integers(-2, 3, (m, k)).astype(float), units], axis=1)
    A = A[:, rng.permutation(A.shape[1])]
    b = rng.integers(-2, 4, m).astype(float)
    c = rng.integers(-1, 3, A.shape[1]).astype(float)
    return LinearProgram(c, A, b)


def infeasible(seed):
    """x >= 0 with sum(x) = t and sum(x) = t + 1, or all-nonnegative rows
    asked for a negative total."""
    rng = np.random.default_rng(30_000 + seed)
    n = int(rng.integers(2, 7))
    t = float(rng.integers(1, 4))
    if seed % 2:
        A = np.ones((2, n))
        b = np.array([t, t + 1.0])
    else:
        A = np.abs(rng.uniform(0.1, 1.0, (2, n)))
        b = np.array([t, -t])
    return LinearProgram(rng.uniform(0.0, 1.0, n), A, b)


def unbounded(seed):
    """Feasible, with a column pair (a, -a) whose costs sum below zero:
    moving along both at once keeps A x = b and lowers the objective
    without end."""
    rng = np.random.default_rng(40_000 + seed)
    m = int(rng.integers(1, 5))
    n = int(rng.integers(m, 8))
    A = rng.uniform(-1.0, 1.0, (m, n))
    b = A @ rng.uniform(0.0, 1.0, n)
    a = rng.uniform(-1.0, 1.0, (m, 1))
    c = np.r_[rng.uniform(0.0, 1.0, n), -1.0, 0.5]
    return LinearProgram(c, np.concatenate([A, a, -a], axis=1), b)


FAMILIES = {
    "random_dense": (random_dense, 60),
    "degenerate_integer": (degenerate_integer, 60),
    "competing_units": (competing_units, 40),
    "infeasible": (infeasible, 20),
    "unbounded": (unbounded, 20),
}


def independent_rows(M, tol=1e-10):
    """Indices of a maximal linearly independent row subset.

    Greedy Gram-Schmidt scan (orthogonalized twice for stability); stops as
    soon as the row space is exhausted, so heavily redundant systems cost
    about rank-many passes.
    """
    M = np.asarray(M, dtype=np.float64)
    m, n = M.shape
    limit = min(m, n)
    basis = np.empty((0, n))
    kept = []
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


def basis_pursuit_lp(X, y):
    """Basis pursuit as an LP: min 1^T (u + v) subject to
    X_R (u - v) = y_R and u, v >= 0, on a maximal independent row subset
    R of X. These are the LPs ``basis_pursuit`` solved before the l1 path
    replaced the simplex there; they stay as simplex test cases."""
    dense = X.to_dense()
    rows = independent_rows(dense)
    return LinearProgram(np.ones(2 * X.p), np.concatenate([dense[rows], -dense[rows]], axis=1),
                         np.asarray(y)[rows])


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_numpy_scans_take_the_reference_pivots(family, fast_bases):
    make, count = FAMILIES[family]
    statuses = Counter(assert_same_pivots(make(seed), fast_bases) for seed in range(count))
    if family == "infeasible":
        assert statuses == {"infeasible": count}
    elif family == "unbounded":
        assert statuses == {"unbounded": count}
    else:
        assert statuses["optimal"] > 0


def test_families_cover_ties_and_competing_units():
    EVENTS.clear()
    for name in ("degenerate_integer", "competing_units"):
        make, count = FAMILIES[name]
        for seed in range(count):
            reference_lp_solve(make(seed), [])
    assert EVENTS["ratio tie"] > 0
    assert EVENTS["unit column loses its row"] > 0


def test_pivot_limit_is_a_solver_error(fast_bases):
    lp = random_dense(3)
    assert assert_same_pivots(lp, fast_bases, max_iter=0) == "error"
    with pytest.raises(SolverStatusError, match="exceeded 0 pivots"):
        lp_solve(lp, max_iter=0)


def test_certified_instance_lps_take_the_reference_pivots(certified, fast_bases):
    _, X, _ = certified
    for seed in range(3):
        lp = basis_pursuit_lp(X, X.matvec(sparse_target(X.p, 2, seed)[0]))
        assert assert_same_pivots(lp, fast_bases) == "optimal"
    A = solve._dantzig_matrix(X)
    lam = 0.02
    pivots = 0
    for seed in range(3):
        y = X.matvec(sparse_target(X.p, 2, seed)[0]) + 0.05 * gaussians(100 + seed, X.n)
        corr = X.transpose_matvec(y)
        lp = LinearProgram(np.r_[np.ones(2 * X.p), np.zeros(2 * X.p)], A,
                           np.r_[lam - corr, lam + corr])
        assert assert_same_pivots(lp, fast_bases) == "optimal"
        pivots += lp_solve(lp).iterations
    assert pivots > 0


def test_compressive_basis_pursuit_lp_fails_the_same_way(fast_bases):
    # p > n: the phase-1 tableau loses accuracy on both paths at the same
    # pivot (basis_pursuit itself solves this instance on the l1 path)
    X = DesignMatrix.from_graph(random_left_regular(96, 8, 64, 0))
    lp = basis_pursuit_lp(X, X.matvec(sparse_target(96, 2, 7)[0]))
    assert assert_same_pivots(lp, fast_bases) == "error"


def test_ratio_test_chains_near_ties_in_row_order():
    # ratios 1 + 1.2e-9, 1 + 0.6e-9 and 1 over basic columns 3, 4, 5: each
    # neighbouring pair ties within PIV_TOL but the outer pair does not, so
    # the pick depends on the visit order (ascending rows pick row 2; a
    # descending scan would pick row 0)
    runs = []
    for fast in (True, False):
        T = np.zeros((3, 7))
        T[:, 0] = 1.0
        T[[0, 1, 2], [3, 4, 5]] = 1.0
        T[:, -1] = [1.0 + 1.2e-9, 1.0 + 0.6e-9, 1.0]
        zrow = np.zeros(7)
        zrow[0] = -1.0
        basis = np.array([3, 4, 5])
        if fast:
            status = solve._simplex(T, zrow, basis, 100)
        else:
            in_basis = np.isin(np.arange(6), basis)
            status = reference_simplex(T, zrow, basis, in_basis, np.ones(6, dtype=bool), 100)
        runs.append((status, basis, T))
    (status, basis, T), (ref_status, ref_basis, ref_T) = runs
    assert status == ref_status == ("optimal", 1)
    np.testing.assert_array_equal(basis, [3, 4, 0])
    np.testing.assert_array_equal(ref_basis, [3, 4, 0])
    assert T.tobytes() == ref_T.tobytes()

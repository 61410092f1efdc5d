import itertools
import math
import tracemalloc

import numpy as np
import pytest

import expander_cs.solve as solve
from expander_cs import (DesignMatrix, LinearProgram, basis_pursuit, dantzig,
                         lasso, lp_solve, matching_graph, ols_on_support,
                         random_left_regular)
from expander_cs.bench import sparse_target
from expander_cs.errors import CapacityError, SolverStatusError
from expander_cs.graphs import BipartiteGraph
from expander_cs.rng import Stream, gaussians


def soft(a, t):
    return math.copysign(max(abs(a) - t, 0.0), a)


def reference_lasso(X, y, lam, tol=1e-11, max_sweeps=100000):
    """Slow reference for ``lasso``: cyclic coordinate descent in index
    order, b_j <- soft(X_j^T (y - X b + X_j b_j), lam/2) / ||X_j||^2, until
    the KKT residual is at most ``tol``."""
    p, d = X.p, X.d
    colsq = 1.0 / d                       # every column has squared l2 norm 1/d
    beta = np.zeros(p)
    resid = np.array(y, dtype=np.float64)
    for _ in range(max_sweeps):
        for j in range(p):
            rows = X.rows[j]
            rho = float(resid[rows].sum()) / d + beta[j] * colsq
            bnew = soft(rho, lam / 2.0) / colsq
            if bnew != beta[j]:
                resid[rows] += (beta[j] - bnew) / d
                beta[j] = bnew
        corr = 2.0 * X.transpose_matvec(resid)
        kkt = np.where(beta != 0.0, np.abs(corr - lam * np.sign(beta)),
                       np.maximum(np.abs(corr) - lam, 0.0))
        if kkt.max() <= tol:
            return beta
    raise AssertionError("coordinate descent did not converge")


def enumerate_lp_optimum(c, A, b, tol=1e-9):
    """Brute-force LP oracle: best objective over all basic feasible points."""
    c, A, b = np.asarray(c, float), np.asarray(A, float), np.asarray(b, float)
    m, n = A.shape
    best = None
    for cols in itertools.combinations(range(n), m):
        sub = A[:, cols]
        try:
            xb = np.linalg.solve(sub, b)
        except np.linalg.LinAlgError:
            continue
        if np.any(~np.isfinite(xb)) or np.any(xb < -tol):
            continue
        x = np.zeros(n)
        x[list(cols)] = xb
        if np.max(np.abs(A @ x - b)) > 1e-7:
            continue
        val = float(c @ x)
        if best is None or val < best:
            best = val
    return best


# -- LP core -------------------------------------------------------------------

def test_lp_trivial_cases():
    res = lp_solve(LinearProgram([1.0], [[1.0]], [3.0]))
    assert res.status == "optimal" and res.x[0] == pytest.approx(3.0)
    assert lp_solve(LinearProgram([1.0], [[1.0]], [-1.0])).status == "infeasible"
    assert lp_solve(LinearProgram([-1.0], np.zeros((1, 1)), [0.0])).status == "unbounded"
    assert lp_solve(LinearProgram([-1.0], np.zeros((0, 1)), np.zeros(0))).status == "unbounded"
    assert lp_solve(LinearProgram([1.0], np.zeros((0, 1)), np.zeros(0))).status == "optimal"


def test_lp_dimension_mismatch():
    with pytest.raises(ValueError):
        LinearProgram([1.0, 2.0], [[1.0]], [1.0])


def test_lp_agrees_with_vertex_enumeration():
    rng = Stream(77)
    solved = 0
    while solved < 30:
        n = 2 + rng.below(5)              # up to 6 variables
        m = 1 + rng.below(n - 1) if n > 1 else 1
        A = np.array([[2.0 * rng.uniform() - 1.0 for _ in range(n)] for _ in range(m)])
        x0 = np.array([rng.uniform() for _ in range(n)])
        b = A @ x0                        # feasible by construction
        c = np.array([rng.uniform() for _ in range(n)])  # c >= 0: bounded
        oracle = enumerate_lp_optimum(c, A, b)
        if oracle is None:
            continue
        res = lp_solve(LinearProgram(c, A, b))
        assert res.status == "optimal"
        assert res.objective == pytest.approx(oracle, abs=1e-9)
        solved += 1


def test_lp_degenerate_redundant_rows():
    # duplicated constraint rows force phase-1 cleanup
    A = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, -1.0]])
    b = np.array([2.0, 2.0, 0.0])
    res = lp_solve(LinearProgram([1.0, 2.0], A, b))
    assert res.status == "optimal"
    np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-9)


# -- lasso ---------------------------------------------------------------------

def test_lasso_identity_hand_example():
    X = DesignMatrix.from_graph(matching_graph(2))
    sol = lasso(X, [3.0, 0.1], 1.0)
    np.testing.assert_allclose(sol.beta, [2.5, 0.0], atol=1e-12)
    assert sol.converged and sol.kkt_residual <= 1e-8


def test_lasso_unpenalized_identity():
    X = DesignMatrix.from_graph(matching_graph(3))
    y = [3.0, -0.5, 0.1]
    sol = lasso(X, y, 0.0)
    np.testing.assert_allclose(sol.beta, y, atol=1e-12)


def test_lasso_zero_threshold():
    X = DesignMatrix.from_graph(matching_graph(2))
    y = np.array([3.0, 0.1])
    for lam in (6.0, 6.5, 50.0):          # any lam >= 2 ||X^T y||_inf = 6
        sol = lasso(X, y, lam)
        np.testing.assert_array_equal(sol.beta, np.zeros(2))


def test_lasso_identity_soft_threshold_random():
    X = DesignMatrix.from_graph(matching_graph(7))
    rng = Stream(5)
    for t in range(100):
        y = 3.0 * gaussians(1000 + t, 7)
        lam = 4.0 * rng.uniform()
        sol = lasso(X, y, lam)
        expected = np.array([soft(v, lam / 2.0) for v in y])
        np.testing.assert_allclose(sol.beta, expected, atol=1e-8)


def test_lasso_objective_dominates_reference_points():
    X = DesignMatrix.from_graph(random_left_regular(10, 3, 8, seed=3))
    beta_star = np.zeros(10)
    beta_star[[1, 6]] = [1.5, -2.0]
    y = X.matvec(beta_star) + 0.1 * gaussians(9, 8)
    lam = 0.3

    def objective(b):
        r = y - X.matvec(b)
        return float(r @ r) + lam * float(np.abs(b).sum())

    sol = lasso(X, y, lam)
    assert sol.converged
    assert sol.objective <= objective(np.zeros(10)) + 1e-10
    assert sol.objective <= objective(beta_star) + 1e-10
    assert sol.objective == pytest.approx(objective(sol.beta), rel=1e-12)


def test_lasso_nonconvergence_flagged():
    X = DesignMatrix.from_graph(random_left_regular(12, 4, 6, seed=4))
    y = gaussians(77, 6)
    sol = lasso(X, y, 0.0, tol=1e-12, max_iter=1)
    assert not sol.converged and sol.iterations == 1


@pytest.mark.parametrize("compressive", [False, True])
def test_lasso_matches_coordinate_descent(certified, compressive):
    # the certified p64/n1536 instance, and a p256/n128 design
    if compressive:
        X, s = DesignMatrix.from_graph(random_left_regular(256, 8, 128, 3)), 4
    else:
        X, s = certified[1], 2
    sigma = 0.01
    lam_noise = 2.0 * sigma * math.sqrt(math.log(X.n))
    for seed in range(3):
        y = X.matvec(sparse_target(X.p, s, seed)[0]) + sigma * gaussians(700 + seed, X.n)
        for lam in (lam_noise, 6.0 * lam_noise):
            sol = lasso(X, y, lam)
            ref = reference_lasso(X, y, lam)
            assert sol.converged and sol.kkt_residual <= 1e-12
            assert np.abs(sol.beta).sum() > 0
            np.testing.assert_allclose(sol.beta, ref, rtol=0, atol=1e-6)


def test_lasso_rejects_negative_lambda():
    X = DesignMatrix.from_graph(matching_graph(2))
    with pytest.raises(ValueError):
        lasso(X, [1.0, 1.0], -0.5)


def test_lasso_rejects_nan_observations():
    # a NaN residual never beats the running KKT maximum, so without the
    # input check the solver reports converged after one sweep
    X = DesignMatrix.from_graph(random_left_regular(8, 3, 10, seed=2))
    y = gaussians(5, 10)
    y[3] = math.nan
    with pytest.raises(ValueError, match="finite"):
        lasso(X, y, 0.5)


def test_lasso_rejects_nan_lambda():
    X = DesignMatrix.from_graph(random_left_regular(8, 3, 10, seed=2))
    for lam in (math.nan, math.inf):
        with pytest.raises(ValueError, match="lam"):
            lasso(X, gaussians(5, 10), lam)


def test_dantzig_and_bp_reject_nonfinite_observations():
    X = DesignMatrix.from_graph(matching_graph(3))
    with pytest.raises(ValueError, match="finite"):
        dantzig(X, [1.0, math.inf, 0.0], 0.5)
    for lam in (math.nan, math.inf):
        with pytest.raises(ValueError, match="lam"):
            dantzig(X, [1.0, 2.0, 0.0], lam)
    with pytest.raises(ValueError, match="finite"):
        basis_pursuit(X, [1.0, math.nan, 0.0])


# -- Dantzig selector ------------------------------------------------------------

def test_dantzig_identity_hand_example():
    X = DesignMatrix.from_graph(matching_graph(2))
    sol = dantzig(X, [3.0, 0.1], 1.0)
    np.testing.assert_allclose(sol.beta, [2.0, 0.0], atol=1e-9)
    assert sol.constraint_slack <= 1.0 + 1e-8


def test_dantzig_zero_above_correlation():
    X = DesignMatrix.from_graph(matching_graph(2))
    sol = dantzig(X, [3.0, 0.1], 3.0)     # lam >= ||X^T y||_inf
    np.testing.assert_allclose(sol.beta, [0.0, 0.0], atol=1e-12)
    assert sol.l1_norm == 0.0


def lp_dantzig(X, y, lam):
    """What ``dantzig`` returned before its zero exit: lp_solve on
    ``_dantzig_matrix(X)`` with the right side from X^T y. Returns
    (beta, slack, l1 norm, status, pivots)."""
    p = X.p
    corr = X.transpose_matvec(y)
    res = lp_solve(LinearProgram(np.r_[np.ones(2 * p), np.zeros(2 * p)],
                                 solve._dantzig_matrix(X), np.r_[lam - corr, lam + corr]))
    beta = res.x[:p] - res.x[p:2 * p]
    slack = float(np.max(np.abs(X.transpose_matvec(y - X.matvec(beta)))))
    return beta, slack, float(np.abs(beta).sum()), res.status, res.iterations


def zero_feasible_problems(certified):
    X = DesignMatrix.from_graph(random_left_regular(8, 3, 6, seed=7))
    y = gaussians(55, 6)
    yield X, y, float(np.max(np.abs(X.transpose_matvec(y))))   # on the boundary
    yield X, np.zeros(6), 0.0
    _, X, _ = certified                      # sigma = 1 at lambda = Lambda
    for seed in range(3):
        y = X.matvec(sparse_target(X.p, 2, seed)[0]) + gaussians(900 + seed, X.n)
        yield X, y, 2.0 * math.sqrt(math.log(X.n))


def test_dantzig_zero_exit_returns_the_simplex_bytes(certified, monkeypatch):
    builds = []
    build = solve._dantzig_matrix
    monkeypatch.setattr(solve, "_dantzig_matrix", lambda X: builds.append(X) or build(X))
    problems = list(zero_feasible_problems(certified))
    for X, y, lam in problems:
        assert np.max(np.abs(X.transpose_matvec(y))) <= lam
        sol = dantzig(X, y, lam)
        beta, slack, l1, status, pivots = lp_dantzig(X, y, lam)
        assert pivots == 0                   # the simplex stops at its crash basis
        assert sol.beta.tobytes() == beta.tobytes() == np.zeros(X.p).tobytes()
        assert (sol.constraint_slack, sol.l1_norm, sol.status) == (slack, l1, status)
    assert len(builds) == len(problems)      # by lp_dantzig only


def test_dantzig_builds_its_lp_per_call_and_keeps_nothing(monkeypatch):
    X = DesignMatrix.from_graph(random_left_regular(8, 3, 6, seed=7))
    y = gaussians(55, 6)
    builds = []
    build = solve._dantzig_matrix
    monkeypatch.setattr(solve, "_dantzig_matrix", lambda X: builds.append(X) or build(X))
    first, second = dantzig(X, y, 0.05), dantzig(X, y, 0.05)
    assert builds == [X, X] and np.abs(first.beta).sum() > 0
    assert first.beta.tobytes() == second.beta.tobytes()
    assert vars(X).keys() == {"p", "n", "d", "rows", "_starts"}


def test_dantzig_matrix_is_capped_before_it_is_built():
    # 8 p^2 > MAX_TABLE at p = 1449; the design itself is tiny
    X = DesignMatrix.from_graph(matching_graph(1449))
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError,
                           match=r"^Dantzig LP matrix 2p\*4p = 2898\*5796 exceeds limit 16777216$"):
            dantzig(X, np.ones(1449), 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert dantzig(X, np.ones(1449), 1.0).l1_norm == 0.0     # zero exit: no LP


def test_dantzig_identity_soft_threshold_random():
    X = DesignMatrix.from_graph(matching_graph(5))
    rng = Stream(6)
    for t in range(100):
        y = 3.0 * gaussians(2000 + t, 5)
        lam = 3.0 * rng.uniform()
        sol = dantzig(X, y, lam)
        expected = np.array([soft(v, lam) for v in y])
        np.testing.assert_allclose(sol.beta, expected, atol=1e-8)


def test_dantzig_l1_nonincreasing_in_lambda():
    X = DesignMatrix.from_graph(random_left_regular(8, 3, 6, seed=7))
    y = gaussians(55, 6)
    lams = [0.0, 0.05, 0.1, 0.2, 0.5, 1.0]
    norms = [dantzig(X, y, lam).l1_norm for lam in lams]
    for a, b in zip(norms, norms[1:]):
        assert b <= a + 1e-9


def test_dantzig_feasible_target_bounds_l1():
    # whenever the target itself is feasible the optimum cannot exceed it
    X = DesignMatrix.from_graph(random_left_regular(6, 2, 5, seed=8))
    beta_star = np.zeros(6)
    beta_star[[0, 4]] = [2.0, -1.0]
    y = X.matvec(beta_star)
    sol = dantzig(X, y, 0.1)              # noiseless: target feasible
    assert sol.l1_norm <= np.abs(beta_star).sum() + 1e-9


def test_dantzig_matches_vertex_enumeration_tiny():
    # p = 1: the LP has 4 variables, small enough to enumerate exactly
    X = DesignMatrix.from_graph(matching_graph(1))
    for y0, lam in [(2.0, 0.5), (-1.0, 0.25), (0.3, 1.0)]:
        y = np.array([y0])
        gram = X.to_dense().T @ X.to_dense()
        corr = X.transpose_matvec(y)
        A = np.zeros((2, 4))
        A[0, 0], A[0, 1], A[0, 2] = -gram[0, 0], gram[0, 0], 1.0
        A[1, 0], A[1, 1], A[1, 3] = gram[0, 0], -gram[0, 0], 1.0
        b = np.array([lam - corr[0], lam + corr[0]])
        oracle = enumerate_lp_optimum([1.0, 1.0, 0.0, 0.0], A, b)
        sol = dantzig(X, y, lam)
        assert sol.l1_norm == pytest.approx(oracle, abs=1e-9)


# -- basis pursuit ---------------------------------------------------------------

def test_bp_trivial_cases():
    X = DesignMatrix.from_graph(matching_graph(3))
    np.testing.assert_array_equal(basis_pursuit(X, np.zeros(3)), np.zeros(3))
    y = np.array([2.0, -1.0, 0.5])
    np.testing.assert_allclose(basis_pursuit(X, y), y, atol=1e-10)


def test_bp_infeasible_raises():
    # 2 columns hitting only rows {0,1}: y with mass on row 2 is unreachable
    g = BipartiteGraph(2, 3, 2, ((0, 1), (0, 1)), "flat")
    X = DesignMatrix.from_graph(g)
    with pytest.raises(SolverStatusError):
        basis_pursuit(X, np.array([0.0, 0.0, 1.0]))


def test_bp_matches_vertex_enumeration_tiny():
    # full-row-rank 3x3 instance so every vertex is a genuine basis
    g = random_left_regular(3, 2, 3, seed=5)
    X = DesignMatrix.from_graph(g)
    assert np.linalg.matrix_rank(X.to_dense()) == 3
    beta_star = np.array([1.0, 0.0, -0.5])
    y = X.matvec(beta_star)
    dense = X.to_dense()
    A = np.concatenate([dense, -dense], axis=1)         # 6 LP variables
    oracle = enumerate_lp_optimum(np.ones(6), A, y)
    est = basis_pursuit(X, y)
    assert np.abs(est).sum() == pytest.approx(oracle, abs=1e-9)


def test_bp_redundant_rows_reduced():
    # n > p with heavily redundant equality rows still solves
    g = random_left_regular(4, 3, 40, seed=10)
    X = DesignMatrix.from_graph(g)
    beta_star = np.array([0.0, 2.0, 0.0, -1.0])
    y = X.matvec(beta_star)
    est = basis_pursuit(X, y)
    assert np.max(np.abs(X.matvec(est) - y)) <= 1e-9


@pytest.mark.parametrize("p,d,n,seed", [(12, 4, 80, 2), (16, 3, 10, 5)])  # golden TALL, WIDE
def test_bp_range_check_on_nonzero_rows_agrees_with_full_matrix(p, d, n, seed):
    # the residual at the end of the path decides range membership as
    # least squares on the full matrix does
    X = DesignMatrix.from_graph(random_left_regular(p, d, n, seed))
    dense = X.to_dense()
    for t in range(6):
        y = X.matvec(gaussians(400 + t, p)) if t % 2 else gaussians(400 + t, n)
        fit = np.linalg.lstsq(dense, y, rcond=None)[0]
        in_range = np.max(np.abs(dense @ fit - y)) <= 1e-8 * (1.0 + np.max(np.abs(y)))
        if in_range:
            assert np.max(np.abs(X.matvec(basis_pursuit(X, y)) - y)) <= 1e-7 * (1 + np.max(np.abs(y)))
        else:
            with pytest.raises(SolverStatusError, match="not in the range"):
                basis_pursuit(X, y)


def test_bp_recovers_a_sparse_target_on_a_compressive_design():
    # p > n, where the dense simplex lost accuracy in phase 1 and failed
    X = DesignMatrix.from_graph(random_left_regular(96, 8, 64, 0))
    beta = sparse_target(96, 2, 7)[0]
    np.testing.assert_allclose(basis_pursuit(X, X.matvec(beta)), beta, atol=1e-12)


@pytest.mark.parametrize("p,n", [(128, 96), (256, 128), (512, 192)])
def test_bp_l1_value_matches_highs_on_compressive_designs(p, n):
    linprog = pytest.importorskip("scipy.optimize").linprog
    for seed, s in ((0, 2), (1, 4), (2, 8)):
        X = DesignMatrix.from_graph(random_left_regular(p, 8, n, seed))
        y = X.matvec(sparse_target(p, s, 50 + seed)[0])
        dense = X.to_dense()
        ref = linprog(np.ones(2 * p), A_eq=np.concatenate([dense, -dense], axis=1),
                      b_eq=y, bounds=(0, None), method="highs")
        assert ref.status == 0, ref.message
        est = basis_pursuit(X, y)
        assert abs(np.abs(est).sum() - ref.fun) <= 1e-9 * ref.fun
        assert np.abs(X.matvec(est) - y).max() <= 1e-12


def test_singular_active_gram_is_a_solver_error():
    # two identical columns: their overlap counts form a singular matrix
    X = DesignMatrix.from_graph(BipartiteGraph(3, 4, 2, ((0, 1), (0, 1), (2, 3)), "dup"))
    with pytest.raises(SolverStatusError, match="singular"):
        solve._direction(X, [0, 1], np.ones(2))
    # the path never lets the twin of an active column join: it stays on
    # the boundary, so basis pursuit still solves
    y = X.matvec([1.0, 0.0, -2.0])
    est = basis_pursuit(X, y)
    assert np.abs(est).sum() == pytest.approx(3.0, abs=1e-12)
    np.testing.assert_allclose(X.matvec(est), y, atol=1e-12)


def test_bp_step_limit_is_a_solver_error(monkeypatch):
    # the lasso's counterpart, converged=False, is test_lasso_nonconvergence_flagged
    X = DesignMatrix.from_graph(random_left_regular(12, 4, 6, seed=4))
    y = X.matvec(sparse_target(12, 3, 1)[0])
    basis_pursuit(X, y)
    monkeypatch.setattr(solve, "BP_MAX_STEPS", 1)
    with pytest.raises(SolverStatusError, match="exceeded 1 steps"):
        basis_pursuit(X, y)


# -- state kept per design ---------------------------------------------------------

def test_repeated_solves_on_one_design_match_fresh_designs(certified):
    graph, _, _ = certified
    X = DesignMatrix.from_graph(graph)
    lam = 0.02
    calls = []
    for seed in range(3):
        beta = sparse_target(graph.p, 2, seed)[0]
        calls.append(("bp", X.matvec(beta)))
        calls.append(("dantzig", X.matvec(beta) + 0.05 * gaussians(300 + seed, graph.n)))
    calls += calls[:2]                    # a repeat after the state exists

    def solve(design, kind, y):
        if kind == "bp":
            return basis_pursuit(design, y).tobytes()
        sol = dantzig(design, y, lam)
        return sol.beta.tobytes(), sol.constraint_slack, sol.l1_norm

    for kind, y in calls:
        assert solve(X, kind, y) == solve(DesignMatrix.from_graph(graph), kind, y)


# -- least squares on a support ---------------------------------------------------

def test_ols_identity():
    X = DesignMatrix.from_graph(matching_graph(3))
    b = ols_on_support(X, [3.0, 1.0, -2.0], [0])
    np.testing.assert_array_equal(b, [3.0, 0.0, 0.0])


def test_ols_duplicate_columns_split_evenly():
    g = BipartiteGraph(2, 2, 2, ((0, 1), (0, 1)), "dup")
    X = DesignMatrix.from_graph(g)
    y = np.array([1.0, 1.0])
    b = ols_on_support(X, y, [0, 1])
    # pseudoinverse splits the coefficient between identical columns
    np.testing.assert_allclose(b, [1.0, 1.0], atol=1e-10)
    np.testing.assert_allclose(X.matvec(b), y, atol=1e-10)


def test_ols_empty_and_bad_support():
    X = DesignMatrix.from_graph(matching_graph(2))
    np.testing.assert_array_equal(ols_on_support(X, [1.0, 2.0], []), np.zeros(2))
    with pytest.raises(ValueError):
        ols_on_support(X, [1.0, 2.0], [5])


@pytest.mark.parametrize("y", [[1.0, math.nan], [math.inf, 2.0], [1.0, 2.0, 3.0]])
def test_ols_rejects_bad_observations(y):
    # y is read as the other solvers read it: a NaN or infinite entry, or
    # the wrong length, is an input error, not a NaN coefficient vector
    X = DesignMatrix.from_graph(matching_graph(2))
    with pytest.raises(ValueError):
        ols_on_support(X, y, [0])

"""Checks on ``solve.lp_solve`` that do not depend on its pivot rule.

The simplex state is ``(T, zrow, basis)`` with no basis mask: pricing and
the drive-out test skip basic columns only because every basic column of
``T`` is an exact unit vector with reduced cost exactly 0. The first test
checks that invariant at the start of every simplex phase and after every
pivot. The others compare statuses and optimal values with HiGHS, which
holds for any correct pivot rule.
"""

from collections import Counter

import numpy as np
import pytest

import expander_cs.solve as solve
import expander_cs.verify as verify
from expander_cs import (DesignMatrix, LinearProgram, lp_solve,
                         random_left_regular)
from expander_cs.bench import sparse_target
from expander_cs.rng import gaussians
from test_simplex_oracle import FAMILIES, basis_pursuit_lp


def certified_lps(X):
    """Three basis-pursuit and three Dantzig LPs on the certified design,
    the Dantzig ones built as ``dantzig`` builds them."""
    A = solve._dantzig_matrix(X)
    lam = 0.02
    lps = []
    for seed in range(3):
        y = X.matvec(sparse_target(X.p, 2, seed)[0])
        lps.append(basis_pursuit_lp(X, y))
        y = y + 0.05 * gaussians(100 + seed, X.n)
        corr = X.transpose_matvec(y)
        lps.append(LinearProgram(np.r_[np.ones(2 * X.p), np.zeros(2 * X.p)], A,
                                 np.r_[lam - corr, lam + corr]))
    return lps


def family_lps():
    for make, count in FAMILIES.values():
        for seed in range(count):
            yield make(seed)


def assert_basic_columns_exact(T, zrow, basis):
    assert np.array_equal(T[:, basis], np.eye(len(basis)))
    assert np.all(zrow[basis] == 0.0)


def test_basic_columns_stay_exact_unit_vectors(certified, monkeypatch):
    seen = Counter()
    pivot, simplex = solve._pivot, solve._simplex

    def checked_pivot(T, zrow, basis, prow, pcol):
        pivot(T, zrow, basis, prow, pcol)
        assert_basic_columns_exact(T, zrow, basis)
        seen["pivots"] += 1

    def checked_simplex(T, zrow, basis, max_iter):
        assert_basic_columns_exact(T, zrow, basis)
        seen["phases"] += 1
        return simplex(T, zrow, basis, max_iter)

    monkeypatch.setattr(solve, "_pivot", checked_pivot)
    monkeypatch.setattr(solve, "_simplex", checked_simplex)
    _, X, _ = certified
    statuses = Counter(lp_solve(lp).status
                       for lp in [*family_lps(), *certified_lps(X)])
    assert set(statuses) == {"optimal", "infeasible", "unbounded"}
    assert seen["pivots"] > 1000 and seen["phases"] > 200


# -- HiGHS value oracle ----------------------------------------------------------

HIGHS_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def assert_matches_highs(lp):
    """Same status as HiGHS and, when optimal, the same optimal value to
    1e-9 relative (absolute below magnitude 1)."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    ref = linprog(lp.c, A_eq=lp.A, b_eq=lp.b, bounds=(0, None), method="highs")
    res = lp_solve(lp)
    assert res.status == HIGHS_STATUS[ref.status], ref.message
    if res.status == "optimal":
        assert abs(res.objective - ref.fun) <= 1e-9 * max(1.0, abs(ref.fun))
    return res.status


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_lp_solve_matches_highs_on_families(family):
    make, count = FAMILIES[family]
    statuses = Counter(assert_matches_highs(make(seed)) for seed in range(count))
    if family in ("infeasible", "unbounded"):
        assert statuses == {family: count}
    else:
        assert statuses["optimal"] > 0


def test_lp_solve_matches_highs_on_certified_instance(certified):
    _, X, _ = certified
    for lp in certified_lps(X):
        assert assert_matches_highs(lp) == "optimal"


def test_lp_solve_matches_highs_on_nsp_lps(monkeypatch):
    # the LPs nullspace_property_oracle solves on the golden TALL graph
    lps = []

    def recording(lp):
        lps.append(LinearProgram(lp.c.copy(), lp.A.copy(), lp.b.copy()))
        return lp_solve(lp)

    monkeypatch.setattr(verify, "lp_solve", recording)
    X = DesignMatrix(random_left_regular(12, 4, 80, 2))
    assert verify.nullspace_property_oracle(X, 2).ok
    assert len(lps) == 66 * 4
    for lp in lps:
        assert assert_matches_highs(lp) == "optimal"

import math

import numpy as np
import pytest

from expander_cs import (BipartiteGraph, DesignMatrix, check_expansion_exhaustive,
                         check_expansion_sampled, check_kernel_concentration,
                         check_rip1_sampled, check_up2_sampled, matching_graph,
                         nullspace_property_oracle, random_left_regular,
                         recheck_violation)
from expander_cs import verify
from expander_cs.errors import CapacityError
from expander_cs.rng import Stream, derive_seed, gaussians
from expander_cs.verify import (_collision_graph, _connected_sets, _connected_subsets,
                                _subset_budget, up2_lhs_rhs)


def duplicate_column_graph():
    """Two left vertices with identical neighbor lists: e_0 - e_1 in kernel."""
    return BipartiteGraph(3, 4, 2, ((0, 1), (0, 1), (2, 3)), "dup")


class ZeroColumnDesign:
    """Hand-built invalid design with an all-zero column, for falsification
    tests only; matches the matvec interface of DesignMatrix."""

    def __init__(self, n, p, zero_col):
        self.n, self.p, self.d = n, p, 1
        self._dense = np.eye(n, p)
        self._dense[:, zero_col] = 0.0

    def matvec(self, gamma):
        return self._dense @ np.asarray(gamma, dtype=np.float64)


# -- expansion ----------------------------------------------------------------

def test_matching_expands_perfectly():
    g = matching_graph(6)
    for s in (1, 3, 6):
        rep = check_expansion_exhaustive(g, s, 0.125)
        assert rep.ok and rep.worst_ratio == 1.0


def test_two_vertex_overlap_fails():
    g = BipartiteGraph(2, 2, 2, ((0, 1), (0, 1)), "overlap")
    rep = check_expansion_exhaustive(g, 2, 0.125)
    assert not rep.ok
    assert rep.witness["subset"] == [0, 1]
    assert rep.witness["neighbor_count"] == 2          # 2 < 3.5
    assert recheck_violation(rep, g=g) > 0


def test_expansion_monotone_in_s_and_eps():
    g = random_left_regular(10, 3, 30, seed=7)
    rep = check_expansion_exhaustive(g, 3, 0.125)
    if rep.ok:
        assert check_expansion_exhaustive(g, 2, 0.125).ok
        assert check_expansion_exhaustive(g, 3, 0.25).ok


def test_expansion_budget():
    # the budget caps the connected subsets enumerated: this certified graph
    # has 251 at s = 8, far below the 15,033,172 subsets of a full scan
    g = random_left_regular(32, 8, 1536, derive_seed(0, 0))
    assert sum(1 for _ in _connected_subsets(g, 8)) == 251
    assert check_expansion_exhaustive(g, 8, 0.125, budget=251).ok
    with pytest.raises(CapacityError, match=r"8-sets exceed the budget \(\d+ left\)"):
        check_expansion_exhaustive(g, 8, 0.125, budget=250)
    with pytest.raises(CapacityError, match="32 singletons exceed budget 31"):
        check_expansion_exhaustive(g, 1, 0.125, budget=31)


def test_expansion_budget_returns_a_refutation_met_within_it():
    # refuted at (0, 1) after 31 connected subsets, well before the budget
    # of 1000 runs out, though the full scan at s = 5 has 174,436 subsets
    g = random_left_regular(30, 3, 30, seed=0)
    rep = check_expansion_exhaustive(g, 5, 0.125, budget=1000)
    assert not rep.ok and rep.witness["subset"] == [0, 1] and rep.trials == 31


def test_a_block_past_the_allowance_raises_while_it_is_built():
    g = random_left_regular(64, 8, 1536, seed=3)
    adj = _collision_graph(g)
    size = len(_connected_sets(adj, 0, 4, 10**9))
    assert size > 1
    assert len(_connected_sets(adj, 0, 4, size)) == size
    message = rf"connected 4-sets exceed the budget \({size - 1} left\)"
    with pytest.raises(CapacityError, match=message):
        _connected_sets(adj, 0, 4, size - 1)


def test_exact_certificate_reaches_past_the_full_scan_count():
    # order 8 at p = 32: the sum of C(32, k) is 15,033,172, over the default
    # budget of 10**7, yet only 251 subsets are connected
    g = random_left_regular(32, 8, 1536, derive_seed(0, 0))
    rep = check_expansion_exhaustive(g, 8, 0.125)
    assert rep.ok and rep.trials == _subset_budget(32, 8) == 15_033_172


def test_expansion_bitmasks_are_capped_at_the_boundary(monkeypatch):
    # p = 4, n = 8: the exact check holds 2pn + p^2 = 80 bits, the sampled pn = 32
    g = random_left_regular(4, 2, 8, seed=1)
    for check, bits in ((lambda: check_expansion_exhaustive(g, 2, 0.125), 80),
                        (lambda: check_expansion_sampled(g, 2, 0.125, 5, 0), 32)):
        monkeypatch.setattr(verify, "MAX_MASK_BITS", bits)
        check()
        monkeypatch.setattr(verify, "MAX_MASK_BITS", bits - 1)
        with pytest.raises(CapacityError,
                           match=f"^expansion bitmasks of {bits} bits exceed limit {bits - 1}$"):
            check()


def test_oversized_bitmasks_are_refused_before_they_are_built(monkeypatch):
    # p = n = 2**20 would need 2**40 bits of masks per side
    g = matching_graph(1 << 20)
    monkeypatch.setattr(verify, "_expansion_scan", None)
    for check in (lambda: check_expansion_exhaustive(g, 1, 0.125),
                  lambda: check_expansion_sampled(g, 1, 0.125, 5, 0)):
        with pytest.raises(CapacityError, match=r"^expansion bitmasks of \d+ bits exceed"):
            check()


@pytest.mark.parametrize("eps", [math.nan, math.inf, 1.5, 1.0, 0.0, -1.0])
def test_checks_reject_eps_outside_the_unit_interval(eps):
    g = random_left_regular(12, 3, 8, seed=0)
    X = DesignMatrix.from_graph(g)
    for check in (lambda: check_expansion_exhaustive(g, 2, eps),
                  lambda: check_expansion_sampled(g, 2, eps, trials=10, seed=0),
                  lambda: check_rip1_sampled(X, 2, eps, trials=10, seed=0)):
        with pytest.raises(ValueError, match="need 0 < eps < 1"):
            check()


def test_sampled_rejects_s_outside_range():
    # the same contract as the exhaustive check; clamping s silently would
    # put s=50 in the witness of a p=10 graph
    g = random_left_regular(10, 3, 30, seed=1)
    for s in (0, 11, 50):
        with pytest.raises(ValueError, match="need 1 <= s <= p"):
            check_expansion_sampled(g, s, 0.125, trials=10, seed=0)
        with pytest.raises(ValueError, match="need 1 <= s <= p"):
            check_expansion_exhaustive(g, s, 0.125)


def test_sampled_finds_tiny_violation():
    g = BipartiteGraph(2, 2, 2, ((0, 1), (0, 1)), "overlap")
    rep = check_expansion_sampled(g, 2, 0.125, trials=50, seed=0)
    assert not rep.ok                    # only 3 nonempty subsets to sample
    assert recheck_violation(rep, g=g) > 0


def test_sampled_subset_of_exhaustive_claim():
    g = matching_graph(8)
    for seed in (0, 1, 2):
        assert check_expansion_sampled(g, 3, 0.125, trials=200, seed=seed).ok


def test_sampled_deterministic():
    g = random_left_regular(12, 3, 10, seed=3)
    a = check_expansion_sampled(g, 3, 0.125, 300, seed=5)
    b = check_expansion_sampled(g, 3, 0.125, 300, seed=5)
    assert a == b


def test_sampled_passes_certified_instance(certified):
    graph, _, _ = certified
    for seed in (0, 17, 99):
        rep = check_expansion_sampled(graph, 4, 0.125, 500, seed=seed)
        assert rep.ok
        assert rep.worst_ratio >= 0.875


# -- RIP-1 --------------------------------------------------------------------

def test_rip1_matching_ratio_one():
    X = DesignMatrix.from_graph(matching_graph(5))
    rep = check_rip1_sampled(X, 2, 0.125, 200, seed=1)
    assert rep.ok and rep.worst_ratio == pytest.approx(1.0, abs=1e-12)


def test_rip1_upper_bound_always_holds():
    # l1 contraction gives the upper inequality on any l1-normalized design
    X = DesignMatrix.from_graph(random_left_regular(20, 4, 10, seed=2))
    rep = check_rip1_sampled(X, 5, 0.5, 500, seed=3)   # eps huge: lower is easy
    assert rep.ok


def test_rip1_detects_weak_design():
    # p=2,n=2,d=2 with full overlap: X gamma_S cancels sign-mixed pairs
    g = BipartiteGraph(2, 2, 2, ((0, 1), (0, 1)), "overlap")
    X = DesignMatrix.from_graph(g)
    rep = check_rip1_sampled(X, 2, 0.125, 500, seed=4)
    assert not rep.ok
    assert recheck_violation(rep, X=X) > 0


# -- UP2 ----------------------------------------------------------------------

def test_up2_matching_holds_with_slack():
    X = DesignMatrix.from_graph(matching_graph(6))
    rep = check_up2_sampled(X, 2, 300, seed=5)
    assert rep.ok and rep.worst_ratio < 1.0


def test_up2_zero_column_violated():
    X = ZeroColumnDesign(4, 4, zero_col=2)
    rep = check_up2_sampled(X, 1, 500, seed=6)
    # gamma concentrated on the dead column beats 2||X gamma||_1 eventually
    assert not rep.ok
    assert recheck_violation(rep, X=X) > 0


def test_up2_worst_subset_reduction():
    X = DesignMatrix.from_graph(random_left_regular(10, 3, 8, seed=7))
    rng = Stream(11)
    for t in range(20):
        gamma = gaussians(derive_seed(8, t), 10)
        s = 3
        lhs, rhs, top = up2_lhs_rhs(X, gamma, s)
        total = np.abs(gamma).sum()
        margin_top = lhs - 0.5 * (total - lhs)
        # closed form: (3/2) * top-s mass - (1/2) * total mass
        assert margin_top == pytest.approx(1.5 * lhs - 0.5 * total, abs=1e-12)
        for _ in range(100):
            k = 1 + rng.below(s)
            subset = rng.sample_without_replacement(10, k)
            mass = sum(abs(gamma[i]) for i in subset)
            assert mass - 0.5 * (total - mass) <= margin_top + 1e-12


def test_up2_implies_h_condition_on_samples(certified):
    # on every sample where the uncertainty inequality holds, the
    # l2-form consequence with lambda-hat = 4 sqrt(n) / (3 s) holds too
    _, X, _ = certified
    s = 2
    lam_hat = 4.0 * math.sqrt(X.n) / (3.0 * s)
    for t in range(200):
        gamma = gaussians(derive_seed(17, t), X.p)
        lhs, rhs, _ = up2_lhs_rhs(X, gamma, s)
        assert lhs <= rhs + 1e-9
        img = X.matvec(gamma)
        assert lhs <= lam_hat * s * np.linalg.norm(img) + np.abs(gamma).sum() / 3.0 + 1e-9


# -- kernel concentration ------------------------------------------------------

def test_kernel_trivial_is_vacuous():
    X = DesignMatrix.from_graph(matching_graph(5))
    rep = check_kernel_concentration(X, 2, 100, seed=8)
    assert rep.ok and rep.witness["kernel_dim"] == 0


def test_kernel_duplicate_columns_violate():
    X = DesignMatrix.from_graph(duplicate_column_graph())
    rep = check_kernel_concentration(X, 1, 50, seed=9)
    assert not rep.ok
    assert recheck_violation(rep, X=X) > 0


def test_kernel_spread_on_underdetermined_design():
    # wide design whose kernel mass stays spread at the sampled supports
    X = DesignMatrix.from_graph(random_left_regular(24, 8, 16, seed=12))
    rep = check_kernel_concentration(X, 1, 200, seed=10)
    assert rep.witness["kernel_dim"] >= 24 - 16
    assert rep.ok


# -- nullspace property --------------------------------------------------------

def test_nsp_injective_design_passes():
    X = DesignMatrix.from_graph(matching_graph(4))
    rep = nullspace_property_oracle(X, 1)
    assert rep.ok and rep.worst_ratio == pytest.approx(0.0, abs=1e-9)


def test_nsp_duplicate_columns_fail_at_s1():
    X = DesignMatrix.from_graph(duplicate_column_graph())
    rep = nullspace_property_oracle(X, 1)
    assert not rep.ok
    assert recheck_violation(rep, X=X) >= 0


def test_nsp_rank_deficient_support_unbounded():
    X = DesignMatrix.from_graph(duplicate_column_graph())
    rep = nullspace_property_oracle(X, 2)       # both duplicates inside S
    assert not rep.ok
    assert rep.worst_ratio == math.inf
    assert rep.to_json_dict()["worst_ratio"] is None


def test_nsp_budget():
    X = DesignMatrix.from_graph(matching_graph(30))
    with pytest.raises(CapacityError):
        nullspace_property_oracle(X, 4, budget=100)


# -- report plumbing -----------------------------------------------------------

def test_report_json_fields():
    g = matching_graph(3)
    rep = check_expansion_exhaustive(g, 2, 0.125)
    obj = rep.to_json_dict()
    assert list(obj.keys()) == ["condition", "ok", "worst_ratio", "witness",
                                "trials", "seed"]


def test_violation_recheck_margin_tolerance():
    # the witnessed violation must reproduce standalone, well past 1e-12
    g = BipartiteGraph(2, 3, 2, ((0, 1), (0, 1)), "overlap")
    X = DesignMatrix.from_graph(g)
    rep = check_rip1_sampled(X, 2, 0.125, 500, seed=13)
    assert not rep.ok
    assert recheck_violation(rep, X=X) > 1e-12

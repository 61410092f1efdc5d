import math

import numpy as np
import pytest

from expander_cs import (GF, BipartiteGraph, DesignMatrix, check_expansion_exhaustive,
                         check_expansion_sampled, check_kernel_concentration,
                         check_rip1_sampled, check_up2_sampled, matching_graph,
                         nullspace_property_oracle, pv_expander,
                         random_left_regular, recheck_violation)
from expander_cs import connected
from expander_cs.errors import CapacityError
from expander_cs.rng import Stream, derive_seed, gaussians
from expander_cs.verify import _subset_budget, report_from_json_dict, up2_lhs_rhs

from esu_oracle import _connected_subsets, esu_check


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


@pytest.mark.parametrize("chunk", [1, 7, connected._CHUNK])
def test_a_block_past_the_budget_raises_with_what_was_left(monkeypatch, chunk):
    # the certified instance has 891 connected subsets at s = 4; one short
    # of them, the last (4, root) block passes the budget, and the message
    # gives what was left before it, as the ESU enumeration's does. A chunk
    # of 1 builds every block from several chunks
    g = random_left_regular(64, 8, 1536, seed=0)
    total = sum(1 for _ in _connected_subsets(g, 4))
    monkeypatch.setattr(connected, "_CHUNK", chunk)
    assert check_expansion_exhaustive(g, 4, 0.125, budget=total) == esu_check(g, 4, 0.125)
    with pytest.raises(CapacityError) as esu:
        esu_check(g, 4, 0.125, budget=total - 1)
    with pytest.raises(CapacityError) as got:
        check_expansion_exhaustive(g, 4, 0.125, budget=total - 1)
    assert str(got.value) == str(esu.value)
    assert str(esu.value).startswith("connected 4-sets exceed the budget (")


@pytest.mark.parametrize("chunk", [1, 7, connected._CHUNK])
def test_blocks_whose_keys_pass_int64_merge_as_rows(monkeypatch, chunk):
    # at p = 2^16, p**k passes int64 from k = 4 on, so a block built from
    # several chunks merges as rows there and as keys at k = 3. Left
    # vertices 0-9 share right vertex 0, and the rest are a matching: the
    # connected sets are the C(10, k) k-sets of the clique on 0-9, each
    # with k + 1 neighbors. (The ESU oracle's bitmasks are too slow here.)
    p = 1 << 16
    table = np.arange(2 * p).reshape(p, 2)
    table[:10, 0] = 0
    g = BipartiteGraph(p, 2 * p, 2, table, "clique(10) and matching")
    total = p + sum(math.comb(10, k) for k in range(2, 6))
    monkeypatch.setattr(connected, "_CHUNK", chunk)
    rep = check_expansion_exhaustive(g, 5, 0.5, budget=total)
    assert rep.ok and rep.worst_ratio == 0.6
    assert rep.witness["subset"] == [0, 1, 2, 3, 4] and rep.witness["neighbor_count"] == 6
    # one short, the last (5, root) block, of one set, passes the budget;
    # 127 short, the first, of C(9, 4) = 126 sets, with 125 left
    for short, left in ((1, 0), (127, 125)):
        with pytest.raises(CapacityError, match=fr"^connected 5-sets exceed the budget \({left} left\)$"):
            check_expansion_exhaustive(g, 5, 0.5, budget=total - short)


def test_exact_certificate_reaches_past_the_full_scan_count():
    # order 8 at p = 32: the sum of C(32, k) is 15,033,172, over the default
    # budget of 10**7, yet only 251 subsets are connected
    g = random_left_regular(32, 8, 1536, derive_seed(0, 0))
    rep = check_expansion_exhaustive(g, 8, 0.125)
    assert rep.ok and rep.trials == _subset_budget(32, 8) == 15_033_172


def test_small_graph_exact_check_equals_esu():
    # p = 4, n = 8: the report is the ESU enumeration's
    g = random_left_regular(4, 2, 8, seed=1)
    assert check_expansion_exhaustive(g, 2, 0.125) == esu_check(g, 2, 0.125)


def test_both_expansion_checks_certify_a_wide_matching():
    # p = n = 2**20: both checks count from the table alone, with no cap
    # past the table's; no two left vertices share a right vertex, so every
    # set has ratio 1
    g = matching_graph(1 << 20)
    for s in (1, 2):
        rep = check_expansion_exhaustive(g, s, 0.125)
        assert rep.ok and rep.worst_ratio == 1.0 and rep.witness["subset"] == [0]
        assert rep.trials == _subset_budget(1 << 20, s)
        rep = check_expansion_sampled(g, s, 0.125, 5, 0)
        assert rep.ok and rep.worst_ratio == 1.0


@pytest.mark.parametrize("eps", [math.nan, math.inf, 1.5, 1.0, 0.0, -1.0])
def test_checks_reject_eps_outside_the_unit_interval(eps):
    g = random_left_regular(12, 3, 8, seed=0)
    X = DesignMatrix(g)
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


def test_sampled_refutation_draws_no_chunk_past_its_violator():
    # 10**12 trials would never finish if they were drawn past the first chunk
    g = BipartiteGraph(2, 2, 2, ((0, 1), (0, 1)), "overlap")
    rep = check_expansion_sampled(g, 2, 0.125, trials=10**12, seed=0)
    assert not rep.ok and rep.trials == 10**12 and rep.witness["subset"] == [0, 1]


def test_sampled_check_reaches_a_compressive_pv_design():
    # GF(49), l = 3, m = 1, h = 4: p = 117,649 > n = 2,401, out of reach of
    # the exact certificate; no sampled pair falls below 1 - 6/49, the GUV
    # eps of this design
    g = pv_expander(GF(7, 2), 3, 1, 4)
    assert (g.p, g.n, g.d) == (117_649, 2_401, 49)
    rep = check_expansion_sampled(g, 2, 0.125, 500, 0)
    assert rep.ok and rep.worst_ratio >= 1 - 6 / 49


@pytest.mark.parametrize("field, value, message", [
    ("subset", [1.5], "'subset' must be of type list[int], got [1.5]"),
    ("subset", "01", "'subset' must be of type list[int], got '01'"),
    ("eps", "0.125", "'eps' must be of type float, got '0.125'"),
    ("eps", None, "'eps' must be of type float, got None"),
    ("eps", ..., "missing field 'eps'"),
])
def test_recheck_reads_witness_fields_by_type(field, value, message):
    # a decoded report whose witness field is missing or mistyped is a
    # ValueError naming the field, never an IndexError, TypeError or KeyError
    g = BipartiteGraph(2, 2, 2, ((0, 1), (0, 1)), "overlap")
    obj = check_expansion_sampled(g, 2, 0.125, trials=50, seed=0).to_json_dict()
    rep = report_from_json_dict(obj)
    assert recheck_violation(rep, g=g) > 0
    if value is ...:
        del obj["witness"][field]
    else:
        obj["witness"][field] = value
    with pytest.raises(ValueError) as exc:
        recheck_violation(report_from_json_dict(obj), g=g)
    assert str(exc.value) == message


@pytest.mark.parametrize("condition, field, value, message", [
    ("expansion", "subset", [0, 0], "'subset' must hold distinct indices in [0, 2)"),
    ("expansion", "subset", [0, 2], "'subset' must hold distinct indices in [0, 2)"),
    ("rip1", "support", [-12, -9, -3], "'support' must hold distinct indices in [0, 12)"),
    ("rip1", "support", [0, 3, 12], "'support' must hold distinct indices in [0, 12)"),
    ("rip1", "support", [0, 3], "'values' must hold 2 floats, got 3"),
    ("kernel", "support", [0, 0, 4], "'support' must hold distinct indices in [0, 12)"),
    ("kernel", "gamma", [0.5] * 11, "'gamma' must hold 12 floats, got 11"),
])
def test_recheck_refuses_witnesses_that_do_not_fit_the_design(condition, field, value, message):
    # a witness index that wraps, passes p or repeats, or a vector of the
    # wrong length, is a ValueError naming the field, never a confirmation
    g = BipartiteGraph(2, 2, 2, ((0, 1), (0, 1)), "overlap")
    X = DesignMatrix(random_left_regular(12, 3, 8, seed=0))
    rep = {"expansion": lambda: check_expansion_sampled(g, 2, 0.125, 50, 0),
           "rip1": lambda: check_rip1_sampled(X, 3, 0.125, 200, 0),
           "kernel": lambda: check_kernel_concentration(X, 3, 50, 0)}[condition]()
    assert recheck_violation(rep, g=g, X=X) > 0
    obj = rep.to_json_dict()
    obj["witness"][field] = value
    with pytest.raises(ValueError) as exc:
        recheck_violation(report_from_json_dict(obj), g=g, X=X)
    assert str(exc.value) == message


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
    X = DesignMatrix(matching_graph(5))
    rep = check_rip1_sampled(X, 2, 0.125, 200, seed=1)
    assert rep.ok and rep.worst_ratio == pytest.approx(1.0, abs=1e-12)


def test_rip1_upper_bound_always_holds():
    # l1 contraction gives the upper inequality on any l1-normalized design
    X = DesignMatrix(random_left_regular(20, 4, 10, seed=2))
    rep = check_rip1_sampled(X, 5, 0.5, 500, seed=3)   # eps huge: lower is easy
    assert rep.ok


def test_rip1_detects_weak_design():
    # p=2,n=2,d=2 with full overlap: X gamma_S cancels sign-mixed pairs
    g = BipartiteGraph(2, 2, 2, ((0, 1), (0, 1)), "overlap")
    X = DesignMatrix(g)
    rep = check_rip1_sampled(X, 2, 0.125, 500, seed=4)
    assert not rep.ok
    assert recheck_violation(rep, X=X) > 0


# -- UP2 ----------------------------------------------------------------------

def test_up2_matching_holds_with_slack():
    X = DesignMatrix(matching_graph(6))
    rep = check_up2_sampled(X, 2, 300, seed=5)
    assert rep.ok and rep.worst_ratio < 1.0


def test_up2_zero_column_violated():
    X = ZeroColumnDesign(4, 4, zero_col=2)
    rep = check_up2_sampled(X, 1, 500, seed=6)
    # gamma concentrated on the dead column beats 2||X gamma||_1 eventually
    assert not rep.ok
    assert recheck_violation(rep, X=X) > 0


def test_up2_worst_subset_reduction():
    X = DesignMatrix(random_left_regular(10, 3, 8, seed=7))
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
    X = DesignMatrix(matching_graph(5))
    rep = check_kernel_concentration(X, 2, 100, seed=8)
    assert rep.ok and rep.witness["kernel_dim"] == 0


def test_kernel_duplicate_columns_violate():
    X = DesignMatrix(duplicate_column_graph())
    rep = check_kernel_concentration(X, 1, 50, seed=9)
    assert not rep.ok
    assert recheck_violation(rep, X=X) > 0


def test_kernel_spread_on_underdetermined_design():
    # wide design whose kernel mass stays spread at the sampled supports
    X = DesignMatrix(random_left_regular(24, 8, 16, seed=12))
    rep = check_kernel_concentration(X, 1, 200, seed=10)
    assert rep.witness["kernel_dim"] >= 24 - 16
    assert rep.ok


# -- nullspace property --------------------------------------------------------

def test_nsp_injective_design_passes():
    X = DesignMatrix(matching_graph(4))
    rep = nullspace_property_oracle(X, 1)
    assert rep.ok and rep.worst_ratio == pytest.approx(0.0, abs=1e-9)


def test_nsp_duplicate_columns_fail_at_s1():
    X = DesignMatrix(duplicate_column_graph())
    rep = nullspace_property_oracle(X, 1)
    assert not rep.ok
    assert recheck_violation(rep, X=X) >= 0


def test_nsp_rank_deficient_support_unbounded():
    X = DesignMatrix(duplicate_column_graph())
    rep = nullspace_property_oracle(X, 2)       # both duplicates inside S
    assert not rep.ok
    assert rep.worst_ratio == math.inf
    assert rep.to_json_dict()["worst_ratio"] is None


def test_nsp_budget():
    X = DesignMatrix(matching_graph(30))
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
    X = DesignMatrix(g)
    rep = check_rip1_sampled(X, 2, 0.125, 500, seed=13)
    assert not rep.ok
    assert recheck_violation(rep, X=X) > 1e-12

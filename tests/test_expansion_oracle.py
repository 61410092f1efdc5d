"""The connected-subset expansion certificate against the brute-force scan.

The oracle feeds every subset of size 1..s, in (size, lex) order, to the
shared scan core; the certificate under test examines only the subsets
that are connected in the collision graph. Reports must be identical,
``trials`` included.
"""

import itertools
import math

import pytest

from expander_cs import (GF, BipartiteGraph, check_expansion_exhaustive,
                         matching_graph, pv_expander, random_left_regular)
from expander_cs.rng import Stream
from expander_cs.verify import VerificationReport, _lex_rank

from esu_oracle import _collision_graph, _connected_subsets, _expansion_scan

EPS_VALUES = (0.125, 0.25, 0.5)


def oracle(g, s, eps):
    subsets = itertools.chain.from_iterable(
        itertools.combinations(range(g.p), k) for k in range(1, s + 1))
    violator, worst, witness, examined = _expansion_scan(g, subsets, s, eps)
    return VerificationReport("expansion_exhaustive", violator is None, worst,
                              witness, examined, None)


def assert_matches_oracle(g, s, eps):
    got = check_expansion_exhaustive(g, s, eps).to_json_dict()
    assert got == oracle(g, s, eps).to_json_dict()
    return got


def test_random_graphs_match_brute_force_scan():
    rng = Stream(20261018)
    outcomes = {True: 0, False: 0}
    for _ in range(320):
        p = 2 + rng.below(13)                  # 2..14
        n = 2 + rng.below(40)
        d = 1 + rng.below(min(6, n))
        s = 1 + rng.below(min(4, p))
        eps = EPS_VALUES[rng.below(len(EPS_VALUES))]
        g = random_left_regular(p, d, n, seed=rng.next_u64() % 10**6)
        outcomes[assert_matches_oracle(g, s, eps)["ok"]] += 1
    assert outcomes[True] >= 50 and outcomes[False] >= 50


def test_matching_graph_matches_brute_force_scan():
    g = matching_graph(9)
    for s in (1, 3, 4):
        for eps in EPS_VALUES:
            rep = assert_matches_oracle(g, s, eps)
            assert rep["ok"] and rep["trials"] == sum(math.comb(9, k) for k in range(1, s + 1))


@pytest.mark.parametrize("r,k", [(2, 3), (2, 4)])
def test_partition_pv_designs_have_empty_collision_graph(r, k):
    # in characteristic 2 with h = 2 every row holds exactly one nonzero,
    # so only singletons are connected and the pass covers sum C(p, k)
    g = pv_expander(GF(r, k), 2, 2, 2)
    adj = _collision_graph(g)
    assert not any(adj)
    assert sum(1 for _ in _connected_subsets(g, 2)) == g.p
    rep = assert_matches_oracle(g, 2, 0.125)
    assert rep["ok"] and rep["trials"] == g.p + math.comb(g.p, 2)


def test_dense_collision_graph_refutation_matches_brute_force_scan():
    g = pv_expander(GF(7), 3, 2, 2)
    adj = _collision_graph(g)
    assert min(m.bit_count() for m in adj) >= 30
    rep = assert_matches_oracle(g, 2, 0.125)
    assert not rep["ok"] and len(rep["witness"]["subset"]) == 2


def test_certified_instance_examines_few_connected_subsets():
    g = random_left_regular(64, 8, 1536, seed=0)
    assert sum(1 for _ in _connected_subsets(g, 4)) == 891
    rep = check_expansion_exhaustive(g, 4, 0.125)
    assert rep.ok and rep.trials == 679120


def test_lex_rank_is_position_among_combinations():
    for p in range(1, 9):
        for k in range(1, p + 1):
            for rank, subset in enumerate(itertools.combinations(range(p), k)):
                assert _lex_rank(subset, p) == rank


def test_eps_within_slack_of_an_integer_threshold_is_refused():
    # (1 - eps) d = 7 + 3e-10: pairs passing at 14 neighbors sum to a
    # 4-set with 28 < 28 + 1.2e-9 - SLACK, a violation no component shows
    eps = 1 - (7 + 0.3e-9) / 8
    nb = ((0, 1, 2, 3, 4, 5, 6, 7), (0, 1, 8, 9, 10, 11, 12, 13),
          (20, 21, 22, 23, 24, 25, 26, 27), (20, 21, 28, 29, 30, 31, 32, 33))
    g = BipartiteGraph(4, 40, 8, nb, "two colliding pairs")
    assert not oracle(g, 4, eps).ok
    assert check_expansion_exhaustive(g, 3, eps).ok == oracle(g, 3, eps).ok
    with pytest.raises(ValueError, match="within slack"):
        check_expansion_exhaustive(g, 4, eps)

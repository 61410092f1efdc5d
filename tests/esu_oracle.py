"""The expansion checks as they were before the array scans, kept as test
oracles.

Before the exact check moved to whole-array levels, it enumerated the
subsets that are connected in the collision graph one (size, smallest
vertex) block at a time with ESU (Wernicke 2006), as lists of tuples over
Python bitmasks, and fed them to a bitmask scan that the sampled check
shared. The scan and the three enumeration functions below are that code,
unchanged; :func:`esu_check` is the exact check built on them, so its
reports and budget refusals are the ones the array check must reproduce,
and the scan over the sampled check's draws gives the report the sampled
check must reproduce.
"""

import math

from expander_cs.errors import CapacityError
from expander_cs.graphs import BipartiteGraph
from expander_cs.verify import (EXPANSION_BUDGET, VerificationReport, _least_counts,
                                _lex_rank, _subset_budget, _witness)


def _expansion_scan(g: BipartiteGraph, subsets, s: int, eps: float):
    """The sampled check's scan, and the tests' brute-force oracle for the
    exact one: scan subsets over bitmasks, track the first strict minimum
    of |N(I)| / (d |I|) and stop at the first violator.
    Returns (first violator or None, worst ratio, witness, subsets examined)."""
    masks = [0] * g.p
    for i, nb in enumerate(g.neighbors.tolist()):
        m = 0
        for j in nb:
            m |= 1 << j
        masks[i] = m
    worst = math.inf
    worst_subset = None
    worst_count = 0
    violator = None
    examined = 0
    least = _least_counts(g.d, s, eps)
    for subset in subsets:
        examined += 1
        m = 0
        for i in subset:
            m |= masks[i]
        cnt = m.bit_count()
        ratio = cnt / (g.d * len(subset))
        if ratio < worst:
            worst, worst_subset, worst_count = ratio, tuple(subset), cnt
        if cnt < least[len(subset)]:
            violator = tuple(subset)
            break
    return violator, worst, _witness(g, s, eps, worst_subset, worst_count), examined


def _collision_graph(g: BipartiteGraph) -> list[int]:
    """Left-vertex collision graph: entry i is a bitmask with bit j set when
    left vertices i != j share a right vertex."""
    table = g.neighbors.tolist()
    rows = [0] * g.n
    for i, nb in enumerate(table):
        bit = 1 << i
        for j in nb:
            rows[j] |= bit
    adj = []
    for i, nb in enumerate(table):
        m = 0
        for j in nb:
            m |= rows[j]
        adj.append(m & ~(1 << i))
    return adj


def _connected_sets(adj: list[int], root: int, k: int, cap: int) -> list[tuple[int, ...]]:
    """The k-sets (k >= 2) that are connected in the collision graph and
    whose smallest vertex is ``root``, as ascending tuples in lex order.
    Raises CapacityError as soon as more than ``cap`` are found.

    ESU enumeration (Wernicke 2006): a set grows only by vertices above the
    root that neighbor it, and a vertex joins the candidate list only
    through the first member it neighbors, so each set is built once."""
    above = ~((2 << root) - 1)
    if not adj[root] & above:
        return []
    found = []
    stack = [((root,), adj[root] | (1 << root), adj[root] & above)]
    while stack:
        members, closed, ext = stack.pop()
        while ext:
            low = ext & -ext
            ext ^= low
            w = low.bit_length() - 1
            grown = (*members, w) if w > members[-1] else tuple(sorted((*members, w)))
            if len(grown) == k:
                found.append(grown)
                if len(found) > cap:
                    raise CapacityError(f"connected {k}-sets exceed the budget ({cap} left)")
            else:
                stack.append((grown, closed | adj[w], ext | (adj[w] & ~closed & above)))
    found.sort()
    return found


def _connected_subsets(g: BipartiteGraph, s: int, budget: int = EXPANSION_BUDGET):
    """Connected subsets of size 1..s in (size, lex) order, one (size,
    smallest vertex) block at a time; past ``budget`` raises CapacityError."""
    left = budget - g.p
    if left < 0:
        raise CapacityError(f"{g.p} singletons exceed budget {budget}")
    yield from ((i,) for i in range(g.p))
    adj = _collision_graph(g)
    for k in range(2, s + 1):
        for root in range(g.p):
            block = _connected_sets(adj, root, k, left)
            left -= len(block)
            yield from block
            del block  # freed before the next block is built


def esu_check(g: BipartiteGraph, s: int, eps: float,
              budget: int = EXPANSION_BUDGET) -> VerificationReport:
    """``check_expansion_exhaustive`` over the ESU enumeration."""
    violator, worst, witness, _ = _expansion_scan(g, _connected_subsets(g, s, budget), s, eps)
    if violator is None:
        trials = _subset_budget(g.p, s)
    else:
        trials = _subset_budget(g.p, len(violator) - 1) + _lex_rank(violator, g.p) + 1
    return VerificationReport("expansion_exhaustive", violator is None, worst,
                              witness, trials, None)

"""The neighbor counter and scan of both expansion checks, and the
connected subsets of the collision graph that the exact one scans, built
level by level on numpy arrays (see :mod:`expander_cs.verify`).

Two left vertices collide when they share a right vertex. A level is the
connected subsets of one size in lex order. Level 1 needs no work: every
singleton has d neighbors. Level 2 is read off the table grouped by right
vertex, with the neighbor count of each pair from its overlap. Level k
grows level k-1 by collision neighbors and counts each new set over its
table rows. Sets are ascending rows of a small-int array, and a level is
built, counted and scanned in chunks of whole (size, smallest vertex)
blocks of at most _CHUNK candidate entries, so the level before is the
only one held whole.
"""

from __future__ import annotations

import numpy as np

from .errors import CapacityError
from .graphs import BipartiteGraph

_CHUNK = 1 << 18  # entries of the candidate or table-row arrays a check builds at once


def _runs(cum: np.ndarray, limit: int):
    """Consecutive runs [i, j) of items, by the items' cumulative costs
    ``cum``: each run costs at most ``limit``, or is one item alone."""
    i = 0
    while i < len(cum):
        base = int(cum[i - 1]) if i else 0
        j = max(i + 1, int(np.searchsorted(cum, base + limit, side="right")))
        yield i, j
        i = j


def _unique_sets(sets: np.ndarray, p: int) -> np.ndarray:
    """The distinct rows of ``sets`` (each row ascending) in lex order,
    through one mixed-radix key per row where p**k fits in int64."""
    k = sets.shape[1]
    if not len(sets):
        return sets
    if p**k < 1 << 63:
        keys = sets[:, 0].astype(np.int64)
        for c in range(1, k):
            keys = keys * p + sets[:, c]
        keys.sort()
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        out = np.empty((len(keys), k), sets.dtype)
        for c in range(k - 1, -1, -1):
            keys, out[:, c] = np.divmod(keys, p)
        return out
    ordered = sets[np.lexsort(sets.T[::-1])]
    return ordered[np.concatenate(([True], (ordered[1:] != ordered[:-1]).any(axis=1)))]


def _block_ends(sets: np.ndarray) -> np.ndarray:
    """The end of each run of rows of ``sets`` with one root."""
    return np.flatnonzero(np.concatenate((sets[1:, 0] != sets[:-1, 0], [True]))) + 1


def _pair_level(table: np.ndarray, dtype):
    """The connected 2-sets in lex order, as rows of ``dtype``, with their
    neighbor counts, in chunks of whole (2, root) blocks: yields (sets,
    counts).

    The table entries, sorted by right vertex and then left vertex, group
    the left vertices of each right vertex in ascending order; each member
    pairs with the later ones of its group, and a pair met at ``overlap``
    right vertices has 2d - overlap neighbors."""
    p, d = table.shape
    entries = table.ravel() * p + np.arange(p).repeat(d)
    keys = np.sort(entries)
    where = np.searchsorted(keys, entries)      # sorted position of each table entry
    del entries
    right, left = np.divmod(keys, p)
    del keys
    after = np.searchsorted(right, right, side="right") - np.arange(len(right)) - 1
    del right
    cost = after[where].reshape(p, d).sum(axis=1).cumsum()
    for r0, r1 in _runs(cost, _CHUNK):
        pos = where[r0 * d:r1 * d]
        reps = after[pos]
        total = int(reps.sum())
        if not total:
            continue
        at = np.repeat(pos, reps)
        keys = left[at] * p
        at += np.arange(1, total + 1) - np.repeat(np.cumsum(reps) - reps, reps)
        keys += left[at]                        # each member with each later one
        del at
        keys.sort()
        bounds = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1], [True])))
        overlap = bounds[1:] - bounds[:-1]
        sets = np.empty((len(overlap), 2), dtype)
        sets[:, 0], sets[:, 1] = np.divmod(keys[bounds[:-1]], p)
        yield sets, 2 * d - overlap


def _collision_lists(pairs: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The collision graph from its edges, the connected 2-sets, as
    (indptr, adj): the neighbors of vertex v are adj[indptr[v]:indptr[v + 1]]."""
    i, j = pairs.astype(np.int64).T
    keys = np.sort(np.concatenate((i * p + j, j * p + i)))
    return np.searchsorted(keys, np.arange(p + 1) * p), keys % p


def _children(parents: np.ndarray, indptr: np.ndarray, adj: np.ndarray) -> np.ndarray:
    """Each parent set grown by each collision neighbor w of a member that
    lies above the set's root and outside it, as ascending rows; a set
    grown from several parents repeats."""
    k1 = parents.shape[1]
    members = parents.ravel()
    reps = indptr[members + 1] - indptr[members]
    owner = np.repeat(np.arange(len(parents)).repeat(k1), reps)
    w = adj[np.repeat(indptr[members] - np.cumsum(reps) + reps, reps) + np.arange(int(reps.sum()))]
    cols = [parents[:, c][owner] for c in range(k1)]
    at = sum(col < w for col in cols)           # w's place in the grown row
    keep = at > 0
    for col in cols:
        keep &= col != w
    cols, w, at = [col[keep] for col in cols], w[keep], at[keep]
    out = np.empty((len(w), k1 + 1), parents.dtype)
    row = np.arange(len(w))
    out[row, at] = w
    for c, col in enumerate(cols):              # members above w move up one place
        out[row, c + (at <= c)] = col
    return out


def _grown_level(level: list[np.ndarray], indptr: np.ndarray, adj: np.ndarray,
                 p: int, left: int):
    """The connected k-sets (k >= 3) in lex order, in chunks of whole
    (k, root) blocks, grown from the connected (k-1)-sets: ``level`` holds
    them in lex order, in chunks of whole blocks, and is emptied as they
    are used. ``left`` is the budget left before the first block.

    A connected set keeps a connected subset with the same root once a
    leaf of a spanning tree other than the root goes, so growing every
    parent by the collision neighbors above its root finds each set. A
    root whose block takes several chunks to build merges them as it goes
    and raises CapacityError as soon as the block passes ``left``."""
    degree = indptr[1:] - indptr[:-1]
    while level:
        parents = level.pop(0)
        k = parents.shape[1] + 1
        cost = degree[parents[:, 0]] * k
        for c in range(1, k - 1):
            cost += degree[parents[:, c]] * k
        cost = cost.cumsum()
        ends = _block_ends(parents)
        for i, j in _runs(cost[ends - 1], _CHUNK):
            a, b = (int(ends[i - 1]) if i else 0), int(ends[j - 1])
            base = int(cost[a - 1]) if a else 0
            if j > i + 1 or cost[b - 1] - base <= _CHUNK:
                sets = _unique_sets(_children(parents[a:b], indptr, adj), p)
            else:
                sets, parts, held = np.empty((0, k), parents.dtype), [], 0
                for x, y in _runs(cost[a:b] - base, _CHUNK):
                    parts.append(_unique_sets(_children(parents[a + x:a + y], indptr, adj), p))
                    held += len(parts[-1])
                    if held > len(sets) or a + y == b:
                        sets = _unique_sets(np.concatenate([*parts, sets]), p)
                        parts, held = [], 0
                        if len(sets) > left:
                            raise CapacityError(
                                f"connected {k}-sets exceed the budget ({left} left)")
            if len(sets):
                yield sets
                left -= len(sets)


def _neighbor_counts(table: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """|N(I)| of each row I of ``sets``: its table rows, sorted, less repeats."""
    rows = table[sets].reshape(len(sets), -1)
    rows.sort(axis=1)
    return rows.shape[1] - (rows[:, 1:] == rows[:, :-1]).sum(axis=1)


class _Scan:
    """A scan in order for the first strict minimum of |N(I)| / (d |I|) and
    the first I with fewer than least[|I|] neighbors, from ``start`` =
    (worst ratio, its subset, its count): past the singletons, which all
    have ratio 1, for the exact check, and from (inf, None, 0) otherwise."""

    def __init__(self, d: int, least: list[int], start: tuple):
        self.d, self.least = d, np.asarray(least)
        self.worst, self.subset, self.count = start
        self.violator = None

    def __call__(self, sets: np.ndarray, counts: np.ndarray, sizes) -> bool:
        """Scan sets, in order, with their neighbor counts and sizes: one
        int for a level, or one per row, each row padded past its size by
        repeats of its members. True once a violator is met."""
        below = counts < self.least[sizes]
        stop = int(below.argmax()) + 1 if below.any() else len(counts)
        sizes = np.broadcast_to(sizes, counts.shape)
        # counts / sizes orders the rows as the ratio does, ties included
        i = int((counts[:stop] / sizes[:stop]).argmin())
        ratio = int(counts[i]) / (self.d * int(sizes[i]))
        if ratio < self.worst:
            self.worst, self.count = ratio, int(counts[i])
            self.subset = tuple(dict.fromkeys(sets[i].tolist()))
        if below[stop - 1]:
            self.violator = tuple(dict.fromkeys(sets[stop - 1].tolist()))
        return self.violator is not None


def scan_connected(g: BipartiteGraph, s: int, least: list[int], budget: int):
    """Scan the connected subsets of size 1..s in (size, lex) order, level
    by level and each level in chunks of whole (size, root) blocks, for
    the first strict minimum of |N(I)| / (d |I|) and the first I with
    fewer than least[|I|] neighbors, where the scan stops.

    Returns (first violator or None, worst ratio, worst subset, its
    neighbor count). ``budget`` caps the sets enumerated, singletons
    included: the first block that passes it raises CapacityError, unless
    a violator came in an earlier block."""
    table = g.neighbors
    left = budget - g.p
    if left < 0:
        raise CapacityError(f"{g.p} singletons exceed budget {budget}")
    scan = _Scan(g.d, least, (1.0, (0,), g.d))
    level = []
    for k in range(2, s + 1):
        parents, level = level, []
        if k == 2:
            chunks = _pair_level(table, np.int16 if g.p < 1 << 15 else np.int32)
        elif parents:
            if k == 3:
                indptr, adj = _collision_lists(np.concatenate(parents), g.p)
            chunks = ((sets, None) for sets in _grown_level(parents, indptr, adj, g.p, left))
        else:
            break
        for sets, counts in chunks:
            stop = len(sets)
            if stop > left:                     # a block of this chunk passes the budget
                ends = _block_ends(sets)
                over = int(np.searchsorted(ends, left, side="right"))
                stop = int(ends[over - 1]) if over else 0
            step = max(1, stop if counts is not None else _CHUNK // (k * g.d))
            for x in range(0, stop, step):
                part = sets[x:x + step]
                if scan(part, _neighbor_counts(table, part) if counts is None
                        else counts[x:x + step], k):
                    return scan.violator, scan.worst, scan.subset, scan.count
            if stop < len(sets):
                raise CapacityError(f"connected {k}-sets exceed the budget ({left - stop} left)")
            left -= len(sets)
            if k < s:
                level.append(sets)
    return scan.violator, scan.worst, scan.subset, scan.count

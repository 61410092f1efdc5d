"""Renormalized adjacency matrix of a left-regular bipartite graph.

Column i of the n x p matrix holds 1/d at the rows listed by left vertex
i's neighbors and 0 elsewhere, so every column has l1 norm exactly 1 and
l2 norm 1/sqrt(d). The value 1/d is never stored. The whole index
structure is ``rows``, the graph's own read-only (p, d) int64 table,
shared and not copied: row i lists column i's nonzero rows in ascending
order, and its flat view is the column-major gather/scatter layout.
Products accumulate over that view in ascending-index order (per output
row for X gamma, per column for X^T z) and divide by d once, which keeps
results independent of thread count and of how the matrix was built.
X gamma, the package's one X product, gathers the table rows of gamma's
nonzero entries alone: it costs what the support costs (Berinde et al.,
Allerton 2008) and changes no bit, since a sum starts at +0.0, no
addition makes it -0.0, and x + (+-0.0) = x for every other x. NaN and
infinite entries are nonzero. Both products take a stack of rows (one
per noise trial or path row), and both take a vector as a stack of one
row, so a vector's product is its stack row by construction; row r of
X gamma sums into bins offset by r n. A stack is gathered ``stack_rows``
rows at a time, at most STACK_ENTRIES entries, so on a wide design it
gathers one row at a time. The X^T gather is ``take`` along the row axis,
the same copy as a 2-D fancy index and several times faster on wide rows.

A design holds p, n, d, that table and ``_starts``, the offsets 0, d, ...,
(p - 1) d of the table's rows in its flat view, where X^T z sums each
column's segment. No solver state is kept between calls. The dense n x p
matrix is capped at MAX_TABLE entries.
"""

from __future__ import annotations

import numpy as np

from .graphs import BipartiteGraph, check_table

STACK_ENTRIES = 1 << 20  # gathered entries of one slice of a stacked product: 8 MB


class DesignMatrix:
    """Sparse column-structured design with implicit entry value 1/d."""

    def __init__(self, g: BipartiteGraph):
        self.p, self.n, self.d, self.rows = g.p, g.n, g.d, g.neighbors
        self._starts = np.arange(0, g.p * g.d, g.d, dtype=np.int64)

    @property
    def shape(self) -> tuple[int, int]:
        return self.n, self.p

    @property
    def stack_rows(self) -> int:
        """Rows of a stack whose product gathers at most STACK_ENTRIES
        entries (one row when a single product passes it)."""
        return max(1, STACK_ENTRIES // (self.p * self.d))

    def matvec(self, gamma) -> np.ndarray:
        """X gamma, of a vector of length p or of each row of a (k, p)
        stack; only gamma's nonzero entries are gathered."""
        gamma = np.asarray(gamma, dtype=np.float64)
        if gamma.ndim not in (1, 2) or gamma.shape[-1] != self.p:
            raise ValueError(f"expected vector of length {self.p}, got {gamma.shape}")
        stack = gamma.reshape(-1, self.p)
        acc = np.empty((len(stack), self.n))
        step = self.stack_rows
        for r in range(0, len(stack), step):
            block = stack[r:r + step]
            nonzero = block != 0.0
            on, cols = nonzero.nonzero()
            on *= self.n
            bins = self.rows.take(cols, axis=0)
            bins += on[:, None]
            out = acc[r:r + step].reshape(-1)
            # bincount of no entries is int64, weights or not: the division casts it
            np.divide(np.bincount(bins.reshape(-1), block[nonzero].repeat(self.d), out.size),
                      self.d, out=out)
        return acc.reshape(gamma.shape[:-1] + (self.n,))

    def transpose_matvec(self, z) -> np.ndarray:
        """X^T z, of a vector of length n or of each row of a (k, n) stack.
        Never amplifies the sup norm."""
        z = np.asarray(z, dtype=np.float64)
        if z.ndim not in (1, 2) or z.shape[-1] != self.n:
            raise ValueError(f"expected vector of length {self.n}, got {z.shape}")
        flat = self.rows.reshape(-1)
        stack = z.reshape(-1, self.n)
        acc = np.empty((len(stack), self.p))
        step = self.stack_rows
        for r in range(0, len(stack), step):
            np.add.reduceat(stack[r:r + step].take(flat, axis=1), self._starts, axis=1,
                            out=acc[r:r + step])
        acc /= self.d
        return acc.reshape(z.shape[:-1] + (self.p,))

    def to_dense(self) -> np.ndarray:
        check_table("dense design n*p", self.n, self.p)
        out = np.zeros((self.n, self.p))
        out[self.rows, np.arange(self.p)[:, None]] = 1.0 / self.d
        return out

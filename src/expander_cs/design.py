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
X^T z also takes a stack of rows z, one per noise trial, in one product
whose rows equal the one-row products bit for bit. A stack is gathered
``stack_rows`` rows at a time, at most STACK_ENTRIES entries, so on a
wide design it gathers one row at a time, as the one-row product does.
The gather is ``take`` along the row axis, the same copy as a 2-D fancy
index and several times faster on wide rows.

A design holds that table and nothing derived from it: no solver state is
kept between calls. The dense n x p matrix is capped at MAX_TABLE entries.
"""

from __future__ import annotations

import numpy as np

from .graphs import BipartiteGraph, check_table

STACK_ENTRIES = 1 << 20  # gathered entries of one slice of a stacked X^T product: 8 MB


class DesignMatrix:
    """Sparse column-structured design with implicit entry value 1/d."""

    def __init__(self, g: BipartiteGraph):
        self.p, self.n, self.d, self.rows = g.p, g.n, g.d, g.neighbors
        self._starts = np.arange(0, g.p * g.d, g.d, dtype=np.int64)

    @classmethod
    def from_graph(cls, g: BipartiteGraph) -> "DesignMatrix":
        return cls(g)

    @property
    def shape(self) -> tuple[int, int]:
        return self.n, self.p

    @property
    def stack_rows(self) -> int:
        """Rows of a stack whose X^T product gathers at most STACK_ENTRIES
        entries (one row when a single product passes it)."""
        return max(1, STACK_ENTRIES // (self.p * self.d))

    def matvec(self, gamma) -> np.ndarray:
        """X gamma: for each output row, the sum of gamma over incident
        columns (ascending column order), divided by d."""
        gamma = np.asarray(gamma, dtype=np.float64)
        if gamma.shape != (self.p,):
            raise ValueError(f"expected vector of length {self.p}, got {gamma.shape}")
        acc = np.bincount(self.rows.reshape(-1), weights=np.repeat(gamma, self.d),
                          minlength=self.n)
        return acc / self.d

    def transpose_matvec(self, z) -> np.ndarray:
        """X^T z: per column, the sum of z over its rows (ascending),
        divided by d. Never amplifies the sup norm. z may be a stack of
        shape (k, n); row r of the (k, p) result is then, byte for byte,
        the product of row r alone. A stack is gathered ``stack_rows``
        rows at a time."""
        z = np.asarray(z, dtype=np.float64)
        if z.ndim not in (1, 2) or z.shape[-1] != self.n:
            raise ValueError(f"expected vector of length {self.n}, got {z.shape}")
        flat = self.rows.reshape(-1)
        if z.ndim == 1:
            return np.add.reduceat(z[flat], self._starts) / self.d
        acc = np.empty((len(z), self.p))
        step = self.stack_rows
        for r in range(0, len(z), step):
            np.add.reduceat(z[r:r + step].take(flat, axis=1), self._starts, axis=1,
                            out=acc[r:r + step])
        acc /= self.d
        return acc

    def to_dense(self) -> np.ndarray:
        check_table("dense design n*p", self.n, self.p)
        out = np.zeros((self.n, self.p))
        out[self.rows, np.arange(self.p)[:, None]] = 1.0 / self.d
        return out

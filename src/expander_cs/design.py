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

A design holds that table and nothing derived from it: no solver state is
kept between calls. The dense n x p export is capped at MAX_TABLE entries.
"""

from __future__ import annotations

import numpy as np

from .graphs import BipartiteGraph, check_table


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
        divided by d. Never amplifies the sup norm."""
        z = np.asarray(z, dtype=np.float64)
        if z.shape != (self.n,):
            raise ValueError(f"expected vector of length {self.n}, got {z.shape}")
        acc = np.add.reduceat(z[self.rows.reshape(-1)], self._starts)
        return acc / self.d

    def to_dense(self) -> np.ndarray:
        check_table("dense design n*p", self.n, self.p)
        out = np.zeros((self.n, self.p))
        out[self.rows, np.arange(self.p)[:, None]] = 1.0 / self.d
        return out

    def write_dense_csv(self, path) -> None:
        """Dense export: n rows, p comma-separated columns, 17 significant digits."""
        dense = self.to_dense()
        with open(path, "w", encoding="utf-8") as fh:
            for row in dense:
                fh.write(",".join(f"{v:.17g}" for v in row))
                fh.write("\n")

import math

import numpy as np
import pytest

from expander_cs import (GF, BipartiteGraph, CapacityError, DesignMatrix, load_graph,
                         matching_graph, pv_expander, random_left_regular, save_graph)
from expander_cs.rng import Stream, gaussians


def test_entry_value_and_column_norms():
    g = random_left_regular(10, 2, 6, seed=1)
    X = DesignMatrix.from_graph(g)
    dense = X.to_dense()
    values = set(np.unique(dense))
    assert values == {0.0, 0.5}                       # d = 2 stores 1/2
    np.testing.assert_array_equal(np.abs(dense).sum(axis=0), np.ones(10))
    for i in range(10):
        assert np.linalg.norm(dense[:, i]) == pytest.approx(1 / math.sqrt(2), rel=1e-15)


def test_matching_design_is_identity():
    X = DesignMatrix.from_graph(matching_graph(4))
    np.testing.assert_array_equal(X.to_dense(), np.eye(4))
    v = np.array([3.0, -1.0, 0.5, 2.0])
    np.testing.assert_array_equal(X.matvec(v), v)
    np.testing.assert_array_equal(X.transpose_matvec(v), v)


def test_matvec_of_basis_vector_is_indicator():
    g = random_left_regular(5, 3, 7, seed=2)
    X = DesignMatrix.from_graph(g)
    e2 = np.zeros(5)
    e2[2] = 1.0
    out = X.matvec(e2)
    expected = np.zeros(7)
    expected[list(g.neighbors[2])] = 1 / 3
    np.testing.assert_array_equal(out, expected)


def test_transpose_all_ones_gives_ones():
    for d in (2, 3, 8, 12):
        g = random_left_regular(6, d, 20, seed=d)
        X = DesignMatrix.from_graph(g)
        np.testing.assert_array_equal(X.transpose_matvec(np.ones(20)), np.ones(6))


def test_adjoint_identity():
    g = random_left_regular(12, 4, 9, seed=3)
    X = DesignMatrix.from_graph(g)
    for t in range(20):
        gamma = gaussians(100 + t, 12)
        z = gaussians(200 + t, 9)
        assert abs(X.matvec(gamma) @ z - gamma @ X.transpose_matvec(z)) <= 1e-12


def test_l1_contraction_and_cauchy_schwarz():
    g = random_left_regular(15, 5, 11, seed=4)
    X = DesignMatrix.from_graph(g)
    for t in range(50):
        gamma = gaussians(300 + t, 15)
        img = X.matvec(gamma)
        assert np.abs(img).sum() <= np.abs(gamma).sum() + 1e-12
        assert np.abs(img).sum() <= math.sqrt(11) * np.linalg.norm(img) + 1e-12


def test_nonamplification_exact():
    g = random_left_regular(30, 6, 18, seed=5)
    X = DesignMatrix.from_graph(g)
    for t in range(200):
        z = gaussians(400 + t, 18)
        assert np.max(np.abs(X.transpose_matvec(z))) <= np.max(np.abs(z))


def test_rows_are_read_only_and_copied():
    # state derived from the rows is kept on the design, so they cannot change
    base = np.array(random_left_regular(6, 2, 8, seed=3).neighbors)
    owned = base.copy()
    X = DesignMatrix.from_graph(BipartiteGraph(6, 8, 2, base[:, :], "view"))
    with pytest.raises(ValueError):
        X.rows[0, 0] = 7
    base[0, 0] = 7                                    # the caller's array stays writable
    assert X.rows[0, 0] != 7
    X = DesignMatrix.from_graph(BipartiteGraph(6, 8, 2, owned, "owned"))
    with pytest.raises(ValueError):                   # an owned table is kept, and frozen
        owned[0, 0] = 7
    assert X.rows is owned and X.rows[0, 0] != 7


def test_rows_are_the_graph_table(tmp_path):
    path = tmp_path / "g.json"
    save_graph(random_left_regular(9, 3, 11, seed=4), path)
    for g in (pv_expander(GF(3), 2, 2, 2), random_left_regular(6, 2, 8, seed=3),
              load_graph(path), matching_graph(4)):
        X = DesignMatrix.from_graph(g)
        assert X.rows is g.neighbors and (X.p, X.n, X.d) == (g.p, g.n, g.d)


def test_shape_mismatch_errors():
    X = DesignMatrix.from_graph(matching_graph(3))
    with pytest.raises(ValueError):
        X.matvec(np.ones(4))
    with pytest.raises(ValueError):
        X.transpose_matvec(np.ones(2))


def test_dense_csv_roundtrip(tmp_path):
    g = random_left_regular(4, 3, 5, seed=6)
    X = DesignMatrix.from_graph(g)
    path = tmp_path / "X.csv"
    X.write_dense_csv(path)
    rows = [line.split(",") for line in path.read_text().strip().split("\n")]
    parsed = np.array([[float(v) for v in row] for row in rows])
    np.testing.assert_array_equal(parsed, X.to_dense())
    assert parsed.shape == (5, 4)


def test_dense_export_is_capped_at_the_boundary(tmp_path, monkeypatch):
    X = DesignMatrix.from_graph(random_left_regular(4, 3, 5, seed=6))
    monkeypatch.setattr("expander_cs.graphs.MAX_TABLE", 20)
    assert X.to_dense().shape == (5, 4)
    monkeypatch.setattr("expander_cs.graphs.MAX_TABLE", 19)
    path = tmp_path / "X.csv"
    for build in (X.to_dense, lambda: X.write_dense_csv(path)):
        with pytest.raises(CapacityError, match=r"^dense design n\*p = 5\*4 exceeds limit 19$"):
            build()
    assert not path.exists()


# -- reference oracle ----------------------------------------------------------

def reference_dense(g):
    """Entry-by-entry construction of the n x p design, the oracle for the
    vectorized ``to_dense``."""
    out = np.zeros((g.n, g.p))
    v = 1.0 / g.d
    for i, col in enumerate(g.neighbors):
        for j in col:
            out[j, i] = v
    return out


def _oracle_graphs():
    rng = Stream(4242)
    graphs = [matching_graph(1), matching_graph(7)]
    for k in range(52):
        n = 1 + rng.below(40)
        p = 1 + rng.below(60)
        d = n if k % 8 == 0 else 1 + rng.below(n)      # d = n: all-ones columns
        graphs.append(random_left_regular(p, d, n, seed=rng.next_u64() % 10**6))
    return graphs


ORACLE_GRAPHS = _oracle_graphs()


@pytest.mark.parametrize("idx", range(len(ORACLE_GRAPHS)))
def test_design_matches_reference_oracle(idx):
    g = ORACLE_GRAPHS[idx]
    X = DesignMatrix.from_graph(g)
    dense = reference_dense(g)
    np.testing.assert_array_equal(X.to_dense(), dense)
    for t in range(3):
        gamma = gaussians(1000 * idx + t, g.p)
        z = gaussians(2000 * idx + t, g.n)
        Xg, XTz = X.matvec(gamma), X.transpose_matvec(z)
        # summation order differs from BLAS, so compare at 1e-15 of the scale
        g_scale = max(1.0, np.abs(gamma).sum())
        z_scale = max(1.0, g.d * np.abs(z).max())
        np.testing.assert_allclose(Xg, dense @ gamma, rtol=0, atol=1e-15 * g_scale)
        np.testing.assert_allclose(XTz, dense.T @ z, rtol=0, atol=1e-15 * z_scale)
        assert abs(Xg @ z - gamma @ XTz) <= 1e-12 * g_scale * z_scale
        assert np.max(np.abs(XTz)) <= np.max(np.abs(z))

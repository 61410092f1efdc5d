"""Property tests (hypothesis): design products (stacked products against
their rows, the support-sized X gamma against the full table, X^T z
against one reduceat per vector), the graph interchange
format, its file writer and the reader's array path, the connected-subset expansion certificate
(against the full scan and the ESU enumeration), the sampled expansion
check (against the bitmask scan of its draws), the lasso's optimality
conditions, basis pursuit's dual certificate, the AR(1) noise blocks
(against the recurrence on numpy scalars) and the lockstep l1 path
(against the one-row path, row by row)."""

import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from expander_cs import (BipartiteGraph, DesignMatrix,  # noqa: E402
                         basis_pursuit, check_expansion_exhaustive,
                         check_expansion_sampled, lasso, load_graph,
                         random_left_regular, save_graph)
from expander_cs.graphs import (graph_from_json_dict, graph_to_json_dict,  # noqa: E402
                                graph_to_json_text)
from expander_cs import (NoiseModel, connected, design, noise, solve,  # noqa: E402
                         trial_noise, verify)
from expander_cs import graphs as graphs_module  # noqa: E402
from expander_cs.bench import sparse_target  # noqa: E402
from expander_cs.errors import CapacityError  # noqa: E402
from expander_cs.rng import Stream, derive_seed, gaussians  # noqa: E402
import mc_oracle  # noqa: E402
from esu_oracle import _connected_subsets, _expansion_scan, esu_check  # noqa: E402
from test_design import segment_sum_product  # noqa: E402
from test_noise import reference_ar1  # noqa: E402
from test_solve import _path_design, _same_path_rows  # noqa: E402

SETTINGS = hypothesis.settings(max_examples=100, deadline=None, derandomize=True,
                               database=None)
VALUES = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
PROVENANCE = st.text(alphabet='pv(q=7,l2) "\\é', max_size=12)  # quote, backslash, non-ASCII


@st.composite
def graphs(draw, max_p=12, max_n=24, max_d=5):
    n = draw(st.integers(1, max_n))
    d = draw(st.integers(1, min(n, max_d)))
    p = draw(st.integers(1, max_p))
    neighbors = tuple(
        tuple(sorted(draw(st.lists(st.integers(0, n - 1), min_size=d, max_size=d,
                                   unique=True))))
        for _ in range(p))
    return BipartiteGraph(p, n, d, neighbors, draw(PROVENANCE))


@st.composite
def design_and_vectors(draw):
    X = DesignMatrix(draw(graphs()))
    gamma = np.array(draw(st.lists(VALUES, min_size=X.p, max_size=X.p)))
    z = np.array(draw(st.lists(VALUES, min_size=X.n, max_size=X.n)))
    return X, gamma, z


@SETTINGS
@hypothesis.given(design_and_vectors())
def test_matvec_and_transpose_matvec_are_adjoint(case):
    X, gamma, z = case
    lhs = float(z @ X.matvec(gamma))
    rhs = float(X.transpose_matvec(z) @ gamma)
    scale = max(1.0, float(np.abs(z).max()) * float(np.abs(gamma).sum()))
    assert abs(lhs - rhs) <= 1e-12 * scale


# signed zeros and magnitudes from 1e-300 to 1e300
ENTRIES = st.one_of(st.sampled_from([0.0, -0.0]),
                    st.builds(lambda m, e, sign: sign * m * 10.0**e, st.floats(1.0, 9.99),
                              st.integers(-300, 299), st.sampled_from([-1.0, 1.0])))


@SETTINGS
@hypothesis.given(st.sampled_from([1, 7, 8, 9, 16, 33]), st.sampled_from([1, 2, 10]),
                  st.integers(1, 12), st.integers(0, 9), st.integers(0, 2**32),
                  st.data())
def test_stack_products_are_the_row_products_bit_for_bit(d, k, p, extra, seed, data):
    # d crosses numpy's 8-way pairwise summation blocks at 8, 16 and 33
    X = DesignMatrix(random_left_regular(p, d, d + extra, seed))
    Z = np.array(data.draw(st.lists(ENTRIES, min_size=k * X.n, max_size=k * X.n))).reshape(k, X.n)
    stack = X.transpose_matvec(Z)
    assert stack.shape == (k, X.p)
    for row, z in zip(stack, Z):
        assert row.tobytes() == segment_sum_product(X, z).tobytes()
    for bad in (np.zeros((k, X.n + 1)), np.zeros((1, k, X.n))):
        with pytest.raises(ValueError, match=f"length {X.n}"):
            X.transpose_matvec(bad)


def full_table_product(X, gamma):
    """X gamma summed over every column of the table, zeros included: the
    oracle for the support-sized ``matvec``."""
    return np.bincount(X.rows.reshape(-1), weights=np.repeat(gamma, X.d), minlength=X.n) / X.d


SPECIALS = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])


@SETTINGS
@hypothesis.given(st.integers(1, 40), st.integers(1, 9), st.integers(0, 30), st.integers(1, 17),
                  st.floats(0.0, 1.0), st.integers(0, 2**32), st.data())
def test_support_sized_matvec_is_the_full_table_sum_bit_for_bit(p, d, extra, k, density,
                                                                seed, data):
    # zeros are skipped, signed or not; NaN and +-inf are summed, zero rows
    # sit inside the stack, and a slice of the stack may hold one row
    X = DesignMatrix(random_left_regular(p, d, d + extra, seed))
    G = np.array(data.draw(st.lists(st.one_of(ENTRIES, SPECIALS), min_size=k * p,
                                    max_size=k * p))).reshape(k, p)
    dropped = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=k * p,
                                          max_size=k * p))).reshape(k, p) >= density
    G[dropped] = np.copysign(0.0, G[dropped])
    G[data.draw(st.lists(st.integers(0, k - 1), max_size=k))] = -0.0
    want = np.array([full_table_product(X, g) for g in G])
    default = design.STACK_ENTRIES
    design.STACK_ENTRIES = data.draw(st.integers(1, k + 1)) * p * d
    try:
        stack = X.matvec(G)
    finally:
        design.STACK_ENTRIES = default
    assert stack.dtype == np.float64 and stack.shape == (k, X.n)
    assert (stack.view(np.uint64) == want.view(np.uint64)).all()
    for row, g in zip(stack, G):
        assert (X.matvec(g).view(np.uint64) == row.view(np.uint64)).all()
    for zeros in (np.zeros((k, p)), np.full((k, p), -0.0), np.zeros(p)):
        # bincount of no entries is int64: the product must still be +0.0 floats
        out = X.matvec(zeros)
        assert out.dtype == np.float64 and out.shape == zeros.shape[:-1] + (X.n,)
        assert not out.view(np.uint64).any()


@SETTINGS
@hypothesis.given(st.integers(1, 40), st.integers(1, 25), st.integers(0, 30), st.integers(0, 17),
                  st.integers(0, 2**32), st.data())
def test_transpose_matvec_is_the_segment_sum_bit_for_bit(p, d, extra, k, seed, data):
    # segments past 8 entries cross numpy's pairwise summation blocks; NaN
    # and +-inf share segments, and a slice of the stack may hold one row
    X = DesignMatrix(random_left_regular(p, d, d + extra, seed))
    Z = np.array(data.draw(st.lists(st.one_of(ENTRIES, SPECIALS), min_size=k * X.n,
                                    max_size=k * X.n))).reshape(k, X.n)
    default = design.STACK_ENTRIES
    design.STACK_ENTRIES = data.draw(st.integers(1, k + 1)) * p * d
    with np.errstate(invalid="ignore", over="ignore"):      # inf - inf, sums past 1e308
        want = np.array([segment_sum_product(X, z) for z in Z]).reshape(k, p)
        try:
            stack = X.transpose_matvec(Z)
        finally:
            design.STACK_ENTRIES = default
        vectors = [X.transpose_matvec(z) for z in Z]
    assert stack.dtype == np.float64 and stack.shape == (k, p)
    assert (stack.view(np.uint64) == want.view(np.uint64)).all()
    for vector, row in zip(vectors, want):
        assert vector.shape == (p,)
        assert (vector.view(np.uint64) == row.view(np.uint64)).all()


@SETTINGS
@hypothesis.given(design_and_vectors())
def test_products_never_amplify_their_norms(case):
    # every column holds d entries 1/d: X^T z averages d entries of z,
    # and X gamma spreads each gamma_i over d rows
    X, gamma, z = case
    assert np.abs(X.transpose_matvec(z)).max() <= np.abs(z).max() * (1 + 1e-12)
    assert np.abs(X.matvec(gamma)).sum() <= np.abs(gamma).sum() * (1 + 1e-12)


@SETTINGS
@hypothesis.given(graphs(max_p=30, max_n=60, max_d=10))
def test_graph_json_round_trip(g):
    text = json.dumps(graph_to_json_dict(g))
    assert graph_from_json_dict(json.loads(text)) == g


@SETTINGS
@hypothesis.given(graphs(max_p=30, max_n=60, max_d=10))
def test_graph_file_text_is_json_indent_2(tmp_path_factory, g):
    # the graph file writer joins the rows itself; json's encoder is the reference
    text = graph_to_json_text(g)
    assert text == json.dumps(graph_to_json_dict(g), indent=2)
    path = tmp_path_factory.mktemp("graph") / "g.json"
    save_graph(g, path)
    assert path.read_text(encoding="utf-8") == text + "\n"
    assert load_graph(path) == g


@SETTINGS
@hypothesis.given(graphs(max_p=30, max_n=graphs_module.MAX_SIDE, max_d=10),
                  st.sampled_from([1, 5, 64, graphs_module._BLOCK_ENTRIES]))
@hypothesis.example(BipartiteGraph(2, graphs_module.MAX_SIDE, 2,
                                   [[0, 999999], [1000000, graphs_module.MAX_SIDE - 1]], ""),
                    graphs_module._BLOCK_ENTRIES)
def test_every_saved_graph_is_read_on_arrays(tmp_path_factory, g, block):
    # a writer change that moves files off the reader's array path fails here
    path = tmp_path_factory.mktemp("graph") / "g.json"
    with mock.patch.object(graphs_module, "_BLOCK_ENTRIES", block), \
            mock.patch.object(graphs_module, "load_object") as json_path:
        save_graph(g, path)
        assert load_graph(path) == g
    json_path.assert_not_called()


@SETTINGS
@hypothesis.given(graphs(max_p=10, max_n=30), st.integers(1, 4),
                  st.sampled_from([0.125, 0.25, 0.5]))
def test_connected_certificate_equals_full_scan(g, s, eps):
    s = min(s, g.p)
    subsets = itertools.chain.from_iterable(
        itertools.combinations(range(g.p), k) for k in range(1, s + 1))
    violator, worst, witness, examined = _expansion_scan(g, subsets, s, eps)
    rep = check_expansion_exhaustive(g, s, eps)
    assert (rep.ok, rep.worst_ratio, rep.witness, rep.trials) == (
        violator is None, worst, witness, examined)


def _outcome(check, *args):
    """The report's JSON text, or the CapacityError's message."""
    try:
        return json.dumps(check(*args).to_json_dict())
    except CapacityError as exc:
        return f"CapacityError: {exc}"


@SETTINGS
@hypothesis.given(graphs(max_p=14, max_n=30), st.integers(1, 5),
                  st.sampled_from([0.125, 0.25, 0.5]), st.sampled_from([1, 5, 64, None]))
def test_array_certificate_equals_esu_enumeration(g, s, eps, chunk):
    # the same report bytes as the ESU check, and at a budget one short of
    # the whole enumeration the same refusal message or the same
    # refutation; a small chunk builds blocks and levels in many chunks
    s = min(s, g.p)
    budget = sum(1 for _ in _connected_subsets(g, s)) - 1
    default = connected._CHUNK
    connected._CHUNK = chunk or default
    try:
        for b in (verify.EXPANSION_BUDGET, budget):
            assert _outcome(check_expansion_exhaustive, g, s, eps, b) == \
                _outcome(esu_check, g, s, eps, b)
    finally:
        connected._CHUNK = default


def _bitmask_sampled(g, s, eps, trials, seed):
    """The sampled check's report JSON from the bitmask scan of its draws."""
    rng = Stream(seed)
    subsets = (rng.sample_without_replacement(g.p, 1 + rng.below(s))
               for _ in range(trials))
    violator, worst, witness, _ = _expansion_scan(g, subsets, s, eps)
    return json.dumps(verify.VerificationReport(
        "expansion_sampled", violator is None, worst, witness, trials, seed).to_json_dict())


@SETTINGS
@hypothesis.given(graphs(max_p=40, max_n=80), st.integers(1, 6),
                  st.sampled_from([0.125, 0.25, 0.3, 0.5]), st.integers(1, 300),
                  st.integers(0, 2**64 - 1), st.sampled_from([1, 7, 64, None]))
def test_sampled_check_equals_bitmask_scan(g, s, eps, trials, seed, chunk):
    # the same report bytes as the bitmask scan on the same draws; chunks
    # of 1, of a few and of many subsets put the violator and the worst
    # subset mid-chunk and on chunk boundaries
    s = min(s, g.p)
    default = connected._CHUNK
    connected._CHUNK = chunk or default
    try:
        got = json.dumps(check_expansion_sampled(g, s, eps, trials, seed).to_json_dict())
    finally:
        connected._CHUNK = default
    assert got == _bitmask_sampled(g, s, eps, trials, seed)


@pytest.mark.parametrize("eps", [0.125, 0.5])
def test_sampled_check_past_one_default_chunk_equals_bitmask_scan(eps):
    # at the default chunk of _CHUNK // (s d) subsets, trials run into a
    # second chunk; eps = 1/8 refutes and eps = 1/2 passes
    g = random_left_regular(40, 4, 60, seed=2)
    trials = connected._CHUNK // (6 * 4) + 50
    rep = check_expansion_sampled(g, 6, eps, trials, 11)
    assert rep.ok == (eps == 0.5)
    assert json.dumps(rep.to_json_dict()) == _bitmask_sampled(g, 6, eps, trials, 11)


@SETTINGS
@hypothesis.given(design_and_vectors(), st.floats(0.0, 50.0))
def test_lasso_kkt_holds_at_convergence(case, lam):
    # every solve converges; the KKT residual is recomputed from the
    # returned beta with a dense X^T (y - X beta)
    X, _, y = case
    tol = 1e-8
    sol = lasso(X, y, lam, tol=tol, max_iter=2000)
    assert sol.converged
    dense = X.to_dense()
    corr = 2.0 * dense.T @ (y - dense @ sol.beta)
    kkt = np.where(sol.beta != 0.0, np.abs(corr - lam * np.sign(sol.beta)),
                   np.maximum(0.0, np.abs(corr) - lam))
    assert kkt.max() <= tol


@SETTINGS
@hypothesis.given(design_and_vectors())
def test_bp_dual_certificate_holds(case):
    # y = X gamma is in the range; z = X_A (X_A^T X_A)^{-1} sign(beta_A) on
    # the returned support is recomputed from the dense matrix and proves
    # beta optimal: ||X^T z||_inf <= 1 and y^T z = ||beta||_1
    X, gamma, _ = case
    y = X.matvec(gamma)
    beta = basis_pursuit(X, y)
    scale = 1.0 + float(np.abs(y).max())
    assert np.abs(X.matvec(beta) - y).max() <= 1e-8 * scale
    l1 = float(np.abs(beta).sum())
    assert l1 <= float(np.abs(gamma).sum()) * (1 + 1e-9) + 1e-12
    dense = X.to_dense()
    A = np.flatnonzero(beta)
    if A.size:
        XA = dense[:, A]
        z = XA @ np.linalg.solve(XA.T @ XA, np.sign(beta[A]))
        assert np.abs(dense.T @ z).max() <= 1.0 + 1e-9
        assert abs(float(y @ z) - l1) <= 1e-9 * l1


# a full block at rho = 0.5 cuts rows into chunks of 31-32 positions, so
# n - 1 = 30 .. 33 and 62 .. 64 put a row's end on, just before and just
# past a chunk's end
@hypothesis.settings(SETTINGS, max_examples=25)
@hypothesis.given(st.sampled_from([1, 2, 3, 31, 32, 33, 34, 63, 64, 65, 1536]),
                  st.sampled_from([-1, 0, 1]),
                  st.sampled_from([0.0, -0.0, 0.5, -0.5, 0.9, -0.9, 0.999, 1e-300]),
                  st.sampled_from([0.01, 1.0, 3.7]),
                  st.integers(0, 2**64 - 1))
def test_ar1_block_rows_are_the_recurrence(n, past_block, rho, sigma, seed):
    # the trial count straddles one block, so the last block has 1 row or none
    model = NoiseModel(n, sigma, "ar1", rho=rho)
    trials = noise._BLOCK // n + past_block
    for k, z in enumerate(np.concatenate(list(trial_noise(model, seed, trials)))):
        assert z.tobytes() == reference_ar1(model, derive_seed(seed, k)).tobytes()
    assert k == trials - 1


# -- the lockstep l1 path against the one-row path ---------------------------------

@st.composite
def path_cases(draw):
    d = draw(st.sampled_from([1, 3, 8, 9, 25]))
    n = draw(st.integers(d, max(d + 1, 3 * d)))
    p = draw(st.integers(2, 40))
    twins = draw(st.integers(0, 2)) if p > 4 else 0
    X = _path_design(p, d, n, draw(st.integers(0, 1000)), twins)
    k = draw(st.sampled_from([1, 2, 5, 17]))
    seed = draw(st.integers(0, 10**6))
    Y = []
    for r in range(k):
        kind = draw(st.sampled_from(["sparse", "noise", "mixed"]))
        s = draw(st.integers(1, min(p, 4)))
        signal = X.matvec(sparse_target(p, s, seed + r)[0])
        noise = gaussians(seed + 100 + r, n)
        Y.append({"sparse": signal, "noise": noise, "mixed": signal + 0.1 * noise}[kind])
    C = X.transpose_matvec(np.array(Y))
    top = np.abs(C).max(axis=1)
    t_stop = draw(st.sampled_from([0.0, 0.02, 0.2, 0.6])) * float(top.max())
    max_steps = draw(st.sampled_from([1, 2, 3, 1000]))
    loose = draw(st.booleans())
    return X, C[top > t_stop], t_stop, max_steps, loose


@SETTINGS
@hypothesis.given(path_cases())
def test_lockstep_path_equals_the_one_row_path(case):
    # loose: GRAM_TOL at which an active pair sharing a row is singular
    # (smallest squared pivot d - o^2/d) and a disjoint one is not, so
    # rows fail amid good rows
    X, C, t_stop, max_steps, loose = case
    kept = solve.GRAM_TOL
    try:
        if loose:
            solve.GRAM_TOL = mc_oracle.GRAM_TOL = 1.0 - 0.5 / X.d**2
        _same_path_rows(X, C, t_stop, max_steps)
    finally:
        solve.GRAM_TOL = mc_oracle.GRAM_TOL = kept

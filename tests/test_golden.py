"""Cross-commit byte identity of the CLI reports.

Each case runs the CLI on a small seeded input and compares the SHA-256 of
the bytes it writes against a digest recorded before the design, verify
and bench internals were folded into single implementations. The other
byte-identity tests compare two runs of the same code; these compare
against earlier code, so a refactor that moves a float by one ulp fails
here. The ``construct pv``, ``bench mvse`` and ``manifest_*`` digests were
recorded before report and manifest writing moved into ``cli.main``; a
manifest is hashed with its temporary paths replaced by placeholders. The
``bench_lasso_ar1_csv``, ``solve_bp`` and ``solve_lasso`` digests were
recorded when the l1 path replaced coordinate descent and the basis-pursuit
simplex: they hold lasso or basis-pursuit estimates, which the exact path
moves (and, on the duplicate columns of the solve design, takes to another
optimum of equal value). The ``solve_*_unique`` digests were recorded
later, on a design whose columns are pairwise distinct and whose optima the
tests prove unique, so a change of tie rule cannot move them.

The digests were recorded with numpy 2.4.6 on x86-64 Linux (Python 3.11).
The kernel and LP cases go through LAPACK and the float formatting of
17 significant digits, so a different numpy or BLAS build may legitimately
change them; re-record them from a commit known to be good on that build.
"""

import hashlib
import json

import numpy as np
import pytest

from expander_cs import DesignMatrix, load_graph, random_left_regular
from expander_cs.cli import main
from expander_cs.verify import (check_kernel_concentration, check_rip1_sampled,
                                check_up2_sampled, nullspace_property_oracle,
                                recheck_violation)

TALL = ["--p", 12, "--d", 4, "--n", 80, "--seed", 2]     # n > p: trivial kernel
WIDE = ["--p", 16, "--d", 3, "--n", 10, "--seed", 5]     # n < p: kernel dim >= 6

VERIFY = {
    "verify_expansion_exhaustive": ("tall", ["--s", 2]),
    "verify_expansion_sampled": ("wide", ["--s", 3, "--mode", "sampled",
                                          "--trials", 300, "--seed", 2]),
    "verify_rip1_tall": ("tall", ["--check", "rip1", "--s", 2, "--trials", 200,
                                  "--seed", 3]),
    "verify_rip1_wide": ("wide", ["--check", "rip1", "--s", 3, "--eps", 0.05,
                                  "--trials", 200, "--seed", 3]),
    "verify_up2_tall": ("tall", ["--check", "up2", "--s", 2, "--trials", 100,
                                 "--seed", 4]),
    "verify_up2_wide": ("wide", ["--check", "up2", "--s", 6, "--trials", 100,
                                 "--seed", 4]),
    "verify_kernel_wide": ("wide", ["--check", "kernel", "--s", 2, "--trials", 100,
                                    "--seed", 5]),
    "verify_kernel_tall": ("tall", ["--check", "kernel", "--s", 2, "--trials", 10]),
    "verify_nsp_tall": ("tall", ["--check", "nsp", "--s", 2]),
    "verify_nsp_wide": ("wide", ["--check", "nsp", "--s", 2]),
    "verify_up2_csv": ("tall", ["--check", "up2", "--s", 2, "--trials", 50,
                                "--format", "csv"]),
}

NOISY = {"design": {"kind": "random", "p": 16, "d": 4, "n": 60, "seed": 3},
         "target": {"kind": "exact-sparse", "s": 2},
         "noise": {"sigma": 0.02, "model": "ar1:0.4"},
         "seed": 8}

BENCH = {
    "bench_lasso_ar1_csv": ("lasso", "csv", {**NOISY, "lambda_multiple": 6.0,
                                             "trials": 5}),
    "bench_lasso_compressible_json": ("lasso", "json", {
        **NOISY, "target": {"kind": "compressible", "s": 3},
        "lambda_multiple": 6.5, "trials": 3}),
    "bench_dantzig_csv": ("dantzig", "csv", {**NOISY, "noise": {"sigma": 0.02},
                                             "lambda_multiple": 1.0, "trials": 4}),
    "bench_dantzig_json": ("dantzig", "json", {**NOISY, "lambda_multiple": 1.5,
                                               "trials": 3}),
    "bench_recovery_csv": ("recovery", "csv", {
        "design": {"kind": "random", "p": 12, "d": 4, "n": 200, "seed": 0},
        "s": 1, "trials": 4, "seed": 2}),
    "bench_recovery_json": ("recovery", "json", {
        "design": {"kind": "matching", "n": 10}, "s": 2, "trials": 3, "seed": 5}),
    "bench_ols_json": ("ols", None, {
        "design": {"kind": "random", "p": 16, "d": 4, "n": 60, "seed": 3},
        "s": 2, "noise": {"sigma": 0.02, "model": "ar1:0.4"}, "trials": 4,
        "include_estimators": True, "seed": 9}),
}

MVSE = {"design": {"kind": "matching", "n": 4}, "ps": [12], "s_values": [1],
        "trials": 2, "n": 64, "seed": 3}

SOLVE_GRAPH = {"kind": "random", "p": 20, "d": 3, "n": 8, "seed": 1}
SOLVE_Y = [0.5, -1.25, 2.0, 0.0, 0.75, -0.5, 1.5, -2.0]
SOLVE = {
    "solve_lasso": {"estimator": "lasso", "lambda": 0.3},
    "solve_dantzig": {"estimator": "dantzig", "lambda": 0.2},
    "solve_bp": {"estimator": "bp"},
}

# A compressive design (p = 24 > n = 12) with pairwise distinct columns, on
# which each case's optimum is unique: the tests below check a strict dual
# certificate and a full-rank active submatrix, so these digests pin the
# solution itself rather than one optimum among many.
UNIQUE_GRAPH = {"kind": "random", "p": 24, "d": 3, "n": 12, "seed": 3}
UNIQUE = {
    # y = X b* with b*_2 = 1.5, b*_19 = -2
    "solve_bp_unique": {"estimator": "bp", "y": [
        0.5, 0.5, 0.0, -2 / 3, 0.5, 0.0, -2 / 3, 0.0, -2 / 3, 0.0, 0.0, 0.0]},
    "solve_lasso_unique": {"estimator": "lasso", "lambda": 0.2, "y": [
        0.55, 0.45, 0.05, -0.6, 0.45, 0.0, -0.7, 0.05, -0.65, -0.1, 0.0, 0.05]},
}

GOLDEN = {
    "bench_dantzig_csv":
        "5da46e57c1e09bf34ba005c6bb1c9ef9489df55704822bbbe0d6545183bc7704",
    "bench_dantzig_json":
        "fadf6fd05e5c5f0d81febe3d88dce9c50f121ddc7ee9abc11b5afb7f62be4170",
    "bench_lasso_ar1_csv":
        "343ebf2ad6177b69cd5500c6fb1b467a135742b588f279b57e66ef583309f6e2",
    "bench_lasso_compressible_json":
        "f8c7986304db41a1fbde2d87435be07ebbedef5394d6fe2477079266b2ad24d0",
    "bench_mvse_csv":
        "4aac2994196595dd47cc26109a3d35fdd8d603f7ac7103630435edba025a6334",
    "bench_mvse_json":
        "2d788bad8c64267007c82f8f8db9f598ab9985ef5b85bd8876307fd44932ac67",
    "bench_ols_json":
        "808f6a117fe1f31218dbfbd52c6b723f0a98bb6351dd0fa4707f5908d8b1a27d",
    "bench_recovery_certificate_csv":
        "17b6ae2c1ffc10d0b5664ba1328542eead6e779791d77254f3b50fb52691fdcf",
    "bench_recovery_csv":
        "c2dc999103bcdaaf51be634907e2cb420ab0d78ac615836c24dc2aba85c94f71",
    "bench_recovery_json":
        "4c12ca67e43160039c4e93f0e7bcb116f83b840e1494bd59790f671c361efcec",
    "construct_pv":
        "0affe14a14dd1f142e80a8cd3d6fe8c0820438cb89293340a11b134282bc1e74",
    "construct_tall":
        "fb0e457b800f9c7f6502426f51a91984de3da02687b8f0217c50704fb0cf1ae3",
    "construct_wide":
        "6c7fb0edd868faf6513fe4b9c47365232d18357db5cb8c0566035ebf64d5f67e",
    "manifest_bench_lasso_ar1_csv":
        "d98768bf4e1c4a2b61da501bb0645973296a949f423c5c92e8b39de12453f8ab",
    "manifest_bench_mvse":
        "28e0093856c34b0720d19d192d4c126e8eb121488682b8302be7ec75a7c2ed37",
    "manifest_bench_ols_json":
        "e66bbccf4a5a9db00fcccfd54c0b35e80c2135893d320f82ed4e676b24787a64",
    "manifest_construct_pv":
        "31c54012bab0eaa8a58ee77ab10499b9f9b8371d01160af9c49727af33e89a09",
    "manifest_construct_random":
        "1ef128f42a435aa265a099adf3b647f66f7876ee86a22e30efc2a26b76d90e45",
    "manifest_noise_check_wide":
        "6a5061b96217a4ea21f5f0a1319f68e22f008d1912bd71633aa3d67d27276052",
    "manifest_solve_bp":
        "49fd177f15dbe7b02ca5d20f11cf81c6101d9fa017e45002acf721291d5b5075",
    "manifest_verify_expansion_sampled":
        "cca35f20e80141f5aa6fe5503a60254c567a681588abc944c43429c9b3642032",
    "manifest_verify_up2_csv":
        "a406f69db26801df52bb788cd473e132b68ea263c582fae0c511df04ea2a56c5",
    "noise_check_wide":
        "aa3ab66ad67f517ae8a2e73acc37c4e313816fddf390a6ef2b0db3269eedfe3f",
    "recheck_margins":
        "d1c3e55e80c7f457cd6b9ea9e82d555eef1712abb0aa03c96d37321fe1945d3e",
    "solve_bp":
        "b4cbf522e41c5b823aa0d0dadf85eddf948f2b6f1dca5cfbdd4a4ac7f099726c",
    "solve_bp_unique":
        "5094dd96f94a3368a5242a67fc57835453b46735f9f04ab4c951cec9172954bc",
    "solve_dantzig":
        "dcac516cbe4d6912667b32f6b19b4e5d36027ae595fd1dc4bf08032d43bec645",
    "solve_lasso":
        "a48a42f89b144589196f21bce13d893861411376e20d6c0a1293da151fd1b3e3",
    "solve_lasso_unique":
        "df7b43c593b690aa2fb41f1f20a668415181fa7d7a55958094df9fffcb3c7aa3",
    "verify_expansion_exhaustive":
        "f581fc2cf7c26a208f01a490dbbe23c170e97a9683d12b828572188d7aa88f5d",
    "verify_expansion_sampled":
        "6d2298ef3c5acc0183f64548f3482e592b7b030395854eab2105b25a7c98efa3",
    "verify_kernel_tall":
        "9c34aee34dd31994572770612871184bde34dd3b70dd95335ee20a0ba35cdc83",
    "verify_kernel_wide":
        "a22ea233e545b053f340810a8dfeff4192a2cf3063831997c4162ca61c88418f",
    "verify_nsp_tall":
        "2a0071fadeb21414ec3550f10e0b9bc0cd83db328268f8ff7a62234602914a9d",
    "verify_nsp_wide":
        "4e913b8f842100c1d06cfc847c732be9d67380c4c2d266d0409b1713766b824a",
    "verify_rip1_tall":
        "26d2aabee237e87104ea67383190230b218d3b2b961e317b28b5e457763c279c",
    "verify_rip1_wide":
        "718f68dddc7765bb304c31bd30f32885c00334eb2da03de7581a8c73d89462f2",
    "verify_up2_csv":
        "cca6a7e6921bdc8b6c722a36564fc85e26d72ea27e85b68ab9f9a995178222de",
    "verify_up2_tall":
        "602adb95d9ceffa6dc5ada4b3ed85b9275ca8d0a66e54bf788314dfa9bcb3fc3",
    "verify_up2_wide":
        "81ba0851fd6902262660b1e5e0b82b59f17e4b66e2caad0d8c7e306f96d7ea66",
}


def run(args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def graphs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, spec in (("tall", TALL), ("wide", WIDE)):
        paths[name] = root / f"{name}.json"
        assert run(["construct", "random", *spec, "--out", paths[name]]) == 0
    return paths


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _check(name: str, data: bytes) -> None:
    assert name in GOLDEN, f"no digest recorded for {name}"
    assert _digest(data) == GOLDEN[name], f"{name} output changed"


def _check_manifest(name: str, out, **paths) -> None:
    """Digest of ``<out>.manifest.json`` with the run's temporary paths
    (the output and any input file) replaced by fixed placeholders."""
    text = (out.parent / (out.name + ".manifest.json")).read_text(encoding="utf-8")
    for key, path in {"out": out, **paths}.items():
        text = text.replace(str(path), f"<{key}>")
    _check(f"manifest_{name}", text.encode())


def test_graph_files(graphs):
    for name, path in graphs.items():
        _check(f"construct_{name}", path.read_bytes())


@pytest.mark.parametrize("case", sorted(VERIFY))
def test_verify_reports(graphs, tmp_path, case):
    which, args = VERIFY[case]
    out = tmp_path / "rep"
    run(["verify", "--graph", graphs[which], *args, "--out", out])
    _check(case, out.read_bytes())


@pytest.mark.parametrize("case", sorted(BENCH))
def test_bench_reports(tmp_path, case):
    kind, fmt, config = BENCH[case]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "rep"
    args = ["bench", kind, "--config", cfg, "--out", out]
    run(args + (["--format", fmt] if fmt else []))
    _check(case, out.read_bytes())


def test_bench_recovery_with_certificate_file(graphs, tmp_path):
    cert = tmp_path / "cert.json"
    assert run(["verify", "--graph", graphs["tall"], "--s", 2, "--out", cert]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"design": str(graphs["tall"]), "s": 1,
                               "certificate": str(cert), "trials": 3, "seed": 4}))
    out = tmp_path / "rep.csv"
    run(["bench", "recovery", "--config", cfg, "--out", out])
    _check("bench_recovery_certificate_csv", out.read_bytes())


@pytest.mark.parametrize("case", sorted(SOLVE))
def test_solve_outputs(tmp_path, case):
    problem = tmp_path / "prob.json"
    problem.write_text(json.dumps({**SOLVE[case], "graph": SOLVE_GRAPH, "y": SOLVE_Y}))
    out = tmp_path / "sol.json"
    run(["solve", "--problem", problem, "--out", out])
    _check(case, out.read_bytes())


def _unique_dense():
    spec = UNIQUE_GRAPH
    graph = random_left_regular(spec["p"], spec["d"], spec["n"], seed=spec["seed"])
    return DesignMatrix(graph).to_dense()


def test_unique_solve_design_has_distinct_columns():
    dense = _unique_dense()
    assert len({col.tobytes() for col in dense.T}) == dense.shape[1]


@pytest.mark.parametrize("case", sorted(UNIQUE))
def test_solve_unique_outputs(tmp_path, case):
    problem = tmp_path / "prob.json"
    problem.write_text(json.dumps({**UNIQUE[case], "graph": UNIQUE_GRAPH}))
    out = tmp_path / "sol.json"
    assert run(["solve", "--problem", problem, "--out", out]) == 0
    _check(case, out.read_bytes())

    dense = _unique_dense()
    y = np.array(UNIQUE[case]["y"])
    beta = np.array(json.loads(out.read_text())["beta"])
    active = np.flatnonzero(beta)
    inactive = np.setdiff1d(np.arange(dense.shape[1]), active)
    X_A = dense[:, active]
    assert active.size and np.linalg.matrix_rank(X_A) == active.size
    if UNIQUE[case]["estimator"] == "bp":
        # strict dual certificate: z = X_A (X_A^T X_A)^{-1} sign(b_A)
        z = X_A @ np.linalg.solve(X_A.T @ X_A, np.sign(beta[active]))
        assert np.max(np.abs(dense[:, inactive].T @ z)) < 1.0 - 1e-6
        np.testing.assert_allclose(dense @ beta, y, atol=1e-12)
    else:
        # strict inactive KKT: |2 X_j^T (y - X b)| < lam off the support
        lam = UNIQUE[case]["lambda"]
        corr = 2.0 * dense.T @ (y - dense @ beta)
        assert np.max(np.abs(corr[inactive])) < lam * (1.0 - 1e-6)
        np.testing.assert_allclose(corr[active], lam * np.sign(beta[active]),
                                   atol=1e-12)


def test_noise_check_with_graph(graphs, tmp_path):
    out = tmp_path / "nc.json"
    run(["noise-check", "--n", 10, "--trials", 200, "--model", "ar1:0.5",
         "--graph", graphs["wide"], "--seed", 3, "--out", out])
    _check("noise_check_wide", out.read_bytes())


def test_recheck_margins(graphs):
    """Margins of the standalone re-check on failing sampled reports."""
    X = DesignMatrix(load_graph(graphs["wide"]))
    reports = [check_rip1_sampled(X, 3, 0.05, 200, 3),
               check_up2_sampled(X, 6, 100, 4),
               check_kernel_concentration(X, 2, 100, 5),
               nullspace_property_oracle(X, 2)]
    lines = []
    for rep in reports:
        margin = recheck_violation(rep, X=X) if not rep.ok else None
        lines.append(f"{rep.condition} {rep.ok} {rep.worst_ratio!r} {margin!r}")
    _check("recheck_margins", "\n".join(lines).encode())


def test_construct_pv_graph_file(tmp_path):
    out = tmp_path / "pv.json"
    assert run(["construct", "pv", "--q", 4, "--l", 2, "--m", 2, "--h", 2,
                "--out", out]) == 0
    _check("construct_pv", out.read_bytes())
    _check_manifest("construct_pv", out)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_bench_mvse_reports(tmp_path, fmt):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(MVSE))
    out = tmp_path / "rep"
    assert run(["bench", "mvse", "--config", cfg, "--format", fmt,
                "--out", out]) == 0
    _check(f"bench_mvse_{fmt}", out.read_bytes())
    _check_manifest("bench_mvse", out)


def test_manifest_construct(graphs):
    _check_manifest("construct_random", graphs["tall"])


@pytest.mark.parametrize("case", ["verify_expansion_sampled", "verify_up2_csv"])
def test_manifest_verify(graphs, tmp_path, case):
    which, args = VERIFY[case]
    out = tmp_path / "rep"
    run(["verify", "--graph", graphs[which], *args, "--out", out])
    _check_manifest(case, out, graph=graphs[which])


def test_manifest_solve(tmp_path):
    problem = tmp_path / "prob.json"
    problem.write_text(json.dumps({**SOLVE["solve_bp"], "graph": SOLVE_GRAPH,
                                   "y": SOLVE_Y}))
    out = tmp_path / "sol.json"
    run(["solve", "--problem", problem, "--out", out])
    _check_manifest("solve_bp", out, problem=problem)


@pytest.mark.parametrize("case", ["bench_lasso_ar1_csv", "bench_ols_json"])
def test_manifest_bench(tmp_path, case):
    kind, _, config = BENCH[case]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "rep"
    run(["bench", kind, "--config", cfg, "--out", out])
    _check_manifest(case, out)


def test_manifest_noise_check(graphs, tmp_path):
    out = tmp_path / "nc.json"
    run(["noise-check", "--n", 10, "--trials", 200, "--model", "ar1:0.5",
         "--graph", graphs["wide"], "--seed", 3, "--out", out])
    _check_manifest("noise_check_wide", out, graph=graphs["wide"])

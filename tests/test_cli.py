import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import expander_cs
from expander_cs.cli import _parser, dumps_17g, main
from expander_cs.graphs import matching_graph, save_graph


def run(args):
    return main([str(a) for a in args])


def test_construct_pv_matches_hand_computation(tmp_path):
    out = tmp_path / "g.json"
    assert run(["construct", "pv", "--q", 3, "--l", 2, "--m", 2, "--h", 2,
                "--out", out]) == 0
    obj = json.loads(out.read_text())
    assert (obj["p"], obj["n"], obj["d"]) == (9, 27, 3)
    assert 14 in obj["neighbors"][3]                 # f = x at y = 1
    m1 = tmp_path / "g1.json"
    run(["construct", "pv", "--q", 3, "--l", 2, "--m", 1, "--h", 2, "--out", m1])
    assert json.loads(m1.read_text())["neighbors"][4] == [1, 5, 6]
    manifest = json.loads((tmp_path / "g.json.manifest.json").read_text())
    assert manifest["command"] == "construct"
    assert manifest["params"]["q"] == 3


def test_construct_random_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["construct", "random", "--p", 10, "--d", 3, "--n", 12, "--seed", 5, "--out", a])
    run(["construct", "random", "--p", 10, "--d", 3, "--n", 12, "--seed", 5, "--out", b])
    assert a.read_bytes() == b.read_bytes()


def test_verify_exit_codes(tmp_path):
    good = tmp_path / "good.json"
    run(["construct", "random", "--p", 6, "--d", 2, "--n", 40, "--seed", 1,
         "--out", good])
    code = run(["verify", "--graph", good, "--s", 1, "--eps", 0.125,
                "--mode", "exhaustive", "--out", tmp_path / "rep.json"])
    assert code == 0
    rep = json.loads((tmp_path / "rep.json").read_text())
    assert list(rep.keys()) == ["condition", "ok", "worst_ratio", "witness",
                                "trials", "seed"]
    # overlapping graph fails at s=2 and exits 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"p": 2, "n": 2, "d": 2, "provenance": "x",
                               "neighbors": [[0, 1], [0, 1]]}))
    assert run(["verify", "--graph", bad, "--s", 2, "--eps", 0.125,
                "--mode", "exhaustive"]) == 1


def test_verify_other_checks(tmp_path):
    g = tmp_path / "g.json"
    run(["construct", "random", "--p", 8, "--d", 3, "--n", 30, "--seed", 2,
         "--out", g])
    assert run(["verify", "--graph", g, "--check", "rip1", "--s", 2,
                "--trials", 200]) in (0, 1)
    assert run(["verify", "--graph", g, "--check", "nsp", "--s", 1]) in (0, 1)


def test_verify_nsp_unbounded_serializes_null_ratio(tmp_path):
    # duplicate columns make the LP unbounded at s=2; the report must still
    # serialize (worst_ratio null) and exit 1
    dup = tmp_path / "dup.json"
    dup.write_text(json.dumps({"p": 3, "n": 4, "d": 2, "provenance": "dup",
                               "neighbors": [[0, 1], [0, 1], [2, 3]]}))
    out = tmp_path / "nsp.json"
    assert run(["verify", "--graph", dup, "--check", "nsp", "--s", 2,
                "--out", out]) == 1
    rep = json.loads(out.read_text())
    assert rep["ok"] is False and rep["worst_ratio"] is None


def test_solve_lasso_problem_file(tmp_path):
    problem = tmp_path / "prob.json"
    problem.write_text(json.dumps({
        "estimator": "lasso",
        "graph": {"kind": "matching", "n": 2},
        "y": [3.0, 0.1],
        "lambda": 1.0,
    }))
    out = tmp_path / "sol.json"
    assert run(["solve", "--problem", problem, "--out", out]) == 0
    sol = json.loads(out.read_text())
    assert sol["beta"] == [2.5, 0.0]
    assert sol["converged"] is True


def test_solve_bp_and_dantzig(tmp_path):
    for est, expected in (("bp", [2.0, -1.0]), ("dantzig", [1.5, -0.5])):
        problem = tmp_path / f"{est}.json"
        problem.write_text(json.dumps({
            "estimator": est,
            "graph": {"kind": "matching", "n": 2},
            "y": [2.0, -1.0],
            "lambda": 0.5,
        }))
        out = tmp_path / f"{est}_sol.json"
        assert run(["solve", "--problem", problem, "--out", out]) == 0
        sol = json.loads(out.read_text())
        np.testing.assert_allclose(sol["beta"], expected, atol=1e-8)


def test_solve_bp_solver_failure_exits_1_without_traceback(tmp_path, capsys):
    # n > p: a generic y is not in the range of X, so basis pursuit must fail
    from expander_cs.rng import gaussians

    problem = tmp_path / "bp.json"
    problem.write_text(json.dumps({
        "estimator": "bp",
        "graph": {"kind": "random", "p": 12, "d": 4, "n": 80, "seed": 2},
        "y": gaussians(3, 80).tolist(),
    }))
    out = tmp_path / "sol.json"
    capsys.readouterr()
    assert run(["solve", "--problem", problem, "--out", out]) == 1
    sol = json.loads(out.read_text())
    assert sol["estimator"] == "bp" and "not in the range" in sol["error"]
    assert "Traceback" not in capsys.readouterr().err


def test_noise_check_json_contract(tmp_path, capsys):
    assert run(["noise-check", "--n", 100, "--sigma", 1.0, "--t", 1.0,
                "--trials", 400, "--seed", 3, "--model", "iid"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert list(out.keys()) == ["frequency", "bound", "pass"]
    assert run(["noise-check", "--n", 50, "--trials", 200, "--model",
                "ar1:0.5"]) == 0


def test_bench_lasso_csv_and_manifest(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "design": {"kind": "matching", "n": 30},
        "target": {"kind": "exact-sparse", "s": 2},
        "noise": {"sigma": 1.0, "model": "iid"},
        "lambda_multiple": 6.0,
        "trials": 10,
        "seed": 4,
    }))
    out = tmp_path / "report.csv"
    code = run(["bench", "lasso", "--config", cfg, "--out", out])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == ("trial,check,event,converged,lhs,rhs,holds,"
                        "pred_error,offsupport_mass")
    assert len(lines) == 1 + 10 * 3
    manifest = json.loads((tmp_path / "report.csv.manifest.json").read_text())
    assert manifest["params"]["config"]["trials"] == 10
    assert manifest["version"]
    # identical config + seed: byte-identical report
    out2 = tmp_path / "report2.csv"
    run(["bench", "lasso", "--config", cfg, "--out", out2])
    assert out.read_bytes() == out2.read_bytes()


def test_bench_json_format(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "design": {"kind": "matching", "n": 20},
        "target": {"kind": "exact-sparse", "s": 1},
        "noise": {"sigma": 1.0, "model": "iid"},
        "lambda_multiple": 6.0,
        "trials": 4,
        "seed": 6,
    }))
    out = tmp_path / "report.json"
    assert run(["bench", "lasso", "--config", cfg, "--format", "json",
                "--out", out]) == 0
    obj = json.loads(out.read_text())
    assert set(obj.keys()) == {"params", "rows", "pass_fractions",
                               "event_frequency", "flagged"}
    assert len(obj["rows"]) == 4 * 3


def test_noise_check_with_graph_file(tmp_path, capsys):
    g = tmp_path / "g.json"
    run(["construct", "random", "--p", 50, "--d", 4, "--n", 25, "--seed", 7,
         "--out", g])
    capsys.readouterr()
    assert run(["noise-check", "--n", 25, "--trials", 300, "--graph", g]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pass"] is True


def test_manifest_alone_reproduces_report(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "design": {"kind": "random", "p": 12, "d": 3, "n": 24, "seed": 9},
        "target": {"kind": "exact-sparse", "s": 2},
        "noise": {"sigma": 1.0, "model": "ar1:0.3"},
        "lambda_multiple": 6.5,
        "trials": 6,
        "seed": 11,
    }))
    out1 = tmp_path / "r1.csv"
    run(["bench", "lasso", "--config", cfg, "--out", out1])
    manifest = json.loads((tmp_path / "r1.csv.manifest.json").read_text())
    cfg2 = tmp_path / "cfg_from_manifest.json"
    cfg2.write_text(json.dumps(manifest["params"]["config"]))
    out2 = tmp_path / "r2.csv"
    run(["bench", "lasso", "--config", cfg2, "--out", out2])
    assert out1.read_bytes() == out2.read_bytes()


def test_bench_recovery_with_inline_certification(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "design": {"kind": "matching", "n": 12},
        "s": 2,
        "trials": 5,
        "seed": 1,
    }))
    assert run(["bench", "recovery", "--config", cfg,
                "--out", tmp_path / "rec.csv"]) == 0


def test_bench_recovery_refuses_a_certificate_of_another_graph(tmp_path, capsys):
    # seeds 0 and 2 give p64/d8/n1536 graphs of the same shape; only seed 0
    # is a (4, 1/8) expander
    g0 = tmp_path / "g0.json"
    run(["construct", "random", "--p", 64, "--d", 8, "--n", 1536, "--seed", 0,
         "--out", g0])
    cert = tmp_path / "cert.json"
    assert run(["verify", "--graph", g0, "--s", 4, "--eps", 0.125,
                "--mode", "exhaustive", "--out", cert]) == 0
    for seed, code in ((0, 0), (2, 2)):
        cfg = tmp_path / f"cfg{seed}.json"
        cfg.write_text(json.dumps({
            "design": {"kind": "random", "p": 64, "d": 8, "n": 1536, "seed": seed},
            "certificate": str(cert), "s": 2, "trials": 2, "seed": 1,
        }))
        capsys.readouterr()
        assert run(["bench", "recovery", "--config", cfg,
                    "--out", tmp_path / f"rec{seed}.csv"]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: expansion certificate does not match this design")
    assert "Traceback" not in err


def test_bench_ols(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "design": {"kind": "matching", "n": 25},
        "s": 2,
        "noise": {"sigma": 1.0, "model": "iid"},
        "trials": 2000,
        "seed": 2,
    }))
    out = tmp_path / "ols.json"
    assert run(["bench", "ols", "--config", cfg, "--out", out]) == 0
    res = json.loads(out.read_text())
    assert res["within_10pct"] is True


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--graph", "x.json", "--s", "2", "--badflag"])
    assert exc.value.code == 2


def test_parser_is_built_once_and_reports_to_the_current_stderr():
    assert _parser() is _parser()
    for argv in (["frobnicate"], ["verify", "--s", "2"]):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2 and "error:" in err.getvalue()


def test_dumps_17g_roundtrips_floats():
    vals = [1 / 3, 2**-53, 1e300, -0.1, 728.3671234567891]
    text = dumps_17g({"v": vals})
    parsed = json.loads(text)
    assert parsed["v"] == vals


def test_construct_pv_rejects_huge_q_before_factoring(tmp_path, capsys):
    code = run(["construct", "pv", "--q", 1000000007, "--l", 2, "--m", 1,
                "--h", 2, "--out", tmp_path / "g.json"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: field order q = 1000000007 exceeds limit 512")


@pytest.mark.parametrize("content", [
    {"p": 1, "n": 2, "d": 0, "provenance": "x", "neighbors": [[]]},
    {"p": 1, "n": 2, "d": 1, "provenance": "x", "neighbors": None},
    [[0, 1], [0, 1]],
])
def test_malformed_graph_file_is_an_error_not_a_traceback(tmp_path, capsys, content):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(content))
    code = run(["verify", "--graph", path, "--s", 1, "--eps", 0.125,
                "--mode", "exhaustive"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_bench_recovery_builds_the_design_once(tmp_path, monkeypatch):
    # without a certificate file the inline certification reuses the graph
    # the design was built from instead of constructing it a second time
    import expander_cs.cli as cli
    built = []
    monkeypatch.setattr(cli, "matching_graph",
                        lambda n: built.append(n) or matching_graph(n))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"design": {"kind": "matching", "n": 12},
                               "s": 2, "trials": 2, "seed": 1}))
    assert run(["bench", "recovery", "--config", cfg,
                "--out", tmp_path / "rec.csv"]) == 0
    assert built == [12]


def test_bench_mvse_needs_no_design(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ps": [12], "s_values": [1], "trials": 2, "n": 64}))
    out = tmp_path / "mvse.csv"
    assert run(["bench", "mvse", "--config", cfg, "--out", out]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "p,s,d,n,alpha,skipped,certified,graph_seed,proxy,bound"
    assert lines[1].startswith("12,1,8,64,1,False,exhaustive,")


def test_bench_mvse_skips_a_row_whose_order_2s_exceeds_p(tmp_path, capsys):
    # p/2 < s < p passes s < p, but the row is certified at order 2 s = 14 > 12
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ps": [12], "s_values": [7], "trials": 2, "n": 64}))
    out = tmp_path / "mvse.json"
    assert run(["bench", "mvse", "--config", cfg, "--format", "json",
                "--out", out]) == 1
    [row] = json.loads(out.read_text())
    assert (row["p"], row["s"], row["skipped"]) == (12, 7, True)
    assert "error:" not in capsys.readouterr().err


def test_verify_csv_writes_null_as_empty_cell(tmp_path, capsys):
    g = tmp_path / "g.json"
    run(["construct", "random", "--p", 12, "--d", 4, "--n", 80, "--seed", 2,
         "--out", g])
    assert run(["verify", "--graph", g, "--s", 2, "--format", "csv"]) == 0
    assert capsys.readouterr().out.split("\n")[:2] == [
        "condition,ok,worst_ratio,trials,seed", "expansion_exhaustive,1,0.875,78,"]


@pytest.mark.parametrize("argv", [
    ["construct", "random", "--p", 4, "--d", 2, "--n", 8, "--format", "csv"],
    ["solve", "--problem", "prob.json", "--format", "json"],
    ["noise-check", "--n", 10, "--format", "json"],
])
def test_format_is_rejected_where_unused(argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2


def test_bench_ols_rejects_csv(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"design": {"kind": "matching", "n": 8}, "trials": 2}))
    with pytest.raises(SystemExit) as exc:
        run(["bench", "ols", "--config", cfg, "--format", "csv"])
    assert exc.value.code == 2


def test_invalid_input_exits_2_not_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"target": {"s": 1}, "trials": 2}))
    assert run(["bench", "lasso", "--config", cfg]) == 2        # no design
    assert run(["bench", "lasso", "--config", tmp_path / "missing.json"]) == 2
    problem = tmp_path / "prob.json"
    problem.write_text(json.dumps({"estimator": "ridge", "y": [1.0],
                                   "graph": {"kind": "matching", "n": 1}}))
    assert run(["solve", "--problem", problem]) == 2
    err = capsys.readouterr().err
    assert err.count("error: ") == 3 and "Traceback" not in err


@pytest.fixture
def tall_graph(tmp_path):
    g = tmp_path / "tall.json"
    run(["construct", "random", "--p", 12, "--d", 4, "--n", 80, "--seed", 2,
         "--out", g])
    return g


@pytest.mark.parametrize("extra", [
    ["--check", "nsp", "--s", 0],
    ["--check", "nsp", "--s", 13],
    *(["--check", check, "--s", 0] for check in ("rip1", "up2", "kernel")),
    *(["--check", check, "--s", 2, "--trials", 0] for check in ("rip1", "up2", "kernel")),
    ["--check", "expansion", "--mode", "sampled", "--s", 13],
    # an eps outside (0, 1) is invalid input too, not a certificate (exit
    # 0) or a refuted bound (exit 1)
    ["--s", 2, "--eps", "nan"],
    ["--s", 2, "--eps", 1.5],
    ["--s", 2, "--eps", -1],
    ["--mode", "sampled", "--s", 2, "--eps", "nan"],
    ["--check", "rip1", "--s", 2, "--eps", "nan"],
])
def test_verify_rejects_order_and_trials_out_of_range(tall_graph, capsys, extra):
    assert run(["verify", "--graph", tall_graph, *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def _bench_lasso_config(**overrides):
    config = {"design": {"kind": "random", "p": 12, "d": 4, "n": 80, "seed": 2},
              "target": {"s": 1}, "lambda_multiple": 6.0, "trials": 2}
    config.update(overrides)
    return config


@pytest.mark.parametrize("kind,config", [
    ("lasso", _bench_lasso_config(trials="5")),
    ("lasso", _bench_lasso_config(trials=True)),
    ("lasso", _bench_lasso_config(trials=0)),
    ("lasso", _bench_lasso_config(lambda_multiple="6")),
    ("lasso", _bench_lasso_config(design={"kind": "random", "p": "12", "d": 4, "n": 80})),
    ("lasso", _bench_lasso_config(noise={"sigma": "1"})),
    ("lasso", _bench_lasso_config(noise={"model": {"kind": "ar1", "rho": [0.5]}})),
    ("lasso", [_bench_lasso_config()]),
    ("dantzig", _bench_lasso_config(seed=1.5)),
    ("recovery", {"design": {"kind": "matching", "n": 4}, "s": "1", "trials": 2}),
    ("ols", _bench_lasso_config(include_estimators=1)),
    ("mvse", {"ps": [12], "s_values": [1], "trials": "2", "n": 64}),
    ("mvse", {"ps": ["12"], "s_values": [1], "trials": 2, "n": 64}),
    ("recovery", {"design": {"kind": "matching", "n": 4}, "s": 1, "trials": 2,
                  "certify": {"s": 2, "eps": math.nan}}),
    # NaN passes every comparison of the correlation checks
    ("ols", {"design": {"kind": "random", "p": 6, "d": 2, "n": 4}, "trials": 5,
             "noise": {"sigma": 1.0, "model": {"kind": "explicit", "corr": [
                 [1, 0.5, 0, 0], [0.5, 1, 0, 0], [0, 0, 1, math.nan], [0, 0, math.nan, 1]]}}}),
])
def test_bench_config_field_types_exit_2(tmp_path, capsys, kind, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run(["bench", kind, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


AS_LIMIT = 768 << 20   # address space of the child: an oversized table cannot fit


def _run_capped(args, tmp_path):
    """Run the CLI in a child process whose address space is capped, so a
    table that escapes its size check fails the test instead of exhausting
    the machine's memory. Returns (exit code, stderr)."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(expander_cs.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "expander_cs.cli", *map(str, args)], env=env, cwd=tmp_path,
        capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (AS_LIMIT, AS_LIMIT)))
    return proc.returncode, proc.stderr


def test_oversized_tables_exit_2_under_a_memory_cap(tmp_path):
    code, err = _run_capped(["construct", "pv", "--q", 3, "--l", 2, "--m", 1, "--h", 2,
                             "--out", "ok.json"], tmp_path)
    assert (code, err) == (0, "")                   # the cap leaves room for a real run
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_bench_lasso_config(
        design={"kind": "random", "p": 1 << 20, "d": 32, "n": 1 << 20})))
    for args, product in (
            (["construct", "pv", "--q", 512, "--l", 2, "--m", 1, "--h", 2], "262144*512"),
            (["construct", "random", "--p", 1 << 20, "--d", 32, "--n", 1 << 20],
             "1048576*32"),
            (["bench", "lasso", "--config", cfg], "1048576*32")):
        code, err = _run_capped([*args, "--out", "g.json"], tmp_path)
        assert code == 2 and "Traceback" not in err
        assert err == f"error: neighbor table p*d = {product} exceeds limit {1 << 24}\n"
    assert not (tmp_path / "g.json").exists()


def test_oversized_designs_exit_2_under_a_memory_cap(tmp_path):
    # each case used to allocate gigabytes and end in a MemoryError traceback
    save_graph(matching_graph(1 << 20), tmp_path / "wide.json")     # p = n = 2**20
    (tmp_path / "far.json").write_text(json.dumps(
        {"p": 2, "n": 1 << 40, "d": 2, "provenance": "far", "neighbors": [[0, 1], [2, 3]]}))
    assert run(["construct", "random", "--p", 60000, "--d", 4, "--n", 30000,
                "--out", tmp_path / "flat.json"]) == 0
    (tmp_path / "cfg.json").write_text(json.dumps(
        {"design": "flat.json", "noise": {"sigma": 0.001}, "lambda_multiple": 1.0,
         "trials": 2}))
    far = "right side n = 1099511627776 exceeds limit 1048576"
    for args, message in (
            (["construct", "random", "--p", 2, "--d", 2, "--n", 1 << 40], far),
            (["verify", "--graph", "far.json", "--s", 1], far),
            (["verify", "--graph", "wide.json", "--s", 1],
             f"expansion bitmasks of {3 << 40} bits exceed limit {1 << 32}"),
            (["verify", "--graph", "wide.json", "--s", 1, "--mode", "sampled"],
             f"expansion bitmasks of {1 << 40} bits exceed limit {1 << 32}"),
            (["verify", "--graph", "flat.json", "--s", 1, "--check", "kernel"],
             "dense design n*p = 30000*60000 exceeds limit 16777216"),
            (["bench", "dantzig", "--config", "cfg.json"],
             "Dantzig LP matrix 2p*4p = 120000*240000 exceeds limit 16777216")):
        assert _run_capped([*args, "--out", "r.json"], tmp_path) == (2, f"error: {message}\n")
    assert not (tmp_path / "r.json").exists()


def test_nonfinite_penalty_exits_2(tmp_path, capsys):
    # lambda = inf used to solve: a null lasso objective reported converged,
    # a NaN oracle lhs that read as a refuted bound, an all-zero Dantzig run
    path = tmp_path / "in.json"
    for estimator in ("lasso", "dantzig"):
        path.write_text(json.dumps({"estimator": estimator, "lambda": math.inf,
                                    "y": [1.0, 0.0], "graph": {"kind": "matching", "n": 2}}))
        assert run(["solve", "--problem", path, "--out", tmp_path / "r.json"]) == 2
    for kind in ("lasso", "dantzig"):
        for multiple in (math.inf, 1e308, math.nan):
            path.write_text(json.dumps(_bench_lasso_config(lambda_multiple=multiple)))
            assert run(["bench", kind, "--config", path, "--out", tmp_path / "r.json"]) == 2
    assert not (tmp_path / "r.json").exists()
    assert capsys.readouterr().err.splitlines() == [f"error: {m}" for m in (
        *["lam must be finite and >= 0, got inf"] * 2,
        "lambda = inf * Lambda is not finite", "lambda = 1e+308 * Lambda is not finite",
        "lasso experiments need lambda >= 6 Lambda",
        "lambda = inf * Lambda is not finite", "lambda = 1e+308 * Lambda is not finite",
        "Dantzig experiments need lambda >= Lambda")]


@pytest.mark.parametrize("field,value", [
    ("eps", None), ("eps", math.nan), ("s", "4"), ("d", True),
])
def test_bench_recovery_certificate_witness_types_exit_2(tmp_path, capsys, field, value):
    design = {"kind": "random", "p": 12, "d": 4, "n": 80, "seed": 2}
    graph, cert = tmp_path / "g.json", tmp_path / "cert.json"
    run(["construct", "random", "--p", 12, "--d", 4, "--n", 80, "--seed", 2,
         "--out", graph])
    assert run(["verify", "--graph", graph, "--s", 2, "--out", cert]) == 0
    report = json.loads(cert.read_text())
    report["witness"][field] = value
    cert.write_text(json.dumps(report))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"design": design, "s": 1, "trials": 2,
                               "certificate": str(cert)}))
    capsys.readouterr()
    assert run(["bench", "recovery", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_bench_recovery_certifies_the_gf17_pv_design(tmp_path):
    # GF(17) l2 m2 h2 has eps = 2/17 < 1/8 at order 4; its 372,521
    # connected subsets fit the default budget, its 288,683,545 subsets
    # of a full scan do not
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"design": {"kind": "pv", "q": 17, "l": 2, "m": 2, "h": 2},
                               "s": 2, "certify": {"s": 4}, "trials": 20, "seed": 0}))
    out = tmp_path / "rec.csv"
    assert run(["bench", "recovery", "--config", cfg, "--out", out]) == 0
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    assert len(rows) == 20
    assert all(row[6] == "1" and float(row[4]) <= 1e-6 for row in rows)


@pytest.mark.parametrize("sigma", ["inf", "1e308"])
def test_non_finite_sigma_is_an_input_error(tmp_path, capsys, sigma):
    # an infinite sigma (``Infinity`` in a config), or one whose Lambda_t
    # overflows, is invalid input (exit 2), not a refuted bound (exit 1),
    # and is refused before numpy can warn
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_bench_lasso_config(
        noise={"sigma": float(sigma), "model": "ar1:0.5"})))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["noise-check", "--n", 10, "--sigma", sigma,
                    "--model", "ar1:0.5"]) == 2
        assert run(["bench", "lasso", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.count("error: ") == 2 and "Traceback" not in err
    assert "Warning" not in err and "y must be finite" not in err


@pytest.mark.parametrize("problem", [
    {"estimator": "lasso", "lambda": "0.3"},
    {"estimator": "dantzig", "lambda": "0.3"},
    {"estimator": "lasso", "lambda": 0.3, "max_iter": 10.5},
    {"estimator": "bp", "y": {"a": 1}},
    {"estimator": "bp", "y": [1.0, "0"]},
])
def test_solve_problem_field_types_exit_2(tmp_path, capsys, problem):
    path = tmp_path / "prob.json"
    path.write_text(json.dumps({"y": [1.0, 0.0], **problem,
                                "graph": {"kind": "matching", "n": 2}}))
    assert run(["solve", "--problem", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    path.write_text(json.dumps([problem]))
    assert run(["solve", "--problem", path]) == 2


def test_verify_nsp_uses_its_own_budget(tmp_path, capsys):
    # the nsp oracle's 10**4 subset/sign pairs, not the expansion budget:
    # C(64, 3) * 8 = 333,312 LPs are refused up front instead of started
    g = tmp_path / "g.json"
    run(["construct", "random", "--p", 64, "--d", 8, "--n", 1536, "--seed", 3,
         "--out", g])
    capsys.readouterr()
    t0 = time.perf_counter()
    code = run(["verify", "--graph", g, "--check", "nsp", "--s", 3,
                "--out", tmp_path / "r.json"])
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: 333312 subset/sign pairs exceed budget 10000")


def test_verify_manifest_records_the_effective_budget(tall_graph, tmp_path):
    for check, budget in (("nsp", 10**4), ("expansion", 10**7)):
        out = tmp_path / f"{check}.json"
        run(["verify", "--graph", tall_graph, "--check", check, "--s", 1, "--out", out])
        manifest = json.loads((tmp_path / f"{check}.json.manifest.json").read_text())
        assert manifest["params"]["budget"] == budget
    out = tmp_path / "given.json"
    run(["verify", "--graph", tall_graph, "--s", 1, "--budget", 50, "--out", out])
    assert json.loads((tmp_path / "given.json.manifest.json").read_text())["params"]["budget"] == 50


@pytest.mark.parametrize("field,value", [
    ("n", 1331.9), ("p", "121"), ("d", True), ("provenance", 7),
    ("neighbors", "bad"), ("neighbor", True), ("neighbor", 3.0),
])
def test_graph_file_field_types_exit_2(tmp_path, capsys, field, value):
    path = tmp_path / "g.json"
    run(["construct", "pv", "--q", 11, "--l", 2, "--m", 2, "--h", 2, "--out", path])
    obj = json.loads(path.read_text())
    if field == "neighbor":
        obj["neighbors"][0][0] = value
    else:
        obj[field] = value
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run(["verify", "--graph", path, "--s", 1]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_nsp_lp_status_is_a_solver_error_not_an_assertion(tall_graph, tmp_path,
                                                         capsys, monkeypatch):
    import expander_cs.verify as verify
    from expander_cs import DesignMatrix, load_graph
    from expander_cs.errors import SolverStatusError
    from expander_cs.solve import LpResult

    monkeypatch.setattr(verify, "lp_solve",
                        lambda lp: LpResult("iteration_limit", None, None, 0))
    X = DesignMatrix.from_graph(load_graph(tall_graph))
    with pytest.raises(SolverStatusError, match="iteration_limit"):
        verify.nullspace_property_oracle(X, 2)
    capsys.readouterr()
    assert run(["verify", "--graph", tall_graph, "--check", "nsp", "--s", 2]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "iteration_limit" in err
    assert "Traceback" not in err

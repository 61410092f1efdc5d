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
from expander_cs.cli import _parser, _prime_power, dumps_17g, main
from expander_cs.errors import CapacityError
from expander_cs.fields import GF, MAX_FIELD_ORDER, is_prime
from expander_cs.graphs import (BipartiteGraph, matching_graph, pv_expander,
                                random_left_regular, save_graph)


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


def test_rerun_over_earlier_outputs_is_byte_identical(tmp_path):
    # every output is rewritten in place: stale longer bytes must not survive
    graph, report, bench, cfg = (tmp_path / name for name in
                                 ("g.json", "r.json", "b.csv", "cfg.json"))
    cfg.write_text(json.dumps(_bench_lasso_config(design=str(graph))))
    commands = [["construct", "pv", "--q", 5, "--l", 2, "--m", 2, "--h", 2, "--out", graph],
                ["verify", "--graph", graph, "--s", 2, "--out", report],
                ["bench", "lasso", "--config", cfg, "--out", bench]]
    outputs = [path.with_name(path.name + tail) for path in (graph, report, bench)
               for tail in ("", ".manifest.json")]
    assert [run(args) for args in commands] == [0, 0, 0]
    first = [path.read_bytes() for path in outputs]
    for stale in ("x" * 100_000, None):
        if stale:
            for path in outputs:
                path.write_text(stale)
        assert [run(args) for args in commands] == [0, 0, 0]
        assert [path.read_bytes() for path in outputs] == first


@pytest.mark.parametrize("out,blocked,message", [
    ("missing/g.json", None, "[Errno 2] No such file or directory: '{}'"),
    (".", None, "[Errno 21] Is a directory: '{}'"),
    ("g.json", "g.json.manifest.json", "[Errno 21] Is a directory: '{}.manifest.json'"),
])
def test_unwritable_out_exits_2(tmp_path, capsys, out, blocked, message):
    if blocked:
        (tmp_path / blocked).mkdir()
    out = tmp_path / out
    assert run(["construct", "pv", "--q", 3, "--l", 2, "--m", 1, "--h", 2, "--out", out]) == 2
    assert capsys.readouterr().err == f"error: {message.format(out)}\n"


@pytest.mark.parametrize("args,g", [
    (["pv", "--q", 7, "--l", 2, "--m", 2, "--h", 2], lambda: pv_expander(GF(7), 2, 2, 2)),
    (["random", "--p", 40, "--d", 5, "--n", 90, "--seed", 3],
     lambda: random_left_regular(40, 5, 90, seed=3)),
])
def test_construct_out_is_save_graph(tmp_path, args, g):
    assert run(["construct", *args, "--out", tmp_path / "cli.json"]) == 0
    save_graph(g(), tmp_path / "lib.json")
    assert (tmp_path / "cli.json").read_bytes() == (tmp_path / "lib.json").read_bytes()


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


def reference_dumps_17g(obj, indent: int = 0) -> str:
    """``dumps_17g`` before it dispatched on exact types: every scalar
    through ``json.dumps`` or the float branch, behind ``isinstance`` tests."""
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  {json.dumps(str(k))}: {reference_dumps_17g(v, indent + 2)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        if all(isinstance(v, (int, float, bool)) or v is None for v in seq):
            return "[" + ", ".join(reference_dumps_17g(v) for v in seq) + "]"
        items = [pad + "  " + reference_dumps_17g(v, indent + 2) for v in seq]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return json.dumps(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return "null"
        return f"{obj:.17g}"
    if isinstance(obj, np.ndarray):
        return reference_dumps_17g(obj.tolist(), indent)
    if isinstance(obj, (np.integer, np.floating, np.bool_)):
        return reference_dumps_17g(obj.item(), indent)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def test_dumps_17g_keeps_float_subclasses_inline():
    # np.float64 is a float subclass, so a list of them stays on one line;
    # np.int64 is no int subclass, so a list of them takes one line each
    floats = [np.float64(0.5), np.float64(-0.0), np.float64("nan")]
    ints = [np.int64(3), np.int64(-4)]
    assert dumps_17g(floats) == reference_dumps_17g(floats) == "[0.5, -0, null]"
    assert dumps_17g({"v": ints}) == reference_dumps_17g({"v": ints}) == \
        '{\n  "v": [\n    3,\n    -4\n  ]\n}'


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


def reference_prime_power(q):
    """q = r**k with the least divisor r tested for primality, the oracle for
    ``_prime_power``, which relies on that divisor being prime."""
    if q > MAX_FIELD_ORDER:
        raise CapacityError(f"field order q = {q} exceeds limit {MAX_FIELD_ORDER}")
    for r in range(2, q + 1):
        if q % r == 0:
            if not is_prime(r):
                break
            k = 0
            t = q
            while t % r == 0:
                t //= r
                k += 1
            if t == 1:
                return r, k
            break
    raise ValueError(f"{q} is not a prime power")


def _outcome(f, q):
    try:
        return f(q)
    except (CapacityError, ValueError) as exc:
        return type(exc), str(exc)


def test_prime_power_matches_the_primality_tested_reference():
    for q in range(-2, 601):
        assert _outcome(_prime_power, q) == _outcome(reference_prime_power, q), q


@pytest.mark.parametrize("q,message", [
    (6, "6 is not a prime power"), (513, "field order q = 513 exceeds limit 512")])
def test_construct_pv_rejects_q_that_is_no_field_order(tmp_path, capsys, q, message):
    assert run(["construct", "pv", "--q", q, "--l", 2, "--m", 1, "--h", 2,
                "--out", tmp_path / "g.json"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "g.json").exists()


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


def test_bench_mvse_keeps_each_s_of_a_repeated_p(tmp_path):
    # s_values are matched to ps by place: a p listed twice used to get
    # its last s in both rows
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ps": [12, 12], "s_values": [1, 2], "trials": 2,
                               "n": 64, "d": 4}))
    out = tmp_path / "mvse.json"
    run(["bench", "mvse", "--config", cfg, "--format", "json", "--out", out])
    assert [(row["p"], row["s"]) for row in json.loads(out.read_text())] == [(12, 1), (12, 2)]


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


@pytest.mark.parametrize("kind", ["lasso", "dantzig"])
@pytest.mark.parametrize("s", [17, -1])
def test_compressible_sparsity_outside_0_p_exits_2(tmp_path, capsys, kind, s):
    # the support range(s) indexed past p = 16, and s = -1 gave an empty one
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_bench_lasso_config(
        design={"kind": "random", "p": 16, "d": 4, "n": 80, "seed": 2},
        target={"kind": "compressible", "s": s})))
    assert run(["bench", kind, "--config", cfg]) == 2
    assert capsys.readouterr().err == f"error: target sparsity s = {s} is outside [0, p = 16]\n"


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
    # n*p = 2**24 passes the dense cap, but the kernel's p x p V does not
    assert run(["construct", "random", "--p", 16384, "--d", 8, "--n", 1024,
                "--out", tmp_path / "wide_kernel.json"]) == 0
    (tmp_path / "cfg.json").write_text(json.dumps(
        {"design": "flat.json", "noise": {"sigma": 0.001}, "lambda_multiple": 1.0,
         "trials": 2}))
    far = "right side n = 1099511627776 exceeds limit 1048576"
    for args, message in (
            (["construct", "random", "--p", 2, "--d", 2, "--n", 1 << 40], far),
            (["verify", "--graph", "far.json", "--s", 1], far),
            (["verify", "--graph", "flat.json", "--s", 1, "--check", "kernel"],
             "dense design n*p = 30000*60000 exceeds limit 16777216"),
            (["verify", "--graph", "wide_kernel.json", "--s", 1, "--check", "kernel"],
             "kernel basis p*p = 16384*16384 exceeds limit 16777216"),
            (["bench", "dantzig", "--config", "cfg.json"],
             "Dantzig LP matrix 2p*4p = 120000*240000 exceeds limit 16777216")):
        assert _run_capped([*args, "--out", "r.json"], tmp_path) == (2, f"error: {message}\n")
    assert not (tmp_path / "r.json").exists()
    for args in (["--s", 1], ["--s", 2], ["--s", 1, "--mode", "sampled"]):
        # both checks count from the table and certify the matching
        assert _run_capped(["verify", "--graph", "wide.json", *args, "--out", "r.json"],
                           tmp_path) == (0, "")
        report = json.loads((tmp_path / "r.json").read_text())
        assert (report["ok"], report["worst_ratio"]) == (True, 1.0)


def test_wide_design_monte_carlo_runs_under_a_memory_cap(tmp_path):
    # p = 2**20 columns on n = 16 rows: a noise block holds 1024 rows of n,
    # and a whole block's stacked X^T product is (1024, p), 8 GB; the
    # (128, p) and (40, p) stacks of these runs used to end in a MemoryError
    # traceback
    p = 1 << 20
    save_graph(BipartiteGraph(p, 16, 1, (np.arange(p) % 16)[:, None], "wide"),
               tmp_path / "wide.json")
    (tmp_path / "cfg.json").write_text(json.dumps(
        {"design": "wide.json", "target": {"s": 1}, "lambda_multiple": 6.0, "trials": 40}))
    for args in (["noise-check", "--graph", "wide.json", "--n", 16, "--trials", 128],
                 ["bench", "lasso", "--config", "cfg.json"]):
        code, err = _run_capped([*args, "--out", "r.json"], tmp_path)
        assert code == 0 and "Traceback" not in err


def test_an_oversized_graph_header_exits_2(tmp_path, capsys):
    # the writer's layout with a header past the table cap over one entry
    path = tmp_path / "big.json"
    save_graph(matching_graph(1), path)
    path.write_text(path.read_text().replace('"p": 1,', '"p": 16777217,'))
    assert run(["verify", "--graph", path, "--s", 1, "--out", tmp_path / "r.json"]) == 2
    assert capsys.readouterr().err == (
        "error: neighbor table p*d = 16777217*1 exceeds limit 16777216\n")
    assert not (tmp_path / "r.json").exists()


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
def test_a_graph_piped_to_stdin_is_read(tmp_path):
    # a pipe can be read once, so a graph not in the writer's layout must
    # still reach the json decoder whole
    text = json.dumps({"p": 2, "n": 4, "d": 2, "provenance": "x", "neighbors": [[0, 1], [2, 3]]})
    env = {**os.environ, "PYTHONPATH": str(Path(expander_cs.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "expander_cs.cli", "verify", "--graph", "/dev/stdin", "--s", "1",
         "--out", "r.json"], input=text, env=env, cwd=tmp_path, capture_output=True, text=True,
        timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads((tmp_path / "r.json").read_text())["ok"] is True


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


def _recovery_with_edited_certificate(tmp_path, capsys, edit, graph=(12, 4, 80, 2),
                                      verify_code=0):
    """Exit code and stderr of ``bench recovery`` at s = 1 on the graph
    ``random(p, d, n, seed)``, with its order-2 verify report (which exits
    ``verify_code``), changed by ``edit``, as the certificate."""
    p, d, n, seed = graph
    path, cert = tmp_path / "g.json", tmp_path / "cert.json"
    run(["construct", "random", "--p", p, "--d", d, "--n", n, "--seed", seed,
         "--out", path])
    assert run(["verify", "--graph", path, "--s", 2, "--out", cert]) == verify_code
    report = json.loads(cert.read_text())
    edit(report)
    cert.write_text(json.dumps(report))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"design": str(path), "s": 1, "trials": 3,
                               "certificate": str(cert)}))
    capsys.readouterr()
    return run(["bench", "recovery", "--config", cfg]), capsys.readouterr().err


@pytest.mark.parametrize("field,value", [
    ("eps", None), ("eps", math.nan), ("s", "4"), ("d", True),
])
def test_bench_recovery_certificate_witness_types_exit_2(tmp_path, capsys, field, value):
    code, err = _recovery_with_edited_certificate(
        tmp_path, capsys, lambda report: report["witness"].update({field: value}))
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("field,value", [
    ("ok", "false"), ("ok", 1), ("trials", "3"), ("condition", 5),
    ("worst_ratio", "1"), ("witness", [1]), ("seed", 1.5),
])
def test_bench_recovery_certificate_field_types_exit_2(tmp_path, capsys, field, value):
    # the report's own fields are read with their JSON types, not coerced:
    # bool("false") used to certify the design
    code, err = _recovery_with_edited_certificate(
        tmp_path, capsys, lambda report: report.update({field: value}))
    assert code == 2
    assert err.startswith(f"error: {field!r} must be of type ") and err.count("\n") == 1


@pytest.mark.parametrize("ok", [False, "false", 1, 0, None, "true", [True]])
def test_a_refuted_certificate_never_certifies(tmp_path, capsys, ok):
    # random(30, 3, 30, 0) is refuted at order 2 (witness [0, 1] has 4
    # neighbours); no value of "ok" but true lets a recovery run
    def edit(report):
        assert report["witness"]["subset"] == [0, 1]
        report["ok"] = ok
    code, err = _recovery_with_edited_certificate(tmp_path, capsys, edit, (30, 3, 30, 0), 1)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


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


BIG = 10**400   # a JSON integer that float() cannot convert


@pytest.mark.parametrize("problem", [
    {"estimator": "lasso", "lambda": "0.3"},
    {"estimator": "dantzig", "lambda": "0.3"},
    {"estimator": "lasso", "lambda": 0.3, "max_iter": 10.5},
    {"estimator": "bp", "y": {"a": 1}},
    {"estimator": "bp", "y": [1.0, "0"]},
    # numbers float() cannot convert, and a bool, used to end in a traceback
    # or be read as 1.0
    {"estimator": "lasso", "lambda": BIG},
    {"estimator": "dantzig", "lambda": BIG},
    {"estimator": "bp", "y": [BIG, 0.0]},
    {"estimator": "bp", "y": [True, 0.0]},
])
def test_solve_problem_field_types_exit_2(tmp_path, capsys, problem):
    path = tmp_path / "prob.json"
    path.write_text(json.dumps({"y": [1.0, 0.0], **problem,
                                "graph": {"kind": "matching", "n": 2}}))
    assert run(["solve", "--problem", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {list(problem)[-1]!r} must be of type ")
    assert err.count("\n") == 1
    path.write_text(json.dumps([problem]))
    assert run(["solve", "--problem", path]) == 2


@pytest.mark.parametrize("kind,config,field", [
    ("lasso", _bench_lasso_config(noise={"sigma": BIG}), "sigma"),
    ("lasso", _bench_lasso_config(noise={"model": {"kind": "explicit", "corr": [[BIG]]}},
                                  design={"kind": "matching", "n": 1}), "corr"),
    ("lasso", _bench_lasso_config(noise={"model": {"kind": "explicit", "corr": [[True]]}},
                                  design={"kind": "matching", "n": 1}), "corr"),
    ("lasso", _bench_lasso_config(target={"kind": ["x"]}), "kind"),
    ("dantzig", _bench_lasso_config(lambda_multiple=BIG), "lambda_multiple"),
    ("mvse", {"ps": [-4], "trials": 2, "n": 64}, "ps"),
    ("mvse", {"ps": [0], "trials": 2, "n": 64}, "ps"),
    ("mvse", {"ps": [12], "s_exponent": 1e308, "trials": 2, "n": 64}, "s_exponent"),
    ("mvse", {"ps": [12], "s_exponent": math.nan, "trials": 2, "n": 64}, "s_exponent"),
    ("mvse", {"ps": [12, 20], "s_values": [1], "trials": 2, "n": 64}, "s_values"),
    ("mvse", {"trials": 2}, "ps"),
    ("recovery", {"design": {"kind": "matching", "n": 4}, "trials": 2}, "s"),
    ("lasso", _bench_lasso_config(design={"kind": "random", "p": 12, "n": 80}), "d"),
])
def test_bench_config_errors_name_the_field(tmp_path, capsys, kind, config, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run(["bench", kind, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"'{field}'" in err and "Traceback" not in err


@pytest.mark.parametrize("args", [["--t", -1], ["--t", "nan"], ["--n", 1]])
def test_noise_check_at_sigma_0_validates_n_and_t(capsys, args):
    assert run(["noise-check", "--n", 10, "--sigma", 0, *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    for t in (1, 1e10):                 # bound 1, also where the tail underflows
        assert run(["noise-check", "--n", 10, "--sigma", 0, "--t", t]) == 0
        assert capsys.readouterr().out == '{\n  "frequency": 1,\n  "bound": 1,\n  "pass": true\n}\n'


def test_kernel_check_of_a_tall_design_under_a_memory_cap(tmp_path):
    # a full SVD of the 65536 x 16 design would build a 32 GiB U
    assert run(["construct", "random", "--p", 16, "--d", 2, "--n", 65536,
                "--out", tmp_path / "tall.json"]) == 0
    code, err = _run_capped(["verify", "--graph", "tall.json", "--check", "kernel",
                             "--s", 1, "--out", "r.json"], tmp_path)
    assert code in (0, 1) and err == ""
    assert json.loads((tmp_path / "r.json").read_text())["condition"] == "kernel_concentration"


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
    X = DesignMatrix(load_graph(tall_graph))
    with pytest.raises(SolverStatusError, match="iteration_limit"):
        verify.nullspace_property_oracle(X, 2)
    capsys.readouterr()
    assert run(["verify", "--graph", tall_graph, "--check", "nsp", "--s", 2]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "iteration_limit" in err
    assert "Traceback" not in err

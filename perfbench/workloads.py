"""The two benchmark workloads: inputs made from a seed, op lists, checks.

Every input file is written by the benchmark (configs) or by the program's
own ``construct`` command during set-up (graphs); the program under test
only ever sees files. One op is one user-visible result: one or two CLI
commands run in process through ``expander_cs.cli.main``, with exit codes
and output files checked against ``reference.json`` or against the
command's own pass/fail contract.

Op lists are fixed per (workload, seed) and are replayed as whole passes,
so every run measures the same mix. Each op's latency is the best over all
executions of its input (ops with the same ``key`` do the same work), and
the median and tail are taken over those per-op bests; the mixes are
chosen so that both fall inside one op kind, never on the step between two
kinds (see the per-workload comments).
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# the certified working instance of the test suite, and the certify workload
CERT_P, CERT_D, CERT_N, CERT_S, CERT_EPS = 64, 8, 1536, 4, 0.125
CERTIFY_POOL = 100          # graph seeds 0..99 have reference verdicts

# pv_construct: (q, l) specs over prime and extension fields, all at m=2, h=2;
# each op verifies the constructed graph exhaustively at order PV_S
PV_SPECS = ((7, 2), (8, 2), (9, 2), (11, 2), (13, 2), (16, 2), (7, 3))
PV_M, PV_H, PV_S = 2, 2, 2

RECOVERY_TOL = 1e-6


class SetupError(RuntimeError):
    """The workload's inputs could not be prepared."""


def import_program(root: Path):
    """Import ``expander_cs`` from ``root/src`` and nowhere else."""
    src = root / "src"
    if not (src / "expander_cs" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {src}")
    sys.path.insert(0, str(src))
    import expander_cs
    import expander_cs.cli  # noqa: F401  (the entry point every op drives)
    if Path(expander_cs.__file__).resolve().parent != (src / "expander_cs").resolve():
        raise SystemExit(f"perfbench: expander_cs was imported from {expander_cs.__file__}")
    return expander_cs


def neighbors_digest(neighbors) -> str:
    text = json.dumps([list(nb) for nb in neighbors], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference(here: Path) -> dict:
    return json.loads((here / "reference.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

@dataclass
class Op:
    kind: str
    key: str                                    # equal keys: identical work
    commands: list[list[str]]
    expect: list[int]                           # exit code of each command
    check: Callable[[list[str]], str | None]    # stderr texts -> error or None
    outputs: list[Path]                         # must repeat byte for byte


def call(cli, argv: list[str]) -> tuple[int | None, str]:
    """Run one CLI command in process; returns (exit code, stderr text).
    A raised exception yields code None with its traceback as stderr."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the client records any crash as a failed op
        code = None
        err.write(traceback.format_exc())
    return code, err.getvalue()


def run_op(cli, op: Op, clock) -> tuple[float, str | None]:
    """Run the op's commands in order; returns (latency in s, error or None).
    Only the commands are timed; the output check runs afterwards."""
    errs = []
    failure = None
    t0 = clock()
    for argv, want in zip(op.commands, op.expect):
        code, err = call(cli, argv)
        errs.append(err)
        if code != want:
            failure = f"`{' '.join(argv[:2])}` exited {code}, expected {want}: {err.strip()[-300:]}"
            break
    latency = clock() - t0
    if failure is None:
        try:
            failure = op.check(errs)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            failure = f"output check raised {exc!r}"
    return latency, failure


def digest_outputs(op: Op) -> str:
    h = hashlib.sha256()
    for path in op.outputs:
        h.update(path.read_bytes())
    return h.hexdigest()


def _setup_cmd(cli, argv: list[str], want: int = 0) -> None:
    code, err = call(cli, argv)
    if code != want:
        raise SetupError(f"`{' '.join(argv)}` exited {code}, expected {want}: {err.strip()[-300:]}")


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _check_expansion_report(path: Path, expected: dict, graph: Path) -> str | None:
    rep = json.loads(path.read_text(encoding="utf-8"))
    if rep["condition"] != "expansion_exhaustive":
        return f"condition {rep['condition']!r}"
    if rep["ok"] != expected["ok"]:
        return f"verdict {rep['ok']}, reference {expected['ok']}"
    if rep["worst_ratio"] is None or abs(rep["worst_ratio"] - expected["worst_ratio"]) > 1e-12:
        return f"worst_ratio {rep['worst_ratio']!r}, reference {expected['worst_ratio']!r}"
    if not rep["ok"]:
        # a refutation must carry a witness that really violates the bound
        w = rep["witness"]
        nbrs = json.loads(graph.read_text(encoding="utf-8"))["neighbors"]
        joined = set()
        for i in w["subset"]:
            joined.update(nbrs[i])
        d = len(nbrs[0])
        if len(joined) != w["neighbor_count"] or \
                len(joined) >= (1.0 - w["eps"]) * d * len(w["subset"]):
            return f"witness {w['subset']} does not violate expansion"
    return None


def _check_bench_csv(path: Path, trials: int, recovery: bool) -> str | None:
    lines = path.read_text(encoding="utf-8").splitlines()
    if lines[0] != "trial,check,event,converged,lhs,rhs,holds,pred_error,offsupport_mass":
        return f"unexpected CSV header {lines[0]!r}"
    seen = set()
    for line in lines[1:]:
        trial, check, event, converged, lhs, _, holds, _, _ = line.split(",")
        seen.add(int(trial))
        if converged != "1":
            return f"trial {trial} flagged (not converged)"
        if event == "1" and holds != "1":
            return f"trial {trial}: {check} does not hold on an event trial"
        if recovery and not float(lhs) <= RECOVERY_TOL:
            return f"trial {trial}: recovery error {lhs} > {RECOVERY_TOL}"
    if seen != set(range(trials)):
        return f"report covers trials {sorted(seen)[:5]}..., expected 0..{trials - 1}"
    return None


def _check_summary(stderr: str) -> str | None:
    summary = json.loads(stderr)
    if summary["ok"] is not True or summary["flagged"] != 0:
        return f"bench summary ok={summary['ok']} flagged={summary['flagged']}"
    return None


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _graph_args(seed: int, out: Path) -> list[str]:
    return ["construct", "random", "--p", str(CERT_P), "--d", str(CERT_D),
            "--n", str(CERT_N), "--seed", str(seed), "--out", str(out)]


def _certify_op(workdir: Path, tag: str, graph: Path, expected: dict) -> Op:
    out = workdir / f"verify-{tag}.json"
    return Op(
        "pass" if expected["ok"] else "refute", graph.name,
        [["verify", "--graph", str(graph), "--mode", "exhaustive", "--s", str(CERT_S),
          "--eps", str(CERT_EPS), "--out", str(out)]],
        [0 if expected["ok"] else 1],
        lambda errs: _check_expansion_report(out, expected, graph),
        [out])


def _pv_op(workdir: Path, tag: str, q: int, l: int, expected: dict) -> Op:
    graph = workdir / f"pv-{tag}.json"
    out = workdir / f"pv-verify-{tag}.json"

    def check(errs):
        g = json.loads(graph.read_text(encoding="utf-8"))
        if (g["p"], g["n"], g["d"]) != (expected["p"], expected["n"], expected["d"]):
            return f"pv q={q} l={l}: shape {(g['p'], g['n'], g['d'])}"
        if neighbors_digest(g["neighbors"]) != expected["neighbors_sha256"]:
            return f"pv q={q} l={l}: neighbor table differs from the reference"
        return _check_expansion_report(out, expected, graph)

    return Op(
        f"GF({q}) l={l}", f"{q},{l}",
        [["construct", "pv", "--q", str(q), "--l", str(l), "--m", str(PV_M),
          "--h", str(PV_H), "--out", str(graph)],
         ["verify", "--graph", str(graph), "--mode", "exhaustive", "--s", str(PV_S),
          "--eps", str(CERT_EPS), "--out", str(out)]],
        [0, 0 if expected["ok"] else 1],
        check, [graph, out])


# ops per pass of each kind, from cheapest to dearest (best latencies on a
# 2-vCPU Xeon guest): refutations within the triples 7-25 ms, GF(7) l=2
# 16 ms, GF(8) 32 ms, GF(9) and GF(11) 39 ms, GF(13) 71 ms, GF(7) l=3
# 118 ms, GF(16) 157 ms, full scans 430-450 ms. Of the 42 ops, GF(9) and
# GF(11) take ranks 9-28 and GF(11) alone 9-26 or 11-28, so the median
# (rank 21) is GF(11) in either order; GF(13) takes ranks 29-38 and holds
# the p76 tail (rank 32, the highest percentile with 10 ops beyond). The
# longest ops are kept few: on a shared host the best of a long op's
# executions spreads more from run to run than that of a short one.
EARLY_GRAPHS = 4
PV_MIX = {(7, 2): 2, (8, 2): 2, (9, 2): 2, (11, 2): 18, (13, 2): 10, (7, 3): 2, (16, 2): 1}


def setup_certify(ec, seed: int, workdir: Path, ref: dict):
    """42 expansion certificates in seeded order: one op on a random graph
    that passes only after the full 679,120-subset scan at s=4, 4 random
    graphs refuted within the triples, and 37 `construct pv` + `verify
    --s 2` ops over the PV_MIX specs. Graphs refuted among the quadruples
    are left out: their cost depends on where the violation sits, which
    would make the run's work depend on the seed. The pv specs are fixed,
    so the seed sets only their place in the order. The warm-up runs one
    refutation and each pv spec once."""
    table, pv_table = ref["certify"], ref["pv_construct"]
    pool = {k: sorted(int(s) for s, e in table.items() if e["kind"] == k)
            for k in ("pass", "early")}
    rng = random.Random(f"certify:{seed}")
    graphs = rng.sample(pool["pass"], 1) + rng.sample(pool["early"], EARLY_GRAPHS)
    warm_seeds = [pool["early"][0]]
    for gseed in warm_seeds + graphs:
        graph = workdir / f"graph-{gseed}.json"
        if not graph.exists():
            _setup_cmd(ec.cli, _graph_args(gseed, graph))
    warm = [_certify_op(workdir, f"warm{gseed}", workdir / f"graph-{gseed}.json",
                        table[str(gseed)]) for gseed in warm_seeds]
    warm += [_pv_op(workdir, f"warm{q}-{l}", q, l, pv_table[f"{q},{l}"]) for q, l in PV_SPECS]
    inputs = [("graph", g) for g in graphs] + [
        ("pv", spec) for spec, count in PV_MIX.items() for _ in range(count)]
    rng.shuffle(inputs)
    ops = []
    for i, (kind, x) in enumerate(inputs):
        if kind == "graph":
            ops.append(_certify_op(workdir, str(i), workdir / f"graph-{x}.json", table[str(x)]))
        else:
            q, l = x
            ops.append(_pv_op(workdir, str(i), q, l, pv_table[f"{q},{l}"]))
    return warm, ops


def _certified_instance(ec, workdir: Path, ref: dict) -> tuple[Path, Path]:
    """Construct and certify graphs seed by seed, as the test suite's fixture
    does, until one passes the exhaustive (4, 1/8) check."""
    design, cert = workdir / "design.json", workdir / "certificate.json"
    want = ref["instance"]
    for gseed in range(want["seed"] + 1):
        _setup_cmd(ec.cli, _graph_args(gseed, design))
        code, err = call(ec.cli, ["verify", "--graph", str(design), "--mode", "exhaustive",
                                  "--s", str(CERT_S), "--eps", str(CERT_EPS), "--out", str(cert)])
        if code == 0:
            break
        if code != 1:
            raise SetupError(f"certifying graph {gseed} exited {code}: {err.strip()[-300:]}")
    problem = _check_expansion_report(cert, {"ok": True, "worst_ratio": want["worst_ratio"]}, design)
    if code != 0 or gseed != want["seed"] or problem:
        raise SetupError(f"certified instance is graph {gseed}, reference {want['seed']}: {problem}")
    return design, cert


def _bench_op(workdir: Path, tag: str, kind: str, config: dict) -> Op:
    cfg, out = workdir / f"{kind}-{tag}.json", workdir / f"{kind}-{tag}.csv"
    cfg.write_text(json.dumps(config, indent=1), encoding="utf-8")
    recovery = kind == "recovery"

    def check(errs):
        return _check_bench_csv(out, config["trials"], recovery) or \
            (None if recovery else _check_summary(errs[0]))

    return Op(kind, f"{kind}:{config['seed']}",
              [["bench", kind, "--config", str(cfg), "--out", str(out)]], [0], check, [out])


LASSO_TRIALS, DANTZIG_TRIALS, RECOVERY_TRIALS = 20, 10, 4
# ops per pass of each kind. Best latencies on a 2-vCPU Xeon guest: Dantzig
# 16-20 ms, lasso 24-37 ms, recovery 45-78 ms. Of the 48 ops, Dantzig and
# lasso take ranks 1-18 and recovery 19-48, so the median (rank 24) and the
# p79 tail (rank 38, the highest percentile with 10 ops beyond) are both
# recovery ops, well inside the kind. Recovery's best moved least between
# runs when the host slowed (27 % against 44-50 % for lasso and Dantzig
# over four runs), so the two order statistics sit there.
BENCH_MIX = {"dantzig": 8, "lasso": 10, "recovery": 30}


def _lasso_config(design: Path, seed: int) -> dict:
    return {"design": str(design), "target": {"kind": "exact-sparse", "s": 2},
            "noise": {"sigma": 1.0, "model": "ar1:0.5"}, "lambda_multiple": 6.0,
            "trials": LASSO_TRIALS, "seed": seed}


def _dantzig_config(design: Path, seed: int) -> dict:
    return {"design": str(design), "target": {"kind": "exact-sparse", "s": 2},
            "noise": {"sigma": 1.0, "model": "iid"}, "lambda_multiple": 1.0,
            "trials": DANTZIG_TRIALS, "seed": seed}


def _recovery_config(design: Path, cert: Path, seed: int) -> dict:
    return {"design": str(design), "s": 2, "trials": RECOVERY_TRIALS, "seed": seed,
            "certificate": str(cert)}


def setup_bench(ec, seed: int, workdir: Path, ref: dict):
    """48 `bench` ops on the certified instance in seeded order, each with
    its own config seed: `bench dantzig` (lambda = Lambda, iid noise),
    `bench lasso` (20 trials, exact-sparse s=2, sigma 1, AR(1) noise with
    rho 0.5, lambda = 6 Lambda) and `bench recovery` (s=2, basis pursuit
    against the saved certificate). The warm-up runs one op of each kind."""
    design, cert = _certified_instance(ec, workdir, ref)
    rng = random.Random(f"bench_mc:{seed}")

    def config(kind: str, cseed: int) -> dict:
        if kind == "lasso":
            return _lasso_config(design, cseed)
        if kind == "dantzig":
            return _dantzig_config(design, cseed)
        return _recovery_config(design, cert, cseed)

    warm = [_bench_op(workdir, "warm", kind, config(kind, 0)) for kind in BENCH_MIX]
    kinds = [kind for kind, count in BENCH_MIX.items() for _ in range(count)]
    rng.shuffle(kinds)
    ops = [_bench_op(workdir, str(i), kind, config(kind, rng.randrange(2**31)))
           for i, kind in enumerate(kinds)]
    return warm, ops


@dataclass
class Workload:
    name: str
    setup: Callable
    min_passes: int     # whole passes per run, at least: each op's best-of


def tail_percentile(n_ops: int) -> int:
    """Highest integer percentile with at least 10 of ``n_ops`` beyond it."""
    return math.floor(100 * (n_ops - 10) / n_ops)


WORKLOADS = {w.name: w for w in (
    Workload("certify", setup_certify, 3),
    Workload("bench_mc", setup_bench, 3),
)}

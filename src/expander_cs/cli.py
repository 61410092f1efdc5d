"""Command-line interface.

Subcommands: construct | verify | solve | bench | noise-check. Every
subcommand takes --seed (default 0) and --out; verify (default JSON) and
bench (default CSV; ols writes JSON only) also take --format {json,csv}.
Runs that write an output file also write ``<out>.manifest.json``
recording the command, all resolved parameters, the package version and
the seed, so any number in a report can be regenerated from the manifest
alone (nothing time-dependent is ever written). Both files are written
by ``errors.write_text``, which rewrites an existing file in place and
cuts it to the new length. Exit codes: 0 when every asserted check
passed, 1 when a check failed, 2 on usage errors and invalid input.

Each ``_cmd_*`` returns ``(text, params, code)``: the report, the
manifest's parameters and the exit code. ``main`` alone writes the report
and the manifest and maps exceptions to exit codes.

Vectors in problem/solution JSON are written with 17 significant digits,
enough to round-trip doubles exactly. ``dumps_17g`` writes every JSON
report and manifest. It looks up an exact str, int, float, bool or None in
one table of writers, with the text ``json.dumps`` gives (str through
``encode_basestring_ascii``, int through ``int.__repr__``); numpy scalars
and arrays, subclasses such as ``np.float64`` and ``IntEnum``, and
containers take the ``isinstance`` tests, so the bytes are the same.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__
from .bench import (ExperimentReport, RecoveryInstance, mvse_sweep,
                    ols_oracle_comparison, run_dantzig_experiment,
                    run_lasso_experiment, run_recovery_experiment)
from .design import DesignMatrix
from .errors import CapacityError, SolverStatusError, load_object, read, write_text
from .fields import GF, MAX_FIELD_ORDER
from .graphs import (graph_from_json_dict, graph_to_json_text, load_graph,
                     matching_graph, pv_expander, random_left_regular)
from .noise import NoiseModel, empirical_noise_bound, thresholds
from .solve import basis_pursuit, dantzig, lasso
from .verify import (EXPANSION_BUDGET, NSP_BUDGET, check_expansion_exhaustive,
                     check_expansion_sampled, check_kernel_concentration,
                     check_rip1_sampled, check_up2_sampled,
                     nullspace_property_oracle, report_from_json_dict)


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

# json.dumps's text of each exact JSON scalar type, with floats at 17 digits
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__,
            float: lambda x: f"{x:.17g}" if math.isfinite(x) else "null",
            bool: lambda b: "true" if b else "false", type(None): lambda _: "null"}


def dumps_17g(obj, indent: int = 0) -> str:
    """JSON text with every float rendered at 17 significant digits."""
    write = _SCALARS.get(type(obj))
    if write is not None:
        return write(obj)
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  {encode_basestring_ascii(str(k))}: {dumps_17g(v, indent + 2)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        if all(isinstance(v, (int, float, bool)) or v is None for v in seq):
            return "[" + ", ".join(dumps_17g(v) for v in seq) + "]"
        items = [pad + "  " + dumps_17g(v, indent + 2) for v in seq]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, (int, str)):
        return json.dumps(obj)
    if isinstance(obj, float):
        return _SCALARS[float](obj)
    if isinstance(obj, np.ndarray):
        return dumps_17g(obj.tolist(), indent)
    if isinstance(obj, (np.integer, np.floating, np.bool_)):
        return dumps_17g(obj.item(), indent)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _csv(rows) -> str:
    """CSV text, one line per row. A None cell is empty, a float is written
    at 17 significant digits and anything else with ``str``."""
    return "\n".join(
        ",".join("" if v is None else f"{v:.17g}" if isinstance(v, float) else str(v)
                 for v in row)
        for row in rows)


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        print(text)
    else:
        write_text(out, text + "\n")


def _write_manifest(out: Path | None, command: str, params: dict) -> None:
    if out is None:
        return
    manifest = {
        "command": command,
        "version": __version__,
        "params": params,
        "output": str(out),
    }
    write_text(str(out) + ".manifest.json", dumps_17g(manifest) + "\n")


def _graph_from_spec(spec, seed: int):
    """Graph from a file path or an inline construction object."""
    if isinstance(spec, str):
        return load_graph(spec)
    kind = read(spec, "kind", str)
    if kind == "random":
        return random_left_regular(*(read(spec, key, int) for key in "pdn"),
                                   read(spec, "seed", int, seed))
    if kind == "pv":
        r, k = _prime_power(read(spec, "q", int))
        return pv_expander(GF(r, k), *(read(spec, key, int) for key in "lmh"))
    if kind == "matching":
        return matching_graph(read(spec, "n", int))
    if kind == "graph":
        return graph_from_json_dict(spec)
    raise ValueError(f"unknown design kind {kind!r}")


def _prime_power(q: int) -> tuple[int, int]:
    if q > MAX_FIELD_ORDER:
        raise CapacityError(f"field order q = {q} exceeds limit {MAX_FIELD_ORDER}")
    for r in range(2, q + 1):
        if q % r == 0:      # q's least divisor past 1, so a prime
            k = 0
            t = q
            while t % r == 0:
                t //= r
                k += 1
            if t == 1:
                return r, k
            break
    raise ValueError(f"{q} is not a prime power")


def _parse_noise_model(n: int, sigma: float, model) -> NoiseModel:
    """Accepts 'iid', 'ar1:RHO', or {'kind': ..., 'rho'/'corr': ...}."""
    if isinstance(model, str):
        if model == "iid":
            return NoiseModel(n, sigma)
        if model.startswith("ar1:"):
            return NoiseModel(n, sigma, "ar1", rho=float(model[4:]))
        raise ValueError(f"unknown noise model {model!r}")
    kind = read(model, "kind", str, "iid")
    if kind == "ar1":
        return NoiseModel(n, sigma, "ar1", rho=read(model, "rho", float))
    if kind == "explicit":
        return NoiseModel(n, sigma, "explicit", corr=read(model, "corr", list[list[float]]))
    return NoiseModel(n, sigma, kind)


def _noise_from_config(config: dict, n: int) -> NoiseModel:
    noise_cfg = read(config, "noise", dict, {})
    return _parse_noise_model(n, read(noise_cfg, "sigma", float, 1.0),
                              read(noise_cfg, "model", str | dict, "iid"))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _usage(message: str) -> None:
    print(f"usage error: {message}", file=sys.stderr)
    raise SystemExit(2)


_CONSTRUCT_ARGS = {"pv": ("q", "l", "m", "h"), "random": ("p", "d", "n")}


def _cmd_construct(args) -> tuple[str, dict, int]:
    spec = {"kind": args.kind}
    for name in _CONSTRUCT_ARGS[args.kind]:
        if getattr(args, name) is None:
            _usage(f"construct {args.kind} requires --{name}")
        spec[name] = getattr(args, name)
    if args.kind == "random":
        spec["seed"] = args.seed
    g = _graph_from_spec(spec, args.seed)
    return graph_to_json_text(g), spec, 0


def _cmd_verify(args) -> tuple[str, dict, int]:
    g = load_graph(args.graph)
    budget = args.budget
    if budget is None:
        budget = NSP_BUDGET if args.check == "nsp" else EXPANSION_BUDGET
    if args.check == "expansion" and args.mode == "exhaustive":
        report = check_expansion_exhaustive(g, args.s, args.eps, budget)
    elif args.check == "expansion":
        report = check_expansion_sampled(g, args.s, args.eps, args.trials, args.seed)
    else:
        X = DesignMatrix(g)
        if args.check == "rip1":
            report = check_rip1_sampled(X, args.s, args.eps, args.trials, args.seed)
        elif args.check == "up2":
            report = check_up2_sampled(X, args.s, args.trials, args.seed)
        elif args.check == "kernel":
            report = check_kernel_concentration(X, args.s, args.trials, args.seed)
        else:
            report = nullspace_property_oracle(X, args.s, budget)
    d = report.to_json_dict()
    if args.format == "csv":
        text = _csv([("condition", "ok", "worst_ratio", "trials", "seed"),
                     (d["condition"], int(d["ok"]), d["worst_ratio"], d["trials"],
                      d["seed"])])
    else:
        text = dumps_17g(d)
    params = {"graph": str(args.graph), "check": args.check, "mode": args.mode,
              "s": args.s, "eps": args.eps, "trials": args.trials,
              "budget": budget, "seed": args.seed}
    return text, params, 0 if report.ok else 1


def _cmd_solve(args) -> tuple[str, dict, int]:
    problem = load_object(args.problem)
    estimator = read(problem, "estimator", str)
    X = DesignMatrix(_graph_from_spec(
        read(problem, "graph", str | dict | None, None) or read(problem, "graph_path", str),
        args.seed))
    y = np.asarray(read(problem, "y", list[float]), dtype=np.float64)
    code = 0
    try:
        if estimator == "lasso":
            sol = lasso(X, y, read(problem, "lambda", float),
                        read(problem, "tol", float, 1e-8),
                        read(problem, "max_iter", int, 100000))
            result = {"estimator": "lasso", "beta": sol.beta,
                      "objective": sol.objective, "kkt_residual": sol.kkt_residual,
                      "iterations": sol.iterations, "converged": sol.converged}
            code = 0 if sol.converged else 1
        elif estimator == "dantzig":
            sol = dantzig(X, y, read(problem, "lambda", float))
            result = {"estimator": "dantzig", "beta": sol.beta,
                      "l1_norm": sol.l1_norm,
                      "constraint_slack": sol.constraint_slack,
                      "status": sol.status}
        elif estimator == "bp":
            beta = basis_pursuit(X, y)
            result = {"estimator": "bp", "beta": beta,
                      "l1_norm": float(np.abs(beta).sum()), "status": "optimal"}
        else:
            raise ValueError(f"unknown estimator {estimator!r}")
    except SolverStatusError as exc:
        result = {"estimator": estimator, "error": str(exc)}
        code = 1
    params = {"problem": str(args.problem), "estimator": estimator, "seed": args.seed}
    return dumps_17g(result), params, code


def _experiment_text(report: ExperimentReport, fractions: dict[str, float], fmt: str | None) -> str:
    """The report as CSV or JSON; ``fractions`` is its ``pass_fractions()``."""
    rows = list(report.csv_rows())
    if fmt != "json":
        return _csv(rows)
    return dumps_17g({"params": report.params,
                      "rows": [dict(zip(rows[0], r)) for r in rows[1:]],
                      "pass_fractions": fractions,
                      "event_frequency": report.event_frequency,
                      "flagged": report.flagged})


_DEFAULT_TRIALS = {"mvse": 50, "ols": 1000, "lasso": 100, "dantzig": 100,
                   "recovery": 100}
_MVSE_COLUMNS = ("p", "s", "d", "n", "alpha", "skipped", "certified",
                 "graph_seed", "proxy", "bound")


def _cmd_bench(args) -> tuple[str, dict, int]:
    if args.kind == "ols" and args.format == "csv":
        _usage("bench ols writes JSON only")
    config = load_object(args.config)
    seed = read(config, "seed", int, args.seed)
    trials = read(config, "trials", int, _DEFAULT_TRIALS[args.kind])
    if trials < 1:
        raise ValueError(f"'trials' must be >= 1, got {trials}")
    params = {"config": config, "seed": seed}

    if args.kind == "mvse":
        ps = read(config, "ps", list[int])
        if min(ps, default=1) < 1:
            raise ValueError(f"'ps' must hold integers >= 1, got {min(ps)}")
        if "s_values" in config:
            s_values = read(config, "s_values", list[int])
            if len(s_values) != len(ps):
                raise ValueError(f"'s_values' has {len(s_values)} entries for {len(ps)} 'ps'")
        else:
            expo = read(config, "s_exponent", float, 0.4)
            try:
                s_values = [max(1, round(p**expo)) for p in ps]
            except (OverflowError, ValueError):     # p**expo past a double, or NaN
                raise ValueError(
                    f"'s_exponent' = {expo} makes p**s_exponent non-finite") from None
        rows = mvse_sweep(ps, s_values, read(config, "alpha", float, 1.0), trials, seed,
                          sigma=read(config, "sigma", float, 1.0),
                          d=read(config, "d", int, 8), n=read(config, "n", int, 1536))
        if args.format == "json":
            text = dumps_17g(rows)
        else:
            text = _csv([_MVSE_COLUMNS,
                         *([row.get(c) for c in _MVSE_COLUMNS] for row in rows)])
        return text, params, 0 if all(not r["skipped"] for r in rows) else 1

    graph = _graph_from_spec(read(config, "design", str | dict), seed)
    X = DesignMatrix(graph)

    if args.kind == "ols":
        inst = RecoveryInstance.build(X, "exact-sparse", read(config, "s", int, 2),
                                      _noise_from_config(config, X.n), 6.0, seed)
        out = ols_oracle_comparison(inst, trials,
                                    read(config, "include_estimators", bool, False))
        return dumps_17g(out), params, 0 if out["within_10pct"] else 1

    if args.kind == "recovery":
        s = read(config, "s", int)
        if "certificate" in config:
            cert = report_from_json_dict(load_object(read(config, "certificate", str)))
        else:
            certify = read(config, "certify", dict, {})
            cert = check_expansion_exhaustive(
                graph, read(certify, "s", int, 2 * s), read(certify, "eps", float, 0.125),
                read(certify, "budget", int, EXPANSION_BUDGET))
        report = run_recovery_experiment(X, s, trials, seed, cert)
        bound_ok = report.flagged == 0
    else:
        target = read(config, "target", dict, {})
        inst = RecoveryInstance.build(
            X, read(target, "kind", str, "exact-sparse"), read(target, "s", int, 2),
            _noise_from_config(config, X.n), read(config, "lambda_multiple", float), seed)
        run = run_lasso_experiment if args.kind == "lasso" else run_dantzig_experiment
        report = run(inst, trials)
        bound_ok = report.event_bound_ok(thresholds(1.0, X.n).eta_n)
    fractions = report.pass_fractions()
    ok = all(f == 1.0 for f in fractions.values()) and bound_ok
    if args.kind != "recovery":
        summary = {"event_frequency": report.event_frequency,
                   "pass_fractions": fractions,
                   "flagged": report.flagged, "ok": ok}
        print(dumps_17g(summary), file=sys.stderr)
    return _experiment_text(report, fractions, args.format), params, 0 if ok else 1


def _cmd_noise_check(args) -> tuple[str, dict, int]:
    if args.graph:
        X = DesignMatrix(load_graph(args.graph))
        if X.n != args.n:
            raise ValueError(f"graph has {X.n} rows, --n says {args.n}")
    else:
        # identity permutation design: ||X^T z||_inf equals ||z||_inf, the
        # extremal case that non-amplification permits
        X = DesignMatrix(matching_graph(args.n))
    model = _parse_noise_model(args.n, args.sigma, args.model)
    check = empirical_noise_bound(X, model, args.t, args.trials, args.seed)
    params = {"n": args.n, "sigma": args.sigma, "t": args.t, "trials": args.trials,
              "model": args.model, "graph": str(args.graph) if args.graph else None,
              "seed": args.seed}
    return dumps_17g(check.to_json_dict()), params, 0 if check.passed else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expander-cs",
        description="Expander-graph design matrices: construct, verify, solve, bench.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    common.add_argument("--out", type=Path, default=None, help="output path")

    c = sub.add_parser("construct", parents=[common], help="build a graph file")
    c.add_argument("kind", choices=["pv", "random"])
    c.add_argument("--q", type=int, help="field order (prime power), pv only")
    c.add_argument("--l", type=int, help="polynomial degree bound, pv only")
    c.add_argument("--m", type=int, help="number of power maps, pv only")
    c.add_argument("--h", type=int, help="power base >= 2, pv only")
    c.add_argument("--p", type=int, help="left vertices, random only")
    c.add_argument("--d", type=int, help="left degree, random only")
    c.add_argument("--n", type=int, help="right vertices, random only")
    c.set_defaults(func=_cmd_construct)

    v = sub.add_parser("verify", parents=[common], help="check a structural condition")
    v.add_argument("--graph", type=Path, required=True)
    v.add_argument("--check", choices=["expansion", "rip1", "up2", "kernel", "nsp"],
                   default="expansion")
    v.add_argument("--mode", choices=["exhaustive", "sampled"], default="exhaustive")
    v.add_argument("--s", type=int, required=True)
    v.add_argument("--eps", type=float, default=0.125)
    v.add_argument("--trials", type=int, default=1000)
    v.add_argument("--budget", type=int, default=None,
                   help=f"cap on the connected subsets enumerated (default {EXPANSION_BUDGET}"
                        f" for expansion), or subset/sign pairs ({NSP_BUDGET} for nsp)")
    v.add_argument("--format", choices=["json", "csv"], default="json")
    v.set_defaults(func=_cmd_verify)

    s = sub.add_parser("solve", parents=[common], help="solve one problem file")
    s.add_argument("--problem", type=Path, required=True)
    s.set_defaults(func=_cmd_solve)

    b = sub.add_parser("bench", parents=[common], help="run an experiment from a config")
    b.add_argument("kind", choices=["lasso", "dantzig", "recovery", "ols", "mvse"])
    b.add_argument("--config", type=Path, required=True)
    b.add_argument("--format", choices=["json", "csv"], default=None,
                   help="report format (default csv; ols writes JSON only)")
    b.set_defaults(func=_cmd_bench)

    nc = sub.add_parser("noise-check", parents=[common],
                        help="Monte Carlo check of the noise tail bound")
    nc.add_argument("--n", type=int, required=True)
    nc.add_argument("--sigma", type=float, default=1.0)
    nc.add_argument("--t", type=float, default=1.0)
    nc.add_argument("--trials", type=int, default=1000)
    nc.add_argument("--model", default="iid", help="iid or ar1:RHO")
    nc.add_argument("--graph", type=Path, default=None,
                    help="graph file (default: identity permutation design)")
    nc.set_defaults(func=_cmd_noise_check)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built by the first command of the process and reused by
    the later ones; parsing leaves it unchanged, and argparse looks up
    ``sys.stderr`` when it reports a usage error."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        text, params, code = args.func(args)
        _emit(text, args.out)
        _write_manifest(args.out, args.command, params)
    except SolverStatusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())

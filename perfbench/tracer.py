"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public functions of the program's modules and
the public methods of ``DesignMatrix`` with span recorders. The modules
import each other with ``from .x import y``, so a function is replaced in
every module namespace that holds it (``bench.lasso``, ``graphs.poly_eval``
and so on), not only where it is defined. ``uninstall`` restores them.

Spans are kept in memory as ``[name, parent, op, start, end]`` and written
out at the end. A span's self time is its duration minus the durations of
its direct children. A recursive call (``dumps_17g``) folds into the
outer span of the same name. Work counters are read off solver results
(subsets examined, LP pivots, CD sweeps, trials) and every span name also
counts its calls; all counters are exact and must repeat run to run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

MODULES = ("cli", "bench", "verify", "solve", "noise", "rng", "design", "graphs", "fields")
CLASSES = {"design": ("DesignMatrix",)}
# private helpers traced because they are where reports get written
PRIVATE = {"cli._emit", "cli._write_manifest", "cli._report_out"}
# called once per random word; a span would cost more than the call
SKIP = {"rng.mix64"}
REPORT_WRITE = PRIVATE | {"cli.dumps_17g"}

COUNTERS = {
    "verify.check_expansion_exhaustive": lambda r: {"verify.subsets_examined": r.trials},
    "solve.lp_solve": lambda r: {"solve.lp_pivots": r.iterations},
    "solve.lasso": lambda r: {"solve.cd_sweeps": r.iterations},
    **{f"bench.{name}": (lambda r: {"bench.trials": r.trials,
                                    "bench.flagged_trials": r.flagged})
       for name in ("run_lasso_experiment", "run_dantzig_experiment",
                    "run_recovery_experiment")},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []          # [name, parent, op, start, end]
        self.stack: list[int] = []
        self.op: tuple | None = None         # (pass, index in the op list)
        self.counters: dict[tuple, Counter] = defaultdict(Counter)
        self._undo: list[tuple] = []

    # -- recording -----------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self.stack, self.counters
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            rec = [name, stack[-1] if stack else -1, self.op, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                stack.pop()
            tally = counters[self.op]
            tally["calls:" + name] += 1
            if count is not None:
                tally.update(count(result))
            return result

        return traced

    @contextmanager
    def op_span(self, key: tuple):
        """Root span of one op; every span inside it carries ``key``."""
        self.op = key
        rec = ["op", -1, key, 0.0, 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[3] = perf_counter()
        try:
            yield
        finally:
            rec[4] = perf_counter()
            self.stack.pop()
            self.op = None

    # -- patching ------------------------------------------------------

    def install(self, package) -> None:
        wrapped = {}
        for short in MODULES:
            mod = importlib.import_module(f"{package.__name__}.{short}")
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (not attr.startswith("_") or name in PRIVATE)
                        and name not in SKIP and not inspect.isgeneratorfunction(obj)):
                    wrapped[obj] = self._wrap(name, obj)
            for cls_name in CLASSES.get(short, ()):
                cls = getattr(mod, cls_name)
                for attr, obj in list(vars(cls).items()):
                    if attr.startswith("_"):
                        continue
                    name = f"{short}.{cls_name}.{attr}"
                    if isinstance(obj, classmethod):
                        new = classmethod(self._wrap(name, obj.__func__))
                    elif inspect.isfunction(obj):
                        new = self._wrap(name, obj)
                    else:
                        continue
                    self._undo.append((cls, attr, obj))
                    setattr(cls, attr, new)
        prefix = package.__name__
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == prefix or mod_name.startswith(prefix + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()

    # -- analysis ------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, parent, _, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [s[4] - s[3] - c for s, c in zip(self.spans, child)]

    def _outermost(self, names) -> float:
        """Total duration of spans named in ``names`` that have no ancestor
        named in ``names``."""
        spans = self.spans
        total = 0.0
        for rec in spans:
            if rec[0] not in names:
                continue
            parent = rec[1]
            while parent >= 0 and spans[parent][0] not in names:
                parent = spans[parent][1]
            if parent < 0:
                total += rec[4] - rec[3]
        return total

    def layer_metrics(self, n_ops: int, overhead_pct: float) -> dict[str, tuple[float, str]]:
        """Per-op layer metrics as {name: (value, unit)}."""
        self_by_name: Counter = Counter()
        for rec, st in zip(self.spans, self.self_times()):
            self_by_name[rec[0]] += st
        totals: Counter = Counter()
        for tally in self.counters.values():
            totals.update(tally)

        def incl_ms(*names):
            return 1e3 * self._outermost(set(names)) / n_ops

        def self_ms(pred):
            return 1e3 * sum(v for k, v in self_by_name.items() if pred(k)) / n_ops

        def count(key):
            return totals[key] / n_ops

        def calls(name):
            return count("calls:" + name)

        def ratio(num, den):
            return num / den if den else 0.0

        exhaustive_ms = incl_ms("verify.check_expansion_exhaustive")
        lp_ms = incl_ms("solve.lp_solve")
        return {
            "verify.exhaustive_ms": (exhaustive_ms, "ms"),
            "verify.subsets_examined": (count("verify.subsets_examined"), "count"),
            "verify.subsets_per_s": (ratio(count("verify.subsets_examined"), exhaustive_ms / 1e3), "1/s"),
            "fields.poly_mod_pow_ms": (incl_ms("fields.poly_mod_pow"), "ms"),
            "fields.poly_mod_pow_calls": (calls("fields.poly_mod_pow"), "count"),
            "fields.poly_eval_ms": (incl_ms("fields.poly_eval"), "ms"),
            "fields.poly_eval_calls": (calls("fields.poly_eval"), "count"),
            "fields.find_irreducible_ms": (incl_ms("fields.find_irreducible"), "ms"),
            "graphs.pv_expander_self_ms": (self_ms(lambda k: k == "graphs.pv_expander"), "ms"),
            "noise.sample_ms": (incl_ms("noise.sample_noise"), "ms"),
            "noise.draws": (calls("noise.sample_noise"), "count"),
            "rng.gaussians_ms": (incl_ms("rng.gaussians"), "ms"),
            "solve.lasso_ms": (incl_ms("solve.lasso"), "ms"),
            "solve.lasso_calls": (calls("solve.lasso"), "count"),
            "solve.cd_sweeps": (count("solve.cd_sweeps"), "count"),
            "solve.lp_solve_ms": (lp_ms, "ms"),
            "solve.lp_pivots": (count("solve.lp_pivots"), "count"),
            "solve.us_per_pivot": (ratio(lp_ms * 1e3, count("solve.lp_pivots")), "us"),
            "solve.dantzig_self_ms": (self_ms(lambda k: k == "solve.dantzig"), "ms"),
            "solve.basis_pursuit_self_ms": (self_ms(lambda k: k == "solve.basis_pursuit"), "ms"),
            "design.to_dense_ms": (incl_ms("design.DesignMatrix.to_dense"), "ms"),
            "design.to_dense_calls": (calls("design.DesignMatrix.to_dense"), "count"),
            "design.matvec_ms": (incl_ms("design.DesignMatrix.matvec"), "ms"),
            "design.transpose_matvec_ms": (incl_ms("design.DesignMatrix.transpose_matvec"), "ms"),
            "bench.self_ms": (self_ms(lambda k: k.startswith("bench.")), "ms"),
            "bench.trials": (count("bench.trials"), "count"),
            "bench.flagged_trials": (count("bench.flagged_trials"), "count"),
            "cli.self_ms": (self_ms(lambda k: k.startswith("cli.") and k not in REPORT_WRITE), "ms"),
            "cli.report_write_ms": (1e3 * self._outermost(REPORT_WRITE) / n_ops, "ms"),
            "graphs.load_graph_ms": (incl_ms("graphs.load_graph"), "ms"),
            "trace.overhead_pct": (overhead_pct, "%"),
        }

    def self_ms_by_layer(self, n_ops: int) -> dict[str, float]:
        """Self time per op summed by module; "op" is the client's own share.
        The values add up to the mean traced op latency."""
        out: Counter = Counter()
        for rec, st in zip(self.spans, self.self_times()):
            out[rec[0].split(".")[0]] += 1e3 * st / n_ops
        return dict(out.most_common())

    def write(self, path: Path, header: dict) -> None:
        names = sorted({rec[0] for rec in self.spans})
        code = {n: i for i, n in enumerate(names)}
        t_base = self.spans[0][3] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({**header, "names": names,
                                 "fields": ["name", "parent", "pass", "op", "start_us", "end_us"]}))
            fh.write("\n")
            for name, parent, op, t0, t1 in self.spans:
                fh.write(f"[{code[name]},{parent},{op[0]},{op[1]},"
                         f"{(t0 - t_base) * 1e6:.1f},{(t1 - t_base) * 1e6:.1f}]\n")

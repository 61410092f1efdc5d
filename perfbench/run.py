"""Benchmark runner for expander-cs.

    python3 perfbench/run.py --workload {certify,bench_mc}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout. One client drives ``expander_cs.cli.main`` in
process as a closed loop: the next command starts only after the previous
one returned and its outputs were checked. The workload's inputs are made
from ``--seed``; the fixed op list is replayed in whole passes until
another pass would end after ``--seconds`` (never fewer than the
workload's minimum number of passes). Set-up is timed several times,
spread over the run between passes, and ``setup_s`` is the median.

Each op's latency is the best over all executions of its input in the
run. A shared host slows every process by a factor that can drift by tens
of percent within seconds; the best of several spread-out executions of
the same work tracks the op's own cost, where a mean or median over all
executions tracks the host. ``ops_per_s`` is the number of
ops in the list over the sum of their best latencies, and ``op_ms_p50``
and ``op_ms_tail`` are nearest-rank percentiles of the best latencies; the
tail is the highest percentile with at least 10 ops beyond it.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (traced passes alternate with untraced ones, for
the tracing overhead). Human-readable lines start with ``#``; the last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Scratch files go to ``.perfbench_work/`` in the checkout and
are removed at exit, except the span dump ``trace-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

# single-threaded BLAS: one client, no parallel work; set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402
from workloads import (WORKLOADS, SetupError, digest_outputs,  # noqa: E402
                       import_program, load_reference, run_op, tail_percentile)

SETUP_REPS = 11


def keep_freed_memory() -> bool:
    """Tell glibc malloc to keep freed memory for reuse instead of handing it
    back to the kernel. Otherwise every bench command allocates its large
    numpy temporaries afresh from the kernel, and their minor page faults
    (about 3,500 per Dantzig op) cost a host-dependent time that doubled
    op latency at busy times on a shared VM. Returns False where libc has no
    mallopt (not glibc); the run then goes on with the default allocator."""
    try:
        mallopt = ctypes.CDLL(ctypes.util.find_library("c") or "libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    m_trim_threshold, m_top_pad, m_mmap_threshold = -1, -2, -3
    return all(mallopt(param, value) == 1 for param, value in (
        (m_mmap_threshold, 32 << 20), (m_trim_threshold, 1 << 30), (m_top_pad, 64 << 20)))


def machine_record(seed: int) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text(encoding="utf-8").strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "commit": git_commit(ROOT),
        "seed": seed,
    }


def git_commit(root: Path) -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a
    git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Results:
    """Failures among the ops attempted so far."""

    def __init__(self):
        self.failures: list[str] = []
        self.attempted = 0

    def add(self, failure: str | None, label: str) -> None:
        self.attempted += 1
        if failure is not None:
            self.failures.append(f"{label}: {failure}")


def run_ops(cli, ops, results: Results, label: str, digests: dict,
            tracer=None, pass_no: int = 0) -> list[float]:
    """One pass over ``ops``; returns their latencies in list order. Each
    op's output bytes must equal those of its earlier passes."""
    latencies = []
    for i, op in enumerate(ops):
        if tracer is None:
            latency, failure = run_op(cli, op, perf_counter)
        else:
            with tracer.op_span((pass_no, i)):
                latency, failure = run_op(cli, op, perf_counter)
        if failure is None:
            digest = digest_outputs(op)
            if digests.setdefault(i, digest) != digest:
                failure = "output bytes differ from an earlier pass"
        latencies.append(latency)
        results.add(failure, f"{label} op {i} ({op.kind})")
    return latencies


def repeat(run_pass, seconds: float, min_passes: int) -> int:
    """Call ``run_pass(k)`` for k = 0, 1, ... until another call would end
    after ``seconds``, and at least ``min_passes`` times; returns the count."""
    start = perf_counter()
    k = 0
    while True:
        run_pass(k)
        k += 1
        if k >= min_passes and (perf_counter() - start) * (k + 1) / k > seconds:
            return k


def best_latencies(ops, rows: list[list[float]]) -> list[float]:
    """Per op, the best latency over all executions of its input."""
    best: dict[str, float] = {}
    for row in rows:
        for op, latency in zip(ops, row):
            best[op.key] = min(latency, best.get(op.key, math.inf))
    return [best[op.key] for op in ops]


def setup(wl, ec, seed: int, workdir: Path, ref: dict, results: Results):
    """Make the inputs and run the warm-up ops (checked, not timed as ops)."""
    workdir.mkdir()
    warm, ops = wl.setup(ec, seed, workdir, ref)
    for op in warm:
        _, failure = run_op(ec.cli, op, perf_counter)
        results.add(failure, f"warm-up ({op.kind})")
    return ops


def nearest_rank(sorted_values: list[float], pct: int) -> tuple[float, int]:
    """Nearest-rank percentile and the number of values beyond it."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def say(text: str) -> None:
    print("# " + text, flush=True)


def end_to_end(wl, ec, args, ref, scratch: Path, results: Results) -> dict:
    """Set-up is repeated SETUP_REPS times, spread evenly over the run
    between passes, so its median sees the same host as the ops do; the
    ops of the first set-up are the ones replayed."""
    setup_times = []

    def timed_setup() -> list:
        workdir = scratch / f"setup{len(setup_times)}"
        t0 = perf_counter()
        ops = setup(wl, ec, args.seed, workdir, ref, results)
        setup_times.append(perf_counter() - t0)
        if len(setup_times) > 1:
            shutil.rmtree(workdir, ignore_errors=True)
        return ops

    start = perf_counter()
    ops = timed_setup()
    rows: list[list[float]] = []
    digests: dict = {}

    def one_pass(k: int) -> None:
        rows.append(run_ops(ec.cli, ops, results, f"pass {k}", digests))
        while (len(setup_times) < SETUP_REPS and perf_counter() - start
               >= len(setup_times) * args.seconds / SETUP_REPS):
            timed_setup()

    repeat(one_pass, args.seconds, wl.min_passes)
    ranked = sorted(zip(best_latencies(ops, rows), (op.kind for op in ops)))
    lat = [latency for latency, _ in ranked]
    pct = tail_percentile(len(lat))
    tail, beyond = nearest_rank(lat, pct)
    p50, above = nearest_rank(lat, 50)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    say(f"{len(rows)} passes of {len(ops)} ops in {sum(map(sum, rows)):.3f} s busy; "
        f"sum of best latencies {sum(lat):.3f} s")
    say(f"setup times {[round(t, 4) for t in setup_times]} s")
    by_kind: dict[str, list[float]] = {}
    for latency, kind in ranked:
        by_kind.setdefault(kind, []).append(latency)
    say("median best ms by op kind: " + ", ".join(
        f"{kind} {1e3 * statistics.median(v):.4g}" for kind, v in by_kind.items()))
    say(f"op_ms_tail is p{pct}: {beyond} ops beyond it, {len(lat)} ops; "
        f"the p50 op is {ranked[-above - 1][1]}, the p{pct} op {ranked[-beyond - 1][1]}")
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_ms_p50": (1e3 * p50, "ms"),
        "op_ms_tail": (1e3 * tail, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def per_layer(wl, ec, args, ref, scratch: Path, results: Results, machine: dict) -> dict:
    """Untraced and traced passes alternate, so both see the same host; the
    tracing overhead compares their best latencies."""
    ops = setup(wl, ec, args.seed, scratch / "setup", ref, results)
    tracer = Tracer()
    plain: list[list[float]] = []
    traced: list[list[float]] = []
    digests: dict = {}

    def both(k: int) -> None:
        plain.append(run_ops(ec.cli, ops, results, f"untraced pass {k}", digests))
        tracer.install(ec)
        try:
            traced.append(run_ops(ec.cli, ops, results, f"traced pass {k}", digests, tracer, k))
        finally:
            tracer.uninstall()

    passes = repeat(both, args.seconds, 2)

    # exact counters: every traced pass over the same op list counts the same
    for i in range(len(ops)):
        first = tracer.counters[(0, i)]
        for p in range(1, passes):
            again = tracer.counters[(p, i)]
            if again != first:
                diff = sorted(k for k in set(first) | set(again) if first[k] != again[k])
                results.failures.append(
                    f"op {i}: counters differ between traced passes 0 and {p}: {diff[:5]}")

    n = passes * len(ops)
    traced_busy = sum(map(sum, traced))
    overhead = 100.0 * (sum(best_latencies(ops, traced)) / sum(best_latencies(ops, plain)) - 1.0)
    say(f"{passes} untraced and {passes} traced passes of {len(ops)} ops; "
        f"tracing overhead {overhead:.3g} % (sum of best latencies, traced against untraced)")
    layers = tracer.self_ms_by_layer(n)
    say(f"self ms per op by module (sums to the mean traced op latency "
        f"{1e3 * traced_busy / n:.4g} ms; 'op' is the client): "
        + ", ".join(f"{k} {v:.4g}" for k, v in layers.items()))
    tracer.write(ROOT / ".perfbench_work" / f"trace-{wl.name}.jsonl",
                 {"workload": wl.name, "machine": machine})
    return tracer.layer_metrics(n, overhead)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    kept = keep_freed_memory()
    ec = import_program(ROOT)
    ref = load_reference(HERE)
    wl = WORKLOADS[args.workload]
    machine = machine_record(args.seed)
    machine["malloc_keeps_freed_memory"] = kept
    say("machine " + json.dumps(machine))
    say(f"workload {wl.name} seed {args.seed} seconds {args.seconds} trace {args.trace}")

    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=work))
    results = Results()
    try:
        if args.trace:
            metrics = per_layer(wl, ec, args, ref, scratch, results, machine)
        else:
            metrics = end_to_end(wl, ec, args, ref, scratch, results)
    except SetupError as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        say(f"{name} = {value:.6g} {unit}")
    say(f"failed_frac = {len(results.failures) / results.attempted:.6g} ratio "
        f"({len(results.failures)} of {results.attempted} ops)")
    for failure in results.failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not results.failures,
        "attempted": results.attempted,
        "failed": len(results.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

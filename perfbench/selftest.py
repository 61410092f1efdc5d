"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs one pass of the certify op list (seed 0) twice: against the recorded
reference table, where failed_frac must be 0, and against a copy with one
corrupted expected value (the worst ratio of GF(7), l=2), where
failed_frac must be above 0. Exits 0 when both hold.
"""

from __future__ import annotations

import copy
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import Results, run_ops  # noqa: E402
from workloads import WORKLOADS, import_program, load_reference  # noqa: E402


def failed_frac(ec, ref: dict, workdir: Path) -> float:
    workdir.mkdir()
    warm, ops = WORKLOADS["certify"].setup(ec, 0, workdir, ref)
    results = Results()
    run_ops(ec.cli, warm + ops, results, "self-test", {})
    for failure in results.failures[:3]:
        print(f"  {failure}")
    return len(results.failures) / results.attempted


def main() -> int:
    ec = import_program(HERE.parent)
    ref = load_reference(HERE)
    corrupted = copy.deepcopy(ref)
    corrupted["pv_construct"]["7,2"]["worst_ratio"] += 1 / 64

    work = HERE.parent / ".perfbench_work"
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=work))
    try:
        good = failed_frac(ec, ref, tmp / "reference")
        print(f"failed_frac with the reference table: {good:.4g}")
        bad = failed_frac(ec, corrupted, tmp / "corrupted")
        print(f"failed_frac with one corrupted expected value: {bad:.4g}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    ok = good == 0 and bad > 0
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Regenerate perfbench/reference.json, the expected outputs the benchmark
checks every op against.

    python3 perfbench/make_reference.py

It calls the library directly (not the CLI) on the fixed input pools of
the workloads and records, per input, the verdict and worst ratio of the
expansion check, plus a digest of each constructed pv neighbor table. The
table is recorded once from a commit whose outputs are trusted and then
kept fixed: the benchmark reports a mismatch as a failed op, so a later
change that alters any of these results shows up as failures.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import (CERT_D, CERT_EPS, CERT_N, CERT_P, CERT_S,  # noqa: E402
                       CERTIFY_POOL, PV_H, PV_M, PV_S, PV_SPECS,
                       import_program, neighbors_digest)


def main() -> int:
    ec = import_program(HERE.parent)
    ref: dict = {"certify": {}, "pv_construct": {}, "instance": {}}

    # pool of random graphs for the certify workload, classified by how the
    # exhaustive scan ends: a full pass, or a refutation within the first
    # three subset sizes ("early"), or later ("late", not used by any op
    # list because its cost varies with where the violation sits)
    early_limit = sum(math.comb(CERT_P, k) for k in range(1, 4))
    for seed in range(CERTIFY_POOL):
        g = ec.random_left_regular(CERT_P, CERT_D, CERT_N, seed)
        rep = ec.check_expansion_exhaustive(g, CERT_S, CERT_EPS)
        kind = "pass" if rep.ok else ("early" if rep.trials <= early_limit else "late")
        ref["certify"][str(seed)] = {"ok": rep.ok, "worst_ratio": rep.worst_ratio,
                                     "kind": kind}
        print(f"certify graph {seed}: {kind} {rep.worst_ratio!r}", flush=True)

    for q, l in PV_SPECS:
        r = next(d for d in range(2, q + 1) if q % d == 0)   # q = r**k
        g = ec.pv_expander(ec.GF(r, round(math.log(q, r))), l, PV_M, PV_H)
        rep = ec.check_expansion_exhaustive(g, PV_S, CERT_EPS)
        ref["pv_construct"][f"{q},{l}"] = {
            "p": g.p, "n": g.n, "d": g.d, "ok": rep.ok,
            "worst_ratio": rep.worst_ratio, "neighbors_sha256": neighbors_digest(g.neighbors)}
        print(f"pv q={q} l={l}: ok={rep.ok} {rep.worst_ratio!r}", flush=True)

    # the certified instance, found the way the test suite's fixture finds it
    g, rep, attempts = ec.search_certified_graph(
        CERT_P, CERT_D, [CERT_N], CERT_S, CERT_EPS, max_seeds=50)
    ref["instance"] = {"seed": attempts - 1, "worst_ratio": rep.worst_ratio}

    (HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

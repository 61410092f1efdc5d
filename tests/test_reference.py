"""The benchmark's expected outputs, recomputed by the library.

``perfbench/reference.json`` holds what the benchmark's certify workload
checks each op against: the shape, neighbor digest and exact expansion
verdict of each `construct pv` spec, and the verdict of each seeded
p64/d8/n1536 graph at s = 4. This file reads it, never writes it, and
recomputes every entry through ``check_expansion_exhaustive``, so a fast
path that drifts from those outputs fails here, before any benchmark run.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from expander_cs import GF, check_expansion_exhaustive, pv_expander, random_left_regular
from expander_cs.cli import _prime_power

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                               PERFBENCH / "workloads.py")
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("spec", sorted(REFERENCE["pv_construct"]))
def test_pv_construct_entry(spec):
    want = REFERENCE["pv_construct"][spec]
    q, l = map(int, spec.split(","))
    g = pv_expander(GF(*_prime_power(q)), l, workloads.PV_M, workloads.PV_H)
    assert (g.p, g.n, g.d) == (want["p"], want["n"], want["d"])
    assert workloads.neighbors_digest(g.neighbors.tolist()) == want["neighbors_sha256"]
    rep = check_expansion_exhaustive(g, workloads.PV_S, workloads.CERT_EPS)
    assert (rep.ok, rep.worst_ratio) == (want["ok"], want["worst_ratio"])


def test_certify_entries():
    table = REFERENCE["certify"]
    assert sorted(map(int, table)) == list(range(workloads.CERTIFY_POOL))
    got = {}
    for seed in table:
        g = random_left_regular(workloads.CERT_P, workloads.CERT_D, workloads.CERT_N,
                                int(seed))
        rep = check_expansion_exhaustive(g, workloads.CERT_S, workloads.CERT_EPS)
        got[seed] = (rep.ok, rep.worst_ratio)
    assert got == {seed: (e["ok"], e["worst_ratio"]) for seed, e in table.items()}

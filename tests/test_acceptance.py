"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 3 appears twice. The literal small-n search (p=64, d=8,
n in 40..64) is run exactly as stated and fails: with d=8 the expansion
requirement at eps=1/8 allows any two left vertices at most 2 shared
neighbors, and at n <= 64 a uniform pair collides 3+ times with
probability >= 0.054, so among the 2016 pairs a violation is certain
(expected 110+ violating pairs per graph; the chance a random graph has
none is below e^-100). The suite therefore certifies its working instance
at n = 1536, where the same exhaustive check genuinely passes, and every
downstream criterion runs against that instance at full strength.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from expander_cs import (DesignMatrix, NoiseModel, RecoveryInstance,
                         SolverStatusError, basis_pursuit,
                         check_expansion_exhaustive, check_expansion_sampled,
                         check_rip1_sampled, check_up2_sampled, dantzig,
                         empirical_noise_bound, lasso, lp_solve,
                         matching_graph, nullspace_property_oracle,
                         ols_oracle_comparison, random_left_regular,
                         run_dantzig_experiment, run_lasso_experiment,
                         run_recovery_experiment, thresholds)
from expander_cs.bench import (dantzig_prediction_bound, dantzig_selection_bound,
                               lasso_selection_bound, search_certified_graph)
from expander_cs.cli import main
from expander_cs.graphs import BipartiteGraph
from expander_cs.rng import Stream, gaussians
from expander_cs.solve import LinearProgram
from expander_cs.verify import _subset_budget

from test_solve import enumerate_lp_optimum, soft

LITERAL_N_RANGE = range(40, 65)
LITERAL_SEEDS = 40


def report(capsys, num, ok, text):
    with capsys.disabled():
        print(f"\nACCEPTANCE CRITERION {num:>2}: {'PASS' if ok else 'FAIL'} - {text}")


@pytest.fixture(scope="module")
def lasso_200(certified):
    """One 200-trial lasso experiment at lam = 6 Lambda; the 6 Lambda and
    7 Lambda sub-experiments cover criteria 5 and 6."""
    _, X, _ = certified
    inst = RecoveryInstance.build(X, "exact-sparse", 2, NoiseModel(X.n, 1.0),
                                  6.0, seed=501)
    return X, run_lasso_experiment(inst, 200)


def test_criterion_01_expansion_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    rng = Stream(2024)
    disagreements = 0
    checked = 0
    for _ in range(100):
        p = 2 + rng.below(11)            # 2..12
        n = 2 + rng.below(9)             # 2..10
        d = 1 + rng.below(min(4, n))     # 1..min(4, n)
        s = 1 + rng.below(min(3, p))
        g = random_left_regular(p, d, n, seed=rng.next_u64() % 10**6)
        assert _subset_budget(p, s) < 1000   # sampled trials exceed subsets
        exact = check_expansion_exhaustive(g, s, 0.125)
        sampled = check_expansion_sampled(g, s, 0.125, 1000, seed=rng.next_u64() % 10**6)
        checked += 1
        if not exact.ok and sampled.ok:
            disagreements += 1
    elapsed = time.perf_counter() - t0
    ok = disagreements == 0 and checked == 100 and elapsed < 10.0
    report(capsys, 1, ok,
           f"sampled vs exhaustive on 100 graphs, {disagreements} missed "
           f"violations ({elapsed:.1f}s)")
    assert ok


def test_criterion_02_deterministic_construction(capsys, tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "pv.json"
    code = main(["construct", "pv", "--q", "3", "--l", "2", "--m", "2",
                 "--h", "2", "--out", str(out)])
    obj = json.loads(out.read_text())
    ok_m2 = code == 0 and 14 in obj["neighbors"][3]   # f = x, y = 1
    out1 = tmp_path / "pv1.json"
    main(["construct", "pv", "--q", "3", "--l", "2", "--m", "1", "--h", "2",
          "--out", str(out1)])
    ok_m1 = json.loads(out1.read_text())["neighbors"][4] == [1, 5, 6]
    elapsed = time.perf_counter() - t0
    ok = ok_m2 and ok_m1 and elapsed < 1.0
    report(capsys, 2, ok, f"hand-computed neighbor tuples reproduced ({elapsed:.2f}s)")
    assert ok


def test_criterion_03_literal_small_n_search(capsys):
    # the stated parameter range, executed exactly as written
    t0 = time.perf_counter()
    graph, _, attempts = search_certified_graph(
        64, 8, list(LITERAL_N_RANGE), 4, 0.125, max_seeds=LITERAL_SEEDS)
    elapsed = time.perf_counter() - t0
    found = graph is not None
    report(capsys, 3, found,
           f"literal search p=64 d=8 n in 40..64: {attempts} graphs, "
           f"{'certified' if found else 'none certified'} ({elapsed:.1f}s)")
    if not found:
        pytest.fail(
            "no (4, 1/8)-expander exists among random left-regular graphs at "
            "p=64, d=8, n<=64: the pair constraint |N(i) u N(j)| >= 14 fails "
            "with probability >= 0.054 per pair (hypergeometric overlap >= 3), "
            "so all 2016 pairs survive with probability < e^-100. The suite "
            "certifies its working instance at n=1536 instead; see the "
            "amended criterion below.")


def test_criterion_03_amended_certified_instance(capsys, certified):
    t0 = time.perf_counter()
    graph, X, cert = certified
    rip1 = check_rip1_sampled(X, 4, 0.125, 10000, seed=301)
    up2 = check_up2_sampled(X, 2, 10000, seed=302)
    elapsed = time.perf_counter() - t0
    ok = (cert.ok and graph.n == 1536
          and rip1.ok and rip1.worst_ratio >= 0.75
          and up2.ok)
    report(capsys, 3, ok,
           f"(amended n=1536) exhaustive (4,1/8) certificate, RIP-1 worst "
           f"ratio {rip1.worst_ratio:.4f} >= 0.75, UP2 0 violations in 10^4 "
           f"({elapsed:.1f}s)")
    assert ok and elapsed < 120.0


def test_criterion_04_exact_recovery(capsys, certified):
    t0 = time.perf_counter()
    _, X, cert = certified
    rep = run_recovery_experiment(X, 2, 100, seed=401, certificate=cert)
    worst = max(c.lhs for r in rep.records for c in r.checks)
    elapsed = time.perf_counter() - t0
    ok = (rep.trials == 100 and rep.flagged == 0
          and rep.all_event_checks_hold() and worst <= 1e-6 and elapsed < 30.0)
    report(capsys, 4, ok,
           f"basis pursuit 100/100 2-sparse recoveries, worst relative l1 "
           f"error {worst:.2e} ({elapsed:.1f}s)")
    assert ok


def test_criterion_05_lasso_oracle_inequality(capsys, lasso_200):
    t0 = time.perf_counter()
    X, rep = lasso_200
    fr = rep.pass_fractions()
    eta = thresholds(1.0, X.n).eta_n
    ok = (rep.trials == 200 and rep.flagged == 0
          and fr["lasso_oracle"] == 1.0 and fr["lasso_prediction"] == 1.0
          and rep.event_bound_ok(eta))
    elapsed = time.perf_counter() - t0
    report(capsys, 5, ok,
           f"lam=6Lambda: oracle inequality + prediction bound on all event trials, "
           f"event frequency {rep.event_frequency:.3f} >= "
           f"{1 - eta - 3 * math.sqrt(eta * (1 - eta) / 200):.3f}")
    assert ok


def test_criterion_06_lasso_selection_bound(capsys, lasso_200):
    _, rep = lasso_200
    fr = rep.pass_fractions()
    formula_ok = lasso_selection_bound(1.0, 100) == pytest.approx(1.1897e5, rel=1e-4)
    ok = fr["lasso_selection"] == 1.0 and formula_ok
    report(capsys, 6, ok,
           f"lam=7Lambda: selection bound on all event trials; value at "
           f"n=100 is {lasso_selection_bound(1.0, 100):.4e}")
    assert ok


def test_criterion_07_dantzig_bounds(capsys, certified):
    t0 = time.perf_counter()
    _, X, _ = certified
    inst = RecoveryInstance.build(X, "exact-sparse", 2, NoiseModel(X.n, 1.0),
                                  1.0, seed=701)
    rep = run_dantzig_experiment(inst, 200)
    fr = rep.pass_fractions()
    formulas_ok = (dantzig_prediction_bound(1.0, 100) == pytest.approx(686.7, abs=0.1)
                   and dantzig_selection_bound(1.0, 100) == pytest.approx(2.7469e4, rel=1e-4))
    elapsed = time.perf_counter() - t0
    ok = (rep.trials == 200 and rep.flagged == 0 and formulas_ok
          and fr["dantzig_prediction"] == 1.0 and fr["dantzig_selection"] == 1.0
          and fr["target_feasible"] == 1.0 and elapsed < 180.0)
    report(capsys, 7, ok,
           f"lam=Lambda: prediction + selection bounds and target "
           f"feasibility on all event trials ({elapsed:.1f}s)")
    assert ok


def test_criterion_08_noise_bounds(capsys):
    t0 = time.perf_counter()
    Xm = DesignMatrix(matching_graph(100))
    Xr = DesignMatrix(random_left_regular(200, 8, 100, seed=801))
    models = {"iid": NoiseModel(100, 1.0),
              "ar1(0.5)": NoiseModel(100, 1.0, "ar1", rho=0.5)}
    results = {}
    nonamp = True
    for name, model in models.items():
        for label, X in (("matching", Xm), ("random", Xr)):
            chk = empirical_noise_bound(X, model, 1.0, 10000, seed=802)
            results[f"{name}/{label}"] = chk
            nonamp = nonamp and chk.nonamp_ok
    eta_ok = thresholds(1.0, 100).eta_n == pytest.approx(1.8590e-3, rel=1e-4)
    elapsed = time.perf_counter() - t0
    ok = (all(c.passed for c in results.values()) and nonamp and eta_ok
          and elapsed < 30.0)
    freqs = ", ".join(f"{k}={c.frequency:.4f}" for k, c in results.items())
    report(capsys, 8, ok,
           f"P(||X^T z||_inf <= Lambda) >= 1 - eta_100 - 3SE for {freqs}; "
           f"non-amplification exact on all 4x10^4 draws ({elapsed:.1f}s)")
    assert ok


def test_criterion_09_ols_oracle(capsys, certified):
    t0 = time.perf_counter()
    _, X, _ = certified
    inst = RecoveryInstance.build(X, "exact-sparse", 2, NoiseModel(X.n, 1.0),
                                  6.0, seed=901)
    out = ols_oracle_comparison(inst, 10000)
    elapsed = time.perf_counter() - t0
    ok = out["within_10pct"] and elapsed < 60.0
    report(capsys, 9, ok,
           f"OLS-on-support mean {out['ols_mean']:.4e} vs sigma^2 s/n = "
           f"{out['expected']:.4e} over 10^4 trials ({elapsed:.1f}s)")
    assert ok


def test_criterion_10_lp_vertex_enumeration(capsys):
    t0 = time.perf_counter()
    rng = Stream(1010)
    agreed = solved = 0
    while solved < 50:
        n = 2 + rng.below(5)
        m = 1 + rng.below(n - 1) if n > 2 else 1
        A = np.array([[2.0 * rng.uniform() - 1.0 for _ in range(n)] for _ in range(m)])
        x0 = np.array([rng.uniform() for _ in range(n)])
        c = np.array([rng.uniform() for _ in range(n)])
        oracle = enumerate_lp_optimum(c, A, A @ x0)
        if oracle is None:
            continue
        res = lp_solve(LinearProgram(c, A, A @ x0))
        solved += 1
        if res.status == "optimal" and abs(res.objective - oracle) <= 1e-9:
            agreed += 1
    elapsed = time.perf_counter() - t0
    ok = agreed == 50
    report(capsys, 10, ok,
           f"simplex agreed with vertex enumeration on {agreed}/50 LPs "
           f"({elapsed:.1f}s)")
    assert ok


def test_criterion_11_identity_closed_forms(capsys):
    t0 = time.perf_counter()
    X = DesignMatrix(matching_graph(6))
    rng = Stream(1111)
    worst = 0.0
    for t in range(100):
        y = 3.0 * gaussians(11000 + t, 6)
        lam = 4.0 * rng.uniform()
        ls = lasso(X, y, lam).beta
        ds = dantzig(X, y, lam).beta
        worst = max(worst,
                    float(np.max(np.abs(ls - [soft(v, lam / 2) for v in y]))),
                    float(np.max(np.abs(ds - [soft(v, lam) for v in y]))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8
    report(capsys, 11, ok,
           f"identity-design lasso/Dantzig match soft thresholding at lam/2 "
           f"and lam, worst error {worst:.2e} ({elapsed:.1f}s)")
    assert ok


def test_report_only_asymptotic_bounds(capsys):
    # not a criterion: the asymptotic size guarantees are computed and
    # reported only, since the universal constant is unspecified and the
    # bounds are astronomically loose at desk scale
    from expander_cs import ExpanderParams, oracle_factors, suggest_pv_bounds
    d_bound, n_bound = suggest_pv_bounds(256, 4, ExpanderParams(s=4))
    rho, tau = oracle_factors(4, 256, alpha=1.0, theta=8.0)
    with capsys.disabled():
        print(f"\nACCEPTANCE INFO      : report-only bounds at p=256, s=4: "
              f"d<= {d_bound:.3g}, n <= {n_bound:.3g}, rho = {rho:.3g}, "
              f"tau = {tau:.3g} (no pass/fail attached)")
    assert d_bound > 0 and n_bound > 0 and rho > 0 and tau > 0


def test_criterion_12_nsp_oracle_consistency(capsys):
    # wide tiny designs (p > n) where the nullspace-property decision is
    # nontrivial: whenever the oracle certifies order s, basis pursuit must
    # recover a target on every size-s support exactly
    t0 = time.perf_counter()
    instances = [random_left_regular(p, d, n, seed)
                 for p in (8, 9, 10) for n in (6, 7)
                 for d in (3, 4) for seed in (0, 1, 3)]
    checked = recovered = 0
    consistent = True
    for g in instances:
        X = DesignMatrix(g)
        for s in (1, 2):
            nsp = nullspace_property_oracle(X, s)
            if not nsp.ok:
                continue
            checked += 1
            for support in itertools.combinations(range(X.p), s):
                beta = np.zeros(X.p)
                st = Stream(1200 + 31 * support[0] + support[-1])
                for i in support:
                    beta[i] = st.signed_uniform(1.0, 2.0)
                try:
                    est = basis_pursuit(X, X.matvec(beta))
                except SolverStatusError:
                    consistent = False
                    continue
                rel = float(np.abs(est - beta).sum() / np.abs(beta).sum())
                if rel <= 1e-6:
                    recovered += 1
                else:
                    consistent = False
    dup = BipartiteGraph(3, 4, 2, ((0, 1), (0, 1), (2, 3)), "dup")
    dup_fails = not nullspace_property_oracle(DesignMatrix(dup), 1).ok
    elapsed = time.perf_counter() - t0
    ok = consistent and dup_fails and checked >= 5
    report(capsys, 12, ok,
           f"NSP-certified tiny instances: {recovered} exhaustive-support "
           f"recoveries all exact across {checked} (graph, s) pairs; "
           f"duplicate columns fail at s=1 ({elapsed:.1f}s)")
    assert ok

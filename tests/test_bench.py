import itertools
import math

import numpy as np
import pytest

import mc_oracle
from expander_cs import (GF, DesignMatrix, NoiseModel, RecoveryInstance, design,
                         empirical_noise_bound, matching_graph, mvse_sweep, noise, ols_oracle_comparison,
                         oracle_factors, pv_expander, run_dantzig_experiment,
                         run_lasso_experiment, run_recovery_experiment,
                         solve, thresholds)
from expander_cs.cli import _experiment_text, dumps_17g
from expander_cs.bench import (CheckResult, ExperimentReport, TrialRecord,
                               compressible_target, dantzig_prediction_bound,
                               dantzig_selection_bound, lasso_prediction_bound,
                               lasso_selection_bound, sparse_target)
from expander_cs.graphs import BipartiteGraph, neighbor_set, random_left_regular
from expander_cs.rng import Stream
from expander_cs.verify import check_expansion_exhaustive


def test_bound_values_at_n100():
    assert lasso_prediction_bound(1.0, 100) == pytest.approx(728.4, abs=0.1)
    assert lasso_selection_bound(1.0, 100) == pytest.approx(1.1897e5, rel=1e-4)
    assert dantzig_prediction_bound(1.0, 100) == pytest.approx(686.7, abs=0.1)
    assert dantzig_selection_bound(1.0, 100) == pytest.approx(2.7469e4, rel=1e-4)


def test_oracle_factors_example_and_monotonicity():
    rho, tau = oracle_factors(4, 256, 1.0, 1.0)
    inner = math.log(256) * math.log(4)
    expected_rho = (2 * math.log(4) + 4 * math.log(inner)) * 4 * inner**4
    assert rho == pytest.approx(expected_rho, rel=1e-12)
    assert rho == pytest.approx(1.527e5, rel=1e-3)
    rho2, tau2 = oracle_factors(5, 256, 1.0, 1.0)
    assert rho2 > rho and tau2 > tau
    with pytest.raises(ValueError):
        oracle_factors(1, 256, 1.0, 1.0)


def test_sparse_target_structure():
    beta, support = sparse_target(20, 3, seed=4)
    assert len(support) == 3
    assert sorted(np.nonzero(beta)[0]) == support
    for i in support:
        assert 1.0 <= abs(beta[i]) <= 2.0


def test_compressible_target_structure():
    beta, support = compressible_target(10, 2, seed=5)
    assert support == [0, 1]
    np.testing.assert_allclose(np.abs(beta),
                               [(i + 1) ** -2.0 for i in range(10)])


def test_compressible_target_is_the_stream_definition():
    # one sign() per coordinate from Stream(seed), times (i+1)^-2 on Python floats
    for p, seed in ((1, 0), (2, 5), (17, 3), (1000, 2**64 - 1), (4099, 12345)):
        rng = Stream(seed)
        want = np.array([rng.sign() * (i + 1) ** -2.0 for i in range(p)])
        assert compressible_target(p, 1, seed)[0].tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["exact-sparse", "compressible"])
def test_target_sparsity_must_lie_in_0_p(kind):
    # a compressible support is range(s): past p it indexed out of bounds,
    # and a negative s gave an empty support
    X = DesignMatrix(matching_graph(16))
    for s in (-1, 17):
        with pytest.raises(ValueError, match=f"^target sparsity s = {s} is outside"):
            RecoveryInstance.build(X, kind, s, NoiseModel(16, 1.0), 6.0, seed=0)
    for s in (0, 16):
        assert len(RecoveryInstance.build(X, kind, s, NoiseModel(16, 1.0), 6.0, 0).support) == s


# the per-block harness against the per-trial loops it replaced; sigma
# 0.01 and below make the estimates leave zero on these designs
BLOCK_DESIGNS = {"p40/d5/n60": lambda: random_left_regular(40, 5, 60, 3),
                 "GF(5) l2 m1": lambda: pv_expander(GF(5), 2, 1, 2),
                 "p64/d8/n1536": lambda: random_left_regular(64, 8, 1536, 1)}


def _same_report(new, ref):
    assert (_experiment_text(new, new.pass_fractions(), "json")
            == _experiment_text(ref, ref.pass_fractions(), "json"))
    assert repr(new.records) == repr(ref.records)


@pytest.mark.parametrize("design,sigma", [
    *itertools.product(["p40/d5/n60", "GF(5) l2 m1"], [1.0, 0.01, 0.001, 0.0]),
    ("p64/d8/n1536", 1.0), ("p64/d8/n1536", 0.01)])
def test_block_experiments_reproduce_the_per_trial_loops(design, sigma, monkeypatch):
    X = DesignMatrix(BLOCK_DESIGNS[design]())
    paths, lps = [], []
    path, lp = solve._l1_path, solve.lp_solve
    monkeypatch.setattr(solve, "_l1_path",
                        lambda X, C, *a: paths.extend([1] * len(C)) or path(X, C, *a))
    monkeypatch.setattr(solve, "lp_solve", lambda *a: lps.append(1) or lp(*a))
    small = X.n < 1000
    for model, target in itertools.product(
            [NoiseModel(X.n, sigma), NoiseModel(X.n, sigma, "ar1", rho=0.5)],
            ["exact-sparse", "compressible"]):
        for multiple in (6.0, 7.5):
            inst = RecoveryInstance.build(X, target, 2, model, multiple, seed=11)
            trials = 6 if small else 12          # 12 rows of n = 1536 are two blocks
            _same_report(run_lasso_experiment(inst, trials),
                         mc_oracle.lasso_experiment(inst, trials))
        if not small:
            continue
        for multiple in (1.0, 1.5):
            inst = RecoveryInstance.build(X, target, 2, model, multiple, seed=11)
            _same_report(run_dantzig_experiment(inst, 3), mc_oracle.dantzig_experiment(inst, 3))
        inst = RecoveryInstance.build(X, target, 2, model, 6.0, seed=11)
        assert dumps_17g(ols_oracle_comparison(inst, 3, include_estimators=True)) == \
            dumps_17g(mc_oracle.ols_comparison(inst, 3, include_estimators=True))
    assert (len(paths) > 0) == (sigma <= 0.01)
    assert (len(lps) > 0) == (small and sigma <= 0.01)
    if small and sigma == 1.0:                  # past one block, all of it screened
        trials = noise._BLOCK // X.n + 2
        inst = RecoveryInstance.build(X, "exact-sparse", 2, NoiseModel(X.n, sigma), 6.0, 12)
        _same_report(run_lasso_experiment(inst, trials),
                     mc_oracle.lasso_experiment(inst, trials))


def test_a_block_stacks_at_most_stack_rows_trials(monkeypatch):
    # a block's (rows, p) arrays stay bounded on wide designs: three rows a
    # block here, and the reports are those of the per-trial loops
    X = DesignMatrix(BLOCK_DESIGNS["p40/d5/n60"]())
    heights = []
    product = DesignMatrix.transpose_matvec

    def recorded(self, z):
        if np.ndim(z) == 2:
            heights.append(len(z))
        return product(self, z)

    checks = [empirical_noise_bound(X, NoiseModel(X.n, 1.0), 1.0, 7, 5)]
    monkeypatch.setattr(design, "STACK_ENTRIES", 4 * X.p * X.d - 1)
    monkeypatch.setattr(DesignMatrix, "transpose_matvec", recorded)
    checks.append(empirical_noise_bound(X, NoiseModel(X.n, 1.0), 1.0, 7, 5))
    assert checks[0] == checks[1] and heights == [3, 3, 1]
    for sigma in (1.0, 0.01):
        inst = RecoveryInstance.build(X, "exact-sparse", 2, NoiseModel(X.n, sigma), 6.0, 11)
        _same_report(run_lasso_experiment(inst, 7), mc_oracle.lasso_experiment(inst, 7))
        inst = RecoveryInstance.build(X, "exact-sparse", 2, NoiseModel(X.n, sigma), 1.0, 11)
        _same_report(run_dantzig_experiment(inst, 4), mc_oracle.dantzig_experiment(inst, 4))
    assert max(heights) == 3


def test_lambda_policy_enforced():
    X = DesignMatrix(matching_graph(4))
    model = NoiseModel(4, 1.0)
    inst = RecoveryInstance.build(X, "exact-sparse", 1, model, 5.0, seed=0)
    with pytest.raises(ValueError):
        run_lasso_experiment(inst, 2)
    inst = RecoveryInstance.build(X, "exact-sparse", 1, model, 0.5, seed=0)
    with pytest.raises(ValueError):
        run_dantzig_experiment(inst, 2)


def test_noiseless_lasso_experiment():
    # sigma = 0: the event holds trivially and the inequality collapses to
    # ||X gamma||^2 <= 0 at lam = 0, met by the exact unpenalized fit
    X = DesignMatrix(matching_graph(5))
    inst = RecoveryInstance.build(X, "exact-sparse", 2, NoiseModel(5, 0.0), 6.0, seed=1)
    rep = run_lasso_experiment(inst, 5)
    assert rep.event_frequency == 1.0
    assert rep.all_event_checks_hold()
    assert rep.check_names() == ["lasso_oracle"]


def test_lasso_experiment_on_certified(certified):
    _, X, _ = certified
    inst = RecoveryInstance.build(X, "exact-sparse", 2, NoiseModel(X.n, 1.0), 6.0, seed=2)
    rep = run_lasso_experiment(inst, 25)
    assert rep.flagged == 0
    assert rep.all_event_checks_hold()
    assert set(rep.check_names()) == {"lasso_oracle", "lasso_prediction",
                                      "lasso_selection"}
    eta = thresholds(1.0, X.n).eta_n
    assert rep.event_bound_ok(eta)


def test_lasso_experiment_compressible(certified):
    _, X, _ = certified
    inst = RecoveryInstance.build(X, "compressible", 2, NoiseModel(X.n, 1.0), 6.0, seed=3)
    assert inst.offsupport(inst.beta_star) > 0          # nonzero tail mass
    rep = run_lasso_experiment(inst, 10)
    assert rep.all_event_checks_hold()
    assert rep.check_names() == ["lasso_oracle"]


def test_dantzig_experiment_on_certified(certified):
    _, X, _ = certified
    inst = RecoveryInstance.build(X, "exact-sparse", 2, NoiseModel(X.n, 1.0), 1.0, seed=4)
    rep = run_dantzig_experiment(inst, 10)
    assert rep.flagged == 0
    assert rep.all_event_checks_hold()
    assert set(rep.check_names()) >= {"dantzig_oracle", "target_feasible",
                                      "dantzig_err_pred", "dantzig_prediction",
                                      "dantzig_selection"}


def test_dantzig_experiment_compressible(certified):
    # general target: S is the top-s set and the tail mass enters the bound
    _, X, _ = certified
    inst = RecoveryInstance.build(X, "compressible", 2, NoiseModel(X.n, 1.0), 1.0, seed=14)
    assert inst.offsupport(inst.beta_star) > 0
    rep = run_dantzig_experiment(inst, 5)
    assert rep.all_event_checks_hold()
    assert set(rep.check_names()) == {"dantzig_oracle", "target_feasible",
                                      "dantzig_l1_bound"}


def test_dantzig_zero_solution_case():
    # lam >= ||X^T y||_inf: the selector returns 0 and the inequalities
    # hold with prediction error ||X beta*||
    X = DesignMatrix(matching_graph(6))
    inst = RecoveryInstance.build(X, "exact-sparse", 1, NoiseModel(6, 0.1), 40.0, seed=5)
    rep = run_dantzig_experiment(inst, 5)
    assert rep.all_event_checks_hold()
    xb = X.matvec(inst.beta_star)
    for r in rep.records:
        assert r.pred_error == pytest.approx(float(np.linalg.norm(xb)), rel=1e-6)


def test_recovery_requires_certificate(certified):
    graph, X, cert = certified
    dup = BipartiteGraph(3, 4, 2, ((0, 1), (0, 1), (2, 3)), "dup")
    Xdup = DesignMatrix(dup)
    with pytest.raises(ValueError):
        run_recovery_experiment(Xdup, 1, 3, 0, cert)     # mismatched design
    weak = check_expansion_exhaustive(graph, 2, 0.125)   # order too low for s=2
    with pytest.raises(ValueError):
        run_recovery_experiment(X, 2, 3, 0, weak)
    # same (p, n, d), but seed 2 is refuted at (4, 1/8): the witness subset
    # of the certified graph has another neighbour count there
    other = random_left_regular(graph.p, graph.d, graph.n, 2)
    assert not check_expansion_exhaustive(other, 4, 0.125).ok
    subset = cert.witness["subset"]
    assert len(neighbor_set(other, subset)) != cert.witness["neighbor_count"]
    with pytest.raises(ValueError, match="does not match this design"):
        run_recovery_experiment(DesignMatrix(other), 2, 3, 0, cert)


def test_recovery_zero_sparsity(certified):
    _, X, cert = certified
    rep = run_recovery_experiment(X, 0, 3, 0, cert)
    assert rep.all_event_checks_hold()                   # beta* = 0 recovered


def test_ols_comparison_small():
    X = DesignMatrix(matching_graph(30))
    inst = RecoveryInstance.build(X, "exact-sparse", 3, NoiseModel(30, 2.0), 6.0, seed=6)
    out = ols_oracle_comparison(inst, 3000)
    assert out["expected"] == pytest.approx(4.0 * 3 / 30, rel=1e-12)
    assert out["within_10pct"]
    assert "rho_line" in out and out["rho_line"] > 0


def test_ols_comparison_estimator_ratios():
    X = DesignMatrix(matching_graph(12))
    inst = RecoveryInstance.build(X, "exact-sparse", 2, NoiseModel(12, 1.0), 6.0, seed=7)
    out = ols_oracle_comparison(inst, 30, include_estimators=True)
    assert math.isfinite(out["lasso_over_ols"])
    assert math.isfinite(out["dantzig_over_ols"])


def test_experiment_report_aggregation_logic():
    rep = ExperimentReport("lasso", {})
    rep.records = [
        TrialRecord(0, True, True, 1.0, 0.0, [CheckResult("c", 1.0, 2.0, True)]),
        TrialRecord(1, True, False, 1.0, 0.0, [CheckResult("c", 9.0, 2.0, False)]),
        TrialRecord(2, False, True, 1.0, 0.0, [CheckResult("c", 9.0, 2.0, False)]),
    ]
    # non-converged and off-event trials stay out of the pass statistics
    assert rep.pass_fractions() == {"c": 1.0}
    assert rep.flagged == 1
    assert rep.event_frequency == pytest.approx(2 / 3)


def test_report_csv_shape_and_determinism(certified):
    _, X, _ = certified
    inst = RecoveryInstance.build(X, "exact-sparse", 2, NoiseModel(X.n, 1.0), 6.0, seed=8)
    a = list(run_lasso_experiment(inst, 4).csv_rows())
    b = list(run_lasso_experiment(inst, 4).csv_rows())
    assert a == b
    assert a[0] == ("trial", "check", "event", "converged", "lhs", "rhs",
                    "holds", "pred_error", "offsupport_mass")
    assert len(a) == 1 + 4 * 3            # three checks per trial


def test_mvse_sweep_rows():
    rows = mvse_sweep([12, 16, 20], [3, 3, 3], 1.0,
                      trials=8, seed=9, n=1536)
    assert [r["p"] for r in rows] == [12, 16, 20]
    for r in rows:
        assert not r["skipped"]
        assert r["certified"] == "exhaustive"
        assert r["proxy"] is not None and r["proxy"] >= 0.0
        # the worst off-support mass per coordinate stays under the
        # selection bound scaled by |S^c|
        assert r["proxy"] <= r["bound"] + 1e-12
    # at lam = 7 Lambda the soft threshold dwarfs every correlation, so the
    # estimator never leaks off support and the proxy is identically zero;
    # the trend across p is therefore flat at the floor, not strict
    assert rows[-1]["proxy"] <= rows[0]["proxy"]


def test_mvse_sweep_certifies_p32_exactly():
    # order 8 at p = 32 has 15,033,172 subsets but only a few hundred
    # connected ones, so the exact check certifies under the default budget
    rows = mvse_sweep([32], [4], 1.0, trials=2, seed=0)
    assert rows[0]["s"] == 4
    assert not rows[0]["skipped"] and rows[0]["certified"] == "exhaustive"


def test_mvse_sweep_skips_a_row_past_the_budget_after_one_seed(monkeypatch):
    import expander_cs.bench as bench
    calls = []

    def small_budget(g, s, eps):
        calls.append(g)
        return check_expansion_exhaustive(g, s, eps, budget=40)

    monkeypatch.setattr(bench, "check_expansion_exhaustive", small_budget)
    rows = mvse_sweep([32], [4], 1.0, trials=2, seed=0)
    assert len(calls) == 1
    assert rows[0]["skipped"] and rows[0]["certified"] is None
    assert rows[0]["graph_seed"] is None


def test_mvse_sweep_marks_impossible_rows():
    rows = mvse_sweep([4], [4], 1.0, trials=2, seed=10, n=64)
    assert rows[0]["skipped"]


def test_recovery_blocks_reproduce_the_per_trial_loop(certified, monkeypatch):
    # 23 trials of n = 1536 are three blocks of at most 10; past the step
    # limit every trial fails and is recorded as not converged
    _, X, cert = certified
    assert noise.block_rows(X.n, X.stack_rows) == 10
    for s, trials in ((2, 23), (1, 4), (0, 2)):
        _same_report(run_recovery_experiment(X, s, trials, 5, cert),
                     mc_oracle.recovery_experiment(X, s, trials, 5, cert))
    monkeypatch.setattr(solve, "BP_MAX_STEPS", 1)
    monkeypatch.setattr(mc_oracle, "BP_MAX_STEPS", 1)
    rep = run_recovery_experiment(X, 2, 12, 5, cert)
    assert rep.flagged == 12
    _same_report(rep, mc_oracle.recovery_experiment(X, 2, 12, 5, cert))


def per_name_pass_fractions(report):
    """pass_fractions and check_names by one scan of the records per check
    name: the oracle for the one-pass count."""
    names = []
    for r in report.records:
        for c in r.checks:
            if c.name not in names:
                names.append(c.name)
    out = {}
    for name in names:
        num = den = 0
        for r in report.records:
            if not (r.event and r.converged):
                continue
            for c in r.checks:
                if c.name == name:
                    den += 1
                    num += c.holds
        out[name] = num / den if den else 1.0
    return out, names


def _random_report(seed):
    # failed trials without checks, off-event and unconverged trials, names
    # that first appear late, repeat within a trial or never meet an event
    rng = Stream(seed)
    rep = ExperimentReport("dantzig", {})
    for t in range(rng.below(12)):
        names = ["a", "b", "c", "late", "off"][:1 + rng.below(4 if t < 3 else 5)]
        checks = [] if rng.below(5) == 0 else [
            CheckResult(name, 0.0, 1.0, [True, False, np.bool_(True)][rng.below(3)])
            for name in names for _ in range(1 + (rng.below(6) == 0))]
        event, converged = rng.below(4) > 0, rng.below(5) > 0
        if any(c.name == "off" for c in checks):
            event = False
        rep.records.append(TrialRecord(t, event, converged, 1.0, 0.0, checks))
    return rep


def test_pass_fractions_match_the_per_name_scans():
    unseen = 0
    for seed in range(300):
        rep = _random_report(seed)
        want, names = per_name_pass_fractions(rep)
        assert list(rep.pass_fractions().items()) == list(want.items()), seed
        assert rep.check_names() == names, seed
        assert rep.all_event_checks_hold() == all(f == 1.0 for f in want.values())
        unseen += "off" in names
    assert unseen > 10


def test_pass_fractions_keep_first_seen_order_and_unseen_names():
    rep = ExperimentReport("lasso", {})
    rep.records = [
        TrialRecord(0, True, True, 1.0, 0.0, []),                # a failed trial
        TrialRecord(1, False, True, 1.0, 0.0, [CheckResult("z", 0.0, 1.0, False)]),
        TrialRecord(2, True, True, 1.0, 0.0, [CheckResult("y", 0.0, 1.0, True),
                                              CheckResult("x", 0.0, 1.0, False)]),
        TrialRecord(3, True, False, 1.0, 0.0, [CheckResult("w", 0.0, 1.0, False)]),
        TrialRecord(4, True, True, 1.0, 0.0, [CheckResult("x", 0.0, 1.0, True)]),
    ]
    assert list(rep.pass_fractions().items()) == [("z", 1.0), ("y", 1.0), ("x", 0.5),
                                                  ("w", 1.0)]
    assert rep.check_names() == ["z", "y", "x", "w"]
    assert list(rep.pass_fractions().items()) == list(per_name_pass_fractions(rep)[0].items())

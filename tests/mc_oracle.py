"""The noisy Monte Carlo as it ran before it worked per noise block, kept
as a test oracle.

Before the experiments drew, multiplied and solved a block of trials at
a time, each trial took its own X^T z, called ``lasso`` once per penalty
and ``dantzig`` once, and computed every prediction error and
off-support mass on its own estimate. The solvers below are the
one-row ``lasso`` and ``dantzig`` of that code, with their zero exits
as they were stated then, and the three experiment loops are that code
unchanged; the block harness must reproduce their reports byte for byte.
"""

import math

import numpy as np

from expander_cs import solve
from expander_cs.bench import (ExperimentReport, TrialRecord, _check, _noise_lambda,
                               _params, _penalty, _pred_error, dantzig_err_pred_bound,
                               dantzig_oracle_rhs, dantzig_prediction_bound,
                               dantzig_selection_bound, dantzig_selection_general_bound,
                               lasso_oracle_rhs, lasso_prediction_bound,
                               lasso_selection_bound, oracle_factors)
from expander_cs.errors import SolverStatusError
from expander_cs.noise import sample_noise
from expander_cs.rng import derive_seed
from expander_cs.solve import (DantzigSolution, LassoSolution, LinearProgram,
                               _dantzig_matrix, lp_solve)


def trial_lasso(X, y, lam, tol=1e-8, max_iter=100000):
    """``lasso`` of one row: the path, which exits at its start when
    ||X^T y||_inf <= lam/2, then the KKT products on the returned b."""
    y = np.asarray(y, dtype=np.float64)
    c = X.transpose_matvec(y)
    if float(np.max(np.abs(c))) <= lam / 2.0:
        beta, steps = np.zeros(X.p), 0
    else:
        beta, steps, _ = solve._l1_path(X, c, lam / 2.0, max_iter)
    resid = y - X.matvec(beta)
    corr = 2.0 * X.transpose_matvec(resid)
    kkt = np.where(beta != 0.0, np.abs(corr - lam * np.sign(beta)),
                   np.maximum(np.abs(corr) - lam, 0.0))
    kkt_residual = float(kkt.max())
    objective = float(resid @ resid) + lam * float(np.abs(beta).sum())
    return LassoSolution(beta, kkt_residual, steps, objective, kkt_residual <= tol)


def trial_dantzig(X, y, lam):
    """``dantzig`` of one row: no LP when ||X^T y||_inf <= lam, and the
    slack recomputed by products from whichever b it returns."""
    y = np.asarray(y, dtype=np.float64)
    p = X.p
    corr = X.transpose_matvec(y)
    beta = np.zeros(p)
    if np.max(np.abs(corr)) > lam:
        b = np.concatenate([lam - corr, lam + corr])
        c = np.concatenate([np.ones(2 * p), np.zeros(2 * p)])
        res = lp_solve(LinearProgram(c, _dantzig_matrix(X), b))
        if res.status == "unbounded":
            raise SolverStatusError("Dantzig LP cannot be unbounded: objective >= 0")
        if res.status != "optimal":
            raise SolverStatusError(f"Dantzig LP is {res.status}")
        beta = res.x[:p] - res.x[p:2 * p]
    slack = float(np.max(np.abs(X.transpose_matvec(y - X.matvec(beta)))))
    if slack > lam + 1e-8:
        raise SolverStatusError(
            f"Dantzig solution violates its constraint: {slack} > {lam} + 1e-8")
    return DantzigSolution(beta, slack, float(np.abs(beta).sum()), "optimal")


def _noisy_trials(instance, xb, lam_noise, trials):
    X = instance.design
    for k in range(trials):
        z = sample_noise(instance.noise, derive_seed(instance.seed, k))
        sup = float(np.max(np.abs(X.transpose_matvec(z))))
        yield k, xb + z, sup <= lam_noise + 1e-12, sup


def lasso_experiment(instance, trials):
    lam_main, lam_noise = _penalty(instance, 6.0, "lasso experiments need lambda >= 6 Lambda")
    X = instance.design
    sigma, n = instance.noise.sigma, X.n
    tail = instance.offsupport(instance.beta_star)

    lambdas = {lam_main}
    extras = instance.kind == "exact-sparse" and sigma > 0
    if extras:
        lambdas.update({6.0 * lam_noise, 7.0 * lam_noise})

    report = ExperimentReport("lasso", _params("lasso", instance, lam_main, lam_noise, trials))
    xb = X.matvec(instance.beta_star)
    for k, y, event, _ in _noisy_trials(instance, xb, lam_noise, trials):
        sols = {lam: trial_lasso(X, y, lam) for lam in sorted(lambdas)}
        converged = all(s.converged for s in sols.values())

        sol = sols[lam_main]
        gamma_pred = _pred_error(X, xb, sol.beta)
        off_err = instance.offsupport(sol.beta - instance.beta_star)
        checks = [_check("lasso_oracle",
                         gamma_pred**2 + (lam_main - 6.0 * lam_noise) * off_err,
                         lasso_oracle_rhs(lam_main, n, tail))]
        if extras:
            checks.append(_check("lasso_prediction",
                                 _pred_error(X, xb, sols[6.0 * lam_noise].beta),
                                 lasso_prediction_bound(sigma, n)))
            checks.append(_check("lasso_selection",
                                 instance.offsupport(sols[7.0 * lam_noise].beta),
                                 lasso_selection_bound(sigma, n)))

        report.records.append(TrialRecord(
            k, event, converged, gamma_pred, instance.offsupport(sol.beta), checks))
    return report


def dantzig_experiment(instance, trials):
    lam, lam_noise = _penalty(instance, 1.0, "Dantzig experiments need lambda >= Lambda")
    X = instance.design
    sigma, n = instance.noise.sigma, X.n
    tail = instance.offsupport(instance.beta_star)
    target_l1 = float(np.abs(instance.beta_star).sum())
    sparse = instance.kind == "exact-sparse"
    at_floor = instance.lambda_multiple == 1.0 and sigma > 0

    report = ExperimentReport("dantzig", _params("dantzig", instance, lam, lam_noise, trials))
    xb = X.matvec(instance.beta_star)
    for k, y, event, noise_sup in _noisy_trials(instance, xb, lam_noise, trials):
        try:
            sol = trial_dantzig(X, y, lam)
        except SolverStatusError:
            report.records.append(TrialRecord(k, event, False, math.nan, math.nan, []))
            continue

        gamma_pred = _pred_error(X, xb, sol.beta)
        off = instance.offsupport(sol.beta)
        checks = [_check("dantzig_oracle", gamma_pred**2,
                         dantzig_oracle_rhs(lam, lam_noise, n, tail)),
                  _check("target_feasible", noise_sup, lam, 1e-12),
                  _check("dantzig_l1_bound", sol.l1_norm, target_l1)]
        if sparse:
            checks.append(_check("dantzig_err_pred", gamma_pred,
                                 dantzig_err_pred_bound(lam, lam_noise, n)))
            checks.append(_check("dantzig_selection_general", off,
                                 dantzig_selection_general_bound(lam, lam_noise, n)))
            if at_floor:
                checks.append(_check("dantzig_prediction", gamma_pred,
                                     dantzig_prediction_bound(sigma, n)))
                checks.append(_check("dantzig_selection", off,
                                     dantzig_selection_bound(sigma, n)))
        report.records.append(TrialRecord(k, event, True, gamma_pred, off, checks))
    return report


def ols_comparison(instance, trials, include_estimators=False):
    X = instance.design
    sigma, n = instance.noise.sigma, X.n
    lam_noise = _noise_lambda(sigma, n)
    ols_sum = lasso_sum = dantzig_sum = 0.0
    xb = X.matvec(instance.beta_star)
    for _, y, _, _ in _noisy_trials(instance, xb, lam_noise, trials):
        b = solve.ols_on_support(X, y, instance.support)
        ols_sum += _pred_error(X, xb, b) ** 2 / n
        if include_estimators:
            lasso_sum += _pred_error(X, xb, trial_lasso(X, y, 6.0 * lam_noise).beta) ** 2 / n
            dantzig_sum += _pred_error(X, xb, trial_dantzig(X, y, lam_noise).beta) ** 2 / n
    ols_mean = ols_sum / trials
    expected = sigma**2 * instance.s / n
    out = {
        "trials": trials,
        "ols_mean": ols_mean,
        "expected": expected,
        "within_10pct": abs(ols_mean - expected) <= 0.10 * expected if expected else ols_mean == 0.0,
    }
    if instance.s >= 2 and X.p > instance.s:
        rho, tau = oracle_factors(instance.s, X.p, 1.0, 8.0)
        out["rho_line"] = rho * expected
        out["tau_line"] = tau * sigma**2 * (1.0 / X.d) * instance.s * math.log(X.p) / n
    if include_estimators:
        out["lasso_mean"] = lasso_sum / trials
        out["dantzig_mean"] = dantzig_sum / trials
        out["lasso_over_ols"] = (lasso_sum / trials) / ols_mean if ols_mean else math.inf
        out["dantzig_over_ols"] = (dantzig_sum / trials) / ols_mean if ols_mean else math.inf
    return out

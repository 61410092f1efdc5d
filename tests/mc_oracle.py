"""The Monte Carlo as it ran before it worked per block of trials, and
the one-row l1 path it solved with, kept as test oracles.

Before the experiments drew, multiplied and solved a block of trials at
a time, each trial took its own X^T z, called ``lasso`` once per penalty
and ``dantzig`` once, and computed every prediction error and
off-support mass on its own estimate. The solvers below are the
one-row ``lasso`` and ``dantzig`` of that code, with their zero exits
as they were stated then, and the three experiment loops are that code
unchanged; the block harness must reproduce their reports byte for byte.

The l1 path below is the one-row path before the solver followed a stack
of rows in lockstep: ``direction`` solves one active Gram system from a
dense incidence matmul, and z is the dense product X d of a direction
that is zero off the support. ``basis_pursuit`` and
``recovery_experiment`` are the one-row basis pursuit and the per-trial
recovery loop of that code. The lockstep path must reproduce each row of
this path bit for bit: beta, steps, z and the error of a failed row.
"""

import math

import numpy as np

from expander_cs import solve
from expander_cs.bench import (ExperimentReport, TrialRecord, _check, _noise_lambda,
                               _offsupport_mass, _params, _penalty, _pred_error,
                               dantzig_err_pred_bound,
                               dantzig_oracle_rhs, dantzig_prediction_bound,
                               dantzig_selection_bound, dantzig_selection_general_bound,
                               lasso_oracle_rhs, lasso_prediction_bound,
                               lasso_selection_bound, oracle_factors,
                               require_expander_certificate, sparse_target)
from expander_cs.errors import SolverStatusError
from expander_cs.noise import sample_noise
from expander_cs.rng import derive_seed
from expander_cs.solve import (BP_MAX_STEPS, GRAM_TOL, PATH_TOL, DantzigSolution,
                               LassoSolution, LinearProgram, _dantzig_matrix, lp_solve)


def direction(X, active, signs):
    """G_AA^{-1} s_A of one row: C = M M^T from the dense (|A|, n)
    incidence M, a Cholesky pivot check, then one solve."""
    incidence = np.zeros((len(active), X.n))
    incidence[np.arange(len(active))[:, None], X.rows[active]] = 1.0
    counts = incidence @ incidence.T
    try:
        smallest = float(np.diag(np.linalg.cholesky(counts)).min())
    except np.linalg.LinAlgError:
        smallest = 0.0
    if smallest**2 <= GRAM_TOL * X.d:
        raise SolverStatusError(
            f"the Gram matrix of the {len(active)} active columns is singular")
    return np.linalg.solve(counts, signs) * float(X.d) ** 2


def l1_path(X, c, t_stop, max_steps):
    """The one-row l1 path from c = X^T y down to ``t_stop``: (beta, steps,
    z), z None past ``max_steps`` segments; raises SolverStatusError."""
    p = X.p
    c = c.copy()
    t = float(np.max(np.abs(c)))
    beta = np.zeros(p)
    tol = PATH_TOL * t
    first = int(np.argmax(np.abs(c) >= t - tol))
    active = [first]
    signs = [math.copysign(1.0, c[first])]
    for step in range(1, max_steps + 1):
        d_active = direction(X, active, np.array(signs))
        gamma = np.zeros(p)
        gamma[active] = d_active
        z = X.matvec(gamma)
        rate = X.transpose_matvec(z)

        inactive = np.ones(p, dtype=bool)
        inactive[active] = False
        joins = []
        for sign in (1.0, -1.0):
            closing = 1.0 - sign * rate
            moving = inactive & (closing > PATH_TOL)
            slack = t - sign * c[moving]
            slack[slack <= tol] = 0.0
            gap = np.full(p, math.inf)
            gap[moving] = slack / closing[moving]
            joins.append(gap)
        gap = np.minimum(*joins)
        idx = np.array(active)
        shrinking = beta[idx] * d_active < 0.0
        gap[idx[shrinking]] = -beta[idx[shrinking]] / d_active[shrinking]

        remaining = t - t_stop
        nearest = float(gap.min())
        if nearest >= remaining - tol:
            beta[active] += remaining * d_active
            return beta, step, z
        j = int(np.argmax(gap <= nearest + tol))
        beta[active] += gap[j] * d_active
        c -= gap[j] * rate
        t -= float(gap[j])
        if inactive[j]:
            active.append(j)
            signs.append(1.0 if joins[0][j] <= joins[1][j] else -1.0)
        else:
            k = active.index(j)
            del active[k], signs[k]
            beta[j] = 0.0
    return beta, max_steps, None


def basis_pursuit(X, y):
    """One-row basis pursuit: the path down to t = 0, then the range check
    and the dual certificate."""
    y = np.asarray(y, dtype=np.float64)
    c = X.transpose_matvec(y)
    if float(np.max(np.abs(c))) <= 0.0:
        beta, z = np.zeros(X.p), np.zeros(X.n)
    else:
        beta, _, z = l1_path(X, c, 0.0, BP_MAX_STEPS)
    if z is None:
        raise SolverStatusError(f"basis pursuit path exceeded {BP_MAX_STEPS} steps")
    scale = 1.0 + float(np.abs(y).max(initial=0.0))
    if float(np.max(np.abs(X.matvec(beta) - y))) > 1e-8 * scale:
        raise SolverStatusError("basis pursuit is infeasible: y is not in the range of X")
    l1 = float(np.abs(beta).sum())
    dual_norm = float(np.max(np.abs(X.transpose_matvec(z))))
    if dual_norm > 1.0 + 1e-9 or abs(float(y @ z) - l1) > 1e-9 * l1:
        raise SolverStatusError(
            f"basis pursuit's dual certificate fails: ||X^T z||_inf = {dual_norm}, "
            f"y^T z = {float(y @ z)}, ||b||_1 = {l1}")
    return beta


def recovery_experiment(X, s, trials, seed, certificate):
    require_expander_certificate(X, s, certificate)
    report = ExperimentReport("recovery", {
        "estimator": "basis_pursuit", "p": X.p, "n": X.n, "d": X.d, "s": s,
        "trials": trials, "seed": seed,
    })
    for k in range(trials):
        beta, support = sparse_target(X.p, s, derive_seed(seed, k))
        y = X.matvec(beta)
        try:
            est = basis_pursuit(X, y)
        except SolverStatusError:
            report.records.append(TrialRecord(k, True, False, math.nan, math.nan, []))
            continue
        denom = float(np.abs(beta).sum())
        err = float(np.abs(est - beta).sum())
        rel = err / denom if denom > 0 else err
        report.records.append(TrialRecord(
            k, True, True,
            float(np.linalg.norm(X.matvec(est - beta))),
            _offsupport_mass(est, support),
            [_check("exact_recovery", rel, 1e-6, 0.0)]))
    return report


def trial_lasso(X, y, lam, tol=1e-8, max_iter=100000):
    """``lasso`` of one row: the path, which exits at its start when
    ||X^T y||_inf <= lam/2, then the KKT products on the returned b."""
    y = np.asarray(y, dtype=np.float64)
    c = X.transpose_matvec(y)
    if float(np.max(np.abs(c))) <= lam / 2.0:
        beta, steps = np.zeros(X.p), 0
    else:
        beta, steps, _ = l1_path(X, c, lam / 2.0, max_iter)
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

"""Experiment harness: reproduce the error-prediction and variable-selection
inequalities empirically, at desk scale.

Each bound is restated as a per-trial assertion: conditional on the noise
event ||X^T z||_inf <= Lambda the inequality is a deterministic fact, so on
every event trial it must hold up to 1e-9 numerical slack. Aggregates then
report the event frequency (which must clear its own tail bound) and the
per-inequality pass fractions. Trials whose solver did not converge are
flagged and excluded from pass statistics, never silently dropped.

The noisy experiments run one block of trials at a time, as
``trial_noise`` draws them, at most the design's ``stack_rows`` rows, so
a block's (rows, p) arrays stay bounded on wide designs: one stack
product gives every trial's
||X^T z||_inf, and the solvers take the block's observations y = X b* + z
once per penalty. At the penalties the bounds prescribe the estimate is
mostly b = 0, which the solvers settle from one product per block; the
prediction error and off-support masses of b = 0 are computed once per
experiment and reused by every estimate with no nonzero entry. The
noiseless recovery experiment runs in blocks of the same size, one
basis-pursuit call per block.

Bound catalogue (scaling matches the solvers in :mod:`.solve`):

  lasso, lam >= 6 Lambda:
      ||X(b* - b)||_2^2 + (lam - 6 Lambda) ||b_{S^c} - b*_{S^c}||_1
          <= 4 lam (2 lam n + ||b*_{S^c}||_1)
      s-sparse, lam = 6 Lambda:  ||X(b* - b)||_2 <= 24 sqrt(2) sigma sqrt(n log n)
      s-sparse, lam = 7 Lambda:  ||b_{S^c}||_1 <= 392 sqrt(2) sigma n sqrt(log n)

  Dantzig, lam >= Lambda:
      ||X(b* - b)||_2^2 <= 4 (lam + Lambda) (16 (lam + Lambda) n + 3 ||b*_{S^c}||_1)
      s-sparse:                  ||X(b* - b)||_2 <= 8 (lam + Lambda) sqrt(n)
      s-sparse, lam = Lambda:    ||X(b* - b)||_2 <= 32 sigma sqrt(n log n)
      s-sparse:                  ||b_{S^c}||_1 <= 32 (lam + Lambda) n
      s-sparse, lam = Lambda:    ||b_{S^c}||_1 <= 128 sigma n sqrt(log n)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .design import DesignMatrix
from .errors import CapacityError, SolverStatusError, read
from .graphs import random_left_regular
from .noise import NoiseModel, block_rows, thresholds, trial_noise
from .rng import Stream, _words, derive_seed
from .solve import basis_pursuit_rows, dantzig_rows, lasso_rows, ols_on_support, solved
from .verify import VerificationReport, check_expansion_exhaustive

SLACK = 1e-9

SQRT2 = math.sqrt(2.0)

MVSE_SEEDS = 200      # graph seeds mvse_sweep tries per p before skipping it


# ---------------------------------------------------------------------------
# closed-form bounds
# ---------------------------------------------------------------------------

def lasso_oracle_rhs(lam: float, n: int, tail_mass: float) -> float:
    return 4.0 * lam * (2.0 * lam * n + tail_mass)

def lasso_prediction_bound(sigma: float, n: int) -> float:
    return 24.0 * SQRT2 * sigma * math.sqrt(n * math.log(n))

def lasso_selection_bound(sigma: float, n: int) -> float:
    return 392.0 * SQRT2 * sigma * n * math.sqrt(math.log(n))

def dantzig_oracle_rhs(lam: float, lam_noise: float, n: int, tail_mass: float) -> float:
    return 4.0 * (lam + lam_noise) * (16.0 * (lam + lam_noise) * n + 3.0 * tail_mass)

def dantzig_err_pred_bound(lam: float, lam_noise: float, n: int) -> float:
    return 8.0 * (lam + lam_noise) * math.sqrt(n)

def dantzig_prediction_bound(sigma: float, n: int) -> float:
    return 32.0 * sigma * math.sqrt(n * math.log(n))

def dantzig_selection_general_bound(lam: float, lam_noise: float, n: int) -> float:
    return 32.0 * (lam + lam_noise) * n

def dantzig_selection_bound(sigma: float, n: int) -> float:
    return 128.0 * sigma * n * math.sqrt(math.log(n))


def oracle_factors(s: int, p: int, alpha: float, theta: float) -> tuple[float, float]:
    """The explicit optimality factors rho(s, p) and tau(s, p).

    rho = ((1+a) log s + (2+2/a) log(theta log p log s)) s^a (theta log p log s)^(2+2/a)
    tau = s^a (theta log p log s)^(3+3/a)
          * log(s^(1+a) (theta log p log s)^(2+2/a)) / log p
    """
    if not (p > s >= 2):
        raise ValueError("need p > s >= 2")
    if alpha <= 0 or theta <= 0:
        raise ValueError("alpha and theta must be positive")
    a = alpha
    inner = theta * math.log(p) * math.log(s)
    rho = ((1.0 + a) * math.log(s) + (2.0 + 2.0 / a) * math.log(inner)) \
        * s**a * inner ** (2.0 + 2.0 / a)
    tau = s**a * inner ** (3.0 + 3.0 / a) \
        * (math.log(s ** (1.0 + a) * inner ** (2.0 + 2.0 / a)) / math.log(p))
    return rho, tau


# ---------------------------------------------------------------------------
# instances and reports
# ---------------------------------------------------------------------------

def sparse_target(p: int, s: int, seed: int) -> tuple[np.ndarray, list[int]]:
    """Exactly s-sparse target: uniform support, random sign, magnitude
    uniform in [1, 2] (bounded away from zero so support diagnostics mean
    something)."""
    rng = Stream(seed)
    support = rng.sample_without_replacement(p, s)
    beta = np.zeros(p)
    for i in support:
        beta[i] = rng.signed_uniform(1.0, 2.0)
    return beta, support


def compressible_target(p: int, s: int, seed: int) -> tuple[np.ndarray, list[int]]:
    """Power-law target b_i = +/- (i+1)^-2; the s largest magnitudes are the
    first s coordinates, and the tail keeps every ||b*_{S^c}||_1 term of
    the bounds strictly positive. Sign i is ``Stream(seed).sign()``'s i-th
    draw, the top bit of word i; the magnitudes stay Python's ``**``,
    which numpy's power does not match to the last bit."""
    negative = (_words(seed, 0, p) >> np.uint64(63)).astype(bool)
    magnitude = np.array([(i + 1) ** -2.0 for i in range(p)])
    return np.where(negative, -magnitude, magnitude), list(range(s))


@dataclass
class RecoveryInstance:
    design: DesignMatrix
    beta_star: np.ndarray
    kind: str                 # "exact-sparse" | "compressible"
    s: int
    support: list[int]        # indices of the s largest magnitudes
    noise: NoiseModel
    lambda_multiple: float
    seed: int

    @classmethod
    def build(cls, design: DesignMatrix, kind: str, s: int, noise: NoiseModel,
              lambda_multiple: float, seed: int) -> "RecoveryInstance":
        if noise.n != design.n:
            raise ValueError("noise length differs from design rows")
        maker = {"exact-sparse": sparse_target, "compressible": compressible_target}
        if kind not in maker:
            raise ValueError(f"unknown target kind {kind!r}")
        if not 0 <= s <= design.p:
            raise ValueError(f"target sparsity s = {s} is outside [0, p = {design.p}]")
        beta, support = maker[kind](design.p, s, derive_seed(seed, 0))
        return cls(design, beta, kind, s, support, noise, lambda_multiple, seed)

    def offsupport(self, v: np.ndarray) -> float:
        return _offsupport_mass(v, self.support)


def _offsupport_mass(v: np.ndarray, support) -> float:
    mask = np.ones(v.shape[0], dtype=bool)
    mask[support] = False
    return float(np.abs(v[mask]).sum())


@dataclass
class CheckResult:
    name: str
    lhs: float
    rhs: float
    holds: bool


@dataclass
class TrialRecord:
    trial: int
    event: bool
    converged: bool
    pred_error: float
    offsupport_mass: float
    checks: list[CheckResult]


@dataclass
class ExperimentReport:
    kind: str
    params: dict
    records: list[TrialRecord] = field(default_factory=list)

    @property
    def trials(self) -> int:
        return len(self.records)

    @property
    def flagged(self) -> int:
        return sum(1 for r in self.records if not r.converged)

    @property
    def event_frequency(self) -> float:
        if not self.records:
            return 0.0
        return sum(1 for r in self.records if r.event) / len(self.records)

    def check_names(self) -> list[str]:
        return list(self.pass_fractions())

    def pass_fractions(self) -> dict[str, float]:
        """Fraction of event trials (converged only) on which each
        inequality held, by check name in first-seen order; a name never
        checked on such a trial reads 1.0."""
        counts: dict[str, list[int]] = {}
        for r in self.records:
            counted = r.event and r.converged
            for c in r.checks:
                tally = counts.setdefault(c.name, [0, 0])
                if counted:
                    tally[0] += c.holds
                    tally[1] += 1
        return {name: num / den if den else 1.0 for name, (num, den) in counts.items()}

    def all_event_checks_hold(self) -> bool:
        return all(f == 1.0 for f in self.pass_fractions().values())

    def event_bound_ok(self, eta: float) -> bool:
        """Event frequency must clear 1 - eta minus three binomial SEs."""
        if not self.records:
            return False
        se = math.sqrt(max(eta * (1.0 - eta), 0.0) / len(self.records))
        return self.event_frequency >= 1.0 - eta - 3.0 * se

    def csv_rows(self):
        yield ("trial", "check", "event", "converged", "lhs", "rhs", "holds",
               "pred_error", "offsupport_mass")
        for r in self.records:
            for c in r.checks:
                yield (r.trial, c.name, int(r.event), int(r.converged),
                       f"{c.lhs:.17g}", f"{c.rhs:.17g}", int(c.holds),
                       f"{r.pred_error:.17g}", f"{r.offsupport_mass:.17g}")


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _check(name: str, lhs: float, rhs: float, slack: float = SLACK) -> CheckResult:
    return CheckResult(name, lhs, rhs, lhs <= rhs + slack)


def _noise_lambda(sigma: float, n: int) -> float:
    """Lambda = 2 sigma sqrt(log n); 0 for noiseless instances."""
    return thresholds(sigma, n).lam if sigma > 0 else 0.0


def _penalty(instance: RecoveryInstance, floor: float, need: str) -> tuple[float, float]:
    """(lam, Lambda) with lam = lambda_multiple * Lambda. Raises ValueError
    with ``need`` when the multiple is below ``floor`` (NaN included), and
    when lam is not finite."""
    lam_noise = _noise_lambda(instance.noise.sigma, instance.design.n)
    lam = instance.lambda_multiple * lam_noise
    if not instance.lambda_multiple >= floor:
        raise ValueError(need)
    if not math.isfinite(lam):
        raise ValueError(f"lambda = {instance.lambda_multiple} * Lambda is not finite")
    return lam, lam_noise


def _pred_error(X: DesignMatrix, xb: np.ndarray, beta: np.ndarray) -> float:
    return float(np.linalg.norm(xb - X.matvec(beta)))


def _zero_once(f, p: int):
    """f of an estimate, with f(0) computed once here and returned for
    every estimate that has no nonzero entry."""
    at_zero = f(np.zeros(p))
    return lambda beta: f(beta) if np.count_nonzero(beta) else at_zero


def _noisy_blocks(instance: RecoveryInstance, xb: np.ndarray, lam_noise: float,
                  trials: int):
    """Per block of trials drawn together by ``trial_noise`` (trial k
    from (seed, k)), yield (k0, Y, events, sups): the block's first trial,
    its rows y = X b* + z, and per row the event ||X^T z||_inf <= Lambda
    and ||X^T z||_inf, from one stack product."""
    X = instance.design
    k0 = 0
    for Z in trial_noise(instance.noise, instance.seed, trials, X.stack_rows):
        sup = np.max(np.abs(X.transpose_matvec(Z)), axis=1)
        yield k0, xb + Z, (sup <= lam_noise + 1e-12).tolist(), sup.tolist()
        k0 += len(Z)


def _params(estimator: str, instance: RecoveryInstance, lam: float,
            lam_noise: float, trials: int) -> dict:
    X = instance.design
    return {
        "estimator": estimator, "p": X.p, "n": X.n, "d": X.d, "s": instance.s,
        "target": instance.kind, "sigma": instance.noise.sigma,
        "noise": instance.noise.describe(),
        "lambda_multiple": instance.lambda_multiple, "lambda": lam,
        "Lambda": lam_noise, "trials": trials, "seed": instance.seed,
    }


def run_lasso_experiment(instance: RecoveryInstance, trials: int) -> ExperimentReport:
    """Per trial: draw noise, solve the lasso, assert the oracle inequality
    on event trials. Exactly sparse targets additionally get the
    lam = 6 Lambda prediction bound and lam = 7 Lambda selection bound,
    each solved at its own penalty. Each block of trials is solved once
    per penalty (``lasso_rows``); the records are then assembled trial by
    trial, and a trial's solver failure is raised in trial order."""
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
    pred = _zero_once(lambda b: _pred_error(X, xb, b), X.p)
    off = _zero_once(instance.offsupport, X.p)
    off_err = _zero_once(lambda b: instance.offsupport(b - instance.beta_star), X.p)
    order = sorted(lambdas)
    for k0, Y, events, _ in _noisy_blocks(instance, xb, lam_noise, trials):
        block = [lasso_rows(X, Y, lam) for lam in order]
        for r, event in enumerate(events):
            sols = {lam: solved(rows[r]) for lam, rows in zip(order, block)}
            converged = all(s.converged for s in sols.values())

            sol = sols[lam_main]
            gamma_pred = pred(sol.beta)
            checks = [_check("lasso_oracle",
                             gamma_pred**2 + (lam_main - 6.0 * lam_noise) * off_err(sol.beta),
                             lasso_oracle_rhs(lam_main, n, tail))]
            if extras:
                checks.append(_check("lasso_prediction", pred(sols[6.0 * lam_noise].beta),
                                     lasso_prediction_bound(sigma, n)))
                checks.append(_check("lasso_selection", off(sols[7.0 * lam_noise].beta),
                                     lasso_selection_bound(sigma, n)))

            report.records.append(TrialRecord(
                k0 + r, event, converged, gamma_pred, off(sol.beta), checks))
    return report


def run_dantzig_experiment(instance: RecoveryInstance, trials: int) -> ExperimentReport:
    """Per trial: solve the Dantzig selector, assert the oracle inequality,
    and for sparse targets the corollary and consistency bounds; also check
    that the target itself is feasible on every event trial."""
    lam, lam_noise = _penalty(instance, 1.0, "Dantzig experiments need lambda >= Lambda")
    X = instance.design
    sigma, n = instance.noise.sigma, X.n
    tail = instance.offsupport(instance.beta_star)
    # feasibility of the target makes its l1 norm an upper bound
    target_l1 = float(np.abs(instance.beta_star).sum())
    sparse = instance.kind == "exact-sparse"
    at_floor = instance.lambda_multiple == 1.0 and sigma > 0

    report = ExperimentReport("dantzig", _params("dantzig", instance, lam, lam_noise, trials))
    xb = X.matvec(instance.beta_star)
    pred = _zero_once(lambda b: _pred_error(X, xb, b), X.p)
    offsupport = _zero_once(instance.offsupport, X.p)
    for k0, Y, events, sups in _noisy_blocks(instance, xb, lam_noise, trials):
        for k, event, noise_sup, sol in zip(range(k0, k0 + len(Y)), events, sups,
                                            dantzig_rows(X, Y, lam)):
            if isinstance(sol, SolverStatusError):
                report.records.append(TrialRecord(k, event, False, math.nan, math.nan, []))
                continue

            gamma_pred = pred(sol.beta)
            off = offsupport(sol.beta)
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


def require_expander_certificate(X: DesignMatrix, s: int,
                                 certificate: VerificationReport) -> None:
    """Refuse to run recovery claims without a (2s, eps <= 1/8) expansion
    certificate matching this design.

    The match is a necessary check only: (p, n, d) must agree, and the
    witness subset's neighbour count is recounted on X. A certificate of
    another graph of the same shape still passes when its witness subset
    has the same count here; binding it fully needs a graph digest in the
    report, which would change report bytes."""
    w = certificate.witness or {}
    if (certificate.condition != "expansion_exhaustive" or not certificate.ok
            or tuple(read(w, key, int) for key in "pnd") != (X.p, X.n, X.d)
            or read(w, "s", int) < 2 * s or not 0.0 < read(w, "eps", float) <= 0.125 + 1e-12):
        raise ValueError(
            "recovery experiment needs an exhaustive expansion certificate of "
            f"order >= {2 * s} at eps <= 1/8 for this exact design")
    subset = read(w, "subset", list[int])
    if not subset or not all(0 <= i < X.p for i in subset):
        raise ValueError("expansion certificate has no valid witness subset")
    count = len(set(X.rows[subset].ravel().tolist()))
    if count != read(w, "neighbor_count", int):
        raise ValueError(
            f"expansion certificate does not match this design: its witness "
            f"subset {subset} has {w['neighbor_count']} neighbours in the "
            f"certified graph and {count} here")


def run_recovery_experiment(X: DesignMatrix, s: int, trials: int, seed: int,
                            certificate: VerificationReport) -> ExperimentReport:
    """Noiseless basis-pursuit recovery of random s-sparse targets on a
    certified design; records the relative l1 recovery error per trial.

    Trial k's target comes from (seed, k). The trials run one block at a
    time, as many as a noise block holds and at most the design's
    ``stack_rows``: the block's observations y = X b* and prediction
    errors are one stacked product each, its solves one
    ``basis_pursuit_rows`` call. A failed solve is recorded as not converged."""
    require_expander_certificate(X, s, certificate)
    report = ExperimentReport("recovery", {
        "estimator": "basis_pursuit", "p": X.p, "n": X.n, "d": X.d, "s": s,
        "trials": trials, "seed": seed,
    })
    rows = block_rows(X.n, X.stack_rows)
    for k0 in range(0, trials, rows):
        block = range(k0, min(k0 + rows, trials))
        targets = [sparse_target(X.p, s, derive_seed(seed, k)) for k in block]
        ests = basis_pursuit_rows(X, X.matvec([beta for beta, _ in targets]))
        errors = X.matvec([np.zeros(X.p) if isinstance(est, SolverStatusError) else est - beta
                           for est, (beta, _) in zip(ests, targets)])
        for k, (beta, support), est, error in zip(block, targets, ests, errors):
            if isinstance(est, SolverStatusError):
                report.records.append(TrialRecord(k, True, False, math.nan, math.nan, []))
                continue
            denom = float(np.abs(beta).sum())
            err = float(np.abs(est - beta).sum())
            rel = err / denom if denom > 0 else err
            report.records.append(TrialRecord(
                k, True, True, float(np.linalg.norm(error)),
                _offsupport_mass(est, support),
                [_check("exact_recovery", rel, 1e-6, 0.0)]))
    return report


def ols_oracle_comparison(instance: RecoveryInstance, trials: int,
                          include_estimators: bool = False) -> dict:
    """Monte Carlo mean of (1/n) ||X b_ols - X b*||_2^2 for least squares
    on the known support, against its expectation sigma^2 s / n, plus
    informational comparison lines for the l1 estimators (the rho and tau
    lines use alpha = 1 and theta = 8)."""
    X = instance.design
    sigma, n = instance.noise.sigma, X.n
    lam_noise = _noise_lambda(sigma, n)
    ols_sum = lasso_sum = dantzig_sum = 0.0
    xb = X.matvec(instance.beta_star)
    pred = _zero_once(lambda b: _pred_error(X, xb, b), X.p)
    for _, Y, _, _ in _noisy_blocks(instance, xb, lam_noise, trials):
        if include_estimators:
            lassos = lasso_rows(X, Y, 6.0 * lam_noise)
            dantzigs = dantzig_rows(X, Y, lam_noise)
        fits = X.matvec([ols_on_support(X, y, instance.support) for y in Y])
        for r, fit in enumerate(fits):
            ols_sum += float(np.linalg.norm(xb - fit)) ** 2 / n
            if include_estimators:
                lasso_sum += pred(solved(lassos[r]).beta) ** 2 / n
                dantzig_sum += pred(solved(dantzigs[r]).beta) ** 2 / n
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


# ---------------------------------------------------------------------------
# certified-instance search and the selection-error sweep
# ---------------------------------------------------------------------------

def search_certified_graph(p: int, d: int, n_values, s: int, eps: float,
                           max_seeds: int):
    """Scan (n, seed) pairs, seeds 0 .. max_seeds-1, until the exhaustive
    expansion check passes.

    Returns (graph, report, attempts) or (None, None, attempts). Each
    check builds only the subsets that are connected in the collision
    graph, one size at a time, and stops at the first chunk that holds a
    violator: a graph refuted by a pair costs one sort of its neighbor
    table, and a full pass on a graph whose neighbor lists rarely overlap
    costs little more.
    """
    attempts = 0
    for n in n_values:
        for j in range(max_seeds):
            attempts += 1
            g = random_left_regular(p, d, n, j)
            rep = check_expansion_exhaustive(g, s, eps)
            if rep.ok:
                return g, rep, attempts
    return None, None, attempts


def mvse_sweep(ps, s_values, alpha: float, trials: int, seed: int, *,
               sigma: float = 1.0, d: int = 8, n: int = 1536) -> list[dict]:
    """Mean-variable-selection-error proxy across a size sweep.

    For each p in ``ps`` and the s at the same place in ``s_values`` (a p
    may repeat with another s): certify a random design at order 2 s
    exactly, trying up to MVSE_SEEDS seeds, run the lasso at lam = 7 Lambda,
    and report the worst event-trial off-support mass per off-support
    coordinate. Rows
    with 2 s > p, rows that fail construction or certification, and rows
    whose first check past the default budget stops the seed search are
    marked skipped.
    """
    rows = []
    for idx, (p, s) in enumerate(zip(ps, s_values, strict=True)):
        row = {"p": p, "s": s, "d": d, "n": n, "alpha": alpha, "skipped": True,
               "certified": None, "graph_seed": None, "proxy": None, "bound": None}
        if not 1 <= s <= p // 2 or d > n:      # certified at order 2 s <= p
            rows.append(row)
            continue
        for j in range(MVSE_SEEDS):
            gseed = derive_seed(seed, idx * MVSE_SEEDS + j)
            graph = random_left_regular(p, d, n, gseed)
            try:
                if check_expansion_exhaustive(graph, 2 * s, 0.125).ok:
                    row["graph_seed"] = gseed
                    break
            except CapacityError:
                break
        if row["graph_seed"] is None:
            rows.append(row)
            continue
        X = DesignMatrix(graph)
        model = NoiseModel(X.n, sigma)
        inst = RecoveryInstance.build(X, "exact-sparse", s, model, 7.0,
                                      derive_seed(seed, idx))
        rep = run_lasso_experiment(inst, trials)
        denom = p - s
        proxies = [r.offsupport_mass / denom for r in rep.records
                   if r.event and r.converged]
        row.update({
            "skipped": False,
            "certified": "exhaustive",
            "proxy": max(proxies) if proxies else None,
            "bound": lasso_selection_bound(sigma, X.n) / denom,
            "event_trials": len(proxies),
        })
        rows.append(row)
    return rows
